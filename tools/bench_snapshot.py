"""Snapshot the benchmark of one or more checkouts into ``BENCH_<label>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_snapshot.py parent=../parent change=. --seeds 1 2 3 4 5

Each ``LABEL=CHECKOUT`` names a checkout to measure. For every seed and
workload the script runs ``perfbench/run.py --trace 0`` once in each
checkout, as a subprocess, alternating which checkout goes first from one
seed to the next, so that drift in the host's load falls on all checkouts
alike. It then runs one ``--trace 1`` pass per workload and checkout, on
the first seed, for the per-layer figures. Each run's result is its last
line of stdout; a traced run's line before it carries the layer coverage.

Every run lasts ``run_seconds`` of ``BENCHMARK.json`` and every workload it
lists is run, so that all snapshots are comparable. ``BENCH_<label>.json``,
written to the root of this checkout, holds, per workload and metric, the
value of every run in seed order, its median, quartiles and run count, next
to the seeds, the checkout's commit, the Python version, the CPU count,
the load average before and after, and the values of the environment
variables in ``RECORDED_ENV`` (null where unset), which every run inherits.
The script changes nothing in the checkouts it measures except perfbench's
own ``.perfbench_out/`` records.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment that moves the metrics without changing the code run.
#: ``PYTHONUNBUFFERED`` decides whether each report part is its own system
#: call; ``PYTHONDONTWRITEBYTECODE`` makes every call compile cbsum from
#: source, which shifts ``peak_rss_mb`` with the layout of the sources.
RECORDED_ENV = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE")


def perfbench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run: its result line and the summary line before it."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_snapshot: {' '.join(argv[1:])} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "values": values}


def commit_of(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sides", nargs="+", metavar="LABEL=CHECKOUT")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    sides: dict[str, Path] = {}
    for side in args.sides:
        label, sep, checkout = side.partition("=")
        if not sep or not (Path(checkout) / "perfbench" / "run.py").is_file():
            parser.error(f"{side!r}: expected LABEL=CHECKOUT, a checkout holding perfbench/run.py")
        sides[label] = Path(checkout).resolve()

    loadavg_before = list(os.getloadavg())
    results: dict[str, dict[str, list[dict]]] = {label: {w: [] for w in workloads} for label in sides}
    for i, seed in enumerate(args.seeds):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for label in order:
                result, _ = perfbench_run(sides[label], workload, seed, seconds, trace=0)
                results[label][workload].append(result)
                wall, failed = result["metrics"]["wall_s"]["value"], result["failed"]
                print(f"{label} {workload} seed {seed}: wall_s {wall:.3f}, failed {failed}", flush=True)
    traces: dict[str, dict[str, dict]] = {label: {} for label in sides}
    for workload in workloads:
        for label in sides:
            result, summary = perfbench_run(sides[label], workload, args.seeds[0], seconds, trace=1)
            traces[label][workload] = {
                "seed": args.seeds[0],
                "correct": result["correct"],
                "failed": result["failed"],
                "missing_targets": summary["missing_targets"],
                "all_layers_reached": summary["all_layers_reached"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
    loadavg_after = list(os.getloadavg())

    for label, checkout in sides.items():
        snapshot = {
            "label": label,
            "commit": commit_of(checkout),
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "loadavg_before": loadavg_before,
            "loadavg_after": loadavg_after,
            "env": {name: os.environ.get(name) for name in RECORDED_ENV},
            "seconds": seconds,
            "seeds": args.seeds,
            "interleaved_with": [other for other in sides if other != label],
            "workloads": {
                workload: {
                    "attempted": sum(r["attempted"] for r in runs),
                    "failed": sum(r["failed"] for r in runs),
                    "correct": all(r["correct"] for r in runs),
                    "metrics": {
                        name: {"unit": metric["unit"], **summarize([r["metrics"][name]["value"] for r in runs])}
                        for name, metric in runs[0]["metrics"].items()
                    },
                    "trace": traces[label][workload],
                }
                for workload, runs in results[label].items()
            },
        }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(snapshot, indent=1) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
