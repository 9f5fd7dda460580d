"""Compare two ``BENCH_<label>.json`` snapshots, metric by metric.

Usage, from the root of a checkout:

    python3 tools/bench_compare.py BENCH_pr14-parent.json BENCH_pr14.json
    python3 tools/bench_compare.py BASE.json CHANGE.json --claim wide-table peak_rss_mb

For each workload and each end-to-end metric of ``BENCHMARK.json``, it
prints the base's and the change's median with their quartiles
``[q1, q3]``, the change in the median, and in how many seed pairs the
change read better or worse; ties count for neither. Both snapshots must
hold the same seeds: each metric's ``values`` are in seed order, so the
runs of one seed make a pair.

Each row ends in a verdict. ``unresolved``: the base's own runs spread,
q3 - q1, wider than the metric's bound, so its median cannot tell a
regression from noise; unless every run of the change reads better than
every run of the base. Else ``worse``: the median moved the wrong way by
more than the bound. Else ``ok``.

Then, per workload, it prints ``failed/attempted`` operations for both
snapshots and whether every run of each was ``correct``. The row reads
``worse`` if the change's share of failed operations is larger than the
base's, or if some run of the change was not correct; else ``ok``.

With ``--claim WORKLOAD METRIC`` it last judges a claimed gain on one
end-to-end metric, by the gain rule: the change reads better in at least
nine tenths of the seed pairs, rounded up, ties counting for neither,
and its median beats the base's by more than the base's q3 - q1. It
prints one line, ``claim WORKLOAD METRIC: met`` or ``not met``, with the
pair count, the delta and that spread.

The script exits 1 if any row is ``worse`` or the claim is not met, and
0 otherwise. It exits 2, comparing nothing, if the snapshots ran
different seeds, if one of them lacks a workload or a metric that
``BENCHMARK.json`` lists, or if the claim names neither.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(base: dict, change: dict, benchmark: dict) -> list[dict]:
    """One row per workload and end-to-end metric: medians, quartiles,
    delta, pair counts and verdict."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1  # > 0: worse
            b = base["workloads"][workload]["metrics"][name]
            c = change["workloads"][workload]["metrics"][name]
            delta = c["median"] - b["median"]
            steps = [sign * (y - x) for x, y in zip(b["values"], c["values"])]
            beats_all = max(sign * v for v in c["values"]) < min(sign * v for v in b["values"])
            if b["q3"] - b["q1"] > bound and not beats_all:
                verdict = "unresolved"
            elif sign * delta > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": bound,
                    "base": b,
                    "change": c,
                    "delta": delta,
                    "gain": -sign * delta,  # > 0: the change's median is better
                    "better": sum(s < 0 for s in steps),
                    "worse": sum(s > 0 for s in steps),
                    "pairs": len(steps),
                    "verdict": verdict,
                }
            )
    return rows


def failures(base: dict, change: dict, benchmark: dict) -> list[dict]:
    """One row per workload: failed and attempted operations and
    correctness on both sides, and verdict."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        b, c = base["workloads"][workload], change["workloads"][workload]
        # c's share of failures above b's, without dividing by zero
        more_failed = c["failed"] * b["attempted"] > b["failed"] * c["attempted"]
        rows.append(
            {
                "workload": workload,
                "base": b,
                "change": c,
                "verdict": "worse" if more_failed or not c["correct"] else "ok",
            }
        )
    return rows


def claim_met(row: dict) -> bool:
    """The gain rule on one row of :func:`compare`: better in at least
    nine tenths of the pairs, and a median gain above the base's q3 - q1."""
    return 10 * row["better"] >= 9 * row["pairs"] and row["gain"] > row["base"]["q3"] - row["base"]["q1"]


def missing(snapshot: dict, benchmark: dict) -> list[str]:
    """The workloads, and end-to-end metrics of a workload, that
    ``benchmark`` lists and ``snapshot`` lacks."""
    lacks = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in snapshot["workloads"]:
            lacks.append(f"workload {workload}")
            continue
        metrics = snapshot["workloads"][workload].get("metrics", {})
        lacks += [f"{workload} {m['name']}" for m in benchmark["end_to_end"] if m["name"] not in metrics]
    return lacks


def _failed(w: dict) -> str:
    return f"{w['failed']}/{w['attempted']}{'' if w['correct'] else ' incorrect'}"


def _spread(m: dict) -> str:
    return f"{m['median']:.3f} [{m['q1']:.3f}, {m['q3']:.3f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, metavar="BASE.json")
    parser.add_argument("change", type=Path, metavar="CHANGE.json")
    parser.add_argument(
        "--claim", nargs=2, metavar=("WORKLOAD", "METRIC"), help="judge a claimed gain on this metric"
    )
    args = parser.parse_args(argv)
    base, change = (json.loads(path.read_text()) for path in (args.base, args.change))
    if base["seeds"] != change["seeds"]:
        parser.error(f"the snapshots ran different seeds: {base['seeds']} and {change['seeds']}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path, snapshot in ((args.base, base), (args.change, change)):
        if lacks := missing(snapshot, benchmark):
            parser.error(f"{path} lacks what BENCHMARK.json lists: {', '.join(lacks)}")
    rows = compare(base, change, benchmark)
    claimed = None
    if args.claim:
        claimed = next((r for r in rows if [r["workload"], r["metric"]] == args.claim), None)
        if claimed is None:
            parser.error(f"--claim {' '.join(args.claim)}: not a workload and end-to-end metric of BENCHMARK.json")
    failed = failures(base, change, benchmark)
    # a snapshot taken outside a git checkout records no commit
    commits = [(snapshot["commit"] or "unknown")[:7] for snapshot in (base, change)]
    print(f"{base['label']} ({commits[0]}) -> {change['label']} ({commits[1]}), seeds {base['seeds']}")
    for r in rows:
        print(
            f"{r['workload']:<12} {r['metric']:<12} {_spread(r['base'])} -> {_spread(r['change'])} {r['unit']}"
            f"  delta {r['delta']:+.3f} (bound {r['bound']})"
            f"  better {r['better']}/{r['pairs']}, worse {r['worse']}/{r['pairs']}  {r['verdict']}"
        )
    for r in failed:
        print(f"{r['workload']:<12} failed       {_failed(r['base'])} -> {_failed(r['change'])}  {r['verdict']}")
    met = True
    if claimed is not None:
        met, r = claim_met(claimed), claimed
        print(
            f"claim {r['workload']} {r['metric']}: {'met' if met else 'not met'}"
            f"  better {r['better']}/{r['pairs']}, delta {r['delta']:+.3f} {r['unit']},"
            f" base IQR {r['base']['q3'] - r['base']['q1']:.3f}"
        )
    return 1 if not met or any(r["verdict"] == "worse" for r in rows + failed) else 0


if __name__ == "__main__":
    sys.exit(main())
