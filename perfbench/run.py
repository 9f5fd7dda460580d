"""Benchmark of the ``cbsum`` CLI on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload big-eval --seed 1 --seconds 30 --trace 0

``--trace 0`` times the CLI as a subprocess, ``sys.executable -m cbsum.cli``
with ``PYTHONPATH=<checkout>/src``, and reports the end-to-end metrics:

* ``wall_s``: median wall time of one pass of the workload's invocations,
  from process start to exit;
* ``setup_s``: median wall time of the no-work ``eval --n 0 --format json``
  (interpreter start, imports, parsing);
* ``peak_rss_mb``: median over passes of the largest peak resident set of an
  invocation, pool workers included (``os.wait4`` rusage).

``--trace 1`` runs the same invocations in-process with every public
function of ``cbsum`` wrapped (see ``spans.py``) and reports the per-layer
metrics. Every report is checked against an oracle computed from
``math.comb``; failed invocations count in ``failed``. The last line of
stdout is the result object; the line before it, and a file under
``.perfbench_out/``, record the seed, the argv of every invocation, the
samples and the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads
from workloads import Call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Every run ends (result printed) within this many seconds of its start.
RUN_CUTOFF_S = 150.0
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 7

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cbsum.cli; "
    "d = time.perf_counter() - t; print(d, cbsum.cli.__file__)"
)


@dataclass
class Outcome:
    argv: tuple[str, ...]
    wall_s: float
    peak_rss_mb: float
    returncode: int | None
    stdout: str
    stderr: str
    timed_out: bool
    failure: str | None = None

    def record(self) -> dict:
        return {
            "argv": list(self.argv),
            "wall_s": self.wall_s,
            "peak_rss_mb": self.peak_rss_mb,
            "returncode": self.returncode,
            "failure": self.failure,
        }


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CBSUM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv: list[str], timeout: float) -> Outcome:
    """Run ``python argv`` to exit through ``launch.py``, which times it and
    takes its peak memory from wait4; kill its process group on timeout."""
    report_r, report_w = os.pipe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(LAUNCHER), str(report_w), sys.executable, *argv],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        pass_fds=(report_w,), start_new_session=True,
    )
    os.close(report_w)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 0.1))
        timed_out = False
    except subprocess.TimeoutExpired:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        timed_out = True
    with os.fdopen(report_r) as report_file:
        report = report_file.read()
    if report:
        measured = json.loads(report)
    else:
        measured = {"wall_s": time.perf_counter() - start, "peak_rss_mb": 0.0, "returncode": None}
    return Outcome(
        tuple(argv), measured["wall_s"], measured["peak_rss_mb"], measured["returncode"],
        stdout.decode(errors="replace"), stderr.decode(errors="replace"), timed_out,
    )


def _timeout(deadline: float) -> float:
    return min(60.0, deadline - time.perf_counter())


def run_call(call: Call, expected, deadline: float) -> Outcome:
    outcome = invoke(["-m", "cbsum.cli", *call.argv], _timeout(deadline))
    outcome.argv = ("cbsum", *call.argv)
    outcome.failure = workloads.check(
        call, expected, outcome.returncode, outcome.stdout, outcome.stderr, outcome.timed_out
    )
    return outcome


def import_probe(deadline: float) -> float:
    """Seconds to import ``cbsum.cli`` in a fresh interpreter; exits if the
    package that loads is not the checkout's own."""
    outcome = invoke(["-c", IMPORT_PROBE], _timeout(deadline))
    try:
        seconds, where = outcome.stdout.split()
    except ValueError:
        sys.exit(f"perfbench: cannot import cbsum.cli from {SRC}:\n{outcome.stderr}")
    if not Path(where).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cbsum.cli loads from {where}, not from {SRC}")
    return float(seconds)


def environment() -> dict:
    commit = None  # a checkout without .git is identified by source_sha256 alone
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


# --- end to end -------------------------------------------------------------

def end_to_end(calls: list[Call], expected: list, seconds: float, cutoff: float) -> tuple[dict, list[Outcome], dict]:
    setup_expected = workloads.expected_rows(workloads.SETUP_CALL)
    import_probe(cutoff)  # also warms the bytecode and file caches
    outcomes = [run_call(workloads.SETUP_CALL, setup_expected, cutoff) for _ in range(SETUP_SAMPLES)]
    setup = [o.wall_s for o in outcomes]
    walls: list[float] = []
    rss: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        passed = [run_call(call, exp, cutoff) for call, exp in zip(calls, expected)]
        outcomes += passed
        walls.append(sum(o.wall_s for o in passed))
        rss.append(max(o.peak_rss_mb for o in passed))
        projected = time.perf_counter() + statistics.median(walls)
        if projected > deadline or cutoff - time.perf_counter() < 2 * max(walls):
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}
    return metrics, outcomes, samples


# --- traced -----------------------------------------------------------------

def run_in_process(call: Call, expected, tracer: spans.Tracer | None = None) -> Outcome:
    """Run ``call`` through the imported CLI, optionally inside a root span."""
    from cbsum.cli import main

    def cli() -> int:
        try:
            main.main(args=list(call.argv), prog_name="cbsum", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        return 0

    stdout, stderr = io.StringIO(), ""
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        try:
            code = tracer.span(spans.ROOT_SPAN, cli) if tracer else cli()
        except Exception:
            code, stderr = 1, traceback.format_exc()
    wall = time.perf_counter() - start
    outcome = Outcome(("cbsum", *call.argv), wall, 0.0, code, stdout.getvalue(), stderr, False)
    outcome.failure = workloads.check(call, expected, code, outcome.stdout, stderr)
    return outcome


def load_cbsum() -> None:
    """Import the checkout's ``cbsum.cli`` (and so every module the tracer wraps)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cbsum.cli

    if not Path(cbsum.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: cbsum.cli loads from {cbsum.cli.__file__}, not from {SRC}")


def traced(workload: str, calls: list[Call], expected: list, seconds: float, cutoff: float):
    imports = [import_probe(cutoff) for _ in range(IMPORT_SAMPLES)]
    load_cbsum()

    serial_calls = [workloads.serial(call) for call in calls]
    outcomes: list[Outcome] = []
    passes: list[dict[str, float]] = []
    same_stdout = True
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        with spans.Tracer(spans.RUNNERS) as stopwatch:
            plain = [run_in_process(c, e) for c, e in zip(serial_calls, expected)]
        with spans.Tracer() as tracer:
            traced_out = [run_in_process(c, e, tracer) for c, e in zip(serial_calls, expected)]
        outcomes += plain + traced_out
        for call, a, b in zip(serial_calls, plain, traced_out):
            same_stdout &= workloads.mask_durations(a.stdout, call.fmt) == workloads.mask_durations(b.stdout, call.fmt)
        metrics = spans.layer_metrics(tracer)
        untraced_wall = sum(o.wall_s for o in plain)
        metrics["trace.overhead_frac"] = sum(o.wall_s for o in traced_out) / untraced_wall - 1
        metrics["runs.pool_speedup"] = 0.0
        if serial_calls != calls:
            # the workload's own --jobs setting, untraced, against the serial pass
            with spans.Tracer(spans.RUNNERS) as pooled:
                outcomes += [run_in_process(c, e) for c, e in zip(calls, expected)]
            metrics["runs.pool_speedup"] = stopwatch.busy_s("runs") / pooled.busy_s("runs")
        passes.append(metrics)
        took = time.perf_counter() - started
        if time.perf_counter() + took > deadline or cutoff - time.perf_counter() < 2 * took:
            break
    metrics = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    metrics["cli.import_s"] = statistics.median(imports)
    layer_calls = spans.layer_calls(tracer)
    reached = all(layer_calls[layer] > 0 for layer in spans.LAYERS_USED[workload])
    info = {
        "passes": len(passes),
        "layer_calls": layer_calls,
        "all_layers_reached": reached,
        "traced_stdout_identical": same_stdout,
        "missing_targets": tracer.missing,
        "cli_import_s_samples": imports,
    }
    return metrics, outcomes, info, tracer, same_stdout and reached


# --- main -------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cbsum" / "cli.py").is_file():
        print(f"perfbench: no cbsum sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    cutoff = time.perf_counter() + RUN_CUTOFF_S
    calls = workloads.workload_calls(args.workload, args.seed)
    expected = [workloads.expected_rows(call) for call in calls]  # untimed
    healthy = True
    if args.trace:
        metrics, outcomes, info, tracer, healthy = traced(args.workload, calls, expected, args.seconds, cutoff)
    else:
        metrics, outcomes, samples = end_to_end(calls, expected, args.seconds, cutoff)
        info = {"samples": samples}

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    failures = [o.failure for o in outcomes if o.failure]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": [list(("cbsum", *call.argv)) for call in calls],
        "environment": environment(),
        "failed_frac": len(failures) / len(outcomes),
        "failure_kinds": {kind: failures.count(kind) for kind in workloads.FAILURE_KINDS},
        **info,
        "invocations": [o.record() for o in outcomes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with (OUT / f"{stem}.spans.jsonl").open("w") as out:
            for span in tracer.spans:
                out.write(json.dumps(span.__dict__) + "\n")
    summary = {k: v for k, v in record.items() if k != "invocations"}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": healthy and not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
