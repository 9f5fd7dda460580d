"""Self-tests of the benchmark: its checker, its trace and its refusal to run
outside a checkout. Run from the checkout root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from unittest import mock

import pytest

import run
import spans
import workloads
from workloads import Call

run.load_cbsum()

STEPS = Call(("steps", "--range", "2..4", "--jobs", "1", "--format", "json"), "steps", (2, 3, 4), "json")
VERIFY = Call(("verify", "--range", "3..5", "--format", "csv"), "verify", (3, 4, 5), "csv")


def _check(call: Call, stdout: str, returncode: int = 0, stderr: str = "") -> str | None:
    return workloads.check(call, workloads.expected_rows(call), returncode, stdout, stderr)


def _report(call: Call) -> str:
    outcome = run.run_in_process(call, workloads.expected_rows(call))
    assert outcome.returncode == 0 and outcome.failure is None
    return outcome.stdout


@pytest.mark.parametrize("call", [STEPS, VERIFY], ids=["json", "csv"])
def test_genuine_report_passes(call):
    assert _check(call, _report(call)) is None


def test_flipped_digest_is_wrong():
    payload = json.loads(_report(STEPS))
    row = payload["results"][4]
    row["rhs_digest"] = ("0" if row["rhs_digest"][0] != "0" else "1") + row["rhs_digest"][1:]
    assert _check(STEPS, json.dumps(payload)) == "wrong"


def test_tampered_printed_value_is_wrong():
    table = Call(("table", "--range", "1..3", "--format", "csv"), "table", (1, 2, 3), "csv")
    text = _report(table)
    assert "\n2,288," in text  # S(2) = 288, printed in full beside its digest
    assert _check(table, text.replace("\n2,288,", "\n2,289,")) == "wrong"


@pytest.mark.parametrize("call", [STEPS, VERIFY], ids=["json", "csv"])
def test_dropped_row_is_vacuous(call):
    text = _report(call)
    if call.fmt == "json":
        payload = json.loads(text)
        del payload["results"][-1]
        text = json.dumps(payload)
    else:
        text = "\n".join(text.splitlines()[:-1]) + "\n"
    assert _check(call, text) == "vacuous"


def test_skipped_row_is_vacuous():
    # a genuine skip: the naive strategy is cut off above n = 4
    cut = Call(VERIFY.argv + ("--naive-cutoff", "4"), "verify", VERIFY.ns, "csv")
    outcome = run.run_in_process(cut, workloads.expected_rows(cut))
    assert outcome.returncode == 0 and ",skipped," in outcome.stdout
    assert outcome.failure == "vacuous"


def test_claimed_failure_is_mismatch():
    payload = json.loads(_report(STEPS))
    payload["results"][0]["equal"] = False
    payload["all_passed"] = False
    assert _check(STEPS, json.dumps(payload), returncode=1) == "mismatch"


def test_exit_1_traceback_is_crash():
    from cbsum import identity

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    with mock.patch.dict(identity.EVALUATORS, {identity.Strategy.NAIVE: out_of_memory}):
        outcome = run.run_in_process(VERIFY, workloads.expected_rows(VERIFY))
    assert outcome.returncode == 1 and "MemoryError" in outcome.stderr
    assert outcome.failure == "crash"


def test_unparseable_report_is_crash():
    assert _check(STEPS, "not json") == "crash"


def test_timeout_is_timeout():
    outcome = run.invoke(["-c", "import time; time.sleep(30)"], timeout=0.5)
    assert outcome.timed_out
    assert workloads.check(STEPS, {}, outcome.returncode, outcome.stdout, outcome.stderr, outcome.timed_out) == "timeout"


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.workload_calls(name, 7) == workloads.workload_calls(name, 7)
    assert workloads.workload_calls("big-eval", 7) != workloads.workload_calls("big-eval", 8)
    for seed in range(50):
        ns = [call.ns[0] for call in workloads.workload_calls("big-eval", seed)]
        assert all(100_000 <= n <= 140_000 for n in ns)


def test_tracer_restores_every_binding():
    from cbsum import chain, identity

    before = (chain.pascal_row, identity.pascal_row, dict(identity.EVALUATORS))
    with spans.Tracer() as tracer:
        assert chain.pascal_row is identity.pascal_row is not before[0]
    assert (chain.pascal_row, identity.pascal_row, dict(identity.EVALUATORS)) == before
    assert not tracer.missing


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_trace_keeps_stdout_and_reaches_every_layer(workload):
    calls = workloads.workload_calls(workload, 0)
    expected = [workloads.expected_rows(call) for call in calls]
    cutoff = time.perf_counter() + run.RUN_CUTOFF_S
    metrics, outcomes, info, _, healthy = run.traced(workload, calls, expected, 0, cutoff)
    assert info["traced_stdout_identical"]
    assert info["all_layers_reached"], info["layer_calls"]
    assert healthy and not any(o.failure for o in outcomes)
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in listed} == set(metrics)


def test_refuses_to_run_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide-table", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert result.returncode != 0
    assert result.stdout == ""
