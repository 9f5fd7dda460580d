"""``tools/bench_compare.py`` on the committed snapshots of one change."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_compare.py"
BASE, CHANGE = ROOT / "BENCH_pr14-parent.json", ROOT / "BENCH_pr14.json"


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdicts_on_committed_pair(bench_compare):
    rows = bench_compare.compare(
        json.loads(BASE.read_text()),
        json.loads(CHANGE.read_text()),
        json.loads((ROOT / "BENCHMARK.json").read_text()),
    )
    by_key = {(r["workload"], r["metric"]): r for r in rows}
    assert len(by_key) == len(rows) == 12
    for workload in ("wide-table", "chain-steps"):
        row = by_key[workload, "peak_rss_mb"]
        assert (row["better"], row["worse"], row["pairs"]) == (10, 0, 10)
        assert row["verdict"] == "ok"
    for workload in ("chain-steps", "crosscheck"):
        assert by_key[workload, "wall_s"]["verdict"] == "unresolved"
    assert {r["verdict"] for r in rows} == {"ok", "unresolved"}


def run(*args: Path | str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, timeout=60)


def test_committed_pair_exits_0():
    result = run(BASE, CHANGE)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 + 12 + 4
    assert lines[-4:] == [
        "big-eval     failed       0/1224 -> 0/1272  ok",
        "wide-table   failed       0/1089 -> 0/1034  ok",
        "chain-steps  failed       0/188 -> 0/178  ok",
        "crosscheck   failed       0/140 -> 0/138  ok",
    ]


def test_snapshot_without_commit_reads_unknown(tmp_path):
    change = json.loads(CHANGE.read_text())
    change["commit"] = None  # as written outside a git checkout
    path = tmp_path / "BENCH_no_commit.json"
    path.write_text(json.dumps(change))
    result = run(BASE, path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "-> pr14 (unknown)" in lines[0]
    assert len(lines) == 1 + 12 + 4
    assert all(line.endswith(("ok", "unresolved")) for line in lines[1:])


def test_worse_median_exits_1(tmp_path):
    # every chain-steps run of the change 0.2 MB above the base's median,
    # twice the metric's bound, with the base's quartiles all but equal
    change = json.loads(CHANGE.read_text())
    base_rss = json.loads(BASE.read_text())["workloads"]["chain-steps"]["metrics"]["peak_rss_mb"]
    worse = base_rss["median"] + 0.2
    change["workloads"]["chain-steps"]["metrics"]["peak_rss_mb"].update(
        median=worse, q1=worse, q3=worse, values=[worse] * 10
    )
    path = tmp_path / "BENCH_worse.json"
    path.write_text(json.dumps(change))
    result = run(BASE, path)
    assert result.returncode == 1
    assert any(line.startswith("chain-steps  peak_rss_mb") and line.endswith("worse") for line in result.stdout.splitlines())


def test_different_seeds_are_refused(tmp_path):
    change = json.loads(CHANGE.read_text())
    change["seeds"] = [s + 1 for s in change["seeds"]]
    path = tmp_path / "BENCH_other_seeds.json"
    path.write_text(json.dumps(change))
    result = run(BASE, path)
    assert result.returncode == 2
    assert "different seeds" in result.stderr


@pytest.mark.parametrize(
    "side,drop,lacks",
    [
        ("base", ("crosscheck",), "workload crosscheck"),
        ("change", ("wide-table", "metrics", "peak_rss_mb"), "wide-table peak_rss_mb"),
    ],
)
def test_snapshot_missing_a_listed_workload_or_metric_is_refused(tmp_path, side, drop, lacks):
    # a usage error, not a traceback: exit 1 would read as a worse verdict
    snapshots = {"base": json.loads(BASE.read_text()), "change": json.loads(CHANGE.read_text())}
    parent = snapshots[side]["workloads"]
    for key in drop[:-1]:
        parent = parent[key]
    del parent[drop[-1]]
    path = tmp_path / f"BENCH_{side}_lacking.json"
    path.write_text(json.dumps(snapshots[side]))
    paths = {"base": BASE, "change": CHANGE, side: path}
    result = run(paths["base"], paths["change"])
    assert result.returncode == 2, result.stderr
    assert f"{path} lacks what BENCHMARK.json lists: {lacks}" in result.stderr
    assert "Traceback" not in result.stderr


def test_failed_run_exits_1(tmp_path):
    # one run of the change's crosscheck failed an operation: a larger
    # share of failures than the base's none, and not correct
    change = json.loads(CHANGE.read_text())
    change["workloads"]["crosscheck"].update(failed=1, correct=False)
    path = tmp_path / "BENCH_failed.json"
    path.write_text(json.dumps(change))
    result = run(BASE, path)
    assert result.returncode == 1
    assert "crosscheck   failed       0/140 -> 1/138 incorrect  worse" in result.stdout.splitlines()
    assert all(line.endswith("ok") for line in result.stdout.splitlines()[-4:-1])


def test_failure_share_and_correctness_decide_the_verdict(bench_compare):
    base, change = json.loads(BASE.read_text()), json.loads(CHANGE.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    def verdict(failed: int, attempted: int, correct: bool = True) -> str:
        change["workloads"]["crosscheck"].update(failed=failed, attempted=attempted, correct=correct)
        rows = bench_compare.failures(base, change, benchmark)
        return {r["workload"]: r["verdict"] for r in rows}["crosscheck"]

    base["workloads"]["crosscheck"].update(failed=1, attempted=100)
    assert verdict(2, 200) == "ok"  # the same share
    assert verdict(1, 150) == "ok"  # a smaller share
    assert verdict(2, 150) == "worse"
    assert verdict(0, 100, correct=False) == "worse"


@pytest.mark.parametrize(
    "claim,code,line",
    [
        (("wide-table", "peak_rss_mb"), 0, "claim wide-table peak_rss_mb: met  better 10/10, delta -2.743 MB, base IQR 0.000"),
        (("big-eval", "wall_s"), 1, "claim big-eval wall_s: not met  better 3/10, delta +0.022 s, base IQR 0.042"),
    ],
)
def test_claim_on_committed_pair(claim, code, line):
    result = run(BASE, CHANGE, "--claim", *claim)
    assert result.returncode == code, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 + 12 + 4 + 1
    assert lines[-1] == line


def test_claim_needs_nine_tenths_of_pairs_and_a_gain_above_the_base_iqr(bench_compare):
    def row(better: int, pairs: int, gain: float) -> dict:
        return {"better": better, "pairs": pairs, "gain": gain, "base": {"q1": 1.0, "q3": 1.5}}

    assert bench_compare.claim_met(row(9, 10, 0.6))
    assert not bench_compare.claim_met(row(8, 10, 0.6))
    assert bench_compare.claim_met(row(10, 11, 0.6))  # 9.9 pairs, rounded up
    assert not bench_compare.claim_met(row(9, 11, 0.6))
    assert not bench_compare.claim_met(row(10, 10, 0.5))  # a gain equal to the IQR
    assert not bench_compare.claim_met(row(10, 10, -0.6))


@pytest.mark.parametrize("claim", [("wide-table", "cli.import_s"), ("no-such", "wall_s")])
def test_claim_outside_benchmark_is_refused(claim):
    result = run(BASE, CHANGE, "--claim", *claim)
    assert result.returncode == 2
    assert "not a workload and end-to-end metric of BENCHMARK.json" in result.stderr
