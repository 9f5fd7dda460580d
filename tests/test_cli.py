"""End-to-end tests of the command-line interface and its report formats."""
from __future__ import annotations

import contextlib
import csv
import decimal
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import cbsum
from cbsum import chain, cli, combinatorics, digests, identity, report, runs
from cbsum.bench import MAX_EVAL_N, MAX_REPETITIONS
from cbsum.chain import CHAIN_COMPARISONS, StepId
from cbsum.cli import NRange, main
from cbsum.identity import Strategy

from oracle import closed_form_by_comb
from test_digests import reference_str
from test_golden import mask_durations


@pytest.fixture
def runner():
    return CliRunner()


def rows_from_csv(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def assert_usage_error(argv: list[str], *fragments: str, env: dict[str, str] | None = None) -> None:
    """``argv`` exits 2 with each of ``fragments`` in its message, and
    raises click.UsageError with that message when the CLI is embedded."""
    result = CliRunner().invoke(main, argv, env=env)
    assert result.exit_code == 2, result.output
    with mock.patch.dict(os.environ, env or {}):
        with pytest.raises(click.UsageError) as raised:
            main.main(argv, standalone_mode=False)
    for fragment in fragments:
        assert fragment in result.output
        assert fragment in raised.value.format_message()


class TestParseRange:
    def test_forms(self):
        assert NRange().convert("0..50", None, None) == (0, 50)
        assert NRange().convert("7", None, None) == (7, 7)
        # a value click has converted already comes back as it is
        assert NRange().convert((3, 4), None, None) == (3, 4)

    @pytest.mark.parametrize("bad", ["abc", "5..2", "-3..4", "1..x", "", "1.."])
    def test_rejects_malformed(self, bad):
        for command in ("verify", "steps", "bench", "table"):
            assert_usage_error([command, "--range", bad], "Invalid value for '--range'")

    def test_bench_range_of_one_is_bench_n(self, runner):
        argv = ["--repetitions", "2", "--format", "json"]
        by_range = runner.invoke(main, ["bench", "--range", "4", *argv])
        by_n = runner.invoke(main, ["bench", "--n", "4", *argv])
        assert by_range.exit_code == by_n.exit_code == 0, by_range.output
        assert mask_durations(by_range.output) == mask_durations(by_n.output)


def test_version_matches_package_and_pyproject(runner):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    # read from the package itself: a checkout on PYTHONPATH has no
    # installed metadata to look the version up in
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output.split()[-1] == cbsum.__version__ == declared


class TestEval:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (["eval", "--n", "1", "--strategy", "closed-form"], "8"),
            (["eval", "--n", "0", "--strategy", "naive"], "0"),
            (["eval", "--n", "2", "--strategy", "symmetrized"], "288"),
        ],
    )
    def test_prints_decimal(self, runner, args, expected):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.output.strip() == expected

    def test_invalid_size_is_usage_error(self):
        assert_usage_error(["eval", "--n", "-1"], "Invalid value for '--n'", f"0<=x<={MAX_EVAL_N}")

    @pytest.mark.parametrize("n", [1499, 1500, 1501, 8191, 20000])
    def test_value_matches_oracle_across_decimal_switch(self, runner, n):
        # from the prime kernel's crossover (1500) on, S(n) is built in
        # decimal arithmetic; 8191 is the first n whose int value would
        # need the divide and conquer
        result = runner.invoke(main, ["eval", "--n", str(n), "--format", "json"])
        assert result.exit_code == 0, result.output
        (row,) = json.loads(result.output)["results"]
        text = reference_str(closed_form_by_comb(n))
        assert row["digest"] == hashlib.sha256(text.encode()).hexdigest()
        assert row["digits"] == len(text)

    def test_large_value_is_built_in_decimal_not_converted(self, runner, monkeypatch):
        # S(20000) has about 24000 digits: as an int it would need the divide and conquer
        def refuse(value):
            raise AssertionError("eval converted an int to decimal")

        monkeypatch.setattr(digests, "_divide_and_conquer", refuse)
        result = runner.invoke(main, ["eval", "--n", "20000", "--format", "json"])
        assert result.exit_code == 0, result.output

    def test_caller_decimal_context_is_neither_read_nor_changed(self, capsys):
        with decimal.localcontext() as caller:
            caller.prec = 5
            before = repr(caller)
            assert main.main(["eval", "--n", "20000", "--format", "json"], standalone_mode=False) == 0
            assert decimal.getcontext() is caller
            assert repr(caller) == before
        (row,) = json.loads(capsys.readouterr().out)["results"]
        assert row["digest"] == hashlib.sha256(reference_str(closed_form_by_comb(20000)).encode()).hexdigest()

    def test_json_shape(self, runner):
        result = runner.invoke(main, ["eval", "--n", "3", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"config", "results", "all_passed"}
        assert payload["all_passed"] is True
        (row,) = payload["results"]
        assert row["value"] == "7200"
        assert row["digits"] == 4

    def test_digest_threshold_suppresses_decimal(self, runner):
        result = runner.invoke(
            main, ["eval", "--n", "50", "--digest-threshold", "10"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("sha256:")
        assert "digits=" in result.output

    def test_full_decimal_overrides_threshold(self, runner):
        result = runner.invoke(
            main,
            ["eval", "--n", "50", "--digest-threshold", "10", "--full-decimal"],
        )
        assert result.exit_code == 0
        value = result.output.strip()
        assert value.isdigit() and len(value) > 10


class TestVerify:
    def test_range_passes(self, runner):
        result = runner.invoke(main, ["verify", "--range", "0..50"])
        assert result.exit_code == 0
        assert "all values agree" in result.output

    def test_singleton_range_passes(self, runner):
        result = runner.invoke(main, ["verify", "--range", "0..0"])
        assert result.exit_code == 0

    def test_corrupted_evaluator_detected(self, runner, monkeypatch):
        def corrupt(n):
            return 2 * n**2  # drops the squared central coefficient

        monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, corrupt)
        result = runner.invoke(main, ["verify", "--range", "0..3"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output
        assert "n=1" in result.output  # pinpoints the first failing size

    def test_mismatch_report_carries_both_digests(self, runner, monkeypatch):
        def corrupt(n):
            return 41

        monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, corrupt)
        result = runner.invoke(
            main, ["verify", "--range", "2..2", "--format", "csv"]
        )
        assert result.exit_code == 1
        rows = rows_from_csv(result.output)
        # NAIVE is the reference here, so the disagreement surfaces on the
        # rows compared against it
        symmetrized = next(r for r in rows if r["step_or_strategy"] == "SYMMETRIZED")
        assert symmetrized["equal"] == "false"
        assert symmetrized["lhs_digest"] != symmetrized["rhs_digest"]

    def test_naive_cutoff_skips_with_marker(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--range", "30..31", "--naive-cutoff", "10", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        naive_rows = [r for r in rows if r["step_or_strategy"] == "NAIVE"]
        assert [r["equal"] for r in naive_rows] == ["skipped", "skipped"]

    def test_csv_and_json_are_value_equivalent(self, runner):
        argv = ["verify", "--range", "0..5"]
        as_csv = runner.invoke(main, argv + ["--format", "csv"])
        as_json = runner.invoke(main, argv + ["--format", "json"])
        assert as_csv.exit_code == as_json.exit_code == 0
        csv_rows = rows_from_csv(as_csv.output)
        json_rows = json.loads(as_json.output)["results"]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert int(c["n"]) == j["n"]
            assert c["step_or_strategy"] == j["step_or_strategy"]
            assert c["lhs_digest"] == j["lhs_digest"]
            assert c["rhs_digest"] == j["rhs_digest"]
            assert c["equal"] == str(j["equal"]).lower()
            # durations are fresh measurements per run; only their presence
            # is part of the shared shape
            assert int(c["duration_ns"]) > 0 and j["duration_ns"] > 0

    def test_parallel_output_matches_serial(self, runner):
        argv = ["verify", "--range", "0..10", "--format", "csv"]
        serial = runner.invoke(main, argv + ["--jobs", "1"])
        parallel = runner.invoke(main, argv + ["--jobs", "2"])
        assert serial.exit_code == parallel.exit_code == 0
        strip = lambda out: [row[:4] for row in csv.reader(io.StringIO(out))]
        # everything except the timing column must be identical
        assert strip(serial.output) == strip(parallel.output)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--range", "0..3", "--strategy", "closed-form"],
            # naive is skipped at n = 3500, above the default cutoff
            ["verify", "--range", "3500..3500", "--strategy", "naive", "--strategy", "closed-form"],
        ],
    )
    def test_fewer_than_two_measured_strategies_is_usage_error(self, argv):
        assert_usage_error(argv, "verify needs 2 strategies measured at every n", "only 1 would be")

    def test_strategy_order_is_canonical(self, runner):
        argv = ["verify", "--range", "0..2", "--format", "json"]
        forward = runner.invoke(main, argv + ["--strategy", "naive", "--strategy", "closed-form"])
        backward = runner.invoke(main, argv + ["--strategy", "closed-form", "--strategy", "naive"])
        assert forward.exit_code == backward.exit_code == 0
        assert mask_durations(forward.output) == mask_durations(backward.output)
        assert json.loads(backward.output)["config"]["strategies"] == ["NAIVE", "CLOSED_FORM"]

    def test_jobs_env_var_sets_jobs(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--range", "0..3", "--format", "json"],
            env={"CBSUM_JOBS": "2"},
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["config"]["jobs"] == 2


class TestSteps:
    def test_range_passes(self, runner):
        result = runner.invoke(main, ["steps", "--range", "1..20"])
        assert result.exit_code == 0
        assert "every step holds" in result.output

    def test_single_n_emits_seven_rows(self, runner):
        result = runner.invoke(
            main, ["steps", "--range", "1..1", "--format", "csv"]
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert len(rows) == 7
        assert all(r["equal"] == "true" for r in rows)

    def test_zero_is_usage_error_naming_constraint(self):
        assert_usage_error(["steps", "--range", "0..5"], "Invalid value for '--range'", "2n(2n-1)")

    def test_step_filter(self, runner):
        result = runner.invoke(
            main,
            ["steps", "--range", "1..3", "--step", "L7_CLOSED", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert len(rows) == 3
        assert {r["step_or_strategy"] for r in rows} == {"L7_CLOSED"}

    @pytest.mark.parametrize("step", ["L3_FOLDED", "X_FINISH", "L2_ABSORBED"])
    def test_step_runs_only_the_lines_it_reads(self, monkeypatch, step):
        def raises(name):
            def evaluate(n):
                raise RuntimeError(f"{name} evaluated")

            return evaluate

        monkeypatch.setattr(chain, "evaluate_naive", raises("naive"))
        monkeypatch.setattr(chain, "evaluate_symmetrized", raises("symmetrized"))
        argv = ["steps", "--range", "1..6", "--step", step]
        if step == "L2_ABSORBED":  # reads L1 and L2, never L0
            with pytest.raises(RuntimeError, match="symmetrized evaluated"):
                main.main(argv, standalone_mode=False)
        else:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert main.main(argv, standalone_mode=False) == 0


class TestBench:
    def test_record_count_csv(self, runner):
        result = runner.invoke(
            main,
            ["bench", "--n", "10", "--repetitions", "3", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert len(rows) == 9
        assert {r["equal"] for r in rows} == {"true"}

    def test_most_repetitions_run(self, runner):
        argv = ["bench", "--n", "0", "--strategy", "closed-form", "--repetitions", str(MAX_REPETITIONS)]
        result = runner.invoke(main, argv + ["--format", "csv"])
        assert result.exit_code == 0, result.output
        assert len(rows_from_csv(result.output)) == MAX_REPETITIONS

    def test_requires_exactly_one_target(self):
        for argv in (["bench"], ["bench", "--n", "3", "--range", "1..2"]):
            assert_usage_error(argv, "provide exactly one of --n or --range")

    def test_skip_marker_in_csv(self, runner):
        result = runner.invoke(
            main,
            [
                "bench",
                "--n", "40",
                "--naive-cutoff", "10",
                "--repetitions", "1",
                "--format", "csv",
            ],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        naive = next(r for r in rows if r["step_or_strategy"] == "NAIVE")
        assert naive["equal"] == "skipped"
        assert naive["lhs_digest"] == ""

    def test_digest_mismatch_fails_loudly(self, runner, monkeypatch):
        real = identity.evaluate_closed_form
        calls = {"count": 0}

        def flaky(n):
            calls["count"] += 1
            value = real(n)
            if calls["count"] == 2:  # second repetition silently corrupted
                return value + 1
            return value

        monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, flaky)
        result = runner.invoke(
            main,
            ["bench", "--n", "4", "--strategy", "closed-form", "--repetitions", "3"],
        )
        assert result.exit_code == 1
        assert "VALUE MISMATCH" in result.output

    def test_strategy_subset(self, runner):
        result = runner.invoke(
            main,
            [
                "bench",
                "--n", "15",
                "--strategy", "closed-form",
                "--strategy", "symmetrized",
                "--repetitions", "2",
                "--format", "json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        names = {row["step_or_strategy"] for row in payload["results"]}
        assert names == {"SYMMETRIZED", "CLOSED_FORM"}
        assert payload["all_passed"] is True


class TestTable:
    def test_values_and_digit_counts(self, runner):
        result = runner.invoke(
            main, ["table", "--range", "0..2", "--format", "csv"]
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert [(r["n"], r["value"], r["digits"]) for r in rows] == [
            ("0", "0", "1"),
            ("1", "8", "1"),
            ("2", "288", "3"),
        ]

    def test_text_table_shows_digits(self, runner):
        result = runner.invoke(main, ["table", "--range", "1..2"])
        assert result.exit_code == 0
        assert "digits" in result.output.splitlines()[0]

    def test_sweep_across_kernel_crossover_matches_oracle(self, runner):
        # the sweep starts below the prime kernel's crossover and runs past it
        argv = ["table", "--range", "1490..1510", "--format", "json", "--digest-threshold", "0"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        rows = json.loads(result.output)["results"]
        assert [row["n"] for row in rows] == list(range(1490, 1511))
        for row in rows:
            text = str(closed_form_by_comb(row["n"]))
            assert row["value"] is None
            assert row["digest"] == hashlib.sha256(text.encode()).hexdigest(), row["n"]
            assert row["digits"] == len(text)


@pytest.mark.parametrize(
    "argv,calls",
    [
        # the measuring commands evaluate every n afresh: one kernel call per
        # timed closed-form evaluation, nothing served from a cache
        (["bench", "--n", "1600", "--strategy", "closed-form", "--repetitions", "3"], 3),
        (["verify", "--range", "10..12", "--strategy", "symmetrized", "--strategy", "closed-form"], 3),
        # table sweeps C(2n,n) from one kernel call across its range
        (["table", "--range", "1500..1600"], 1),
    ],
)
def test_binomial_calls_per_command(runner, monkeypatch, argv, calls):
    made = []

    def counting(m, k):
        made.append((m, k))
        return real(m, k)

    real = combinatorics.binomial
    for module in (combinatorics, identity):
        monkeypatch.setattr(module, "binomial", counting)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert len(made) == calls


@pytest.mark.parametrize(
    "argv,values",
    [
        (["eval", "--n", "1000", "--format", "json"], 1),
        (["table", "--range", "900..902", "--format", "csv"], 3),
        (["table", "--range", "0..2", "--format", "csv"], 3),
        (["eval", "--n", "2", "--format", "json"], 1),
        # the 14 digests of one n's seven steps cover 3 distinct values:
        # S, L6 and 4(2n-1) L6
        (["steps", "--range", "5..5", "--format", "json"], 3),
        # three strategies agree at each of three n
        (["verify", "--range", "10..12", "--format", "csv"], 3),
        # naive skipped at 4 and 5; every repetition gives the same value
        (["bench", "--range", "3..5", "--repetitions", "2", "--naive-cutoff", "3", "--format", "csv"], 3),
    ],
)
def test_digested_value_is_converted_once(runner, monkeypatch, argv, values):
    # a value's decimal text feeds its digest and, at or below the digest
    # threshold, the printed value: it must be produced once per value, and
    # once more by the next call in the same process, which reuses nothing
    converted = []

    def counting(value):
        converted.append(value)
        return real(value)

    real = digests.decimal_str
    monkeypatch.setattr(digests, "decimal_str", counting)
    monkeypatch.setattr(report, "decimal_str", counting)
    for _ in range(2):
        converted.clear()
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        assert len(converted) == len(set(converted)) == values


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--range", "2..4", "--jobs", "1"],
        ["bench", "--range", "2..4", "--repetitions", "2"],
        ["steps", "--range", "1..3", "--jobs", "1"],
    ],
)
def test_each_n_is_digested_before_the_next_is_evaluated(runner, monkeypatch, argv):
    # values are dropped n by n, not held for the whole range: the digests
    # of n all come before the first evaluation at n + 1, which is naive's
    lo, hi = map(int, argv[2].split(".."))
    # S(n) and every chain line's value, each at one n only
    n_of = {v: n for n in range(lo, hi + 1) for r in chain.verify_chain(n) for v in (r.lhs, r.rhs)}
    events = []
    real_naive, real_digest = identity.evaluate_naive, runs.value_digest

    def evaluating(n):
        events.append(("evaluate", n))
        return real_naive(n)

    def digesting(value):
        events.append(("digest", n_of[value]))
        return real_digest(value)

    monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, evaluating)
    monkeypatch.setattr(chain, "evaluate_naive", evaluating)
    monkeypatch.setattr(runs, "value_digest", digesting)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert {n for kind, n in events if kind == "digest"} == set(range(lo, hi + 1))
    evaluated = lo
    for kind, n in events:
        if kind == "evaluate":
            evaluated = n
        else:
            assert n == evaluated, events


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "3"],
        ["verify", "--range", "2..4", "--naive-cutoff", "3"],
        ["steps", "--range", "1..3"],
        ["bench", "--n", "4", "--repetitions", "2", "--naive-cutoff", "3"],
    ],
)
def test_stopped_clock_reads_1_ns(runner, monkeypatch, argv):
    # every duration is measured on one clock with one floor: a clock that
    # does not move gives each measured row 1 ns, and a skipped row none
    monkeypatch.setattr(time, "perf_counter_ns", lambda: 10**9)
    result = runner.invoke(main, argv + ["--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)["results"]
    skipped = [row for row in rows if row.get("equal") == "skipped"]
    assert len(skipped) == (argv[0] in ("verify", "bench"))
    for row in rows:
        assert row["duration_ns"] == (None if row in skipped else 1), row


#: The range each bounded option takes, as click displays it; a key
#: "COMMAND --option" holds a command's own range for a shared option.
BOUNDS = {
    "--n": "x>=0",
    "eval --n": f"0<=x<={MAX_EVAL_N}",
    "--naive-cutoff": "x>=0",
    "--digest-threshold": "x>=0",
    "--jobs": "x>=1",
    "--repetitions": f"1<=x<={MAX_REPETITIONS}",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--range", "0..2", "--naive-cutoff", "-1"],
        ["bench", "--n", "2", "--naive-cutoff", "-1"],
        ["eval", "--n", "2", "--digest-threshold", "-1"],
        ["table", "--range", "0..2", "--digest-threshold", "-1"],
        ["eval", "--n", "-1"],
        ["bench", "--n", "-1"],
        ["verify", "--range", "0..2", "--jobs", "0"],
        ["CBSUM_JOBS=0", "steps", "--range", "1..2"],
        ["bench", "--n", "2", "--repetitions", "0"],
    ],
)
def test_negative_bound_is_usage_error(argv):
    # one below the bound: the message names the option and its range;
    # CBSUM_JOBS=0 is written before the command, as in a shell
    env = dict(word.split("=") for word in argv if "=" in word)
    argv = [word for word in argv if "=" not in word]
    option = "--jobs" if env else argv[-2]
    assert_usage_error(argv, f"Invalid value for '{option}'", bound(argv[0], option), env=env)


def bound(command: str, option: str) -> str:
    return BOUNDS.get(f"{command} {option}", BOUNDS[option])


@pytest.mark.parametrize(
    "command,options",
    [
        ("eval", ["--n", "--naive-cutoff", "--digest-threshold"]),
        ("verify", ["--jobs", "--naive-cutoff"]),
        ("steps", ["--jobs"]),
        ("bench", ["--n", "--repetitions", "--naive-cutoff"]),
        ("table", ["--naive-cutoff", "--digest-threshold"]),
    ],
)
def test_help_shows_each_bound(runner, command, options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    # one entry per option, its wrapped lines joined
    entries = {e.split()[0]: " ".join(e.split()) for e in re.split(r"\n(?=  -)", result.output)[1:]}
    assert {name for name, entry in entries.items() if re.search("x[<>]=", entry)} == set(options)
    for name in options:
        assert bound(command, name) in entries[name].rsplit("[", 1)[-1]  # the closing [...]


@pytest.mark.parametrize(
    "argv,fragment,env",
    [
        (["bench", "--n", "-1"], "Invalid value for '--n'", None),
        (["verify", "--range", "-1..2"], "Invalid value for '--range': '-1..2': n must be >= 0", None),
        (["table", "--range", "5..2"], "Invalid value for '--range': '5..2': lower bound exceeds upper", None),
        (["steps", "--range", "abc"], "Invalid value for '--range': 'abc': expected N or A..B", None),
        (["verify", "--range", "0..2", "--jobs", "0"], "Invalid value for '--jobs'", None),
        (["steps", "--range", "1..2", "--jobs", "0"], "Invalid value for '--jobs'", None),
        (["verify", "--range", "0..2"], "Invalid value for '--jobs'", {"CBSUM_JOBS": "0"}),
        (["bench", "--n", "2", "--repetitions", "0"], "Invalid value for '--repetitions'", None),
        # naive alone above its cutoff would measure nothing, yet pass
        (["bench", "--n", "5", "--strategy", "naive", "--naive-cutoff", "2"], "bench needs 1 strategy measured", None),
        (
            ["bench", "--n", "2", "--repetitions", str(MAX_REPETITIONS + 1)],
            f"Invalid value for '--repetitions': {MAX_REPETITIONS + 1} is not in the range 1<=x<=",
            None,
        ),
        (
            ["eval", "--n", str(MAX_EVAL_N + 1)],
            f"Invalid value for '--n': {MAX_EVAL_N + 1} is not in the range 0<=x<={MAX_EVAL_N}",
            None,
        ),
    ],
)
def test_usage_error_exits_2_and_raises_when_embedded(argv, fragment, env):
    # the other usage errors are inputs of the command tests above
    assert_usage_error(argv, fragment, env=env)


def test_internal_error_exits_3_with_traceback(runner, monkeypatch):
    def out_of_memory(n):
        raise MemoryError("simulated")

    monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, out_of_memory)
    result = runner.invoke(main, ["verify", "--range", "0..1"])
    assert result.exit_code == 3
    assert "Traceback (most recent call last)" in result.stderr
    assert "MemoryError: simulated" in result.stderr


def test_workers_clamped_to_sizes_and_cpus(runner, monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            return finished(fn(item))

    monkeypatch.setattr(runs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(runs.os, "cpu_count", lambda: 4)
    result = runner.invoke(main, ["verify", "--range", "0..2", "--jobs", "64", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["config"]["jobs"] == 64  # echoes the request
    assert runner.invoke(main, ["steps", "--range", "1..9", "--jobs", "64"]).exit_code == 0
    monkeypatch.setattr(runs.os, "cpu_count", lambda: None)  # unknown: run serially
    assert runner.invoke(main, ["verify", "--range", "0..9", "--jobs", "64"]).exit_code == 0
    assert started == [3, 4]


def finished(value: object) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def test_pool_takes_one_n_per_task(runner, monkeypatch):
    # one n per task, so the costly large n do not queue behind one worker,
    # and at most 2 * workers + 1 tasks in flight, so results do not pile up
    handed, in_flight = [], []

    class RecordingPool:
        """Stands in for the process pool: records how work is handed to it."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            handed.append(item)
            in_flight.append(len(handed) - len(read))
            return finished(fn(item))

    read = []
    real_check_rows = runs._check_rows

    def reading(n, checks):
        read.append(n)
        return real_check_rows(n, checks)

    monkeypatch.setattr(runs, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(runs, "_check_rows", reading)
    monkeypatch.setattr(runs.os, "cpu_count", lambda: 2)
    verify = ["verify", "--range", "0..40", "--naive-cutoff", "5", "--jobs", "2"]
    assert runner.invoke(main, verify).exit_code == 0
    assert handed == [[n] for n in range(41)]
    assert max(in_flight) == 5
    for log in (handed, read, in_flight):
        log.clear()
    assert runner.invoke(main, ["steps", "--range", "1..20", "--jobs", "2"]).exit_code == 0
    assert handed == list(range(1, 21))
    assert max(in_flight) == 5


def test_interrupt_exits_130(runner, monkeypatch):
    def interrupted(n):
        raise KeyboardInterrupt

    monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, interrupted)
    result = runner.invoke(main, ["eval", "--n", "2"])
    assert result.exit_code == 130
    assert "Aborted!" in result.stderr
    assert "Traceback" not in result.stderr
    with pytest.raises(click.Abort):  # embedded callers see click's own Abort
        main.main(args=["eval", "--n", "2"], standalone_mode=False)


class TestEmbedded:
    """``main.main(argv, standalone_mode=False)`` returns the exit code."""

    def test_pass_returns_0(self, capsys):
        assert main.main(["eval", "--n", "2"], standalone_mode=False) == 0
        assert capsys.readouterr().out == "288\n"

    def test_mismatch_returns_1(self, monkeypatch, capsys):
        monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, lambda n: 41)
        assert main.main(["verify", "--range", "2..2"], standalone_mode=False) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_usage_error_propagates(self):
        with pytest.raises(click.UsageError) as raised:
            main.main(["eval", "--n", "-1"], standalone_mode=False)
        assert "Invalid value for '--n'" in raised.value.format_message()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "2"],
        ["verify", "--range", "2..3"],
        ["steps", "--range", "1..2"],
        ["bench", "--n", "2", "--repetitions", "1"],
        ["table", "--range", "0..2"],
    ],
)
def test_exit_code_and_all_passed_share_one_flag(runner, monkeypatch, argv):
    # a run that fails with no row unequal: the report can say so only if
    # it reads the flag that sets the exit code
    monkeypatch.setattr(cli, "rows_pass", lambda rows: False)
    result = runner.invoke(main, argv + ["--format", "json"])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output)["all_passed"] is False


def test_equality_is_decided_on_integers_not_digests(runner, monkeypatch):
    # two faults that hide each other from a digest comparison: naive is one
    # too large, and the decimal text drops the last digit, where they differ
    real_str = digests.decimal_str
    monkeypatch.setattr(digests, "decimal_str", lambda value: real_str(value)[:-1])
    monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, lambda n: identity.evaluate_naive(n) + 1)
    verify = runner.invoke(main, ["verify", "--range", "2..4"])
    assert verify.exit_code == 1, verify.output
    assert "MISMATCH FOUND" in verify.output
    bench = runner.invoke(main, ["bench", "--n", "3", "--repetitions", "1"])
    assert bench.exit_code == 1, bench.output
    assert "VALUE MISMATCH" in bench.output


def cli_env(unbuffered: bool) -> dict[str, str]:
    """The environment for ``python -m cbsum.cli`` with this package first on
    the path, and with stdout unbuffered (``PYTHONUNBUFFERED=1``) or not."""
    src = Path(cbsum.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


#: Both stdout modes: each write a system call, or writes held in stdout's
#: buffer until it fills or is flushed, where a closed pipe surfaces later.
stdout_modes = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@stdout_modes
@pytest.mark.parametrize("argv", [["eval", "--n", "2"], ["verify", "--range", "0..3"]])
def test_closed_stdout_exits_141(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        result = subprocess.run(
            [sys.executable, "-m", "cbsum.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=cli_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == b""


EMBEDDED_INTO_CLOSED_PIPE = """
import json, os, sys
from cbsum.cli import main

def state():
    return os.fstat(1).st_ino, len(os.listdir("/proc/self/fd"))

before = state()
codes = [main.main(["eval", "--n", "2"], standalone_mode=False) for _ in range(3)]
print(json.dumps({"codes": codes, "before": before, "after": state()}), file=sys.stderr)
"""


@stdout_modes
def test_embedded_calls_into_closed_pipe_leave_fd_1_alone(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-c", EMBEDDED_INTO_CLOSED_PIPE],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=cli_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    # the host's own flush at exit may complain after this first line
    seen = json.loads(result.stderr.decode().splitlines()[0])
    assert seen["codes"] == [141, 141, 141]
    assert seen["after"] == seen["before"]


@stdout_modes
def test_reader_that_leaves_mid_report_stops_the_run(unbuffered):
    # the whole table would take hours: only a run that stops at the first
    # write after the reader left finishes in time
    proc = subprocess.Popen(
        [sys.executable, "-m", "cbsum.cli", "table", "--range", "0..100000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(unbuffered),
    )
    watchdog = threading.Timer(60, proc.kill)  # a run that goes on fails, not hangs
    watchdog.start()
    try:
        head = proc.stdout.read(64 * 1024)
        proc.stdout.close()
        code = proc.wait()
        stderr = proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert len(head) == 64 * 1024
    assert code == 141
    assert stderr == b""


@pytest.mark.parametrize(
    "argv",
    [["table", "--range", "0..40", "--format", "csv"], ["steps", "--range", "1..3", "--format", "json"]],
)
def test_report_is_the_same_in_both_stdout_modes(argv):
    def report(unbuffered: bool) -> str:
        result = subprocess.run(
            [sys.executable, "-m", "cbsum.cli", *argv], capture_output=True, env=cli_env(unbuffered), timeout=60
        )
        assert result.returncode == 0, result.stderr
        return mask_durations(result.stdout.decode("ascii"))

    assert report(unbuffered=False) == report(unbuffered=True)


@pytest.mark.parametrize("output_format", ["json", "text"])
def test_crash_mid_stream_never_reads_as_a_pass(runner, monkeypatch, output_format):
    real = identity.evaluate_naive

    def fails_at_5(n):
        if n == 5:
            raise RuntimeError("simulated")
        return real(n)

    monkeypatch.setitem(identity.EVALUATORS, Strategy.NAIVE, fails_at_5)
    # each part is written to stdout as soon as it is rendered, so the rows
    # of the n before the crash are out, or in stdout's buffer, when it comes
    result = runner.invoke(main, ["verify", "--range", "0..5", "--format", output_format])
    assert result.exit_code == 3
    assert "Traceback (most recent call last)" in result.stderr
    assert "RuntimeError: simulated" in result.stderr
    assert ('"n": 4,' if output_format == "json" else "n=4 ok") in result.stdout
    assert "all_passed" not in result.stdout
    assert "all values agree" not in result.stdout


def traced_peak(argv: list[str]) -> int:
    """Peak bytes that Python allocates above its level at the start of the
    call, with stdout sent where nothing holds it."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main.main(argv, standalone_mode=False) == 0
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()


#: Options besides the range and the format, per command.
MEMORY_OPTIONS = {"bench": ["--strategy", "closed-form", "--repetitions", "10"]}

#: Bytes a wide range may add to the peak, per command. No report text is
#: held between writes, so table and steps grow only by what the allocator
#: keeps (some 16 and 30 KB). bench keeps its durations for the medians:
#: 4000 of 8 bytes here, plus the sorted list of them, as Python ints, that
#: ``statistics.median`` makes.
MEMORY_SLACK = {"table": 64 * 1024, "steps": 64 * 1024, "bench": 256 * 1024}


@pytest.mark.parametrize(
    "command,first,last,output_format",
    [("table", 0, 2000, "csv"), ("steps", 1, 200, "json"), ("bench", 1, 400, "csv")],
)
def test_peak_memory_does_not_grow_with_range(monkeypatch, command, first, last, output_format):
    # the chain's reference sums make O(n^2) allocations at each n, which
    # tracemalloc slows some 40-fold; the closed form has their values, so
    # the report is the same
    monkeypatch.setattr(chain, "evaluate_naive", identity.evaluate_closed_form)
    monkeypatch.setattr(chain, "evaluate_symmetrized", identity.evaluate_closed_form)
    options = [*MEMORY_OPTIONS.get(command, []), "--format", output_format]
    # the same largest n, so the two runs differ only in how many n they cover
    short = [command, "--range", f"{last - 9}..{last}", *options]
    traced_peak(short)  # first call: lazy imports and caches
    wide = traced_peak([command, "--range", f"{first}..{last}", *options])
    assert wide <= traced_peak(short) + MEMORY_SLACK[command]


class TestNaiveCutoffOnValueCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--n", "11", "--strategy", "naive", "--naive-cutoff", "10"],
            ["table", "--range", "0..11", "--strategy", "naive", "--naive-cutoff", "10"],
            # the default cutoff, 3000, holds without the option
            ["eval", "--n", "20000", "--strategy", "naive"],
        ],
    )
    def test_naive_above_cutoff_is_usage_error(self, argv):
        cutoff = argv[argv.index("--naive-cutoff") + 1] if "--naive-cutoff" in argv else "3000"
        assert_usage_error(argv, "needs 1 strategy measured", "only 0 would be", f"--naive-cutoff {cutoff}")

    def test_naive_up_to_cutoff_runs(self, runner):
        argv = ["table", "--range", "0..10", "--strategy", "naive", "--format", "csv"]
        naive = runner.invoke(main, argv + ["--naive-cutoff", "10"])
        closed = runner.invoke(main, argv[:3] + ["--strategy", "closed-form", "--format", "csv"])
        assert naive.exit_code == closed.exit_code == 0
        assert naive.output == closed.output
        assert runner.invoke(main, ["eval", "--n", "10", "--strategy", "naive", "--naive-cutoff", "10"]).exit_code == 0

    def test_cutoff_binds_only_naive(self, runner):
        result = runner.invoke(main, ["eval", "--n", "11", "--strategy", "symmetrized", "--naive-cutoff", "10"])
        assert result.exit_code == 0


@pytest.mark.parametrize(
    "template",
    [
        ("eval", "--n", "{n}", "--strategy", "naive"),
        ("table", "--range", "0..{n}", "--strategy", "naive"),
        ("bench", "--n", "{n}", "--strategy", "naive", "--repetitions", "1"),
        ("verify", "--range", "{n}", "--strategy", "naive", "--strategy", "closed-form"),
    ],
    ids=lambda template: template[0],
)
def test_naive_runs_at_its_cutoff_and_is_refused_above(runner, template):
    # one rule for every command: naive counts as measured up to n = c
    def argv(n):
        return [word.format(n=n) for word in template] + ["--naive-cutoff", "4"]

    result = runner.invoke(main, argv(4))
    assert result.exit_code == 0, result.output
    least = 2 if template[0] == "verify" else 1
    assert_usage_error(argv(5), f"{template[0]} needs {least}", f"at n=5 only {least - 1} would be", "--naive-cutoff 4")


def mask_jobs(report: str) -> str:
    """``report`` with durations and the config's echo of ``--jobs`` masked."""
    return mask_durations(report).replace('"jobs": 2,', '"jobs": 1,')


@settings(max_examples=5, deadline=None)
@given(
    command=st.sampled_from(["steps", "verify"]),
    low=st.integers(1, 12),
    width=st.integers(1, 4),
    output_format=st.sampled_from(["json", "csv"]),
)
def test_report_is_independent_of_worker_count(command, low, width, output_format):
    argv = [command, "--range", f"{low}..{low + width}", "--format", output_format]
    runner = CliRunner()
    serial = runner.invoke(main, argv + ["--jobs", "1"])
    parallel = runner.invoke(main, argv + ["--jobs", "2"])
    assert serial.exit_code == parallel.exit_code == 0
    assert mask_jobs(serial.output) == mask_jobs(parallel.output)


STRATEGY_VALUES = sorted(s.value for s in Strategy)
STEP_NAMES = [s.name for s in CHAIN_COMPARISONS]


def csv_cell(value) -> str:
    """How a JSON report value reads in the CSV report of the same call."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@st.composite
def report_calls(draw):
    """argv (without ``--format``) of a small eval, table, verify or steps call."""
    command = draw(st.sampled_from(["eval", "table", "verify", "steps"]))
    low = draw(st.integers(1 if command == "steps" else 0, 12))
    high = low if command == "eval" else low + draw(st.integers(0, 4))
    argv = [command, "--n", str(low)] if command == "eval" else [command, "--range", f"{low}..{high}"]
    if command in ("eval", "table"):
        # thresholds around the digit counts at these n, so values are
        # shown in some calls and digested in others
        argv += ["--strategy", draw(st.sampled_from(STRATEGY_VALUES))]
        argv += ["--digest-threshold", str(draw(st.integers(0, 20)))]
    elif command == "verify":
        for name in sorted(draw(st.sets(st.sampled_from(STRATEGY_VALUES), min_size=2))):
            argv += ["--strategy", name]
    else:
        for name in sorted(draw(st.sets(st.sampled_from(STEP_NAMES), min_size=1))):
            argv += ["--step", name]
    return argv


@settings(max_examples=10, deadline=None)
@given(argv=report_calls())
def test_json_and_csv_carry_equal_values(argv):
    runner = CliRunner()
    as_json = runner.invoke(main, argv + ["--format", "json"])
    as_csv = runner.invoke(main, argv + ["--format", "csv"])
    assert as_json.exit_code == as_csv.exit_code == 0
    json_rows = json.loads(as_json.output)["results"]
    csv_rows = rows_from_csv(as_csv.output)
    assert len(csv_rows) == len(json_rows) > 0
    for c, j in zip(csv_rows, json_rows):
        for column, cell in c.items():
            if column == "duration_ns":  # measured afresh by each call
                assert (cell == "") == (j[column] is None)
            else:
                assert cell == csv_cell(j[column]), column


CELLS = st.one_of(st.integers(), st.text(st.characters(max_codepoint=127)), st.booleans(), st.none())
LINES = st.text(st.characters(min_codepoint=32, max_codepoint=126))


@st.composite
def split_reports(draw):
    """A config, flat rows with one text line each, and cuts that split
    them into non-empty parts."""
    command = draw(st.sampled_from(["eval", "table", "verify"]))
    config = report.RunConfig(command, 0, 3, format=draw(st.sampled_from(["json", "csv", "text"])))
    keys = st.sampled_from(report.CSV_COLUMNS + report.EVAL_CSV_COLUMNS + report.TABLE_CSV_COLUMNS)
    rows = draw(st.lists(st.dictionaries(keys, CELLS, max_size=6), min_size=1, max_size=8))
    text = draw(st.lists(LINES, min_size=len(rows), max_size=len(rows)))
    cuts = sorted(draw(st.sets(st.integers(1, len(rows) - 1)))) if len(rows) > 1 else []
    return config, rows, text, [0, *cuts, len(rows)]


@settings(max_examples=200, deadline=None)
@given(report_parts=split_reports(), closing=st.lists(LINES, max_size=2), all_passed=st.booleans())
def test_parts_join_to_the_whole_report(report_parts, closing, all_passed):
    config, rows, text, bounds = report_parts
    parts = [report.render_report(config, rows[a:b], text[a:b], a == 0) for a, b in zip(bounds, bounds[1:])]
    parts.append(report.render_report(config, [], closing, False, all_passed))
    joined = "".join(parts)
    if config.format == "json":
        payload = {"config": config.to_dict(), "results": rows, "all_passed": all_passed}
        assert joined == json.dumps(payload, indent=2) + "\n"
    else:
        assert joined == report.render_report(config, rows, text + closing, True, all_passed)


def off_by_one_at(fn, bad_n):
    """``fn`` with its value at ``bad_n`` (only there) one too large."""

    def wrong(n, *args, **kwargs):
        value = fn(n, *args, **kwargs)
        return value + 1 if n == bad_n else value

    return wrong


@st.composite
def checked_calls(draw):
    """A small verify, bench or steps call, and a fault planted at one n.

    Returns ``(argv, patch, expected)``; ``expected`` is None when the call
    must be a usage error, else whether the report must pass.
    """
    command = draw(st.sampled_from(["verify", "bench", "steps"]))
    low = draw(st.integers(1, 10))
    high = low + draw(st.integers(0, 4))
    bad_n = draw(st.integers(low - 1, high + 1))  # mostly inside the range
    argv = [command, "--range", f"{low}..{high}", "--format", "json"]
    in_range = low <= bad_n <= high
    if command == "steps":
        steps = sorted(draw(st.sets(st.sampled_from(STEP_NAMES), min_size=1)))
        argv += [arg for name in steps for arg in ("--step", name)]
        patch = mock.patch.object(chain, "folded_form", off_by_one_at(chain.folded_form, bad_n))
        # a wrong L3 breaks its comparisons with L2 and with L5
        touched = {StepId.L3_FOLDED.name, StepId.L5_CANCELLED.name}
        return argv, patch, not (in_range and touched & set(steps))
    cutoff = draw(st.integers(0, 16))
    strategies = draw(st.sets(st.sampled_from(STRATEGY_VALUES), min_size=1 if command == "bench" else 2))
    bad = Strategy(draw(st.sampled_from(STRATEGY_VALUES)))
    argv += [arg for name in sorted(strategies) for arg in ("--strategy", name)]
    argv += ["--naive-cutoff", str(cutoff)] + (["--repetitions", "1"] if command == "bench" else [])
    patch = mock.patch.dict(identity.EVALUATORS, {bad: off_by_one_at(identity.EVALUATORS[bad], bad_n)})

    def measured(n):
        return len(strategies) - ("naive" in strategies and n > cutoff)

    if measured(high) < (2 if command == "verify" else 1):
        return argv, patch, None
    caught = in_range and bad.value in strategies and measured(bad_n) >= 2
    caught = caught and not (bad is Strategy.NAIVE and bad_n > cutoff)
    return argv, patch, not caught


@settings(max_examples=15, deadline=None)
@given(call=checked_calls())
def test_exit_code_is_zero_exactly_when_all_passed(call):
    argv, patch, expected = call
    with patch:
        result = CliRunner().invoke(main, argv)
    if expected is None:
        assert result.exit_code == 2
        return
    passed = json.loads(result.output)["all_passed"]
    assert result.exit_code == (0 if passed else 1)
    assert passed is expected
