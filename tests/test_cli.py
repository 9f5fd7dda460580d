"""End-to-end tests of the command-line interface and its report formats."""
from __future__ import annotations

import csv
import io
import json

import pytest
from click.testing import CliRunner

from cbsum import digests, identity, report
from cbsum.cli import main, parse_range
from cbsum.identity import EvalResult, Strategy


@pytest.fixture
def runner():
    return CliRunner()


def rows_from_csv(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


class TestParseRange:
    def test_forms(self):
        assert parse_range("0..50") == (0, 50)
        assert parse_range("7") == (7, 7)

    @pytest.mark.parametrize("bad", ["abc", "5..2", "-3..4", "1..x", ""])
    def test_rejects_malformed(self, bad):
        import click

        with pytest.raises(click.UsageError):
            parse_range(bad)


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

    def test_invalid_size_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "--n", "-1"])
        assert result.exit_code == 2
        assert "n must be >= 0" in result.output

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
        def corrupt(inst):
            value = 2 * inst.n**2  # drops the squared central coefficient
            return EvalResult(n=inst.n, strategy=Strategy.CLOSED_FORM, value=value)

        monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, corrupt)
        result = runner.invoke(main, ["verify", "--range", "0..3"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output
        assert "n=1" in result.output  # pinpoints the first failing size

    def test_mismatch_report_carries_both_digests(self, runner, monkeypatch):
        def corrupt(inst):
            return EvalResult(n=inst.n, strategy=Strategy.NAIVE, value=41)

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

    def test_jobs_env_var_sets_parallelism(self, runner):
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

    def test_zero_is_usage_error_naming_constraint(self, runner):
        result = runner.invoke(main, ["steps", "--range", "0..5"])
        assert result.exit_code == 2
        assert "2n(2n-1)" in result.output

    def test_step_filter(self, runner):
        result = runner.invoke(
            main,
            ["steps", "--range", "1..3", "--step", "L7_CLOSED", "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = rows_from_csv(result.output)
        assert len(rows) == 3
        assert {r["step_or_strategy"] for r in rows} == {"L7_CLOSED"}


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

    def test_requires_exactly_one_target(self, runner):
        assert runner.invoke(main, ["bench"]).exit_code == 2
        assert (
            runner.invoke(main, ["bench", "--n", "3", "--range", "1..2"]).exit_code
            == 2
        )

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

        def flaky(inst):
            calls["count"] += 1
            result = real(inst)
            if calls["count"] == 2:  # second repetition silently corrupted
                return EvalResult(inst.n, Strategy.CLOSED_FORM, result.value + 1)
            return result

        monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, flaky)
        result = runner.invoke(
            main,
            ["bench", "--n", "4", "--strategy", "closed-form", "--repetitions", "3"],
        )
        assert result.exit_code == 1
        assert "DIGEST MISMATCH" in result.output

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


@pytest.mark.parametrize(
    "argv,values",
    [
        (["eval", "--n", "1000", "--format", "json"], 1),
        (["table", "--range", "900..902", "--format", "csv"], 3),
    ],
)
def test_digested_value_is_converted_once(runner, monkeypatch, argv, values):
    # above the digest threshold a value's decimal text feeds only its
    # digest, so it must be produced once per value, not once more per row
    converted = []

    def counting(value):
        converted.append(value)
        return real(value)

    real = digests.decimal_str
    monkeypatch.setattr(digests, "decimal_str", counting)
    monkeypatch.setattr(report, "decimal_str", counting)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert len(converted) == len(set(converted)) == values
