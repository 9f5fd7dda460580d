"""Tests for the benchmark harness."""
from __future__ import annotations

import pytest

from cbsum import digests, identity
from cbsum.bench import BenchRecord, median_duration_ns, run_benchmark
from cbsum.identity import Strategy

ALL = tuple(Strategy)
ALL_NAMES = [s.name for s in ALL]


class TestRunBenchmark:
    def test_record_count(self):
        records = run_benchmark([10], ALL, repetitions=3)
        assert len(records) == 9  # 3 strategies x 3 repetitions

    def test_digests_agree_across_strategies(self):
        records = run_benchmark([10], ALL, repetitions=3)
        assert len({r.value for r in records}) == 1

    def test_durations_positive_and_ordering(self):
        records = run_benchmark([10], ALL, repetitions=2)
        assert all(r.duration_ns > 0 for r in records)
        keys = [(r.n, r.strategy.name, r.repetition) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], ALL_NAMES.index(k[1]), k[2]))

    def test_naive_skipped_above_cutoff(self):
        records = run_benchmark([50], ALL, repetitions=2, naive_cutoff=10)
        skipped = [r for r in records if r.skipped]
        measured = [r for r in records if not r.skipped]
        assert [r.strategy for r in skipped] == [Strategy.NAIVE]
        assert skipped[0].value is None and skipped[0].duration_ns == 0
        assert len(measured) == 4  # two strategies x two repetitions
        assert len({r.value for r in measured}) == 1

    def test_symmetrized_and_closed_form_agree_at_2000(self):
        records = run_benchmark(
            [2000], (Strategy.SYMMETRIZED, Strategy.CLOSED_FORM), repetitions=1
        )
        assert len(records) == 2
        assert records[0].value == records[1].value

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([1], ALL, repetitions=0)

    def test_no_decimal_conversion(self, monkeypatch):
        def refuse(value):
            raise AssertionError("run_benchmark converted a value to decimal")

        monkeypatch.setattr(digests, "decimal_str", refuse)
        records = run_benchmark([10, 11], ALL, repetitions=2)
        assert all(r.equal for r in records)

    def test_equal_records_hold_the_reference_itself(self):
        # one value object per n, not one copy per record
        records = run_benchmark([10, 12], ALL, repetitions=3)
        for n in (10, 12):
            reference, *others = [r for r in records if r.n == n]
            assert len(others) == 8
            assert all(r.equal and r.value is reference.value for r in others)

    def test_mismatched_record_holds_its_value(self, monkeypatch):
        real = identity.EVALUATORS[Strategy.CLOSED_FORM]
        monkeypatch.setitem(identity.EVALUATORS, Strategy.CLOSED_FORM, lambda n: real(n) + 1)
        reference, symmetrized, closed = run_benchmark([6], ALL, repetitions=1)
        assert reference.equal and symmetrized.equal and not closed.equal
        assert reference.value == symmetrized.value
        assert closed.value - reference.value == 1


class TestMedian:
    def test_median_over_synthetic_records(self):
        records = [
            BenchRecord(5, Strategy.NAIVE, rep, duration, 7)
            for rep, duration in enumerate([30, 10, 20], start=1)
        ]
        assert median_duration_ns(records, Strategy.NAIVE) == 20

    def test_median_ignores_skips_and_other_strategies(self):
        records = [
            BenchRecord(5, Strategy.NAIVE, 0, 0, None, skipped=True),
            BenchRecord(5, Strategy.SYMMETRIZED, 1, 7, 7),
        ]
        assert median_duration_ns(records, Strategy.SYMMETRIZED) == 7
        with pytest.raises(ValueError):
            median_duration_ns(records, Strategy.NAIVE)
