"""Wall-clock measurement of the evaluation strategies.

Two decisions every command shares are made here, once. :func:`timed`
is the one clock: ``perf_counter_ns`` around a call, floored at 1 ns.
:func:`skipped` is the one cutoff rule: NAIVE costs (2n+1)^2 big-integer
multiplies and is skipped above a cutoff (default n = 3000).

The ``verify`` and ``bench`` commands both measure through
:func:`run_benchmark`, which evaluates, times and compares, and nothing
else. Timings are taken per (n, strategy, repetition) and cover evaluation
only. Every value is compared, as an exact integer, with the first one
measured at the same n, so a benchmark run doubles as a correctness check:
a mismatch must fail the run loudly. Records carry the values themselves,
one object per n for every value that equals the first; reports digest
them where their rows are built. Skips produce an explicit
marker record rather than silently vanishing from the report.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .identity import EVALUATORS, Strategy

DEFAULT_NAIVE_CUTOFF = 3000

#: Most repetitions ``bench`` takes. Every record of one n, with its value,
#: and every row of that n are held until the n is written, so the cap is
#: set where the closed form at n = 2000 stays within about 3 s and 64 MB
#: of peak RSS: 10_000 repetitions took 2.6-3.0 s and peaked at 36-51 MB
#: (text to JSON), against 17.5 MB for 10 (2-vCPU x86-64 VM, CPython
#: 3.11), about 3.4 KB and 0.25 ms per repetition. Since equal records
#: share one value, they peak at 25-41 MB. The reference sums cost
#: far more per repetition; their time is for their cutoffs to bound.
MAX_REPETITIONS = 10_000

#: Largest ``eval --n``. The closed form's cost grows a little faster than
#: n, and its sieve takes n bytes before the first multiply, so the cap is
#: set where one call stays within about 5 s and 64 MB of peak RSS:
#: ``eval --n N --format json`` took 0.70 s and 26 MB at N = 2e6, 2.5 s
#: and 40 MB at 5e6, 4.4 s and 63 MB at 1e7, and 9.6 s and 108 MB at 2e7
#: (2-vCPU x86-64 VM, CPython 3.11). Library calls stay unbounded.
MAX_EVAL_N = 10_000_000


@dataclass(frozen=True)
class BenchRecord:
    """One timing measurement (or an explicit skip marker).

    For skip markers ``duration_ns`` is 0 and ``value`` None; for real
    measurements ``duration_ns`` is strictly positive and ``value`` is the
    exact value measured. ``equal`` says whether the value equals the
    first value measured at this n.
    """

    n: int
    strategy: Strategy
    repetition: int
    duration_ns: int
    value: int | None
    skipped: bool = False
    equal: bool = True


def timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, int]:
    """``fn(*args)``, with the call's duration in nanoseconds (at least 1)."""
    start = time.perf_counter_ns()
    result = fn(*args)
    return result, max(1, time.perf_counter_ns() - start)


def skipped(strategy: Strategy, n: int, naive_cutoff: int) -> bool:
    """Whether ``strategy`` is left out at ``n``: naive runs only up to the cutoff."""
    return strategy is Strategy.NAIVE and n > naive_cutoff


def run_benchmark(
    ns: Iterable[int],
    strategies: Sequence[Strategy],
    repetitions: int,
    naive_cutoff: int = DEFAULT_NAIVE_CUTOFF,
) -> list[BenchRecord]:
    """Benchmark each strategy at each n, ``repetitions`` times.

    Records come back ordered by (n, canonical strategy order, repetition).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    ordered = [s for s in Strategy if s in strategies]
    records: list[BenchRecord] = []
    for n in ns:
        reference = None  # the first value measured at this n
        for strategy in ordered:
            if skipped(strategy, n, naive_cutoff):
                records.append(BenchRecord(n, strategy, 0, 0, None, skipped=True))
                continue
            for rep in range(1, repetitions + 1):
                value, elapsed = timed(EVALUATORS[strategy], n)
                if reference is None:
                    reference = value
                equal = value == reference
                records.append(BenchRecord(n, strategy, rep, elapsed, reference if equal else value, equal=equal))
    return records


def median_ns(durations: Sequence[int]) -> int:
    """The median of measured durations in whole nanoseconds; ValueError if none."""
    import statistics  # only bench prints medians; other commands skip the import

    return int(statistics.median(durations))


def median_duration_ns(records: Sequence[BenchRecord], strategy: Strategy) -> int:
    """Median measured duration for a strategy."""
    return median_ns([r.duration_ns for r in records if r.strategy is strategy and not r.skipped])
