"""Golden-output tests: fixed CLI calls must reproduce committed reports.

Each fixture under ``tests/golden/`` is the stdout of one call, with the
measured ``duration_ns`` fields masked. The eval and table fixtures were
recorded from the code before the prime-exponent binomial kernel and the
divide-and-conquer decimal conversion replaced ``math.comb`` and
``str(int)``; the verify, steps and bench fixtures from the code before
verify and bench shared one measure-and-compare path; the full-decimal,
digest-threshold, threshold-crossing table and bench text fixtures from
the code before every runner returned one report value; the crossover,
one-row and reference-strategy table fixtures from the code before
``table`` swept C(2n,n) across its range. The bench text fixture's last
line was re-recorded when bench's summary came to name values, which it
compares, not digests. A refactor or optimisation that
changes a single output byte fails here. The eval sizes straddle the
kernel's crossover (``PRIME_KERNEL_CROSSOVER``); the check calls cover
skipped naive rows, strategy and step subsets, and repetitions.

To record fixtures from the code at some commit, run from the repo root

    PYTHONPATH=src python tests/test_golden.py

and review the diff under ``tests/golden/`` before committing it.
"""
from __future__ import annotations

import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from cbsum.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Central crossover of the prime-exponent kernel at the time of recording;
#: kept as a literal so the calls do not move when the constant is retuned.
CROSSOVER = 1500

#: Check-style calls, each with the formats whose stdout is deterministic
#: once durations are masked.
CHECK_CALLS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("verify", "--range", "0..12", "--naive-cutoff", "5"), ("json", "csv", "text")),
    (("verify", "--range", "2..3", "--strategy", "symmetrized", "--strategy", "closed-form"), ("json",)),
    (("steps", "--range", "1..6"), ("json", "csv", "text")),
    (("steps", "--range", "1..4", "--step", "L2_ABSORBED", "--step", "X_FINISH"), ("csv",)),
    (("bench", "--n", "4", "--repetitions", "2", "--naive-cutoff", "3"), ("json", "csv", "text")),
    (("bench", "--range", "3..5", "--repetitions", "2", "--naive-cutoff", "4"), ("json",)),
)

CALLS: tuple[tuple[str, ...], ...] = (
    tuple(
        ("eval", "--n", str(n), "--format", fmt)
        for n in (0, 1, 2, 1000, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 100_000)
        for fmt in ("json", "csv", "text")
    )
    + tuple(
        (*argv, "--format", fmt)
        for argv in (("eval", "--n", "1000", "--full-decimal"), ("eval", "--n", "5", "--digest-threshold", "0"))
        for fmt in ("json", "csv", "text")
    )
    + (("table", "--range", "0..2050", "--format", "csv"),)
    # S(n) passes 1000 digits, the default threshold, between n = 828 and 829
    + tuple(("table", "--range", "827..830", "--format", fmt) for fmt in ("json", "text"))
    # a table whose first row is already past the crossover, the one-row
    # table, and the strategies that table evaluates row by row
    + (
        ("table", "--range", f"{CROSSOVER}..{CROSSOVER + 3}", "--digest-threshold", "0", "--format", "json"),
        ("table", "--range", "0..0", "--format", "json"),
    )
    + tuple(("table", "--range", "0..12", "--strategy", s, "--format", "csv") for s in ("naive", "symmetrized"))
    + tuple((*argv, "--format", fmt) for argv, formats in CHECK_CALLS for fmt in formats)
)


def fixture_path(argv: tuple[str, ...]) -> Path:
    name = "_".join(arg.lstrip("-") for arg in argv[:-2])
    return GOLDEN_DIR / f"{name}.{argv[-1]}"


def mask_durations(report: str) -> str:
    """``report`` with every measured duration replaced by 0."""
    report = re.sub(r'"duration_ns": \d+', '"duration_ns": 0', report)
    # bench text prints milliseconds in a fixed-width field: keep the width
    report = re.sub(r"\d+\.\d{3}(?= ms\b)", lambda m: "0.000".rjust(len(m[0])), report)
    lines = report.split("\n")
    header = lines[0].split(",")
    if "duration_ns" in header:
        col = header.index("duration_ns")
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            if len(cells) == len(header):
                cells[col] = "0"
                lines[i] = ",".join(cells)
    return "\n".join(lines)


def replay(argv: tuple[str, ...]) -> str:
    result = CliRunner().invoke(main, list(argv))
    assert result.exit_code == 0, result.output
    return mask_durations(result.output)


def first_difference(actual: str, expected: str) -> str:
    """The line counts and the first line where ``actual`` departs from
    ``expected``, each line cut to 200 characters."""
    got, want = actual.split("\n"), expected.split("\n")
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    show = lambda lines: repr(lines[at][:200]) if at < len(lines) else "<end of output>"
    return (
        f"{len(got)} lines, expected {len(want)}; first difference at line {at + 1}:\n"
        f"  got:      {show(got)}\n  expected: {show(want)}"
    )


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: fixture_path(argv).name)
def test_output_matches_golden(argv):
    expected = fixture_path(argv).read_text(encoding="ascii")
    actual = replay(argv)
    # no assert on the two strings: pytest's diff of a large report
    # (table_range_0..2050.csv is 565 KB) takes minutes to print
    if actual != expected:
        pytest.fail(first_difference(actual, expected), pytrace=False)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in CALLS:
        fixture_path(argv).write_text(replay(argv), encoding="ascii")
        print(fixture_path(argv))
