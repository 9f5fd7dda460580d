"""Seeded workloads, the independent oracle, and the report checker.

A workload is a list of ``cbsum`` CLI invocations generated from a seed.
The program under test receives only the generated argv. Expected values
come from ``math.comb`` and ``hashlib`` here, never from ``cbsum``, so a
defect in the package cannot vouch for itself.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
import sys
from dataclasses import dataclass

# Values reach hundreds of thousands of digits; the oracle needs them as text.
sys.set_int_max_str_digits(0)

#: Every failure kind the checker can report.
FAILURE_KINDS = ("crash", "mismatch", "wrong", "vacuous", "timeout")

STRATEGIES = ("NAIVE", "SYMMETRIZED", "CLOSED_FORM")
STEPS = (
    "L1_SYMMETRIZED",
    "L2_ABSORBED",
    "L3_FOLDED",
    "L5_CANCELLED",
    "L6_TELESCOPED",
    "L7_CLOSED",
    "X_FINISH",
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: the argv after ``cbsum`` and what it covers."""

    argv: tuple[str, ...]
    command: str
    ns: tuple[int, ...]
    fmt: str


def _call(command: str, ns: range, fmt: str, *extra: str) -> Call:
    if command == "eval":
        where = ("--n", str(ns[0]))
    else:
        where = ("--range", f"{ns[0]}..{ns[-1]}")
    return Call((command, *where, *extra, "--format", fmt), command, tuple(ns), fmt)


# Each workload draws its sizes inside a fixed band. Where one draw would
# move the pass's total work by more than a few percent, the pass holds
# several sizes placed symmetrically in the band (a draw and its mirror
# image), so the total barely depends on the seed and seed-to-seed spread
# measures the program, not the draw.

def _big_eval(rng: random.Random) -> list[Call]:
    # Three N in [100000, 140000] at 120000 + 20000 cos(theta + 2 pi k / 3):
    # the seed turns theta, while the mean and the spread of the three stay
    # fixed, because the cost grows faster than linearly in N.
    theta = rng.uniform(0, 2 * math.pi)
    ns = [round(120_000 + 20_000 * math.cos(theta + 2 * math.pi * k / 3)) for k in range(3)]
    return [_call("eval", range(n, n + 1), "json") for n in ns]


def _wide_table(rng: random.Random) -> list[Call]:
    # A in [0, 50] moves the work of 2001 rows by about 2%: no mirror needed.
    a = rng.randint(0, 50)
    return [_call("table", range(a, a + 2001), "csv")]


def _chain_steps(rng: random.Random) -> list[Call]:
    # A in [1, 10]; the work grows like the sum of n^2, about 14% across the band.
    a = rng.randint(1, 10)
    return [_call("steps", range(b, b + 200), "json", "--jobs", "1") for b in (a, 11 - a)]


def _crosscheck(rng: random.Random) -> list[Call]:
    # A in [0, 10]; the work grows like the sum of n^2, about 9% across the band.
    a = rng.randint(0, 10)
    return [_call("verify", range(b, b + 301), "csv", "--jobs", "2") for b in (a, 10 - a)]


WORKLOADS = {
    "big-eval": _big_eval,
    "wide-table": _wide_table,
    "chain-steps": _chain_steps,
    "crosscheck": _crosscheck,
}

#: The no-work invocation timed as ``setup_s``.
SETUP_CALL = _call("eval", range(0, 1), "json")


def workload_calls(name: str, seed: int) -> list[Call]:
    """The invocations of one pass of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def serial(call: Call) -> Call:
    """``call`` with ``--jobs`` forced to 1, so every span stays in-process."""
    argv = list(call.argv)
    if "--jobs" in argv:
        argv[argv.index("--jobs") + 1] = "1"
    return Call(tuple(argv), call.command, call.ns, call.fmt)


# --- oracle -----------------------------------------------------------------

def _digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(value: int) -> str:
    return _digest_text(str(value))


def closed_form(n: int) -> int:
    """S(n) = 2 n^2 C(2n,n)^2, the value every strategy must reproduce."""
    c = math.comb(2 * n, n)
    return 2 * n * n * c * c


def _step_sides(n: int) -> dict[str, tuple[int, int]]:
    # Each chain line's exact value. With q = C(2n-2,n-1) C(2n-1,n-1):
    # S = 8n(2n-1) q and n C(2n,n)^2 = 4(2n-1) q.
    s = closed_form(n)
    q = math.comb(2 * n - 2, n - 1) * math.comb(2 * n - 1, n - 1)
    closed = n * math.comb(2 * n, n) ** 2
    sides = {step: (q, q) for step in STEPS}
    sides["L1_SYMMETRIZED"] = (s, s)
    sides["L2_ABSORBED"] = (s, 8 * n * (2 * n - 1) * q)
    sides["L7_CLOSED"] = (4 * (2 * n - 1) * q, closed)
    return sides


Key = tuple[int, str]


def expected_rows(call: Call) -> dict[Key, dict[str, object]]:
    """The report rows ``call`` must produce, keyed by (n, strategy or step)."""
    rows: dict[Key, dict[str, object]] = {}
    for n in call.ns:
        if call.command in ("eval", "table"):
            value = closed_form(n)
            name = "CLOSED_FORM" if call.command == "eval" else ""
            rows[(n, name)] = {"digest": _digest(value), "digits": len(str(value))}
        elif call.command == "verify":
            digest = _digest(closed_form(n))
            for name in STRATEGIES:
                rows[(n, name)] = {"lhs_digest": digest, "rhs_digest": digest}
        elif call.command == "steps":
            for name, (lhs, rhs) in _step_sides(n).items():
                rows[(n, name)] = {"lhs_digest": _digest(lhs), "rhs_digest": _digest(rhs)}
        else:
            raise ValueError(f"no oracle for command {call.command!r}")
    return rows


# --- checker ----------------------------------------------------------------

def _parse(stdout: str, fmt: str) -> tuple[list[dict], bool]:
    """Rows as dicts, plus whether the report itself claims success."""
    if fmt == "json":
        payload = json.loads(stdout)
        rows, claims_pass = list(payload["results"]), payload["all_passed"] is True
    else:
        rows, claims_pass = list(csv.DictReader(io.StringIO(stdout))), True
    return rows, claims_pass and all(str(row.get("equal")).lower() != "false" for row in rows)


def mask_durations(stdout: str, fmt: str) -> str:
    """``stdout`` with its wall-clock ``duration_ns`` fields blanked.

    Reports carry measured durations, so two runs of one argv are
    byte-identical only once those are masked.
    """
    if fmt == "json":
        return re.sub(r'"duration_ns": \d+', '"duration_ns": 0', stdout)
    lines = stdout.split("\n")
    header = lines[0].split(",")
    if "duration_ns" not in header:
        return stdout
    col = header.index("duration_ns")
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) > col:
            cells[col] = ""
        masked.append(",".join(cells))
    return "\n".join(masked)


def _key(row: dict) -> Key:
    return int(row["n"]), str(row.get("step_or_strategy") or row.get("strategy") or "")


def check(
    call: Call,
    expected: dict[Key, dict[str, object]],
    returncode: int | None,
    stdout: str,
    stderr: str = "",
    timed_out: bool = False,
) -> str | None:
    """The failure kind of one invocation, or None when it is correct.

    The exit code alone cannot tell a crash from a mismatch (an uncaught
    exception also exits 1), so a traceback on stderr decides.
    """
    if timed_out:
        return "timeout"
    if returncode not in (0, 1) or "Traceback (most recent call last)" in stderr:
        return "crash"
    try:
        rows, claims_pass = _parse(stdout, call.fmt)
        keys = [_key(row) for row in rows]
    except (ValueError, KeyError, TypeError, AttributeError):
        return "crash"
    if returncode != 0 or not claims_pass:
        return "mismatch"
    skipped = any(str(row.get("equal")) == "skipped" or row.get("skipped") for row in rows)
    if skipped or len(keys) != len(expected) or set(keys) != set(expected):
        return "vacuous"
    for key, row in zip(keys, rows):
        for field, want in expected[key].items():
            if str(row.get(field)) != str(want):
                return "wrong"
        value = row.get("value")  # printed in full: must hash to the digest
        if value and _digest_text(str(value)) != expected[key].get("digest"):
            return "wrong"
    return None
