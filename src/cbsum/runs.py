"""Command runners: turn a RunConfig into a report, handed over n by n.

Each runner calls ``emit(rows, text)`` once per n, as soon as that n's rows
are built: the rows are the format-independent payload, the text lines the
human-readable rendering, and both are dropped once written. ``emit``
returns whether every row written so far passed, which sets the runner's
summary line. The runner returns the lines that close its report; the CLI
renders and writes everything, so no runner holds its whole report, names
a column or decides whether the run passed. The runner calls ``emit``
rather than yielding, so that one call of a runner spans its whole run.
Runs over an n-range may fan out across forked worker processes
(:mod:`.pool`, loaded only then); results are merged back in input order,
so reports are deterministic for a fixed config. A range is handed on as
a ``range``, never listed, so no n-sized list is built before the first n.

``verify``, ``bench`` and ``steps`` go n by n: each n is checked on exact
integers, then its rows are built by the one row builder, :func:`_check_rows`,
which digests its values before the next n's results are read.
"""
from __future__ import annotations

import os
from functools import cache, partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import identity
from .bench import BenchRecord, median_ns, run_benchmark, timed
from .chain import verify_chain_timed
from .combinatorics import binomial, central_binomials, prime_kernel
from .digests import value_digest
from .report import RunConfig, describe_value

Row = dict[str, Any]
Emit = Callable[[list[Row], list[str]], bool]


def _map_over(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int) -> Iterator[Any]:
    """``fn`` over ``items``, each result handed back in input order as it
    arrives, so a caller can finish with one before the next is made. With
    two or more workers, and ``os.fork``, the work goes to :mod:`.pool`,
    one item per task: a worker that finishes takes the next n, so the
    costly large n at the end of a range do not queue behind one worker."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return map(fn, items)
    from .pool import imap  # only a pooled call compiles the pool

    return imap(fn, items, workers)


def _short(digest: str) -> str:
    return digest[:12] if digest else "-"


def _check_rows(n: int, checks: Iterable[tuple]) -> list[Row]:
    """One row per check at ``n``: (name, lhs, rhs, equal, duration_ns, the
    command's own keys); ``equal`` was decided on the integers. Checks share
    values, so each distinct value of this n is digested once, for display;
    a skipped check has no values and empty digests."""
    digest = cache(value_digest)
    return [
        {
            "n": n,
            "step_or_strategy": name,
            "lhs_digest": "" if lhs is None else digest(lhs),
            "rhs_digest": "" if rhs is None else digest(rhs),
            "equal": equal,
            "duration_ns": duration_ns,
            **extra,
        }
        for name, lhs, rhs, equal, duration_ns, extra in checks
    ]


def _measured(
    config: RunConfig, extra: Callable[[BenchRecord, BenchRecord | None], Row]
) -> Iterator[tuple[int, list[BenchRecord], list[Row]]]:
    """``verify`` and ``bench``: measure one n, then build its rows, each record
    beside the first one measured at its n, with ``extra(record, that one)``."""

    def measure(n: int) -> list[BenchRecord]:
        return run_benchmark([n], config.strategies, config.repetitions, config.naive_cutoff)

    ns = range(config.n_min, config.n_max + 1)
    for n, records in zip(ns, _map_over(measure, ns, config.jobs)):
        ref = next((r for r in records if not r.skipped), None)
        checks = (
            (r.strategy.name, None, None, "skipped", None, extra(r, ref))
            if r.skipped
            else (r.strategy.name, r.value, ref.value, r.equal, r.duration_ns, extra(r, ref))
            for r in records
        )
        yield n, records, _check_rows(n, checks)


# --- eval -------------------------------------------------------------------

def run_eval(config: RunConfig, emit: Emit) -> list[str]:
    n = config.n_min
    strategy = config.strategies[0]
    if strategy is identity.Strategy.CLOSED_FORM and prime_kernel(2 * n, n):
        # C(2n, n) from the prime kernel, as a Decimal: S(n) is then built in
        # exact decimal arithmetic, and its text needs no base conversion.
        # At n = 1e5-1.4e5 a call takes 30-55 ms of its 140-165 ms less.
        # Up to n = 8190, where an int's text comes from str(int), the
        # switch only loads decimal: about 1.4 ms of import and up to
        # 0.5 MB more peak RSS at n = 1500-8000, and no wall time that 9
        # calls could tell apart (2-vCPU x86-64 VM, CPython 3.11).
        from decimal import Decimal  # loaded only on this path

        value, elapsed = timed(lambda: identity.evaluate_closed_form(n, binomial(2 * n, n, Decimal)))
    else:
        value, elapsed = timed(identity.EVALUATORS[strategy], n)
    fields = describe_value(value, config)
    row: Row = {"n": n, "strategy": strategy.name, **fields, "duration_ns": elapsed}
    if fields["value"] is not None:
        text = [fields["value"]]
    else:
        text = [f"sha256:{fields['digest']} digits={fields['digits']}"]
    emit([row], text)
    return []


# --- verify -----------------------------------------------------------------

def _verify_keys(record: BenchRecord, ref: BenchRecord | None) -> Row:
    return {"skipped": True} if record.skipped else {"reference": ref.strategy.name}


def run_verify(config: RunConfig, emit: Emit) -> list[str]:
    for n, _, rows in _measured(config, _verify_keys):
        measured = [r for r in rows if r["equal"] != "skipped"]
        skipped = [r for r in rows if r["equal"] == "skipped"]
        bad = [r for r in measured if r["equal"] is not True]
        note = f" ({', '.join(r['step_or_strategy'] for r in skipped)} skipped)" if skipped else ""
        if bad:
            details = "; ".join(
                f"{r['step_or_strategy']}={_short(r['lhs_digest'])} vs "
                f"{r['reference']}={_short(r['rhs_digest'])}"
                for r in bad
            )
            line = f"n={n} MISMATCH {details}{note}"
        else:
            line = f"n={n} ok ({len(measured)} strategies agree{note})"
        passed = emit(rows, [line])
    summary = "all values agree" if passed else "MISMATCH FOUND"
    return [f"verify {config.n_min}..{config.n_max}: {summary}"]


# --- steps ------------------------------------------------------------------

def run_steps(config: RunConfig, emit: Emit) -> list[str]:
    ns = range(config.n_min, config.n_max + 1)
    verify = partial(verify_chain_timed, steps=config.steps)
    for n, reports in zip(ns, _map_over(verify, ns, config.jobs)):
        checks = ((r.step.name, r.lhs, r.rhs, r.equal, elapsed, {}) for r, elapsed in reports)
        rows = _check_rows(n, checks)
        text = [f"n={n} {r['step_or_strategy']:<15} {'ok' if r['equal'] else 'MISMATCH'}" for r in rows]
        passed = emit(rows, text)
    summary = "every step holds" if passed else "STEP MISMATCH FOUND"
    return [f"steps {config.n_min}..{config.n_max}: {summary}"]


# --- bench ------------------------------------------------------------------

def _bench_keys(record: BenchRecord, ref: BenchRecord | None) -> Row:
    return {"repetition": None if record.skipped else record.repetition, "skipped": record.skipped}


def run_bench(config: RunConfig, emit: Emit) -> list[str]:
    from array import array  # exact medians need every duration: 8 bytes each

    durations = {s: array("q") for s in config.strategies}
    for _, records, rows in _measured(config, _bench_keys):
        text = []
        for record, row in zip(records, rows):
            if record.skipped:
                text.append(
                    f"n={record.n} {record.strategy.name:<12} skipped "
                    f"(naive cutoff {config.naive_cutoff})"
                )
            else:
                text.append(
                    f"n={record.n} {record.strategy.name:<12} rep={record.repetition} "
                    f"{record.duration_ns / 1e6:10.3f} ms  digest={_short(row['lhs_digest'])}"
                )
                durations[record.strategy].append(record.duration_ns)
        passed = emit(rows, text)
    text = [
        f"median {strategy.name:<12} {median_ns(durations[strategy]) / 1e6:10.3f} ms"
        for strategy in config.strategies
        if len(durations[strategy])
    ]
    text.append("values consistent" if passed else "VALUE MISMATCH")
    return text


# --- table ------------------------------------------------------------------

def run_table(config: RunConfig, emit: Emit) -> list[str]:
    strategy = config.strategies[0]
    ns = range(config.n_min, config.n_max + 1)
    if strategy is identity.Strategy.CLOSED_FORM:
        values = map(identity.evaluate_closed_form, ns, central_binomials(ns))
    else:
        values = map(identity.EVALUATORS[strategy], ns)
    for n, value in zip(ns, values):
        fields = describe_value(value, config)
        shown = fields["value"] if fields["value"] is not None else f"sha256:{_short(fields['digest'])}..."
        text = [f"{n:>8}  {fields['digits']:>8}  {shown}"]
        if n == config.n_min:  # the part that opens the report
            text.insert(0, f"{'n':>8}  {'digits':>8}  value")
        emit([{"n": n, **fields}], text)
    return []
