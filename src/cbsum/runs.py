"""Command runners: turn a RunConfig into a :class:`~cbsum.report.Report`.

Each runner returns one Report: its rows are the format-independent
payload, its text lines the human-readable rendering, and its columns
the CSV header. Whether the run passed is read off the rows. Runs over
an n-range may fan out across worker processes, results are merged back
in input order, so reports are deterministic for a fixed config.

``verify``, ``bench`` and ``steps`` go n by n: each n is checked on exact
integers, then its rows are built by the one row builder, :func:`_check_rows`,
which digests its values before the next n's results are read.
"""
from __future__ import annotations

import os
from collections import deque
from dataclasses import replace
from functools import cache, partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import identity
from .bench import BenchRecord, median_duration_ns, run_benchmark, timed
from .chain import verify_chain_timed
from .combinatorics import central_binomials
from .digests import value_digest
from .report import Report, RunConfig, describe_value, rows_pass

Row = dict[str, Any]

EVAL_CSV_COLUMNS = ("n", "strategy", "value", "digest", "digits", "duration_ns")
TABLE_CSV_COLUMNS = ("n", "value", "digest", "digits")


def ProcessPoolExecutor(max_workers: int) -> Any:
    """The standard library's process pool, imported on first call: loading
    ``multiprocessing`` costs every call start-up time, and a call that runs
    serially never needs it."""
    from concurrent.futures import ProcessPoolExecutor as executor

    return executor(max_workers=max_workers)


def _map_over(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int) -> Iterator[Any]:
    """``fn`` over ``items``, each result handed back in input order as it
    arrives, so a caller can finish with one before the next is made."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # one item per task: a worker that finishes takes the next n, so the
        # costly large n at the end of a range do not queue behind one worker;
        # and at most 2 * workers + 1 in flight, so results do not pile up unread
        pending = deque(pool.submit(fn, item) for item in items[: 2 * workers])
        for item in items[2 * workers :]:
            pending.append(pool.submit(fn, item))
            yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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
    measure = partial(
        run_benchmark,
        strategies=config.strategies_enabled,
        repetitions=config.repetitions,
        naive_cutoff=config.naive_cutoff,
    )
    ns = range(config.n_min, config.n_max + 1)
    for n, records in zip(ns, _map_over(measure, [[n] for n in ns], config.parallelism)):
        ref = next((r for r in records if not r.skipped), None)
        checks = (
            (r.strategy.name, None, None, "skipped", None, extra(r, ref))
            if r.skipped
            else (r.strategy.name, r.value, ref.value, r.equal, r.duration_ns, extra(r, ref))
            for r in records
        )
        yield n, records, _check_rows(n, checks)


# --- eval -------------------------------------------------------------------

def run_eval(config: RunConfig) -> Report:
    n = config.n_min
    strategy = config.strategies_enabled[0]
    value, elapsed = timed(identity.EVALUATORS[strategy], n)
    fields = describe_value(value, config)
    row: Row = {"n": n, "strategy": strategy.name, **fields, "duration_ns": elapsed}
    if fields["value"] is not None:
        text = [fields["value"]]
    else:
        text = [f"sha256:{fields['digest']} digits={fields['digits']}"]
    return Report(config, [row], text, EVAL_CSV_COLUMNS)


# --- verify -----------------------------------------------------------------

def _verify_keys(record: BenchRecord, ref: BenchRecord | None) -> Row:
    return {"skipped": True} if record.skipped else {"reference": ref.strategy.name}


def run_verify(config: RunConfig) -> Report:
    rows: list[Row] = []
    text = []
    for n, _, group in _measured(config, _verify_keys):
        rows += group
        measured = [r for r in group if r["equal"] != "skipped"]
        skipped = [r for r in group if r["equal"] == "skipped"]
        bad = [r for r in measured if r["equal"] is not True]
        note = f" ({', '.join(r['step_or_strategy'] for r in skipped)} skipped)" if skipped else ""
        if bad:
            details = "; ".join(
                f"{r['step_or_strategy']}={_short(r['lhs_digest'])} vs "
                f"{r['reference']}={_short(r['rhs_digest'])}"
                for r in bad
            )
            text.append(f"n={n} MISMATCH {details}{note}")
        else:
            text.append(f"n={n} ok ({len(measured)} strategies agree{note})")
    text.append(
        f"verify {config.n_min}..{config.n_max}: "
        + ("all values agree" if rows_pass(rows) else "MISMATCH FOUND")
    )
    return Report(config, rows, text)


# --- steps ------------------------------------------------------------------

def run_steps(config: RunConfig) -> Report:
    ns = list(range(config.n_min, config.n_max + 1))
    enabled = set(config.steps_enabled)
    rows: list[Row] = []
    text: list[str] = []
    for n, reports in zip(ns, _map_over(verify_chain_timed, ns, config.parallelism)):
        checks = (
            (report.step.name, report.lhs, report.rhs, report.equal, elapsed, {})
            for report, elapsed in reports
            if report.step in enabled
        )
        for row in _check_rows(n, checks):
            rows.append(row)
            mark = "ok" if row["equal"] else "MISMATCH"
            text.append(f"n={n} {row['step_or_strategy']:<15} {mark}")
    text.append(
        f"steps {config.n_min}..{config.n_max}: "
        + ("every step holds" if rows_pass(rows) else "STEP MISMATCH FOUND")
    )
    return Report(config, rows, text)


# --- bench ------------------------------------------------------------------

def _bench_keys(record: BenchRecord, ref: BenchRecord | None) -> Row:
    return {"repetition": None if record.skipped else record.repetition, "skipped": record.skipped}


def run_bench(config: RunConfig) -> Report:
    rows: list[Row] = []
    text = []
    timings: list[BenchRecord] = []  # for the medians, without the values
    for _, records, group in _measured(config, _bench_keys):
        rows += group
        for record, row in zip(records, group):
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
            timings.append(replace(record, value=None))
    for strategy in config.strategies_enabled:
        if any(r.strategy is strategy and not r.skipped for r in timings):
            median = median_duration_ns(timings, strategy)
            text.append(f"median {strategy.name:<12} {median / 1e6:10.3f} ms")
    text.append("digests consistent" if rows_pass(rows) else "DIGEST MISMATCH")
    return Report(config, rows, text)


# --- table ------------------------------------------------------------------

def run_table(config: RunConfig) -> Report:
    strategy = config.strategies_enabled[0]
    ns = range(config.n_min, config.n_max + 1)
    if strategy is identity.Strategy.CLOSED_FORM:
        values = map(identity.evaluate_closed_form, ns, central_binomials(ns))
    else:
        values = map(identity.EVALUATORS[strategy], ns)
    rows: list[Row] = []
    text = [f"{'n':>8}  {'digits':>8}  value"]
    for n, value in zip(ns, values):
        fields = describe_value(value, config)
        rows.append({"n": n, **fields})
        shown = fields["value"] if fields["value"] is not None else f"sha256:{_short(fields['digest'])}..."
        text.append(f"{n:>8}  {fields['digits']:>8}  {shown}")
    return Report(config, rows, text, TABLE_CSV_COLUMNS)
