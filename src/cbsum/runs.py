"""Command runners: turn a RunConfig into a :class:`~cbsum.report.Report`.

Each runner returns one Report: its rows are the format-independent
payload, its text lines the human-readable rendering, and its columns
the CSV header. Whether the run passed is read off the rows. Runs over
an n-range may fan out across worker processes, results are merged back
in input order, so reports are deterministic for a fixed config.
"""
from __future__ import annotations

import os
from functools import cache, partial
from typing import Any, Callable, Sequence

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


def _map_over(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int) -> list[Any]:
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # one item per task: a worker that finishes takes the next n, so the
        # costly large n at the end of a range do not queue behind one worker
        return list(pool.map(fn, items))


def _short(digest: str) -> str:
    return digest[:12] if digest else "-"


def _check_rows(
    records: Sequence[BenchRecord],
    extra: Callable[[BenchRecord, BenchRecord | None], Row],
) -> list[Row]:
    """One row per record, set beside the reference: the first record
    measured at its n. Whether the values are equal comes from the record
    (compared as integers); the digests are for display. The command's own
    keys come from ``extra(record, reference)``."""
    refs: dict[int, BenchRecord] = {}
    for record in records:
        if not record.skipped:
            refs.setdefault(record.n, record)
    rows: list[Row] = []
    for record in records:
        ref = refs.get(record.n)
        measured = not record.skipped
        rows.append(
            {
                "n": record.n,
                "step_or_strategy": record.strategy.name,
                "lhs_digest": record.digest,
                "rhs_digest": ref.digest if measured else "",
                "equal": record.equal if measured else "skipped",
                "duration_ns": record.duration_ns if measured else None,
                **extra(record, ref),
            }
        )
    return rows


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
    ns = list(range(config.n_min, config.n_max + 1))
    measure = partial(
        run_benchmark,
        strategies=config.strategies_enabled,
        repetitions=1,
        naive_cutoff=config.naive_cutoff,
    )
    per_n = [
        _check_rows(records, _verify_keys)
        for records in _map_over(measure, [[n] for n in ns], config.parallelism)
    ]
    rows = [row for group in per_n for row in group]
    text = []
    for n, group in zip(ns, per_n):
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
    per_n = _map_over(verify_chain_timed, ns, config.parallelism)
    enabled = set(config.steps_enabled)
    rows: list[Row] = []
    text: list[str] = []
    for n, reports in zip(ns, per_n):
        # lines share values, and a holding step has lhs == rhs: digest each
        # distinct value of this n once
        digest = cache(value_digest)
        for report, elapsed in reports:
            if report.step not in enabled:
                continue
            rows.append(
                {
                    "n": n,
                    "step_or_strategy": report.step.name,
                    "lhs_digest": digest(report.lhs),
                    "rhs_digest": digest(report.rhs),
                    "equal": report.equal,
                    "duration_ns": elapsed,
                }
            )
            mark = "ok" if report.equal else "MISMATCH"
            text.append(f"n={n} {report.step.name:<15} {mark}")
    text.append(
        f"steps {config.n_min}..{config.n_max}: "
        + ("every step holds" if rows_pass(rows) else "STEP MISMATCH FOUND")
    )
    return Report(config, rows, text)


# --- bench ------------------------------------------------------------------

def _bench_keys(record: BenchRecord, ref: BenchRecord | None) -> Row:
    return {"repetition": None if record.skipped else record.repetition, "skipped": record.skipped}


def run_bench(config: RunConfig) -> Report:
    ns = range(config.n_min, config.n_max + 1)
    strategies = config.strategies_enabled
    records = run_benchmark(ns, strategies, config.repetitions, config.naive_cutoff)
    rows = _check_rows(records, _bench_keys)
    text = []
    for record in records:
        if record.skipped:
            text.append(
                f"n={record.n} {record.strategy.name:<12} skipped "
                f"(naive cutoff {config.naive_cutoff})"
            )
        else:
            text.append(
                f"n={record.n} {record.strategy.name:<12} rep={record.repetition} "
                f"{record.duration_ns / 1e6:10.3f} ms  digest={_short(record.digest)}"
            )
    for strategy in strategies:
        measured = [r for r in records if r.strategy is strategy and not r.skipped]
        if measured:
            median = median_duration_ns(records, strategy)
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
