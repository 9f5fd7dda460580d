"""Command runners: turn a RunConfig into report rows.

Each runner returns ``(rows, all_passed, text_lines)``. Rows are the
format-independent payload (see :mod:`cbsum.report`); text_lines are the
human-readable rendering. Runs over an n-range may fan out across worker
processes, results are merged back in input order, so reports are
deterministic for a fixed config.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence

from . import identity
from .bench import (
    BenchRecord,
    STRATEGY_ORDER,
    digests_consistent,
    median_duration_ns,
    reference_digests,
    run_benchmark,
)
from .chain import verify_chain_timed
from .combinatorics import SumInstance
from .digests import value_digest
from .identity import Strategy
from .report import RunConfig, describe_value

Row = dict[str, Any]

EVAL_CSV_COLUMNS = ("n", "strategy", "value", "digest", "digits", "duration_ns")
TABLE_CSV_COLUMNS = ("n", "value", "digest", "digits")


def _map_over(fn: Callable[[int], Any], ns: Sequence[int], jobs: int) -> list[Any]:
    if jobs <= 1 or len(ns) <= 1:
        return [fn(n) for n in ns]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(ns) // (jobs * 4))
        return list(pool.map(fn, ns, chunksize=chunk))


def _short(digest: str) -> str:
    return digest[:12] if digest else "-"


# --- eval -------------------------------------------------------------------

def run_eval(config: RunConfig) -> tuple[list[Row], bool, list[str]]:
    n = config.n_min
    strategy = config.strategies_enabled[0]
    start = time.perf_counter_ns()
    result = identity.EVALUATORS[strategy](SumInstance(n))
    elapsed = max(1, time.perf_counter_ns() - start)
    fields = describe_value(result.value, config)
    row: Row = {
        "n": n,
        "strategy": strategy.name,
        "value": fields.get("value"),
        "digest": fields.get("digest") or value_digest(result.value),
        "digits": fields["digits"],
        "duration_ns": elapsed,
    }
    if fields.get("value") is not None:
        text = [fields["value"]]
    else:
        text = [f"sha256:{fields['digest']} digits={fields['digits']}"]
    return [row], True, text


# --- verify -----------------------------------------------------------------

def _verify_one(n: int, strategies: tuple[Strategy, ...], naive_cutoff: int) -> list[Row]:
    rows: list[Row] = []
    reference: str | None = None
    reference_name: str | None = None
    inst = SumInstance(n)
    for strategy in strategies:
        if strategy is Strategy.NAIVE and n > naive_cutoff:
            rows.append(
                {
                    "n": n,
                    "step_or_strategy": strategy.name,
                    "lhs_digest": "",
                    "rhs_digest": "",
                    "equal": "skipped",
                    "duration_ns": None,
                    "skipped": True,
                }
            )
            continue
        start = time.perf_counter_ns()
        result = identity.EVALUATORS[strategy](inst)
        elapsed = max(1, time.perf_counter_ns() - start)
        digest = value_digest(result.value)
        if reference is None:
            reference, reference_name = digest, strategy.name
        rows.append(
            {
                "n": n,
                "step_or_strategy": strategy.name,
                "lhs_digest": digest,
                "rhs_digest": reference,
                "equal": digest == reference,
                "duration_ns": elapsed,
                "reference": reference_name,
            }
        )
    return rows


def run_verify(config: RunConfig) -> tuple[list[Row], bool, list[str]]:
    ns = list(range(config.n_min, config.n_max + 1))
    strategies = tuple(s for s in STRATEGY_ORDER if s in config.strategies_enabled)
    worker = partial(
        _verify_one, strategies=strategies, naive_cutoff=config.naive_cutoff
    )
    per_n = _map_over(worker, ns, config.parallelism)
    rows = [row for group in per_n for row in group]
    all_passed = all(row["equal"] is True for row in rows if row["equal"] != "skipped")
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
        + ("all values agree" if all_passed else "MISMATCH FOUND")
    )
    return rows, all_passed, text


# --- steps ------------------------------------------------------------------

def _steps_one(n: int) -> list[tuple[Any, int]]:
    return verify_chain_timed(n)


def run_steps(config: RunConfig) -> tuple[list[Row], bool, list[str]]:
    ns = list(range(config.n_min, config.n_max + 1))
    per_n = _map_over(_steps_one, ns, config.parallelism)
    enabled = set(config.steps_enabled)
    rows: list[Row] = []
    text: list[str] = []
    for n, reports in zip(ns, per_n):
        for report, elapsed in reports:
            if report.step not in enabled:
                continue
            rows.append(
                {
                    "n": n,
                    "step_or_strategy": report.step.name,
                    "lhs_digest": value_digest(report.lhs),
                    "rhs_digest": value_digest(report.rhs),
                    "equal": report.equal,
                    "duration_ns": elapsed,
                }
            )
            mark = "ok" if report.equal else "MISMATCH"
            text.append(f"n={n} {report.step.name:<15} {mark}")
    all_passed = all(row["equal"] for row in rows)
    text.append(
        f"steps {config.n_min}..{config.n_max}: "
        + ("every step holds" if all_passed else "STEP MISMATCH FOUND")
    )
    return rows, all_passed, text


# --- bench ------------------------------------------------------------------

def _bench_rows(records: Sequence[BenchRecord]) -> list[Row]:
    refs = reference_digests(records)
    rows: list[Row] = []
    for record in records:
        if record.skipped:
            rows.append(
                {
                    "n": record.n,
                    "step_or_strategy": record.strategy.name,
                    "lhs_digest": "",
                    "rhs_digest": "",
                    "equal": "skipped",
                    "duration_ns": None,
                    "repetition": None,
                    "skipped": True,
                }
            )
            continue
        reference = refs[record.n]
        rows.append(
            {
                "n": record.n,
                "step_or_strategy": record.strategy.name,
                "lhs_digest": record.digest,
                "rhs_digest": reference,
                "equal": record.digest == reference,
                "duration_ns": record.duration_ns,
                "repetition": record.repetition,
                "skipped": False,
            }
        )
    return rows


def run_bench(config: RunConfig) -> tuple[list[Row], bool, list[str]]:
    ns = list(range(config.n_min, config.n_max + 1))
    strategies = tuple(s for s in STRATEGY_ORDER if s in config.strategies_enabled)
    records = run_benchmark(
        ns, strategies, config.repetitions, naive_cutoff=config.naive_cutoff
    )
    rows = _bench_rows(records)
    all_passed = digests_consistent(records)
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
    text.append("digests consistent" if all_passed else "DIGEST MISMATCH")
    return rows, all_passed, text


# --- table ------------------------------------------------------------------

def run_table(config: RunConfig) -> tuple[list[Row], bool, list[str]]:
    ns = list(range(config.n_min, config.n_max + 1))
    strategy = config.strategies_enabled[0]
    rows: list[Row] = []
    text = [f"{'n':>8}  {'digits':>8}  value"]
    for n in ns:
        value = identity.EVALUATORS[strategy](SumInstance(n)).value
        fields = describe_value(value, config)
        digest = fields.get("digest") or value_digest(value)
        rows.append(
            {
                "n": n,
                "value": fields.get("value"),
                "digest": digest,
                "digits": fields["digits"],
            }
        )
        shown = fields["value"] if fields.get("value") is not None else f"sha256:{_short(digest)}..."
        text.append(f"{n:>8}  {fields['digits']:>8}  {shown}")
    return rows, True, text
