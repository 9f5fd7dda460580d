"""Report shapes shared by all CLI commands.

:class:`RunConfig` is a plain record of one run's settings; the CLI fills
it and checks every input before building it. Every runner returns one
:class:`Report`: the config, a list of result
rows, the text lines and the CSV columns. ``all_passed`` is read off the
rows. The three output formats encode the same values:

* json -- ``{"config": {...}, "results": [...], "all_passed": bool}``
* csv  -- one header plus one line per row; the check-style commands
          (verify, steps, bench) share the canonical header
          ``n,step_or_strategy,lhs_digest,rhs_digest,equal,duration_ns``
          while eval and table use value-oriented columns
* text -- human-readable lines produced by the command itself

Rows are plain dicts, rendered in the order the command produced them.
Runs that fan out across workers merge results back in input order, so
output is deterministic regardless of worker count.
"""
from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .bench import DEFAULT_NAIVE_CUTOFF
from .chain import CHAIN_COMPARISONS, StepId
from .digests import decimal_str, text_digest
from .identity import Strategy

#: Canonical CSV columns for comparison-style reports.
CSV_COLUMNS = ("n", "step_or_strategy", "lhs_digest", "rhs_digest", "equal", "duration_ns")

#: Above this many decimal digits, machine output switches from the full
#: decimal value to digest + digit count (unless full_decimal is set).
DEFAULT_DIGEST_THRESHOLD = 1000


class OutputFormat(enum.Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output: a record that the CLI
    fills from its options and checks, not a validator.

    ``steps_enabled`` and ``strategies_enabled`` are kept in canonical
    order; reports must be byte-identical for equal configs no matter how
    many workers executed the run.
    """

    command: str
    n_min: int
    n_max: int
    strategies_enabled: tuple[Strategy, ...] = ()
    steps_enabled: tuple[StepId, ...] = CHAIN_COMPARISONS
    output_format: OutputFormat = OutputFormat.TEXT
    parallelism: int = 1
    repetitions: int = 1
    naive_cutoff: int = DEFAULT_NAIVE_CUTOFF
    full_decimal: bool = False
    digest_threshold: int = DEFAULT_DIGEST_THRESHOLD

    def to_dict(self) -> dict[str, Any]:
        return {
            "command": self.command,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "strategies": [s.name for s in self.strategies_enabled],
            "steps": [s.name for s in self.steps_enabled],
            "format": self.output_format.value,
            "jobs": self.parallelism,
            "repetitions": self.repetitions,
            "naive_cutoff": self.naive_cutoff,
            "full_decimal": self.full_decimal,
            "digest_threshold": self.digest_threshold,
        }


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def rows_pass(rows: Sequence[Mapping[str, Any]]) -> bool:
    """A run passes unless some row compared unequal; a skipped row and a
    row that compares nothing (eval, table) do not fail it."""
    return all(row.get("equal") is not False for row in rows)


@dataclass(frozen=True)
class Report:
    """What one command produced, ready to render in any output format."""

    config: RunConfig
    rows: Sequence[Mapping[str, Any]]
    text: Sequence[str]
    columns: Sequence[str] = CSV_COLUMNS

    @property
    def all_passed(self) -> bool:
        return rows_pass(self.rows)


def render_report(report: Report) -> str:
    if report.config.output_format is OutputFormat.JSON:
        payload = {
            "config": report.config.to_dict(),
            "results": [dict(row) for row in report.rows],
            "all_passed": report.all_passed,
        }
        return json.dumps(payload, indent=2) + "\n"
    if report.config.output_format is OutputFormat.CSV:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_cell(row.get(col)) for col in report.columns])
        return buffer.getvalue()
    return "\n".join(report.text) + ("\n" if report.text else "")


def describe_value(value: int, config: RunConfig) -> dict[str, Any]:
    """Value fields for machine output, honoring the digest threshold.

    Always carries the digest. The value is converted to decimal once; that
    text gives the digest, the digit count and, if shown, the value.
    """
    text = decimal_str(value)
    digits = len(text) - (value < 0)
    shown = config.full_decimal or digits <= config.digest_threshold
    return {"value": text if shown else None, "digest": text_digest(text), "digits": digits}
