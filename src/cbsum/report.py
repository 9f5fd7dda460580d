"""Report shapes shared by all CLI commands.

:class:`RunConfig` is a plain record of one run's settings; the CLI fills
it and checks every input before building it. A runner hands its report
over in parts, one :class:`Report` per ``n`` and one closing part, and
each part is rendered and written as it comes, so no run holds its whole
report. The three output formats encode the same values:

* json -- ``{"config": {...}, "results": [...], "all_passed": bool}``;
          the part that opens the report carries the config, each part
          its rows, and the closing part ``all_passed``
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
    """One part of what a command produced, ready to render in any output
    format. Rendered one after another, a command's parts make its report.

    The part written first ``opens`` the report: it adds the CSV header,
    or the JSON config and the opening of the results. Unless it also
    closes the report, it holds at least one row, the first ``n``'s, so
    that the JSON separators fall right. The last part closes the report
    and alone sets ``all_passed``: whether every row of the run passed.
    """

    config: RunConfig
    rows: Sequence[Mapping[str, Any]] = ()
    text: Sequence[str] = ()
    columns: Sequence[str] = CSV_COLUMNS
    opens: bool = False
    all_passed: bool | None = None


_JSON = json.JSONEncoder(indent=2)


def _json(value: Any, depth: int) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it ``depth`` levels deep."""
    return _JSON.encode(value).replace("\n", "\n" + "  " * depth)


#: One CSV writer for every part; its buffer is emptied before each part,
#: so its record buffer is allocated once, not once per part.
_CSV_BUFFER = io.StringIO()
_CSV = csv.writer(_CSV_BUFFER, lineterminator="\n")


def render_report(report: Report) -> str:
    """The text of one part. A report's parts, rendered in order and
    joined, give what ``json.dumps(payload, indent=2) + "\n"``, the csv
    module or the command's text lines give for the whole report."""
    if report.config.output_format is OutputFormat.JSON:
        out = []
        if report.opens:
            out.append('{\n  "config": ' + _json(report.config.to_dict(), 1) + ',\n  "results": [')
        if report.rows:
            # the rows as one list, one level deep, without its brackets:
            # "\n    {...},\n    {...}"
            rows = _json([dict(row) for row in report.rows], 1)[1 : -len("\n  ]")]
            out.append(rows if report.opens else "," + rows)
        if report.all_passed is not None:
            out.append("]" if report.opens and not report.rows else "\n  ]")
            out.append(',\n  "all_passed": ' + json.dumps(report.all_passed) + "\n}\n")
        return "".join(out)
    if report.config.output_format is OutputFormat.CSV:
        _CSV_BUFFER.seek(0)
        _CSV_BUFFER.truncate(0)
        if report.opens:
            _CSV.writerow(report.columns)
        _CSV.writerows([_cell(row.get(col)) for col in report.columns] for row in report.rows)
        return _CSV_BUFFER.getvalue()
    return "".join(line + "\n" for line in report.text)


def describe_value(value: int, config: RunConfig) -> dict[str, Any]:
    """Value fields for machine output, honoring the digest threshold.

    Always carries the digest. The value is converted to decimal once; that
    text gives the digest, the digit count and, if shown, the value.
    """
    text = decimal_str(value)
    digits = len(text) - (value < 0)
    shown = config.full_decimal or digits <= config.digest_threshold
    return {"value": text if shown else None, "digest": text_digest(text), "digits": digits}
