"""Report shapes shared by all CLI commands.

:class:`RunConfig` is a plain record of one run's settings; the CLI fills
it and checks every input before building it. A report is rendered and
written in parts as the run goes, one part per ``n`` and one closing
part, so no run holds its whole report. The three output formats encode
the same values:

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
import io
import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .bench import DEFAULT_NAIVE_CUTOFF
from .chain import CHAIN_COMPARISONS, StepId
from .digests import decimal_str, text_digest
from .identity import Strategy

if TYPE_CHECKING:
    from decimal import Decimal

#: Canonical CSV columns for comparison-style reports.
CSV_COLUMNS = ("n", "step_or_strategy", "lhs_digest", "rhs_digest", "equal", "duration_ns")
EVAL_CSV_COLUMNS = ("n", "strategy", "value", "digest", "digits", "duration_ns")
TABLE_CSV_COLUMNS = ("n", "value", "digest", "digits")

#: Above this many decimal digits, machine output switches from the full
#: decimal value to digest + digit count (unless full_decimal is set).
DEFAULT_DIGEST_THRESHOLD = 1000


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output: a record that the CLI
    fills from its options and checks, not a validator. Each field bears
    the name of its option and of its key in the JSON config.

    ``strategies`` and ``steps`` are kept in canonical order; reports must
    be byte-identical for equal configs whatever the number of workers.
    """

    command: str
    n_min: int
    n_max: int
    strategies: tuple[Strategy, ...] = ()
    steps: tuple[StepId, ...] = CHAIN_COMPARISONS
    format: str = "text"
    jobs: int = 1
    repetitions: int = 1
    naive_cutoff: int = DEFAULT_NAIVE_CUTOFF
    full_decimal: bool = False
    digest_threshold: int = DEFAULT_DIGEST_THRESHOLD

    def to_dict(self) -> dict[str, Any]:
        """The fields as the JSON config prints them: members by name."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return [member.name for member in value]
    return value


def _cell(value: Any) -> Any:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def rows_pass(rows: Sequence[Mapping[str, Any]]) -> bool:
    """A run passes unless some row compared unequal; a skipped row and a
    row that compares nothing (eval, table) do not fail it."""
    return all(row.get("equal") is not False for row in rows)


_JSON = json.JSONEncoder(indent=2)


def _json(value: Any) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it one level deep."""
    return _JSON.encode(value).replace("\n", "\n  ")


def render_report(
    config: RunConfig,
    rows: Sequence[dict[str, Any]],
    text: Sequence[str],
    opens: bool,
    all_passed: bool | None = None,
) -> str:
    """The text of one part of a report: ``rows`` and ``text`` lines, with
    the CSV header or the JSON config if it ``opens`` the report, and with
    ``all_passed`` if it closes it. The part that opens the report holds
    the first ``n``'s rows. A report's parts, rendered in order and joined,
    give what ``json.dumps(payload, indent=2) + "\n"``, the csv module or
    the command's text lines give for the whole report."""
    if config.format == "json":
        out = []
        if opens:
            out.append('{\n  "config": ' + _json(config.to_dict()) + ',\n  "results": [')
        if rows:
            # the rows as one list, one level deep, without its brackets:
            # "\n    {...},\n    {...}"
            encoded = _json(rows)[1 : -len("\n  ]")]
            out.append(encoded if opens else "," + encoded)
        if all_passed is not None:
            out.append('\n  ],\n  "all_passed": ' + json.dumps(all_passed) + "\n}\n")
        return "".join(out)
    if config.format == "csv":
        columns = {"eval": EVAL_CSV_COLUMNS, "table": TABLE_CSV_COLUMNS}.get(config.command, CSV_COLUMNS)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if opens:
            writer.writerow(columns)
        writer.writerows([_cell(row.get(col)) for col in columns] for row in rows)
        return buffer.getvalue()
    return "".join(line + "\n" for line in text)


def describe_value(value: int | Decimal, config: RunConfig) -> dict[str, Any]:
    """Value fields for machine output, honoring the digest threshold.

    Always carries the digest. The value, an int or an integral Decimal,
    is turned into decimal text once; that text gives the digest, the digit
    count and, if shown, the value.
    """
    text = decimal_str(value)
    digits = len(text) - (value < 0)
    shown = config.full_decimal or digits <= config.digest_threshold
    return {"value": text if shown else None, "digest": text_digest(text), "digits": digits}
