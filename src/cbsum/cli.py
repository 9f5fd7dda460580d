"""Command-line front end.

Exit codes follow the CI-friendly contract: 0 = all checks pass,
1 = mathematical mismatch found, 2 = usage or configuration error,
3 = internal error (an uncaught exception, traceback on stderr),
130 = interrupted (Ctrl-C), 141 = stdout closed before the report was
written (128 + SIGPIPE). ``main.main(argv, standalone_mode=False)``
returns the code instead of exiting, and lets exceptions propagate.

Every usage error is raised here, as a ``click.UsageError``. A bound on
one option is its type, named in the message and shown by ``--help``:
``click.IntRange`` keeps ``--n``, ``--naive-cutoff``,
``--digest-threshold`` >= 0, ``--jobs`` (``CBSUM_JOBS``) >= 1,
``eval --n`` at most ``MAX_EVAL_N`` and ``--repetitions`` from 1 to
``MAX_REPETITIONS``; :class:`NRange` reads
``--range`` as ``N`` or ``A..B``, A <= B, with A >= 0, or A >= 1 for
``steps``, and at most ``sys.maxsize`` n. Rules that tie options
together sit in their command: one rule, :func:`_require_measured`,
counts the strategies measured at the largest n, which ``eval``,
``table`` and ``bench`` need one of and ``verify`` two; ``bench`` takes
exactly one of ``--n`` and ``--range``.
"""
from __future__ import annotations

import os
import sys
from typing import Any

import click

from . import __version__
from .bench import DEFAULT_NAIVE_CUTOFF, MAX_EVAL_N, MAX_REPETITIONS, skipped
from .chain import CHAIN_COMPARISONS
from .identity import Strategy
from .report import DEFAULT_DIGEST_THRESHOLD, RunConfig, render_report, rows_pass
from .runs import run_bench, run_eval, run_steps, run_table, run_verify

STRATEGY_NAMES = {s.value: s for s in Strategy}
STEP_NAMES = {s.name: s for s in CHAIN_COMPARISONS}


class NRange(click.ParamType):
    """``--range``: ``N`` or ``A..B`` (inclusive), as ``(n_min, n_max)``,
    with ``n_min >= least``; ``why`` gives the reason for a ``least`` above 0."""

    name = "range"

    def __init__(self, least: int = 0, why: str = "") -> None:
        self.least, self.why = least, why

    def convert(self, value: Any, param: Any, ctx: Any) -> tuple[int, int]:
        if isinstance(value, tuple):
            return value
        lo_text, dots, hi_text = value.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            self.fail(f"{value!r}: expected N or A..B", param, ctx)
        if lo < self.least:
            self.fail(f"{value!r}: n must be >= {self.least}" + (self.why and ": " + self.why), param, ctx)
        if lo > hi:
            self.fail(f"{value!r}: lower bound exceeds upper", param, ctx)
        if hi - lo + 1 > sys.maxsize:  # len() of the range must fit in a C ssize_t
            self.fail(f"{value!r}: more than {sys.maxsize} n", param, ctx)
        return lo, hi


def _choice_option(flag: str, field: str, by_name: dict[str, Any], **kwargs: Any):
    """An option naming keys of ``by_name``; it delivers the named members
    (all when none are named) as a tuple in canonical order."""

    def pick(ctx, param, names):
        names = (names,) if isinstance(names, str) else names
        return tuple(m for name, m in by_name.items() if not names or name in names)

    return click.option(flag, field, type=click.Choice(sorted(by_name)), callback=pick, **kwargs)


def _finish(runner, n_min: int, n_max: int, **fields: Any) -> None:
    """Run ``runner``, writing its report part by part to ``sys.stdout`` as
    it comes, and exit with the code its rows call for. The first part
    opens the report; the lines ``runner`` returns close it, with
    ``all_passed`` read off the same running flag as the exit code. Only
    the write and the final flush may find the reader gone: that exits 141."""
    ctx = click.get_current_context()
    config = RunConfig(ctx.command.name, n_min, n_max, **fields)
    passed = opens = True

    def write(part: str, last: bool = False) -> None:
        try:
            sys.stdout.write(part)
            if last:
                sys.stdout.flush()
        except BrokenPipeError:
            ctx.exit(141)  # the reader is gone: stop as SIGPIPE would

    def emit(rows: list[dict[str, Any]], text: list[str]) -> bool:
        nonlocal passed, opens
        write(render_report(config, rows, text, opens))
        opens = False
        passed = rows_pass(rows) and passed
        return passed

    closing = runner(config, emit)
    write(render_report(config, [], closing, False, passed), last=True)
    ctx.exit(0 if passed else 1)


def _require_measured(
    least: int, n_max: int, strategies: tuple[Strategy, ...], naive_cutoff: int
) -> None:
    # a strategy is skipped above its cutoff, so n_max measures the fewest
    measured = sum(not skipped(s, n_max, naive_cutoff) for s in strategies)
    if measured < least:
        command = click.get_current_context().command.name
        raise click.UsageError(
            f"{command} needs {least} {('strategy', 'strategies')[least > 1]} measured "
            f"at every n, but at n={n_max} only {measured} would be: strategies are "
            f"skipped above their cutoffs (--naive-cutoff {naive_cutoff}); name "
            "another --strategy or raise the cutoff"
        )


format_option = click.option(
    "--format",
    type=click.Choice(["json", "csv", "text"]),
    default="text",
    show_default=True,
    help="Report encoding.",
)
jobs_option = click.option(
    "--jobs",
    type=click.IntRange(min=1),
    default=1,
    envvar="CBSUM_JOBS",
    show_default=True,
    help="Worker processes for per-n parallelism (env: CBSUM_JOBS).",
)
cutoff_option = click.option(
    "--naive-cutoff",
    type=click.IntRange(min=0),
    default=DEFAULT_NAIVE_CUTOFF,
    show_default=True,
    help="Largest n the naive strategy runs at: verify and bench skip it "
    "above, eval and table refuse to run.",
)
full_decimal_option = click.option(
    "--full-decimal",
    is_flag=True,
    help="Always print full decimal values, regardless of size.",
)
digest_threshold_option = click.option(
    "--digest-threshold",
    type=click.IntRange(min=0),
    default=DEFAULT_DIGEST_THRESHOLD,
    show_default=True,
    help="Digits above which values are reported as digest + digit count.",
)
strategy_option = _choice_option(
    "--strategy", "strategies", STRATEGY_NAMES, default=Strategy.CLOSED_FORM.value,
    show_default=True,
)
strategies_option = _choice_option(
    "--strategy", "strategies", STRATEGY_NAMES, multiple=True,
    help="Strategies to measure (default: all three).",
)


class _Main(click.Group):
    """Maps each outcome to its exit code in one place. Click's own errors
    keep their code; Ctrl-C exits 130 after "Aborted!" and an uncaught
    exception exits 3 with its traceback, where click would exit 1 for
    both, the code of a mathematical mismatch. With ``standalone_mode=False``
    the exit code is returned and exceptions propagate, as in click itself.
    """

    def main(self, *args: Any, standalone_mode: bool = True, **kwargs: Any) -> Any:
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except click.Abort:
            click.echo("Aborted!", err=True)
            code = 130
        except Exception:
            import traceback  # only a crash needs it

            traceback.print_exc()
            code = 3
        if code == 141:  # only an exiting process: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(code)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Exact evaluation and verification of a central-binomial double sum.

    S(n) sums C(2n,n+i) C(2n,n+j) |i^2 - j^2| over the full grid and equals
    2 n^2 C(2n,n)^2; all commands work in exact integer arithmetic.
    """


@main.command("eval")
@click.option("--n", type=click.IntRange(min=0, max=MAX_EVAL_N), required=True, help="Problem size.")
@strategy_option
@format_option
@cutoff_option
@full_decimal_option
@digest_threshold_option
def eval_cmd(n: int, **fields: Any) -> None:
    """Print S(n) computed with one strategy."""
    _require_measured(1, n, fields["strategies"], fields["naive_cutoff"])
    _finish(run_eval, n_min=n, n_max=n, **fields)


@main.command("verify")
@click.option("--range", "n_range", type=NRange(), required=True, help="Range of n, e.g. 0..50.")
@strategies_option
@format_option
@jobs_option
@cutoff_option
def verify_cmd(n_range: tuple[int, int], **fields: Any) -> None:
    """Check that all strategies agree on S(n) across a range.

    Exits 1 as soon as any two strategies disagree anywhere in the range;
    the report pinpoints the n and the differing digests.
    """
    _require_measured(2, n_range[1], fields["strategies"], fields["naive_cutoff"])
    _finish(run_verify, *n_range, **fields)


@main.command("steps")
@click.option(
    "--range", "n_range", required=True, help="Range of n >= 1, e.g. 1..20.",
    type=NRange(1, "the derivation divides by 2n(2n-1), which degenerates at n = 0"),
)
@_choice_option(
    "--step", "steps", STEP_NAMES, multiple=True,
    help="Chain comparisons to run, and so lines to evaluate (default: all seven).",
)
@format_option
@jobs_option
def steps_cmd(n_range: tuple[int, int], **fields: Any) -> None:
    """Verify every line of the derivation chain across a range of n."""
    _finish(run_steps, *n_range, **fields)


@main.command("bench")
@click.option("--n", type=click.IntRange(min=0), default=None, help="Single problem size.")
@click.option("--range", "n_range", type=NRange(), default=None, help="Range of n, e.g. 10..20.")
@strategies_option
@click.option(
    "--repetitions", type=click.IntRange(min=1, max=MAX_REPETITIONS), default=5, show_default=True
)
@format_option
@cutoff_option
def bench_cmd(n: int | None, n_range: tuple[int, int] | None, **fields: Any) -> None:
    """Time the strategies and cross-check their values."""
    if (n is None) == (n_range is None):
        raise click.UsageError("provide exactly one of --n or --range")
    n_min, n_max = (n, n) if n_range is None else n_range
    _require_measured(1, n_max, fields["strategies"], fields["naive_cutoff"])
    _finish(run_bench, n_min, n_max, **fields)


@main.command("table")
@click.option("--range", "n_range", type=NRange(), required=True, help="Range of n, e.g. 0..20.")
@strategy_option
@format_option
@cutoff_option
@full_decimal_option
@digest_threshold_option
def table_cmd(n_range: tuple[int, int], **fields: Any) -> None:
    """Tabulate n, S(n) and its decimal digit count over a range."""
    _require_measured(1, n_range[1], fields["strategies"], fields["naive_cutoff"])
    _finish(run_table, *n_range, **fields)


if __name__ == "__main__":
    main()
