"""Command-line front end.

Exit codes follow the CI-friendly contract: 0 = all checks pass,
1 = mathematical mismatch found, 2 = usage or configuration error,
3 = internal error (an uncaught exception, traceback on stderr),
130 = interrupted (Ctrl-C), 141 = stdout closed before the report was
written (128 + SIGPIPE). ``main.main(argv, standalone_mode=False)``
returns the code instead of exiting, and lets exceptions propagate.
"""
from __future__ import annotations

import os
import sys
from typing import Any

import click

from . import __version__
from .bench import DEFAULT_NAIVE_CUTOFF
from .chain import CHAIN_COMPARISONS, StepId
from .identity import Strategy
from .report import DEFAULT_DIGEST_THRESHOLD, OutputFormat, RunConfig, render_report
from .runs import run_bench, run_eval, run_steps, run_table, run_verify

STRATEGY_NAMES = {s.value: s for s in Strategy}
STEP_NAMES = {s.name: s for s in CHAIN_COMPARISONS}


def parse_range(spec: str) -> tuple[int, int]:
    """Parse ``A..B`` (inclusive) or a single ``N`` into (n_min, n_max)."""
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise click.UsageError(f"bad range {spec!r}: expected N or A..B")
    if lo < 0:
        raise click.UsageError(f"bad range {spec!r}: n must be >= 0")
    if lo > hi:
        raise click.UsageError(f"bad range {spec!r}: lower bound exceeds upper")
    return lo, hi


def _pick_strategies(names: tuple[str, ...]) -> tuple[Strategy, ...]:
    """The named strategies (all when none are named), in canonical order."""
    return tuple(s for s in Strategy if not names or s.value in names)


def _finish(config: RunConfig, runner) -> None:
    try:
        config.validate()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    report = runner(config)
    ctx = click.get_current_context()
    try:
        click.echo(render_report(report), nl=False)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the final
        # flush at exit does not fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        ctx.exit(141)
    ctx.exit(0 if report.all_passed else 1)


format_option = click.option(
    "--format",
    "output_format",
    type=click.Choice([f.value for f in OutputFormat]),
    default=OutputFormat.TEXT.value,
    show_default=True,
    help="Report encoding.",
)
jobs_option = click.option(
    "--jobs",
    type=int,
    default=1,
    envvar="CBSUM_JOBS",
    show_default=True,
    help="Worker processes for per-n parallelism (env: CBSUM_JOBS).",
)
cutoff_option = click.option(
    "--naive-cutoff",
    type=int,
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
    type=int,
    default=DEFAULT_DIGEST_THRESHOLD,
    show_default=True,
    help="Digits above which values are reported as digest + digit count.",
)
strategy_option = click.option(
    "--strategy",
    type=click.Choice(sorted(STRATEGY_NAMES)),
    default=Strategy.CLOSED_FORM.value,
    show_default=True,
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
        sys.exit(code)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main() -> None:
    """Exact evaluation and verification of a central-binomial double sum.

    S(n) sums C(2n,n+i) C(2n,n+j) |i^2 - j^2| over the full grid and equals
    2 n^2 C(2n,n)^2; all commands work in exact integer arithmetic.
    """


@main.command("eval")
@click.option("--n", "n", type=int, required=True, help="Problem size n >= 0.")
@strategy_option
@format_option
@cutoff_option
@full_decimal_option
@digest_threshold_option
def eval_cmd(n, strategy, output_format, naive_cutoff, full_decimal, digest_threshold) -> None:
    """Print S(n) computed with one strategy."""
    if n < 0:
        raise click.UsageError(f"n must be >= 0, got {n}")
    config = RunConfig(
        command="eval",
        n_min=n,
        n_max=n,
        strategies_enabled=(STRATEGY_NAMES[strategy],),
        output_format=OutputFormat(output_format),
        naive_cutoff=naive_cutoff,
        full_decimal=full_decimal,
        digest_threshold=digest_threshold,
    )
    _finish(config, run_eval)


@main.command("verify")
@click.option("--range", "range_spec", required=True, help="Range of n, e.g. 0..50.")
@click.option(
    "--strategy",
    "strategies",
    type=click.Choice(sorted(STRATEGY_NAMES)),
    multiple=True,
    help="Strategies to compare (default: all three).",
)
@format_option
@jobs_option
@cutoff_option
def verify_cmd(range_spec, strategies, output_format, jobs, naive_cutoff) -> None:
    """Check that all strategies agree on S(n) across a range.

    Exits 1 as soon as any two strategies disagree anywhere in the range;
    the report pinpoints the n and the differing digests.
    """
    n_min, n_max = parse_range(range_spec)
    config = RunConfig(
        command="verify",
        n_min=n_min,
        n_max=n_max,
        strategies_enabled=_pick_strategies(strategies),
        output_format=OutputFormat(output_format),
        parallelism=jobs,
        naive_cutoff=naive_cutoff,
    )
    _finish(config, run_verify)


@main.command("steps")
@click.option("--range", "range_spec", required=True, help="Range of n, e.g. 1..20.")
@click.option(
    "--step",
    "steps",
    type=click.Choice(sorted(STEP_NAMES)),
    multiple=True,
    help="Restrict to specific chain comparisons (default: all seven).",
)
@format_option
@jobs_option
def steps_cmd(range_spec, steps, output_format, jobs) -> None:
    """Verify every line of the derivation chain across a range of n."""
    n_min, n_max = parse_range(range_spec)
    enabled = (
        tuple(s for s in CHAIN_COMPARISONS if s.name in steps)
        if steps
        else CHAIN_COMPARISONS
    )
    config = RunConfig(
        command="steps",
        n_min=n_min,
        n_max=n_max,
        steps_enabled=enabled,
        output_format=OutputFormat(output_format),
        parallelism=jobs,
    )
    _finish(config, run_steps)


@main.command("bench")
@click.option("--n", "n", type=int, default=None, help="Single problem size.")
@click.option("--range", "range_spec", default=None, help="Range of n, e.g. 10..20.")
@click.option(
    "--strategy",
    "strategies",
    type=click.Choice(sorted(STRATEGY_NAMES)),
    multiple=True,
    help="Strategies to time (default: all three).",
)
@click.option("--repetitions", type=int, default=5, show_default=True)
@format_option
@cutoff_option
def bench_cmd(n, range_spec, strategies, repetitions, output_format, naive_cutoff) -> None:
    """Time the strategies and cross-check their result digests."""
    if (n is None) == (range_spec is None):
        raise click.UsageError("provide exactly one of --n or --range")
    n_min, n_max = (n, n) if n is not None else parse_range(range_spec)
    if n is not None and n < 0:
        raise click.UsageError(f"n must be >= 0, got {n}")
    config = RunConfig(
        command="bench",
        n_min=n_min,
        n_max=n_max,
        strategies_enabled=_pick_strategies(strategies),
        output_format=OutputFormat(output_format),
        repetitions=repetitions,
        naive_cutoff=naive_cutoff,
    )
    _finish(config, run_bench)


@main.command("table")
@click.option("--range", "range_spec", required=True, help="Range of n, e.g. 0..20.")
@strategy_option
@format_option
@cutoff_option
@full_decimal_option
@digest_threshold_option
def table_cmd(range_spec, strategy, output_format, naive_cutoff, full_decimal, digest_threshold) -> None:
    """Tabulate n, S(n) and its decimal digit count over a range."""
    n_min, n_max = parse_range(range_spec)
    config = RunConfig(
        command="table",
        n_min=n_min,
        n_max=n_max,
        strategies_enabled=(STRATEGY_NAMES[strategy],),
        output_format=OutputFormat(output_format),
        naive_cutoff=naive_cutoff,
        full_decimal=full_decimal,
        digest_threshold=digest_threshold,
    )
    _finish(config, run_table)


if __name__ == "__main__":
    main()
