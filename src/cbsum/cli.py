"""Command-line front end.

Exit codes follow the CI-friendly contract: 0 = all checks pass,
1 = mathematical mismatch found, 2 = usage or configuration error,
3 = internal error (an uncaught exception, traceback on stderr),
130 = interrupted (Ctrl-C), 141 = stdout closed before the report was
written (128 + SIGPIPE). ``main.main(argv, standalone_mode=False)``
returns the code instead of exiting, and lets exceptions propagate.

The parser is cbsum's own, so a call loads no parsing library. Each
command lists its options beside it (:func:`_command`). An option takes
``--opt value`` or ``--opt=value``, and a value may begin with ``-``. A
repeated option keeps its last value, except ``--strategy`` of
``verify`` and ``bench`` and ``--step``, which collect every name. Only
whole option names are accepted.

Every usage error is raised here, as a :class:`UsageError`. A bound on
one option is its kind, named in the message and shown by ``--help``:
:class:`_Integer` keeps ``--n``, ``--naive-cutoff``,
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
from typing import Any, Callable, Sequence

from . import __version__
from .bench import DEFAULT_NAIVE_CUTOFF, MAX_EVAL_N, MAX_REPETITIONS, skipped
from .chain import CHAIN_COMPARISONS
from .identity import Strategy
from .report import DEFAULT_DIGEST_THRESHOLD, RunConfig, render_report, rows_pass
from .runs import run_bench, run_eval, run_steps, run_table, run_verify

STRATEGY_NAMES = {s.value: s for s in Strategy}
STEP_NAMES = {s.name: s for s in CHAIN_COMPARISONS}


class UsageError(Exception):
    """A command line that cannot run: exit 2, before any work starts."""

    def format_message(self) -> str:
        return str(self)


class _ReaderGone(Exception):
    """stdout's reader left before the report was written."""


class _Option:
    """An option of a command: ``flag`` gives the keyword ``field`` its
    value. :meth:`read` turns the texts given for it, in order, into that
    value; a ``ValueError`` it raises is a usage error naming the option."""

    metavar = ""
    bound = ""  # the values it takes, as --help shows them
    takes_value = True

    def __init__(
        self, flag: str, field: str, help: str = "", default: Any = None, required: bool = False, envvar: str = ""
    ) -> None:
        self.flag, self.field, self.help = flag, field, help
        self.default, self.required, self.envvar = default, required, envvar

    def read(self, texts: list[str]) -> Any:
        """The last text's value, or the default's if none was given."""
        if texts:
            return self.convert(texts[-1])
        return None if self.default is None else self.convert(self.default)

    def convert(self, text: str) -> Any:
        return text


class _Flag(_Option):
    takes_value = False

    def read(self, texts: list[str]) -> bool:
        return bool(texts)


class _Integer(_Option):
    """An integer from ``least`` to ``most``, or with no upper bound."""

    metavar = "INTEGER RANGE"

    def __init__(self, flag: str, field: str, least: int, most: int | None = None, **kwargs: Any) -> None:
        super().__init__(flag, field, **kwargs)
        self.least, self.most = least, most
        self.bound = f"x>={least}" if most is None else f"{least}<=x<={most}"

    def convert(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"{text!r} is not a valid integer range.") from None
        if value < self.least or (self.most is not None and value > self.most):
            raise ValueError(f"{value} is not in the range {self.bound}.")
        return value


class _Choice(_Option):
    """One of ``names``."""

    def __init__(self, flag: str, field: str, names: Sequence[str], **kwargs: Any) -> None:
        super().__init__(flag, field, **kwargs)
        self.names = tuple(names)
        self.metavar = f"[{'|'.join(self.names)}]"

    def convert(self, text: str) -> str:
        if text not in self.names:
            raise ValueError(f"{text!r} is not one of {', '.join(map(repr, self.names))}.")
        return text


class _Members(_Choice):
    """Names keys of ``by_name``; the value is the named members (all when
    none are named) as a tuple in canonical order. Every name given counts
    if ``multiple``, else the last one."""

    def __init__(self, flag: str, field: str, by_name: dict[str, Any], multiple: bool = False, **kwargs: Any) -> None:
        super().__init__(flag, field, sorted(by_name), **kwargs)
        self.by_name, self.multiple = by_name, multiple

    def read(self, texts: list[str]) -> tuple[Any, ...]:
        if not self.multiple:
            texts = texts[-1:] or [self.default]
        names = [self.convert(text) for text in texts]
        return tuple(member for name, member in self.by_name.items() if not names or name in names)


class NRange(_Option):
    """``--range``: ``N`` or ``A..B`` (inclusive), as ``(n_min, n_max)``,
    with ``n_min >= least``; ``why`` gives the reason for a ``least`` above 0."""

    metavar = "RANGE"

    def __init__(self, least: int = 0, why: str = "", **kwargs: Any) -> None:
        super().__init__("--range", "n_range", **kwargs)
        self.least, self.why = least, why

    def convert(self, text: str) -> tuple[int, int]:
        lo_text, dots, hi_text = text.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError:
            raise ValueError(f"{text!r}: expected N or A..B") from None
        if lo < self.least:
            raise ValueError(f"{text!r}: n must be >= {self.least}" + (self.why and ": " + self.why))
        if lo > hi:
            raise ValueError(f"{text!r}: lower bound exceeds upper")
        if hi - lo + 1 > sys.maxsize:  # len() of the range must fit in a C ssize_t
            raise ValueError(f"{text!r}: more than {sys.maxsize} n")
        return lo, hi


FORMAT = _Choice("--format", "format", ["json", "csv", "text"], help="Report encoding.", default="text")
JOBS = _Integer(
    "--jobs", "jobs", 1, default=1, envvar="CBSUM_JOBS",
    help="Worker processes for per-n parallelism (env: CBSUM_JOBS).",
)
CUTOFF = _Integer(
    "--naive-cutoff", "naive_cutoff", 0, default=DEFAULT_NAIVE_CUTOFF,
    help="Largest n the naive strategy runs at: verify and bench skip it above, eval and table refuse to run.",
)
FULL_DECIMAL = _Flag("--full-decimal", "full_decimal", help="Always print full decimal values, regardless of size.")
DIGEST_THRESHOLD = _Integer(
    "--digest-threshold", "digest_threshold", 0, default=DEFAULT_DIGEST_THRESHOLD,
    help="Digits above which values are reported as digest + digit count.",
)
STRATEGY = _Members("--strategy", "strategies", STRATEGY_NAMES, default=Strategy.CLOSED_FORM.value)
STRATEGIES = _Members(
    "--strategy", "strategies", STRATEGY_NAMES, multiple=True, help="Strategies to measure (default: all three)."
)

#: Each command's name -> its function and its options, in --help order.
COMMANDS: dict[str, tuple[Callable[..., int], tuple[_Option, ...]]] = {}


def _command(name: str, *options: _Option) -> Callable[[Callable[..., int]], Callable[..., int]]:
    """Register a command: the function is called with ``command=name`` and
    each option's value as keywords, and returns the exit code."""

    def register(fn: Callable[..., int]) -> Callable[..., int]:
        COMMANDS[name] = fn, options
        return fn

    return register


def _parse(options: Sequence[_Option], args: Sequence[str]) -> dict[str, Any] | None:
    """Each option's value from ``args``, or None if they ask for --help.

    Values are converted, and checked, in the order their options first
    appear, then the other options' in listed order; an unknown option is
    refused before any value is converted."""
    by_flag = {option.flag: option for option in options}
    given: dict[_Option, list[str]] = {}
    extra: list[str] = []
    wants_help = False
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            extra += tokens
        elif token == "--help":
            wants_help = True
        elif not token.startswith("-") or token == "-":
            extra.append(token)
        else:
            flag, eq, text = token.partition("=")
            option = by_flag.get(flag)
            if option is None:
                raise UsageError(f"No such option '{flag}'.")
            if not option.takes_value and eq:
                raise UsageError(f"Option '{flag}' does not take a value.")
            if option.takes_value and not eq:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"Option '{flag}' requires an argument.")
            given.setdefault(option, []).append(text)
    if wants_help:
        return None
    values = {}
    for option in [*given, *(option for option in options if option not in given)]:
        texts = given.get(option, [])
        if not texts and option.envvar and os.environ.get(option.envvar):
            texts = [os.environ[option.envvar]]
        if option.required and not texts:
            raise UsageError(f"Missing option '{option.flag}'.")
        try:
            values[option.field] = option.read(texts)
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{option.flag}': {exc}") from None
    if extra:
        raise UsageError(f"Got unexpected extra argument{'s' * (len(extra) > 1)} ({' '.join(extra)})")
    return values


def _finish(runner, n_min: int, n_max: int, **fields: Any) -> int:
    """Run ``runner``, writing its report part by part to ``sys.stdout`` as
    it comes, and return the exit code its rows call for. The first part
    opens the report; the lines ``runner`` returns close it, with
    ``all_passed`` read off the same running flag as the exit code. Only
    the write and the final flush may find the reader gone: that returns 141."""
    config = RunConfig(n_min=n_min, n_max=n_max, **fields)
    passed = opens = True

    def write(part: str, last: bool = False) -> None:
        try:
            sys.stdout.write(part)
            if last:
                sys.stdout.flush()
        except BrokenPipeError:
            raise _ReaderGone from None  # stop the run as SIGPIPE would

    def emit(rows: list[dict[str, Any]], text: list[str]) -> bool:
        nonlocal passed, opens
        write(render_report(config, rows, text, opens))
        opens = False
        passed = rows_pass(rows) and passed
        return passed

    try:
        closing = runner(config, emit)
        write(render_report(config, [], closing, False, passed), last=True)
    except _ReaderGone:
        return 141
    return 0 if passed else 1


def _require_measured(least: int, n_max: int, fields: dict[str, Any]) -> None:
    # a strategy is skipped above its cutoff, so n_max measures the fewest
    naive_cutoff = fields["naive_cutoff"]
    measured = sum(not skipped(s, n_max, naive_cutoff) for s in fields["strategies"])
    if measured < least:
        raise UsageError(
            f"{fields['command']} needs {least} {('strategy', 'strategies')[least > 1]} measured "
            f"at every n, but at n={n_max} only {measured} would be: strategies are "
            f"skipped above their cutoffs (--naive-cutoff {naive_cutoff}); name "
            "another --strategy or raise the cutoff"
        )


@_command(
    "eval",
    _Integer("--n", "n", 0, MAX_EVAL_N, required=True, help="Problem size."),
    STRATEGY, FORMAT, CUTOFF, FULL_DECIMAL, DIGEST_THRESHOLD,
)
def eval_cmd(n: int, **fields: Any) -> int:
    """Print S(n) computed with one strategy."""
    _require_measured(1, n, fields)
    return _finish(run_eval, n_min=n, n_max=n, **fields)


@_command("verify", NRange(help="Range of n, e.g. 0..50.", required=True), STRATEGIES, FORMAT, JOBS, CUTOFF)
def verify_cmd(n_range: tuple[int, int], **fields: Any) -> int:
    """Check that all strategies agree on S(n) across a range.

    Exits 1 if any two strategies disagree anywhere in the range, once
    every n has been checked and written; the report pinpoints each such
    n and the differing digests.
    """
    _require_measured(2, n_range[1], fields)
    return _finish(run_verify, *n_range, **fields)


@_command(
    "steps",
    NRange(
        1, "the derivation divides by 2n(2n-1), which degenerates at n = 0",
        help="Range of n >= 1, e.g. 1..20.", required=True,
    ),
    _Members(
        "--step", "steps", STEP_NAMES, multiple=True,
        help="Chain comparisons to run, and so lines to evaluate (default: all seven).",
    ),
    FORMAT, JOBS,
)
def steps_cmd(n_range: tuple[int, int], **fields: Any) -> int:
    """Verify every line of the derivation chain across a range of n."""
    return _finish(run_steps, *n_range, **fields)


@_command(
    "bench",
    _Integer("--n", "n", 0, help="Single problem size."),
    NRange(help="Range of n, e.g. 10..20."),
    STRATEGIES,
    _Integer("--repetitions", "repetitions", 1, MAX_REPETITIONS, default=5),
    FORMAT, CUTOFF,
)
def bench_cmd(n: int | None, n_range: tuple[int, int] | None, **fields: Any) -> int:
    """Time the strategies and cross-check their values."""
    if (n is None) == (n_range is None):
        raise UsageError("provide exactly one of --n or --range")
    n_min, n_max = (n, n) if n_range is None else n_range
    _require_measured(1, n_max, fields)
    return _finish(run_bench, n_min, n_max, **fields)


@_command(
    "table",
    NRange(help="Range of n, e.g. 0..20.", required=True),
    STRATEGY, FORMAT, CUTOFF, FULL_DECIMAL, DIGEST_THRESHOLD,
)
def table_cmd(n_range: tuple[int, int], **fields: Any) -> int:
    """Tabulate n, S(n) and its decimal digit count over a range."""
    _require_measured(1, n_range[1], fields)
    return _finish(run_table, *n_range, **fields)


def _help(usage: str, doc: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """A --help page: the usage, the description, then each section's
    two-column list, wrapped to 80 columns."""
    import textwrap  # only --help needs it

    lines = [f"Usage: {usage}", ""]
    for paragraph in doc.split("\n\n"):
        lines += textwrap.wrap(" ".join(paragraph.split()), 80, initial_indent="  ", subsequent_indent="  ") + [""]
    for title, rows in sections.items():
        width = min(max(len(term) for term, _ in rows), 30)
        lines.append(f"{title}:")
        for term, text in rows:
            wrapped = textwrap.wrap(text, 80 - width - 4)
            if len(term) <= width and wrapped:
                lines.append(f"  {term:<{width}}  {wrapped.pop(0)}")
            else:
                lines.append(f"  {term}")
            lines += [" " * (width + 4) + line for line in wrapped]
        lines.append("")
    return "\n".join(lines)


def _option_help(option: _Option) -> tuple[str, str]:
    """The option's row on --help, its default and bound in brackets."""
    default = "" if option.default is None else f"default: {option.default}"
    extras = "; ".join(filter(None, [default, option.bound, "required" * option.required]))
    text = option.help + (f"  [{extras}]" if extras else "")
    return f"{option.flag} {option.metavar}".rstrip(), text.strip()


HELP_ENTRY = ("--help", "Show this message and exit.")


def _usage(prog: str, command: str | None) -> str:
    return f"{prog} {command} [OPTIONS]" if command else f"{prog} [OPTIONS] COMMAND [ARGS]..."


def _run(prog: str, args: list[str]) -> int:
    """The exit code of one call; a usage error raises :class:`UsageError`."""
    name = args[0] if args else ""
    if name == "--version":
        print(f"{prog}, version {__version__}")
        return 0
    if name == "--help":
        commands = [(key, fn.__doc__.splitlines()[0]) for key, (fn, _) in sorted(COMMANDS.items())]
        options = [("--version", "Show the version and exit."), HELP_ENTRY]
        print(_help(_usage(prog, None), _Main.__doc__, {"Options": options, "Commands": commands}), end="")
        return 0
    if name.startswith("-"):
        raise UsageError(f"No such option '{name.partition('=')[0]}'.")
    if name not in COMMANDS:
        raise UsageError(f"No such command '{name}'." if name else "Missing command.")
    fn, options = COMMANDS[name]
    values = _parse(options, args[1:])
    if values is None:
        rows = [_option_help(option) for option in options] + [HELP_ENTRY]
        print(_help(_usage(prog, name), fn.__doc__, {"Options": rows}), end="")
        return 0
    return fn(command=name, **values)


class _Main:
    """Exact evaluation and verification of a central-binomial double sum.

    S(n) sums C(2n,n+i) C(2n,n+j) |i^2 - j^2| over the full grid and equals
    2 n^2 C(2n,n)^2; all commands work in exact integer arithmetic.
    """

    name = "main"

    def __call__(self) -> None:
        self.main()

    def main(self, args: Sequence[str] | None = None, prog_name: str | None = None, standalone_mode: bool = True) -> int:
        """Run one command line (``sys.argv`` by default) and exit with its
        code. With ``standalone_mode=False`` the code is returned, and a
        usage error, a crash or Ctrl-C propagates as its exception."""
        args = sys.argv[1:] if args is None else list(args)
        prog = prog_name or _program_name()
        if not standalone_mode:
            return _run(prog, args)
        try:
            code = _run(prog, args)
        except UsageError as exc:
            command = args[0] if args and args[0] in COMMANDS else None
            path = f"{prog} {command}" if command else prog
            print(f"Usage: {_usage(prog, command)}\nTry '{path} --help' for help.\n\nError: {exc}", file=sys.stderr)
            code = 2
        except KeyboardInterrupt:
            print("Aborted!", file=sys.stderr)
            code = 130
        except Exception as exc:
            # exit 3 whatever printing the traceback does. Out of memory,
            # even importing the printer can fail, so the locals of the
            # frames that failed, which may hold the memory, go first.
            try:
                tb = exc.__traceback__.tb_next  # past this frame, still running
                while tb is not None:
                    tb.tb_frame.clear()
                    tb = tb.tb_next
                import traceback

                traceback.print_exc()
            except Exception:
                pass
            code = 3
        if code == 141:  # only an exiting process: the flush at exit must not fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(code)


def _program_name() -> str:
    """``cbsum`` as a console script, ``python -m cbsum.cli`` as a module."""
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    return f"python -m {spec.name}" if spec else os.path.basename(sys.argv[0])


main = _Main()

if __name__ == "__main__":
    main()
