"""Outside-in tracing of ``cbsum`` for the per-layer metrics.

The benchmark cannot place spans inside the program, so it wraps the
program's public functions from outside. A function is wrapped at every
module binding that refers to it (``chain.pascal_row`` and
``identity.pascal_row`` as well as ``combinatorics.pascal_row``), and in
module-level dicts such as ``identity.EVALUATORS``, so a call is traced
whichever name it goes through. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Span name -> (module under ``cbsum``, function name).
TARGETS: dict[str, tuple[str, str]] = {
    "runs.run_eval": ("runs", "run_eval"),
    "runs.run_verify": ("runs", "run_verify"),
    "runs.run_steps": ("runs", "run_steps"),
    "runs.run_table": ("runs", "run_table"),
    "identity.naive": ("identity", "evaluate_naive"),
    "identity.symmetrized": ("identity", "evaluate_symmetrized"),
    "identity.closed_form": ("identity", "evaluate_closed_form"),
    "combinatorics.binomial": ("combinatorics", "binomial"),
    "combinatorics.pascal_row": ("combinatorics", "pascal_row"),
    "chain.absorbed_form": ("chain", "absorbed_form"),
    "chain.folded_form": ("chain", "folded_form"),
    "chain.cancelled_form": ("chain", "cancelled_form"),
    "chain.telescoped_form": ("chain", "telescoped_form"),
    "chain.closure_sides": ("chain", "closure_sides"),
    "chain.alternative_finish": ("chain", "alternative_finish"),
    "chain.verify_chain_timed": ("chain", "verify_chain_timed"),
    "digests.decimal_str": ("digests", "decimal_str"),
    "digests.value_digest": ("digests", "value_digest"),
    "digests.decimal_digits": ("digests", "decimal_digits"),
    "report.describe_value": ("report", "describe_value"),
    "report.render_report": ("report", "render_report"),
}
RUNNERS = tuple(name for name in TARGETS if name.startswith("runs."))

#: Spans that do the work for one n; rows built inside them count per n.
UNITS = ("chain.verify_chain_timed", "identity.naive", "identity.symmetrized", "identity.closed_form")

#: Extra attributes recorded per span, from the call's arguments and result.
ATTRS: dict[str, Callable[[tuple, Any], dict]] = {
    "combinatorics.pascal_row": lambda args, result: {"m": args[0]},
    "digests.decimal_str": lambda args, result: {"digits": len(result), "int": hash(args[0])},
    "report.render_report": lambda args, result: {"bytes": len(result.encode())},
}

#: The span the benchmark records around each whole in-process CLI call.
ROOT_SPAN = "cli.main"


@dataclass
class Span:
    id: int
    parent: int | None
    root: int
    name: str
    start_ns: int
    dur_ns: int = 0
    child_ns: int = 0
    outermost: bool = True
    unit: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns


def _unit_n(args: tuple) -> int | None:
    n = getattr(args[0], "n", args[0]) if args else None
    return n if isinstance(n, int) else None


class Tracer:
    """Installs span-recording wrappers on entry and restores on exit."""

    def __init__(self, names=tuple(TARGETS)):
        self.names = tuple(names)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._active: dict[str, int] = {}
        self._restore: list[Callable[[], None]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans)
        span = Span(span_id, parent and parent.id, stack[0].root if stack else span_id, name, 0)
        self.spans.append(span)
        span.outermost = not self._active.get(name)
        span.unit = parent.unit if parent else None
        if span.unit is None and name in UNITS:
            span.unit = _unit_n(args)
        self._active[name] = self._active.get(name, 0) + 1
        stack.append(span)
        span.start_ns = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.dur_ns = time.perf_counter_ns() - span.start_ns
            stack.pop()
            self._active[name] -= 1
            if parent is not None:
                parent.child_ns += span.dur_ns
        if name in ATTRS:
            span.attrs = ATTRS[name](args, result)
        return result

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items()) if key == "cbsum" or key.startswith("cbsum.")]
        for name in self.names:
            module_name, attr = TARGETS[name]
            original = getattr(sys.modules.get(f"cbsum.{module_name}"), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._bind(modules, original, self._wrapper(name, original))
        return self

    def _bind(self, modules, original: Callable, wrapper: Callable) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append(functools.partial(setattr, module, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            self._restore.append(functools.partial(value.__setitem__, key, original))

    def __exit__(self, *exc) -> None:
        while self._restore:
            self._restore.pop()()

    # --- aggregates ---------------------------------------------------------

    def of(self, prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def busy_s(self, name: str) -> float:
        return sum(s.dur_ns for s in self.of(name) if s.outermost) / 1e9

    def self_s(self, name: str) -> float:
        return sum(s.self_ns for s in self.of(name)) / 1e9

    def attr_sum(self, name: str, attr: str) -> int:
        return sum(s.attrs.get(attr, 0) for s in self.of(name))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (0 where the pass never ran a layer)."""
    t = tracer
    rows = t.of("combinatorics.pascal_row")
    conversions = t.of("digests.decimal_str")
    metrics: dict[str, float] = {"runs.self_s": t.self_s("runs")}
    for layer in ("naive", "symmetrized"):
        metrics[f"identity.{layer}.busy_s"] = t.busy_s(f"identity.{layer}")
        metrics[f"identity.{layer}.calls"] = t.calls(f"identity.{layer}")
    metrics["identity.closed_form.self_s"] = t.self_s("identity.closed_form")
    metrics["identity.closed_form.calls"] = t.calls("identity.closed_form")
    for name in ("binomial", "pascal_row"):
        metrics[f"combinatorics.{name}.busy_s"] = t.busy_s(f"combinatorics.{name}")
        metrics[f"combinatorics.{name}.calls"] = t.calls(f"combinatorics.{name}")
    # rows and ints count as distinct per CLI invocation (root span)
    distinct_rows = len({(s.root, s.unit, s.attrs.get("m")) for s in rows})
    metrics["combinatorics.pascal_row.reuse_ratio"] = distinct_rows / len(rows) if rows else 0.0
    for name in (
        "absorbed_form",
        "folded_form",
        "cancelled_form",
        "telescoped_form",
        "closure_sides",
        "alternative_finish",
        "verify_chain_timed",
    ):
        metrics[f"chain.{name}.self_s"] = t.self_s(f"chain.{name}")
    metrics["digests.decimal_str.busy_s"] = t.busy_s("digests.decimal_str")
    metrics["digests.decimal_str.calls"] = len(conversions)
    metrics["digests.decimal_str.digits"] = t.attr_sum("digests.decimal_str", "digits")
    metrics["digests.value_digest.self_s"] = t.self_s("digests.value_digest")
    metrics["digests.value_digest.calls"] = t.calls("digests.value_digest")
    metrics["digests.decimal_digits.busy_s"] = t.busy_s("digests.decimal_digits")
    distinct_ints = len({(s.root, s.attrs.get("int")) for s in conversions})
    metrics["digests.useful_ratio"] = distinct_ints / len(conversions) if conversions else 0.0
    metrics["report.describe_value.self_s"] = t.self_s("report.describe_value")
    metrics["report.render_report.busy_s"] = t.busy_s("report.render_report")
    metrics["report.bytes_out"] = t.attr_sum("report.render_report", "bytes")
    return metrics


#: Layers (modules of ``cbsum``) each workload's traced run must reach.
LAYERS = ("cli", "runs", "identity", "combinatorics", "digests", "report")
LAYERS_USED = {
    "big-eval": LAYERS,
    "wide-table": LAYERS,
    "chain-steps": LAYERS + ("chain",),
    "crosscheck": LAYERS,
}


def layer_calls(tracer: Tracer) -> dict[str, int]:
    """Spans recorded per layer."""
    counts = dict.fromkeys(LAYERS + ("chain",), 0)
    for span in tracer.spans:
        counts[span.name.split(".", 1)[0]] += 1
    return counts
