"""Planted-fault matrix: a fault in any layer is caught by a small CLI call.

Each case replaces one binding with a faulty version, runs one CLI call at
n <= 6 and expects one catch: exit 1 (a mathematical mismatch), exit 3 (a
crash) or, where the fault changes only what is printed, stdout that
differs from the call's fixture under ``tests/golden/``. The same call
without the fault must pass, so the catch is the fault's doing.

A binding named at the module that defines the function (``report.
describe_value``) is replaced at every binding in ``cbsum`` that refers to
it, as a caller anywhere sees it; a name imported into another module
(``identity.pascal_row``) is replaced at that binding alone.

Some faults leave every CLI call on correct code unchanged, because they
hide a mismatch or change what no report shows. Unit tests catch those:

* ``runs._check_rows`` reporting every measured row equal:
  ``tests/test_cli.py::TestVerify::test_corrupted_evaluator_detected``.
* ``report.rows_pass`` passing every report:
  ``tests/test_cli.py::TestEmbedded::test_mismatch_returns_1``.
* ``chain.verify_chain_timed`` setting ``equal`` regardless of the sides:
  ``tests/test_chain.py::TestStepReport::test_unequal_sides_clear_the_flag``.
* The timer dropping its 1 ns floor, so an evaluation faster than the
  clock's tick reads 0: ``tests/test_cli.py::test_stopped_clock_reads_1_ns``.
* A digest memo that outlives one call:
  ``tests/test_cli.py::test_digested_value_is_converted_once``.
"""
from __future__ import annotations

import dataclasses
import sys
from typing import Any, Callable

import pytest
from click.testing import CliRunner

from cbsum.cli import main
from cbsum.identity import Strategy

from test_golden import fixture_path, mask_durations

GOLDEN = "golden"  # the expected catch: stdout differs from its fixture

VERIFY = ("verify", "--range", "2..4")
STEPS = ("steps", "--range", "1..6")


def plus_one(fn: Callable[..., int]) -> Callable[..., int]:
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def bumped_row(fn: Callable[[int], tuple[int, ...]]) -> Callable[[int], tuple[int, ...]]:
    """Pascal rows with the middle entry one too large."""

    def row(m: int) -> tuple[int, ...]:
        coeffs = list(fn(m))
        coeffs[m // 2] += 1
        return tuple(coeffs)

    return row


def short_row(fn: Callable[[int], tuple[int, ...]]) -> Callable[[int], tuple[int, ...]]:
    """Pascal rows missing their last entry."""
    return lambda m: fn(m)[:-1]


def closure_off(fn):
    def sides(*args, **kwargs):
        lhs, rhs = fn(*args, **kwargs)
        return lhs + 1, rhs

    return sides


def finish_off(fn):
    def finish(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, closed_product=result.closed_product + 1)

    return finish


def last_digit_dropped(fn: Callable[[int], str]) -> Callable[[int], str]:
    return lambda value: fn(value)[:-1]


def digest_of_other_text(fn: Callable[[str], str]) -> Callable[[str], str]:
    return lambda text: fn(text + "0")


def digits_off(fn):
    def describe(*args, **kwargs):
        fields = fn(*args, **kwargs)
        return {**fields, "digits": fields["digits"] + 1}

    return describe


def last_line_dropped(fn: Callable[..., str]) -> Callable[..., str]:
    return lambda *part: "".join(fn(*part).splitlines(keepends=True)[:-1])


# (binding, fault, argv, expected catch, other bindings set for the call)
CASES: list[tuple[str, Callable, tuple[str, ...], Any, dict[str, Any]]] = [
    ("identity.pascal_row", bumped_row, VERIFY, 1, {}),
    ("chain.pascal_row", bumped_row, STEPS, 1, {}),
    ("chain.pascal_row", short_row, STEPS, 3, {}),
    ("combinatorics._product", plus_one, VERIFY, 1, {"combinatorics.PRIME_KERNEL_CROSSOVER": 1}),
    ("combinatorics._product", plus_one, STEPS, 1, {"combinatorics.PRIME_KERNEL_CROSSOVER": 1}),
    # eval builds S(n) in decimal arithmetic from the kernel's crossover on
    (
        "combinatorics._product",
        plus_one,
        ("eval", "--n", "2", "--format", "json"),
        GOLDEN,
        {"combinatorics.PRIME_KERNEL_CROSSOVER": 1},
    ),
    *((f"identity.EVALUATORS[{s.name}]", plus_one, VERIFY, 1, {}) for s in Strategy),
    ("chain.evaluate_naive", plus_one, STEPS, 1, {}),
    ("chain.evaluate_symmetrized", plus_one, STEPS, 1, {}),
    ("chain.absorbed_form", plus_one, STEPS, 1, {}),
    ("chain.folded_form", plus_one, STEPS, 1, {}),
    ("chain.cancelled_form", plus_one, STEPS, 1, {}),
    ("chain.telescoped_form", plus_one, STEPS, 1, {}),
    ("chain.closure_sides", closure_off, STEPS, 1, {}),
    ("chain.alternative_finish", finish_off, STEPS, 1, {}),
    (
        "digests.decimal_str",
        last_digit_dropped,
        ("verify", "--range", "2..3", "--strategy", "symmetrized", "--strategy", "closed-form", "--format", "json"),
        GOLDEN,
        {},
    ),
    ("digests.text_digest", digest_of_other_text, (*STEPS, "--format", "csv"), GOLDEN, {}),
    ("report.describe_value", digits_off, ("eval", "--n", "2", "--format", "json"), GOLDEN, {}),
    ("report.render_report", last_line_dropped, (*STEPS, "--format", "text"), GOLDEN, {}),
]


def bindings(name: str) -> list[tuple[Any, Any]]:
    """(container, key) pairs to replace for ``name``, per the module docstring."""
    module_name, _, attr = name.partition(".")
    module = sys.modules[f"cbsum.{module_name}"]
    if "[" in attr:  # a dict entry, such as identity.EVALUATORS[NAIVE]
        attr, _, key = attr.rstrip("]").partition("[")
        return [(getattr(module, attr), Strategy[key])]
    original = getattr(module, attr)
    if getattr(original, "__module__", None) != module.__name__:
        return [(module, attr)]
    return [
        (other, key)
        for other_name, other in sys.modules.items()
        if other_name.startswith("cbsum.")
        for key, value in vars(other).items()
        if value is original
    ]


def replace(monkeypatch, container: Any, key: Any, value: Any) -> None:
    if isinstance(container, dict):
        monkeypatch.setitem(container, key, value)
    else:
        monkeypatch.setattr(container, key, value)


def get(container: Any, key: Any) -> Any:
    return container[key] if isinstance(container, dict) else getattr(container, key)


#: The comparison of each chain line's fault above that reads the line first.
OWN_STEP = {
    "chain.evaluate_naive": "L1_SYMMETRIZED",
    "chain.evaluate_symmetrized": "L1_SYMMETRIZED",
    "chain.absorbed_form": "L2_ABSORBED",
    "chain.folded_form": "L3_FOLDED",
    "chain.cancelled_form": "L5_CANCELLED",
    "chain.telescoped_form": "L6_TELESCOPED",
    "chain.closure_sides": "L7_CLOSED",
    "chain.alternative_finish": "X_FINISH",
}


@pytest.mark.parametrize(
    "binding,fault,argv,catch,also",
    CASES,
    ids=[f"{case[0]}-{case[1].__name__}-{case[2][0]}" for case in CASES],
)
def test_planted_fault_is_caught(monkeypatch, binding, fault, argv, catch, also):
    assert_caught(monkeypatch, binding, fault, argv, catch, also)


@pytest.mark.parametrize(
    "binding,fault,catch",
    [(binding, fault, catch) for binding, fault, _, catch, _ in CASES if binding in OWN_STEP],
    ids=[binding for binding, *_ in CASES if binding in OWN_STEP],
)
def test_chain_line_fault_is_caught_by_its_own_step_alone(monkeypatch, binding, fault, catch):
    # steps evaluates only the lines its named comparisons read, so this
    # call reaches the faulty line through the one comparison named
    assert_caught(monkeypatch, binding, fault, (*STEPS, "--step", OWN_STEP[binding]), catch, {})


def assert_caught(monkeypatch, binding, fault, argv, catch, also) -> None:
    """``argv`` passes as it is, and gives ``catch`` with ``fault`` planted at ``binding``."""
    for name, value in also.items():
        (container, key), = bindings(name)
        replace(monkeypatch, container, key, value)
    clean = CliRunner().invoke(main, list(argv))
    assert clean.exit_code == 0, clean.output
    if catch == GOLDEN:
        assert mask_durations(clean.output) == fixture_path(argv).read_text(encoding="ascii")

    targets = bindings(binding)
    assert targets, binding
    for container, key in targets:
        replace(monkeypatch, container, key, fault(get(container, key)))
    planted = CliRunner().invoke(main, list(argv))
    if catch == GOLDEN:
        assert planted.exit_code == 0, planted.output
        assert mask_durations(planted.output) != fixture_path(argv).read_text(encoding="ascii")
    else:
        assert planted.exit_code == catch, planted.output
