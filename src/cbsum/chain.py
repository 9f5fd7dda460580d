"""Step-by-step verification of the derivation of the closed form.

The derivation proceeds through a chain of displayed lines, each a quantity
that can be evaluated exactly on its own. With S = S(n) and the shorthand
X = sum_{i>=0} C(2n-2, n-1+i), the chain is:

    L0  S as defined (full grid, absolute value): the NAIVE evaluator
    L1  4 sum_{i>=0} sum_{|j|<=i} C(2n,n+i) C(2n,n+j) (i^2 - j^2): the
        SYMMETRIZED evaluator
    L2  S / (4*2n*(2n-1)) rewritten via the absorption identity as a
        signed pair of double sums over rows 2n-2 and 2n
    L3  the j-range folded to 0 <= j <= i, picking up boundary single sums
    L4  L3 with every C(2n, .) expanded by the double Pascal rule
        (not materialized: its content is exactly pascal_triple_sides
        plus linearity, and its value would duplicate L3 term for term)
    L5  the post-cancellation form: four double sums purely in row 2n-2
        plus the two boundary single sums
    L6  the telescoped form: four products of a coefficient and a single
        half-row sum
    L7  closure: L6 == n C(2n,n)^2 / (4(2n-1))
    X   alternative finish: L6 rewritten in terms of X alone collapses to
        C(2n-2,n-1) C(2n-1,n-1)

Every function here evaluates its line literally, iterating only over the
support of the coefficients involved. Each line takes ``(n, rows)``:
rows 2n and 2n-2 and their prefix sums, built once per n by
:func:`verify_chain_timed`, which alone checks n >= 1. So each inner sum
sum_{a<=k<b} row[k] is one prefix-sum difference and each line costs O(n)
big-integer operations. It evaluates a line only for a comparison it is
asked to run that reads the line. Rational steps are verified in
cleared-denominator integer form; no rational arithmetic exists anywhere.

Quantities are returned as (possibly signed) ints. In a correct build they
are all positive, but two-term combinations could in principle go negative,
so nothing here assumes a sign.
"""
from __future__ import annotations

import enum
import itertools
from functools import cache
from typing import Collection, NamedTuple

from .bench import timed
from .combinatorics import binomial, pascal_row
from .identity import evaluate_naive, evaluate_symmetrized


class StepId(enum.Enum):
    """One comparison of the derivation chain, named after the line it
    checks against its predecessor; X_FINISH is the alternative ending.
    L4 is not materialized (see module docstring), so L5_CANCELLED
    compares L5 with L3.
    """

    L1_SYMMETRIZED = "L1_SYMMETRIZED"
    L2_ABSORBED = "L2_ABSORBED"
    L3_FOLDED = "L3_FOLDED"
    L5_CANCELLED = "L5_CANCELLED"
    L6_TELESCOPED = "L6_TELESCOPED"
    L7_CLOSED = "L7_CLOSED"
    X_FINISH = "X_FINISH"


#: The seven consecutive comparisons verify_chain emits, in order.
CHAIN_COMPARISONS: tuple[StepId, ...] = tuple(StepId)


class StepReport(NamedTuple):
    """Outcome of checking one derivation step at one n.

    ``equal`` reflects the full per-step check. For every step except
    X_FINISH that is exactly ``lhs == rhs``; the X_FINISH report folds in
    the three auxiliary identities and the closed-product equality as well,
    since that step stands or falls with them.
    """

    n: int
    step: StepId
    lhs: int
    rhs: int
    equal: bool


class _Rows:
    """Rows 2n (``big``) and 2n-2 (``small``) of Pascal's triangle, with
    their prefix sums: ``big_sum(a, b)`` is sum(big[a:b]) for 0 <= a <= b.

    A plain class with slots, not a named tuple like :class:`StepReport`:
    it builds its fields from ``n`` rather than being handed them.
    """

    __slots__ = ("big", "small", "_big_prefix", "_small_prefix")

    def __init__(self, n: int) -> None:
        self.big = pascal_row(2 * n)
        self.small = pascal_row(2 * n - 2)
        self._big_prefix = tuple(itertools.accumulate(self.big, initial=0))
        self._small_prefix = tuple(itertools.accumulate(self.small, initial=0))

    def big_sum(self, a: int, b: int) -> int:
        return self._big_prefix[b] - self._big_prefix[a]

    def small_sum(self, a: int, b: int) -> int:
        return self._small_prefix[b] - self._small_prefix[a]


def absorbed_form(n: int, rows: _Rows) -> int:
    """L2: the value of S(n) / (4 * 2n * (2n-1)) after absorption,

        - sum_{i>=0} sum_{|j|<=i} C(2n-2,n-1+i) C(2n,n+j)
        + sum_{i>=0} sum_{|j|<=i} C(2n,n+i) C(2n-2,n-1+j)

    evaluated as a plain integer from ``rows``, the :class:`_Rows` at ``n``
    (callers clear the denominator when comparing against L1).
    """
    big, small = rows.big, rows.small
    top = 2 * n - 2
    first = 0
    for i in range(n):  # C(2n-2, n-1+i) vanishes for i > n-1
        first += small[n - 1 + i] * rows.big_sum(n - i, n + i + 1)
    second = 0
    for i in range(n + 1):
        lo = max(0, n - 1 - i)
        hi = min(top, n - 1 + i)
        second += big[n + i] * rows.small_sum(lo, hi + 1)
    return -first + second


def folded_form(n: int, rows: _Rows) -> int:
    """L3: the j-range of L2 folded to 0 <= j <= i by row symmetry,

        - 2 sum_{0<=j<=i} C(2n-2,n-1+i) C(2n,n+j)
        + C(2n,n) sum_{i>=0} C(2n-2,n-1+i)
        + 2 sum_{0<=j<=i} C(2n,n+i) C(2n-2,n-1+j)
        - C(2n-2,n-1) sum_{i>=0} C(2n,n+i)

    where the single sums are the j = 0 boundary terms the fold exposes.
    """
    big, small = rows.big, rows.small
    top = 2 * n - 2
    first = 0
    for i in range(n):
        first += small[n - 1 + i] * rows.big_sum(n, n + i + 1)
    second = big[n] * rows.small_sum(n - 1, top + 1)
    third = 0
    for i in range(n + 1):
        hi = min(top, n - 1 + i)
        third += big[n + i] * rows.small_sum(n - 1, hi + 1)
    fourth = small[n - 1] * rows.big_sum(n, 2 * n + 1)
    return -2 * first + second + 2 * third - fourth


def cancelled_form(n: int, rows: _Rows) -> int:
    """L5: what survives after expanding L3 by the double Pascal rule and
    cancelling the matching pair of sums:

        - 2 sum_{0<=j<=i} C(2n-2,n-1+i) C(2n-2,n+j)
        + 2 sum_{0<=j<=i} C(2n-2,n-2+i) C(2n-2,n-1+j)
        + 2 sum_{0<=j<=i} C(2n-2,n+i)   C(2n-2,n-1+j)
        - 2 sum_{0<=j<=i} C(2n-2,n-1+i) C(2n-2,n-2+j)
        - C(2n-2,n-1) sum_{i>=0} C(2n,n+i)
        + C(2n,n)     sum_{i>=0} C(2n-2,n-1+i)
    """
    big, small = rows.big, rows.small
    top = 2 * n - 2

    def triangle(shift_i: int, shift_j: int) -> int:
        # sum over 0 <= j <= i of small[shift_i + i] * small[shift_j + j],
        # iterating only where both factors are in range
        total = 0
        lo = max(0, shift_j)
        for i in range(max(0, -shift_i), min(n, top - shift_i) + 1):
            hi = min(top, shift_j + i)
            if hi >= lo:
                total += small[shift_i + i] * rows.small_sum(lo, hi + 1)
        return total

    return (
        -2 * triangle(n - 1, n)
        + 2 * triangle(n - 2, n - 1)
        + 2 * triangle(n, n - 1)
        - 2 * triangle(n - 1, n - 2)
        - small[n - 1] * rows.big_sum(n, 2 * n + 1)
        + big[n] * rows.small_sum(n - 1, top + 1)
    )


def telescoped_form(n: int, rows: _Rows) -> int:
    """L6: the double sums of L5 telescoped down to boundary single sums,

        + 2 C(2n-2,n-1) sum_{i>=0} C(2n-2,n-2+i)
        - 2 C(2n-2,n-2) sum_{i>=0} C(2n-2,n-1+i)
        - C(2n-2,n-1)   sum_{i>=0} C(2n,n+i)
        + C(2n,n)       sum_{i>=0} C(2n-2,n-1+i)
    """
    big, small = rows.big, rows.small
    top = 2 * n - 2
    center = small[n - 1]
    below = small[n - 2] if n >= 2 else 0
    low_sum = rows.small_sum(max(0, n - 2), top + 1)
    x = rows.small_sum(n - 1, top + 1)
    parent_half = rows.big_sum(n, 2 * n + 1)
    return 2 * center * low_sum - 2 * below * x - center * parent_half + big[n] * x


def closure_sides(n: int, rows: _Rows, telescoped: int) -> tuple[int, int]:
    """L7 in cleared-denominator form: 4(2n-1) L6  vs  n C(2n,n)^2.

    ``telescoped`` is L6 at ``n``, evaluated from the same ``rows``.
    """
    center = rows.big[n]
    return 4 * (2 * n - 1) * telescoped, n * center * center


class AlternativeFinish(NamedTuple):
    """The X-based ending: L6 rewritten purely in terms of X.

    ``expression`` is

        2 C(2n-2,n-1) [C(2n-2,n-2) + X] - 2 C(2n-2,n-2) X
        - C(2n-2,n-1) [4X - C(2n-2,n-1) + C(2n-2,n-2)] + C(2n,n) X

    and ``closed_product`` the value it collapses to,
    C(2n-2,n-1) C(2n-1,n-1). The three substitutions the rewrite relies on
    are carried as explicit (lhs, rhs) pairs:

    * ``low_shift_sides``:  sum_{i>=0} C(2n-2,n-2+i)  vs  C(2n-2,n-2) + X
    * ``parent_row_sides``: sum_{i>=0} C(2n,n+i)  vs
                            4X - C(2n-2,n-1) + C(2n-2,n-2)
    * ``adjacent_pair_sides``: C(2n-2,n-2) + C(2n-2,n-1)  vs  C(2n-1,n-1)
    """

    x: int
    expression: int
    closed_product: int
    telescoped: int
    low_shift_sides: tuple[int, int]
    parent_row_sides: tuple[int, int]
    adjacent_pair_sides: tuple[int, int]

    @property
    def all_equal(self) -> bool:
        return (
            self.expression == self.telescoped == self.closed_product
            and self.low_shift_sides[0] == self.low_shift_sides[1]
            and self.parent_row_sides[0] == self.parent_row_sides[1]
            and self.adjacent_pair_sides[0] == self.adjacent_pair_sides[1]
        )


def alternative_finish(n: int, rows: _Rows, telescoped: int) -> AlternativeFinish:
    """Evaluate the X-based finish and everything it depends on.

    ``telescoped`` is L6 at ``n``, evaluated from the same ``rows``.
    C(2n-1,n-1) comes from :func:`binomial`, not from the rows, so the
    adjacent-pair substitution is checked against an independent value.
    """
    big, small = rows.big, rows.small
    top = 2 * n - 2
    above = binomial(2 * n - 1, n - 1)
    center = small[n - 1]
    below = small[n - 2] if n >= 2 else 0
    x = rows.small_sum(n - 1, top + 1)
    expression = (
        2 * center * (below + x)
        - 2 * below * x
        - center * (4 * x - center + below)
        + big[n] * x
    )
    return AlternativeFinish(
        x=x,
        expression=expression,
        closed_product=center * above,
        telescoped=telescoped,
        low_shift_sides=(rows.small_sum(max(0, n - 2), top + 1), below + x),
        parent_row_sides=(rows.big_sum(n, 2 * n + 1), 4 * x - center + below),
        adjacent_pair_sides=(below + center, above),
    )


def verify_chain_timed(n: int, steps: Collection[StepId] = CHAIN_COMPARISONS) -> list[tuple[StepReport, int]]:
    """Run the comparisons in ``steps`` at ``n``, in chain order, timing each.

    A line, or the rows, is evaluated once, when the first comparison that
    reads it runs, and that comparison's duration (ns, from ``timed``)
    covers it: with all seven, the first covers L0 and L1, both reference
    sums, and the second building the rows. A false flag is a result, never
    an exception.
    """
    if n < 1:
        raise ValueError(f"verify_chain: needs n >= 1 (the chain divides by 2n(2n-1)), got n={n}")
    # each memo looks its line's function up when first called
    rows = cache(lambda: _Rows(n))
    l0, l1 = cache(lambda: evaluate_naive(n)), cache(lambda: evaluate_symmetrized(n))
    l2, l3 = cache(lambda: absorbed_form(n, rows())), cache(lambda: folded_form(n, rows()))
    l5, l6 = cache(lambda: cancelled_form(n, rows())), cache(lambda: telescoped_form(n, rows()))
    finish = cache(lambda: alternative_finish(n, rows(), l6()))
    sides = {
        StepId.L1_SYMMETRIZED: lambda: (l0(), l1()),
        StepId.L2_ABSORBED: lambda: (l1(), 4 * (2 * n) * (2 * n - 1) * l2()),
        StepId.L3_FOLDED: lambda: (l2(), l3()),
        StepId.L5_CANCELLED: lambda: (l3(), l5()),
        StepId.L6_TELESCOPED: lambda: (l5(), l6()),
        StepId.L7_CLOSED: lambda: closure_sides(n, rows(), l6()),
        StepId.X_FINISH: lambda: (l6(), finish().expression),
    }
    reports = []
    for step in [s for s in CHAIN_COMPARISONS if s in steps]:
        (lhs, rhs), elapsed = timed(sides[step])
        equal = finish().all_equal if step is StepId.X_FINISH else lhs == rhs
        reports.append((StepReport(n, step, lhs, rhs, equal), elapsed))
    return reports


def verify_chain(n: int) -> list[StepReport]:
    """The seven consecutive-line comparisons at ``n``, in chain order."""
    return [report for report, _ in verify_chain_timed(n)]
