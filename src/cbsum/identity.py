"""Evaluation strategies for the central-binomial double sum.

The quantity of interest, for a size ``n``, is

    S(n) = sum_{i=-n..n} sum_{j=-n..n} C(2n,n+i) C(2n,n+j) |i^2 - j^2|

and the claim being verified throughout this package is the closed form
S(n) = 2 n^2 C(2n,n)^2. Three evaluators compute S(n) by structurally
different routes; each takes ``n`` and returns S(n) as an int. They must
agree bit-exactly, and the tests treat any disagreement as a finding, not
an error. The closed form can also work in exact decimal arithmetic, from
a ``decimal.Decimal`` C(2n,n): ``eval`` builds large values so, since
their decimal text is all it reports.

This module also carries the small exact identities the step-by-step
derivation in :mod:`cbsum.chain` leans on: the half-row sum, the absorption
of quadratic factors into a lower row, and the double application of
Pascal's rule.
"""
from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, NamedTuple

from .combinatorics import binomial, exact_decimal, pascal_row

if TYPE_CHECKING:
    from decimal import Decimal


class Strategy(enum.Enum):
    """How S(n) gets evaluated.

    NAIVE walks the full (2n+1)^2 grid of (i, j) with the absolute value;
    SYMMETRIZED walks the quarter domain i in [0, n], j in [-i, i] and
    multiplies by 4 (on that domain i^2 - j^2 >= 0, so no absolute value);
    CLOSED_FORM computes 2 n^2 C(2n,n)^2 with no double loop at all.
    """

    NAIVE = "naive"
    SYMMETRIZED = "symmetrized"
    CLOSED_FORM = "closed-form"


class EvalResult(NamedTuple):
    n: int
    strategy: Strategy
    value: int


def evaluate_naive(n: int) -> int:
    """Full-grid evaluation of S(n), |i^2 - j^2| taken termwise."""
    coeffs = pascal_row(2 * n)
    squares = [(k - n) ** 2 for k in range(2 * n + 1)]
    total = 0
    for a, si in zip(coeffs, squares):
        inner = 0
        for b, sj in zip(coeffs, squares):
            d = si - sj
            inner += b * d if d >= 0 else -(b * d)
        total += a * inner
    return total


def evaluate_symmetrized(n: int) -> int:
    """Quarter-domain evaluation: 4 * sum_{0<=i<=n} sum_{|j|<=i} ... (i^2-j^2)."""
    coeffs = pascal_row(2 * n)
    total = 0
    for i in range(n + 1):
        si = i * i
        inner = 0
        for j in range(-i, i + 1):
            inner += coeffs[n + j] * (si - j * j)
        total += coeffs[n + i] * inner
    return 4 * total


def evaluate_closed_form(n: int, central: int | Decimal | None = None) -> int | Decimal:
    """Closed form 2 n^2 C(2n,n)^2, in the type of ``central``.

    ``central`` is C(2n,n) when the caller has already computed it: an int,
    or a ``decimal.Decimal``, which is squared in the exact context of
    :func:`~cbsum.combinatorics.exact_decimal`, so that the result is an
    integral Decimal and is never rounded. Without it, C(2n,n) is computed
    as an int.
    """
    if central is None:
        central = binomial(2 * n, n)
    if isinstance(central, int):
        return 2 * n * n * central**2
    exact = exact_decimal()
    return exact.multiply(2 * n * n, exact.multiply(central, central))


EVALUATORS: Dict[Strategy, Callable[[int], int]] = {
    Strategy.NAIVE: evaluate_naive,
    Strategy.SYMMETRIZED: evaluate_symmetrized,
    Strategy.CLOSED_FORM: evaluate_closed_form,
}


def evaluate(n: int, strategy: Strategy) -> EvalResult:
    """Evaluate S(n) with the given strategy (dispatches via ``EVALUATORS``)."""
    if n < 0:
        raise ValueError(f"S(n) needs n >= 0, got n={n}")
    return EvalResult(n=n, strategy=strategy, value=EVALUATORS[strategy](n))


def half_row_sum(n: int) -> int:
    """Direct sum of the upper half of row 2n: sum_{i=0..n} C(2n, n+i).

    Deliberately *not* the closed form (4^n + C(2n,n)) / 2, so that the
    closed form stays a falsifiable property of this function instead of
    an assumption baked into it.
    """
    if n < 0:
        raise ValueError(f"half_row_sum: size must be >= 0, got n={n}")
    return sum(pascal_row(2 * n)[n:])


def absorption_sides(n: int, i: int) -> tuple[int, int]:
    """Both sides of (n-i)(n+i) C(2n,n+i) == 2n(2n-1) C(2n-2,n-1+i).

    The quadratic factor is absorbed into a shift down by two rows. Needs
    n >= 1 (at n = 0 the 2n(2n-1) factor degenerates). Returns the two
    sides; their equality is the property under test, never assumed here.
    """
    if n < 1:
        raise ValueError(f"absorption_sides: needs n >= 1, got n={n}")
    lhs = (n - i) * (n + i) * binomial(2 * n, n + i)
    rhs = 2 * n * (2 * n - 1) * binomial(2 * n - 2, n - 1 + i)
    return lhs, rhs


def pascal_triple_sides(n: int, k: int) -> tuple[int, int]:
    """Both sides of Pascal's rule applied twice:

        C(2n, n+k) == C(2n-2, n+k) + 2 C(2n-2, n-1+k) + C(2n-2, n-2+k)

    Total in k thanks to the out-of-range-is-zero convention.
    """
    if n < 1:
        raise ValueError(f"pascal_triple_sides: needs n >= 1, got n={n}")
    lhs = binomial(2 * n, n + k)
    rhs = (
        binomial(2 * n - 2, n + k)
        + 2 * binomial(2 * n - 2, n - 1 + k)
        + binomial(2 * n - 2, n - 2 + k)
    )
    return lhs, rhs
