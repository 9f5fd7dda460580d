"""Tests for the binomial substrate: values, conventions, strategies, rows."""
from __future__ import annotations

import decimal
import math
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from cbsum.combinatorics import (
    PRIME_KERNEL_CROSSOVER,
    _gathered,
    binomial,
    central_binomials,
    exact_decimal,
    pascal_row,
    prime_kernel,
)
from cbsum.digests import value_digest
from cbsum.identity import EVALUATORS, Strategy, evaluate

from oracle import binomial_factorial, binomial_multiplicative, pascal_row_by_addition


def binomial_from_row(m: int, k: int) -> int:
    """C(m, k) read off the package's ``pascal_row``, 0 off either end."""
    row = pascal_row(m)
    return row[k] if 0 <= k < len(row) else 0


#: Three textbook ways to get one coefficient, each checked against
#: ``binomial``. The row goes through the package's ``pascal_row``; the
#: other two are independent oracles.
COEFFICIENT_STRATEGIES = {
    "row": binomial_from_row,
    "multiplicative": binomial_multiplicative,
    "factorial": binomial_factorial,
}


class TestBinomial:
    @pytest.mark.parametrize(
        "m,k,expected",
        [
            (4, 2, 6),
            (0, -1, 0),
            (0, 0, 1),
            (4, 5, 0),
            (10, -3, 0),
            # the whole row is cross-checked against the addition rule below
            (30, 15, 155117520),
        ],
    )
    def test_values_and_zero_convention(self, m, k, expected):
        assert binomial(m, k) == expected

    def test_negative_upper_index_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(m=st.integers(0, 500), k=st.integers(-10, 510))
    def test_matches_math_comb_with_zero_convention(self, m, k):
        expected = math.comb(m, k) if 0 <= k <= m else 0
        assert binomial(m, k) == expected

    def test_matches_addition_rule_row(self):
        row = pascal_row_by_addition(30)
        assert [binomial(30, k) for k in range(31)] == row


class TestPrimeKernel:
    """``binomial`` at and above the prime-kernel crossover, by ``math.comb``."""

    def test_central_coefficients_across_crossover(self):
        assert 0 < PRIME_KERNEL_CROSSOVER < 3000
        for n in range(3001):
            assert binomial(2 * n, n) == math.comb(2 * n, n), f"C({2 * n},{n})"

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(2 * PRIME_KERNEL_CROSSOVER - 20, 10 * PRIME_KERNEL_CROSSOVER),
        offset=st.integers(-5 * PRIME_KERNEL_CROSSOVER - 3, 5 * PRIME_KERNEL_CROSSOVER + 3),
    )
    @example(m=2 * PRIME_KERNEL_CROSSOVER, offset=0)
    @example(m=7000, offset=-1000)
    @example(m=5000, offset=-2503)
    @example(m=5000, offset=2501)
    def test_general_coefficients_near_and_above_crossover(self, m, offset):
        # k = m/2 + offset: near the centre the kernel runs, and offsets
        # past either end of the row check the out-of-range convention.
        k = m // 2 + offset
        expected = math.comb(m, k) if 0 <= k <= m else 0
        assert binomial(m, k) == expected

    def test_central_coefficient_at_ten_to_the_fifth(self):
        assert binomial(200_000, 100_000) == math.comb(200_000, 100_000)


class TestDecimalKernel:
    """``binomial`` as a ``Decimal``: the int's value, from its own tree."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(0, 8 * PRIME_KERNEL_CROSSOVER), k=st.integers(-3, 8 * PRIME_KERNEL_CROSSOVER + 3))
    @example(m=2 * PRIME_KERNEL_CROSSOVER - 2, k=PRIME_KERNEL_CROSSOVER - 1)
    @example(m=2 * PRIME_KERNEL_CROSSOVER, k=PRIME_KERNEL_CROSSOVER)
    @example(m=5000, k=-1)
    @example(m=5000, k=5001)
    def test_matches_int(self, m, k):
        value = binomial(m, k, Decimal)
        assert type(value) is Decimal
        assert value == binomial(m, k)

    def test_kernel_reads_no_thread_context(self):
        # the caller's 5 digits would round every product of the tree
        n = 20 * PRIME_KERNEL_CROSSOVER
        assert prime_kernel(2 * n, n)
        with decimal.localcontext() as caller:
            caller.prec = 5
            before = repr(caller)
            value = binomial(2 * n, n, Decimal)
            assert decimal.getcontext() is caller and repr(caller) == before
        assert value == math.comb(2 * n, n)

    def test_exact_context_raises_rather_than_rounds(self):
        exact = exact_decimal()
        assert exact is exact_decimal()  # one context, made once
        assert (exact.prec, exact.Emax) == (decimal.MAX_PREC, decimal.MAX_EMAX)
        with pytest.raises(decimal.Inexact):
            exact.to_integral_exact(Decimal("2.5"))
        with pytest.raises(decimal.Rounded):
            exact.to_integral_exact(Decimal("2.0"))

    def test_gathered_pieces_reach_the_width(self):
        factors = [p**3 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
        pieces = list(_gathered(factors, 40))
        assert math.prod(pieces) == math.prod(factors)
        assert all(piece.bit_length() >= 40 for piece in pieces[:-1])
        assert all(piece.bit_length() < 40 + 15 for piece in pieces)  # one factor past it at most


class TestCentralBinomials:
    """The sweep of C(2n, n) along a range, by ``math.comb``."""

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 3000), length=st.integers(0, 40))
    @example(a=0, length=25)
    @example(a=1, length=25)
    # from PRIME_KERNEL_CROSSOVER on, the first coefficient comes from the kernel
    @example(a=PRIME_KERNEL_CROSSOVER - 1, length=25)
    @example(a=PRIME_KERNEL_CROSSOVER, length=25)
    @example(a=PRIME_KERNEL_CROSSOVER + 1, length=25)
    def test_sweep_matches_math_comb(self, a, length):
        ns = range(a, a + length)
        assert list(central_binomials(ns)) == [math.comb(2 * n, n) for n in ns]

    def test_step_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="step-1"):
            list(central_binomials(range(0, 10, 2)))


class TestPascalRow:
    def test_row_zero(self):
        assert pascal_row(0) == (1,)

    def test_small_row(self):
        assert pascal_row(4) == (1, 4, 6, 4, 1)

    def test_large_row_sums_to_power_of_two(self):
        assert sum(pascal_row(2000)) == 2**2000

    def test_entry_zero_convention(self):
        # the row holds C(5, 0..5); binomial reads entries off either end as 0
        row = pascal_row(5)
        assert len(row) == 6
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0
        assert row[2] == binomial(5, 2) == 10

    def test_len_and_indexing(self):
        row = pascal_row(3)
        assert len(row) == 4
        assert row[1] == 3

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError):
            pascal_row(-2)

    def test_matches_addition_rule_oracle(self):
        for m in (0, 1, 2, 7, 30):
            assert list(pascal_row(m)) == pascal_row_by_addition(m)


class TestRowInvariants:
    """Exhaustive row invariants: symmetry, row sum, Pascal's rule.

    One incremental pass over rows 0..2000 checks all three at once.
    """

    def test_rows_up_to_2000(self):
        previous = None
        power = 1
        for m in range(0, 2001):
            coeffs = pascal_row(m)
            assert coeffs == coeffs[::-1], f"symmetry broken in row {m}"
            assert sum(coeffs) == power, f"row sum broken in row {m}"
            if previous is not None:
                expected = (
                    (1,)
                    + tuple(previous[k - 1] + previous[k] for k in range(1, m))
                    + (1,)
                )
                assert coeffs == expected, f"Pascal's rule broken in row {m}"
            previous = coeffs
            power *= 2


class TestStrategies:
    @pytest.mark.parametrize("name,strategy", sorted(COEFFICIENT_STRATEGIES.items()))
    def test_small_value(self, name, strategy):
        assert strategy(4, 2) == binomial(4, 2) == 6

    @pytest.mark.parametrize("name,strategy", sorted(COEFFICIENT_STRATEGIES.items()))
    def test_zero_convention(self, name, strategy):
        for k in (-1, 7):
            assert strategy(6, k) == binomial(6, k) == 0

    @pytest.mark.parametrize("name,strategy", sorted(COEFFICIENT_STRATEGIES.items()))
    def test_negative_upper_index_rejected(self, name, strategy):
        with pytest.raises(ValueError):
            strategy(-3, 1)
        with pytest.raises(ValueError):
            binomial(-3, 1)

    def test_pairwise_agreement_midsize(self):
        values = {name: fn(200, 100) for name, fn in COEFFICIENT_STRATEGIES.items()}
        values["binomial"] = binomial(200, 100)
        assert len(set(values.values())) == 1

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 10_000), k=st.integers(-5, 10_005))
    def test_all_strategies_agree_randomized(self, m, k):
        reference = binomial(m, k)
        for name, strategy in COEFFICIENT_STRATEGIES.items():
            assert strategy(m, k) == reference, name

    def test_central_coefficient_digest_agreement_at_scale(self):
        # n = 10^5, past the prime-kernel crossover: too large to compare
        # decimals by eye, so compare digests with the factorial formula
        a = binomial(200_000, 100_000)
        b = binomial_factorial(200_000, 100_000)
        assert value_digest(a) == value_digest(b)


class TestSumInstance:
    """An instance of S(n) is a plain int n; every strategy rejects n < 0."""

    def test_negative_size_rejected(self):
        for evaluator in EVALUATORS.values():
            with pytest.raises(ValueError):
                evaluator(-1)
        for strategy in Strategy:
            with pytest.raises(ValueError):
                evaluate(-1, strategy)
