"""Tests for the sum evaluators and the pointwise identities they rest on."""
from __future__ import annotations

import decimal
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from cbsum.identity import (
    EVALUATORS,
    Strategy,
    absorption_sides,
    evaluate,
    evaluate_closed_form,
    half_row_sum,
    pascal_triple_sides,
)

from oracle import brute_force_sum, closed_form_by_comb, reflected_brute_force_sum


@st.composite
def size_and_offset(draw, n_max: int = 300, pad: int = 0):
    n = draw(st.integers(min_value=1, max_value=n_max))
    i = draw(st.integers(min_value=-n - pad, max_value=n + pad))
    return n, i


class TestEvaluators:
    # frozen from the brute-force oracle: the 9-term grid at n=1 has four
    # surviving terms of 1*2*1 each; n=2 sums the 25-term grid to 288
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 8), (2, 288)])
    def test_small_values(self, strategy, n, expected):
        result = evaluate(n, strategy)
        assert result.value == expected
        assert result.n == n
        assert result.strategy is strategy

    def test_naive_matches_oracle(self):
        for n in range(0, 13):
            assert evaluate(n, Strategy.NAIVE).value == brute_force_sum(n)

    def test_strategies_agree_on_sample(self):
        for n in (*range(0, 31), 50):
            naive = evaluate(n, Strategy.NAIVE).value
            assert evaluate(n, Strategy.SYMMETRIZED).value == naive
            assert evaluate(n, Strategy.CLOSED_FORM).value == naive

    def test_reflected_grid_gives_same_sum(self):
        for n in (0, 1, 2, 5, 9):
            assert brute_force_sum(n) == reflected_brute_force_sum(n)
            assert evaluate(n, Strategy.NAIVE).value == reflected_brute_force_sum(n)

    def test_registry_covers_every_strategy(self):
        assert set(EVALUATORS) == set(Strategy)

    def test_evaluators_take_and_return_int(self):
        for evaluator in EVALUATORS.values():
            assert evaluator(3) == 7200

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            evaluate(-1, Strategy.CLOSED_FORM)


class TestClosedFormInDecimal:
    @pytest.mark.parametrize("n", [0, 1, 2, 57, 1500, 4000])
    def test_decimal_central_gives_the_int_value(self, n):
        value = evaluate_closed_form(n, Decimal(math.comb(2 * n, n)))
        assert type(value) is Decimal
        assert value == closed_form_by_comb(n)

    def test_caller_context_does_not_round_it(self):
        n = 4000
        with decimal.localcontext() as caller:
            caller.prec = 5
            central = Decimal(math.comb(2 * n, n))  # construction is exact
            value = evaluate_closed_form(n, central)
        assert value == closed_form_by_comb(n)


class TestHalfRowSum:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 3), (2, 11)])
    def test_small_values(self, n, expected):
        assert half_row_sum(n) == expected

    def test_closed_form_property_small_range(self):
        # doubled, the half-row sum must give 4^n + C(2n,n); the full range
        # to 2000 runs in the acceptance suite
        for n in range(0, 301):
            assert 2 * half_row_sum(n) == 4**n + math.comb(2 * n, n)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 1500))
    def test_closed_form_property_randomized(self, n):
        assert 2 * half_row_sum(n) == 4**n + math.comb(2 * n, n)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            half_row_sum(-1)


class TestAbsorption:
    @pytest.mark.parametrize(
        "n,i,expected",
        [
            (2, 1, (12, 12)),
            (3, 3, (0, 0)),
            (5, 0, (25 * math.comb(10, 5), 25 * math.comb(10, 5))),
        ],
    )
    def test_known_points(self, n, i, expected):
        assert absorption_sides(n, i) == expected

    def test_holds_on_full_index_range_small(self):
        for n in range(1, 61):
            for i in range(-n, n + 1):
                lhs, rhs = absorption_sides(n, i)
                assert lhs == rhs, (n, i)

    @given(size_and_offset(n_max=400))
    def test_holds_randomized(self, point):
        n, i = point
        lhs, rhs = absorption_sides(n, i)
        assert lhs == rhs

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            absorption_sides(0, 0)


class TestPascalTriple:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (2, 0, (6, 6)),
            (1, 1, (1, 1)),
            (3, 4, (0, 0)),
        ],
    )
    def test_known_points(self, n, k, expected):
        assert pascal_triple_sides(n, k) == expected

    def test_holds_on_full_index_range_small(self):
        for n in range(1, 61):
            for k in range(-n - 2, n + 3):
                lhs, rhs = pascal_triple_sides(n, k)
                assert lhs == rhs, (n, k)

    @given(size_and_offset(n_max=400, pad=2))
    def test_holds_randomized(self, point):
        n, k = point
        lhs, rhs = pascal_triple_sides(n, k)
        assert lhs == rhs

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            pascal_triple_sides(0, 1)
