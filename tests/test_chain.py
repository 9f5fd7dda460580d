"""Tests for the derivation-chain quantities and the chain verifier."""
from __future__ import annotations

import math

import pytest

from cbsum import chain
from cbsum.chain import (
    CHAIN_COMPARISONS,
    StepId,
    absorbed_form,
    alternative_finish,
    cancelled_form,
    closure_sides,
    folded_form,
    telescoped_form,
    verify_chain,
    verify_chain_timed,
)
from cbsum.identity import evaluate_naive, evaluate_symmetrized, half_row_sum

from oracle import brute_force_sum

ALL_FORMS = (absorbed_form, folded_form, cancelled_form, telescoped_form)


def at(line, n: int):
    """``line`` at ``n``, on rows built for this call alone."""
    return line(n, chain._Rows(n))


def after_l6(line, n: int):
    """``closure_sides`` or ``alternative_finish`` at ``n``, given L6 from the same rows."""
    rows = chain._Rows(n)
    return line(n, rows, telescoped_form(n, rows))


def line_value(n: int) -> int:
    """What L2, L3, L5 and L6 all equal: C(2n-2,n-1) C(2n-1,n-1), from math.comb."""
    return math.comb(2 * n - 2, n - 1) * math.comb(2 * n - 1, n - 1)


class TestLineQuantities:
    def test_symmetrized_form_equals_definition(self):
        # L0 and L1 are the naive and symmetrized evaluators
        for n in (1, 2, 3, 8):
            assert evaluate_symmetrized(n) == brute_force_sum(n)
            assert evaluate_naive(n) == brute_force_sum(n)

    def test_absorbed_form_small_values(self):
        # frozen: S(1)/(4*2*1) = 1, S(2)/(4*4*3) = 6, S(3)/(4*6*5) = 60
        assert at(absorbed_form, 1) == 1
        assert at(absorbed_form, 2) == 6
        assert at(absorbed_form, 3) == 60

    def test_absorbed_form_is_exact_quotient_of_sum(self):
        for n in (1, 2, 3, 4, 7):
            scale = 4 * (2 * n) * (2 * n - 1)
            quotient, remainder = divmod(brute_force_sum(n), scale)
            assert remainder == 0
            assert at(absorbed_form, n) == quotient

    def test_folded_form_small_values(self):
        assert at(folded_form, 1) == 1
        assert at(folded_form, 2) == 6
        assert at(folded_form, 10) == at(absorbed_form, 10)

    def test_cancelled_form_small_values(self):
        assert at(cancelled_form, 1) == 1
        assert at(cancelled_form, 2) == 6
        assert at(cancelled_form, 7) == at(folded_form, 7)

    def test_telescoped_form_small_values(self):
        # n=1 evaluates to 2*1*1 - 0 - 1*3 + 2*1 = 1
        assert at(telescoped_form, 1) == 1
        assert at(telescoped_form, 2) == 6
        assert at(telescoped_form, 12) == at(cancelled_form, 12)

    def test_closure_sides(self):
        assert after_l6(closure_sides, 1) == (4, 4)
        assert after_l6(closure_sides, 2) == (72, 72)
        lhs, rhs = after_l6(closure_sides, 5)
        assert lhs == rhs

    def test_quantities_are_positive(self):
        for n in (1, 2, 5, 20):
            for form in ALL_FORMS:
                assert at(form, n) > 0

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_degenerate_size_rejected(self, form):
        # n = 0 has no row 2n-2, so no line can be given rows for it
        with pytest.raises(ValueError):
            at(form, 0)

    def test_end_to_end_closure(self):
        # bypasses the intermediate lines entirely
        for n in range(1, 201):
            scale = 4 * (2 * n) * (2 * n - 1)
            assert scale * at(telescoped_form, n) == 2 * n * n * math.comb(2 * n, n) ** 2


class TestAlternativeFinish:
    def test_small_values(self):
        one = after_l6(alternative_finish, 1)
        assert one.expression == 1
        assert one.closed_product == math.comb(0, 0) * math.comb(1, 0) == 1
        two = after_l6(alternative_finish, 2)
        assert two.expression == 6
        assert two.closed_product == math.comb(2, 1) * math.comb(3, 1) == 6

    def test_parent_row_substitution_at_two(self):
        # sum_{i>=0} C(4,2+i) = 11 must equal 4X - C(2,1) + C(2,0) = 12 - 2 + 1
        finish = after_l6(alternative_finish, 2)
        assert finish.parent_row_sides == (11, 11)
        assert 4 * finish.x - 2 + 1 == 11

    def test_all_components_agree_over_range(self):
        for n in range(1, 101):
            finish = after_l6(alternative_finish, n)
            assert finish.all_equal, n
            assert finish.telescoped == line_value(n)

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            after_l6(alternative_finish, 0)


class TestXValue:
    """X = sum_{i>=0} C(2n-2, n-1+i), as the alternative finish computes it."""

    def test_matches_half_row_sum_one_size_down(self):
        for n in range(1, 501):
            assert after_l6(alternative_finish, n).x == half_row_sum(n - 1)

    def test_degenerate_size_rejected(self):
        # X at n = 0 would be half of row -2
        with pytest.raises(ValueError):
            half_row_sum(-1)


class TestStepReport:
    def test_unequal_sides_clear_the_flag(self, monkeypatch):
        real = chain.folded_form
        monkeypatch.setattr(chain, "folded_form", lambda n, rows: real(n, rows) + 1)
        reads_l3 = {StepId.L3_FOLDED, StepId.L5_CANCELLED}
        for report, _ in verify_chain_timed(4):
            assert report.equal == (report.step not in reads_l3)
            if report.step in reads_l3:
                assert report.lhs != report.rhs

    def test_equal_flag_matches_sides(self):
        for report in verify_chain(4):
            if report.step is not StepId.X_FINISH:
                assert report.equal == (report.lhs == report.rhs)


class TestVerifyChain:
    def test_report_shape(self):
        reports = verify_chain(1)
        assert len(reports) == 7
        assert tuple(r.step for r in reports) == CHAIN_COMPARISONS
        assert all(r.n == 1 for r in reports)
        assert all(r.equal for r in reports)

    @pytest.mark.parametrize("n", [2, 17, 100])
    def test_chain_holds(self, n):
        assert all(r.equal for r in verify_chain(n))

    def test_timed_variant_durations(self):
        for report, duration in verify_chain_timed(3):
            assert duration >= 1
            assert report.equal

    def test_degenerate_size_rejected(self):
        with pytest.raises(ValueError):
            verify_chain(0)


class TestSharedRows:
    """Every line at n reads rows 2n and 2n-2 built once, through prefix sums."""

    @pytest.mark.parametrize("form", ALL_FORMS)
    def test_forms_match_independent_oracle(self, form):
        for n in range(1, 151):
            assert at(form, n) == line_value(n), n

    def test_verify_chain_evaluates_l6_once(self, monkeypatch):
        calls = []
        real = chain.telescoped_form

        def counting(n, rows):
            calls.append(n)
            return real(n, rows)

        monkeypatch.setattr(chain, "telescoped_form", counting)
        assert all(report.equal for report, _ in verify_chain_timed(5))
        assert calls == [5]

    def test_rows_built_once_per_size(self, monkeypatch):
        # counts the chain's own row builds; the naive and symmetrized
        # evaluators build row 2n for themselves through identity.pascal_row
        built = []
        real = chain.pascal_row

        def counting(m):
            built.append(m)
            return real(m)

        monkeypatch.setattr(chain, "pascal_row", counting)
        for n in (3, 4, 9):
            assert all(report.equal for report, _ in verify_chain_timed(n))
        assert built == [6, 4, 8, 6, 18, 16]

    def test_named_steps_evaluate_only_the_lines_they_read(self, monkeypatch):
        built, called = [], []
        real_row = chain.pascal_row

        def counting(m):
            built.append(m)
            return real_row(m)

        def never(name):
            return lambda *args: called.append(name)

        monkeypatch.setattr(chain, "pascal_row", counting)
        for name in ("evaluate_naive", "evaluate_symmetrized", "absorbed_form", "folded_form", "cancelled_form"):
            monkeypatch.setattr(chain, name, never(name))
        reports = verify_chain_timed(9, steps=(StepId.X_FINISH,))
        assert [report.step for report, _ in reports] == [StepId.X_FINISH]
        assert all(report.equal for report, _ in reports)
        assert built == [18, 16]
        assert called == []

    def test_named_steps_come_back_in_chain_order(self):
        steps = (StepId.X_FINISH, StepId.L3_FOLDED)
        assert [report.step for report, _ in verify_chain_timed(5, steps)] == [
            StepId.L3_FOLDED,
            StepId.X_FINISH,
        ]

    def test_failed_call_leaves_no_rows_behind(self, monkeypatch):
        real = chain.pascal_row
        monkeypatch.setattr(chain, "pascal_row", lambda m: real(m)[:-1])
        with pytest.raises(IndexError):
            verify_chain_timed(3)
        monkeypatch.setattr(chain, "pascal_row", real)
        assert all(report.equal for report in verify_chain(3))


class TestDivisibility:
    def test_sum_divisible_by_scale_factor(self):
        for n in range(1, 41):
            assert brute_force_sum(n) % (8 * n * (2 * n - 1)) == 0
