"""Tests for decimal conversion and digests, with ``str(int)`` as the yardstick."""
from __future__ import annotations

import contextlib
import hashlib
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from cbsum.digests import _LEAF_BITS, decimal_digits, decimal_str, value_digest
from cbsum.report import RunConfig, describe_value

HAS_LIMIT = hasattr(sys, "get_int_max_str_digits")


@contextlib.contextmanager
def int_max_str_digits(limit: int):
    """Set the interpreter's int-to-str digit limit, restoring it afterwards."""
    if not HAS_LIMIT:
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def reference_str(value: int) -> str:
    with int_max_str_digits(0):
        return str(value)


# Edges of the conversion: 2**w - 1, 2**w and 2**w + 1 around the leaf width
# and the split widths above it, 10**k and 10**k - 1 (a digit-count step),
# and arbitrary ints of up to a few thousand digits.
powers_of_two = st.builds(
    lambda w, d: (1 << w) + d, st.integers(0, 8 * _LEAF_BITS + 2), st.integers(-1, 1)
)
powers_of_ten = st.builds(lambda k, d: 10**k - d, st.integers(0, 1500), st.integers(0, 1))
any_size = st.integers(-(1 << 12_000), 1 << 12_000)
values = st.tuples(st.one_of(powers_of_two, powers_of_ten, any_size), st.booleans()).map(
    lambda pair: -pair[0] if pair[1] else pair[0]
)


class TestDecimalStr:
    @settings(max_examples=300, deadline=None)
    @given(value=values)
    @example(value=0)
    @example(value=-1)
    @example(value=(1 << _LEAF_BITS) - 1)
    @example(value=(1 << _LEAF_BITS) + 1)
    @example(value=-(1 << (4 * _LEAF_BITS)) + 1)
    def test_matches_str(self, value):
        assert decimal_str(value) == reference_str(value)

    def test_digit_count_matches_conversion(self):
        for value in (0, 9, 10, 10**700 - 1, 10**700, 3**5000):
            assert decimal_digits(value) == len(decimal_str(value))

    @pytest.mark.parametrize("threshold", [0, 10**6])
    def test_reported_digit_count_leaves_out_the_sign(self, threshold):
        config = RunConfig(command="eval", n_min=0, n_max=0, digest_threshold=threshold)
        for value in (0, 9, -9, 10, -10, 10**1200 - 1, 10**1200, -(10**1200), -(3**5000)):
            fields = describe_value(value, config)
            assert fields["digits"] == decimal_digits(value) == len(reference_str(abs(value)))
            assert fields["digest"] == value_digest(value)
            assert fields["value"] == (reference_str(value) if threshold else None)


@pytest.mark.skipif(not HAS_LIMIT, reason="interpreter has no int-to-str digit limit")
class TestInterpreterLimit:
    VALUE = 3**314_400  # 150_007 decimal digits

    def test_digest_leaves_limit_unchanged(self):
        before = sys.get_int_max_str_digits()
        value_digest(self.VALUE)
        assert sys.get_int_max_str_digits() == before

    def test_conversion_works_under_minimum_limit(self):
        expected = reference_str(self.VALUE)
        assert len(expected) == 150_007
        with int_max_str_digits(640):
            text = decimal_str(self.VALUE)
            digest = value_digest(self.VALUE)
            assert sys.get_int_max_str_digits() == 640
        assert text == expected
        assert digest == hashlib.sha256(expected.encode("ascii")).hexdigest()
