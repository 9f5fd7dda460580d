"""Tests for decimal conversion and digests, with ``str(int)`` as the yardstick.

``decimal_str`` hands short values to ``str`` itself, so the divide and
conquer is also checked on its own, and the switch between the two is
checked at its edges and under the interpreter's digit limit. Digests
come from the interpreter's built-in SHA-256, or from ``hashlib`` where
the build lacks it; ``hashlib``'s is the yardstick for both.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cbsum import digests
from cbsum.digests import _LEAF_BITS, _STR_MAX_BITS, decimal_digits, decimal_str, text_digest, value_digest
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


def edges(test):
    """The explicit edge examples: zero, signs, leaf and split widths."""
    for value in (0, -1, (1 << _LEAF_BITS) - 1, (1 << _LEAF_BITS) + 1, -(1 << (4 * _LEAF_BITS)) + 1):
        test = example(value=value)(test)
    return test


def of_bits(bits: int) -> int:
    """A value of exactly ``bits`` bits whose digits are not all alike."""
    return (1 << (bits - 1)) | (3**bits & ((1 << (bits - 1)) - 1))


@pytest.fixture
def divide_and_conquer_calls(monkeypatch):
    """Values that ``decimal_str`` hands to the divide and conquer."""
    calls = []
    real = digests._divide_and_conquer

    def counting(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(digests, "_divide_and_conquer", counting)
    return calls


class TestDecimalStr:
    @settings(max_examples=300, deadline=None)
    @given(value=values)
    @edges
    def test_matches_str(self, value):
        assert decimal_str(value) == reference_str(value)

    @settings(max_examples=300, deadline=None)
    @given(value=values)
    @edges
    def test_divide_and_conquer_matches_str(self, value):
        assert digests._divide_and_conquer(value) == reference_str(value)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("bits", [_STR_MAX_BITS - 1, _STR_MAX_BITS, _STR_MAX_BITS + 1])
    def test_switch_edges_match_str(self, bits, sign, divide_and_conquer_calls):
        value = sign * of_bits(bits)
        assert value.bit_length() == bits
        with int_max_str_digits(0):
            assert decimal_str(value) == reference_str(value)
        assert divide_and_conquer_calls == ([value] if bits > _STR_MAX_BITS else [])

    @settings(max_examples=200, deadline=None)
    @given(value=values)
    @edges
    def test_integral_decimal_matches_str(self, value):
        assert decimal_str(Decimal(value)) == reference_str(value)

    @pytest.mark.parametrize(
        "value,text", [("1E+5", "100000"), ("-0", "0"), ("100.00", "100"), ("-7E+2", "-700"), ("0E-3", "0")]
    )
    def test_integral_decimal_in_any_form(self, value, text):
        assert decimal_str(Decimal(value)) == text

    @pytest.mark.parametrize("value", ["1.5", "-0.001", "Infinity", "NaN"])
    def test_non_integral_decimal_rejected(self, value):
        with pytest.raises(ValueError, match="integral"):
            decimal_str(Decimal(value))

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


def reference_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestTextDigest:
    # 55, 56 and 64 bytes straddle SHA-256's padding and block edges
    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.characters(max_codepoint=127)))
    @example(text="")
    @example(text="7" * 55)
    @example(text="7" * 56)
    @example(text="7" * 64)
    @example(text="-" + "9" * 150_006)
    def test_matches_hashlib(self, text):
        assert text_digest(text) == reference_digest(text)

    def test_without_built_in_module_falls_back_to_hashlib(self):
        # as on a build made without the built-in hashes: both imports fail
        probe = """
import sys
sys.modules["_sha256"] = sys.modules["_sha2"] = None
import hashlib
from cbsum import digests
assert digests.sha256 is hashlib.sha256
for text in sys.argv[1:]:
    print(digests.text_digest(text))
"""
        texts = ["", "0", "-12345678901234567890", str(3**5000)]
        src = str(Path(digests.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", probe, *texts],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [reference_digest(t) for t in texts]


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

    @pytest.mark.parametrize("value", [10**640, -(10**1000), 3**2000, 10**4300 - 1, -(3**9000)])
    def test_value_past_minimum_limit_converts(self, value, divide_and_conquer_calls):
        # 641 to 4300 digits: within the switch, but too long for str under
        # the minimum limit
        expected = reference_str(value)
        with int_max_str_digits(640):
            assert decimal_str(value) == expected
            assert sys.get_int_max_str_digits() == 640
        assert divide_and_conquer_calls == [value]

    def test_value_within_limit_goes_to_str(self, divide_and_conquer_calls):
        with int_max_str_digits(640):
            assert decimal_str(10**638) == reference_str(10**638)
        assert divide_and_conquer_calls == []

    def test_no_limit_keeps_divide_and_conquer_above_switch(self, divide_and_conquer_calls):
        # str would be quadratic here: lifting the limit is no reason to use it
        with int_max_str_digits(0):
            assert decimal_str(self.VALUE) == reference_str(self.VALUE)
        assert divide_and_conquer_calls == [self.VALUE]
