"""Stable fingerprints and size estimates for huge exact integers.

Results in this package routinely run to hundreds of thousands of decimal
digits, so reports identify them by a SHA-256 digest of their decimal
representation plus a digit count instead of printing them in full. A
value is an int, whose decimal text has to be converted from binary, or
an integral ``decimal.Decimal`` (``eval`` builds large values so), whose
text is read off its digits.

SHA-256 comes from the interpreter's built-in module, as ``random`` takes
its ``sha512``: ``hashlib`` loads OpenSSL, which adds about 3.6 MB to the
resident set of every call, and every call digests. ``hashlib`` serves
only a build made without the built-in hashes. Both compute the same
digest.
"""
from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .combinatorics import exact_decimal

if TYPE_CHECKING:
    from decimal import Decimal

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # built without the built-in hashes
        from hashlib import sha256

#: Widest value, in bits, that :func:`decimal_str` hands to ``str(int)``
#: when the digit limit allows. ``str`` took 0.6-0.86 of the divide and
#: conquer's time from 8e3 to 3.2e4 bits, and 1.2-1.9 times its time from
#: 2**15 bits (about 9.9e3 digits) to 1e5 bits (2-vCPU x86-64 VM,
#: CPython 3.11).
_STR_MAX_BITS = (1 << 15) - 1

#: Widest piece, in bits, that the divide and conquer converts with one
#: ``Decimal(int)``; wider ones are split. Of widths from 64 to 2048 bits,
#: 512 measured within 2% of the best on 1.4e5-digit values (2-vCPU x86-64
#: VM, CPython 3.11).
_LEAF_BITS = 512

# Python 3.10 before 3.10.7 has no int-to-str digit limit.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def decimal_str(value: int | Decimal) -> str:
    """Decimal representation of ``value``, regardless of its size.

    An integral ``decimal.Decimal`` is decimal already: its text is read
    off its digits, with no conversion. For an int, ``str(int)`` takes time
    quadratic in the digit count, and it refuses values longer than
    ``sys.get_int_max_str_digits()`` (0: no limit). It is still the faster
    up to ``_STR_MAX_BITS`` bits, so a value that short is converted by
    ``str`` if its digit count, bounded from the bit length, is within the
    limit. Any other int is converted by divide and conquer, the method of
    CPython 3.12's ``Lib/_pylong.py``: split the int at a power of two,
    convert both halves, and recombine them as hi * 2**w + lo in exact
    decimal (libmpdec) arithmetic, whose multiplication is subquadratic.
    Either way the text is the same, and the interpreter's limit is read,
    never changed.
    """
    if not isinstance(value, int):
        return _integral_text(value)
    bits = value.bit_length()
    limit = _digit_limit()
    # bits * 0.30103 >= bits * log10(2), so this bounds the digit count
    if bits <= _STR_MAX_BITS and (limit == 0 or bits * 30103 // 100000 + 1 <= limit):
        return str(value)
    return _divide_and_conquer(value)


def _integral_text(value: Decimal) -> str:
    """The digits of an integral Decimal, with a "-" if it is negative;
    ValueError if ``value`` is not an integer."""
    integral = exact_decimal().to_integral_value(value)
    if not value.is_finite() or integral != value:
        raise ValueError("decimal_str: needs an integral value")
    text = format(integral.copy_abs(), "f")  # "1E+3" as "1000"; no context read
    return "-" + text if integral < 0 else text


def _divide_and_conquer(value: int) -> str:
    """``decimal_str`` by splitting at powers of two; never calls ``str(int)``."""
    exact = exact_decimal()
    powers: dict[int, Decimal] = {}  # 2**w per split width w

    def power_of_two(w: int) -> Decimal:
        power = powers.get(w)
        if power is None:
            if w <= _LEAF_BITS:
                power = exact.create_decimal(1 << w)
            else:
                power = exact.multiply(power_of_two(w >> 1), power_of_two(w - (w >> 1)))
            powers[w] = power
        return power

    def convert(x: int, width: int) -> Decimal:
        if width <= _LEAF_BITS:
            return exact.create_decimal(x)
        w = width >> 1
        hi = x >> w
        return exact.fma(convert(hi, width - w), power_of_two(w), convert(x - (hi << w), w))

    text = format(convert(abs(value), value.bit_length()), "f")
    return "-" + text if value < 0 else text


def decimal_digits(value: int) -> int:
    """Number of decimal digits of ``|value|`` without converting to a string.

    Brackets the answer from ``bit_length`` and corrects by comparing against
    powers of ten, so it stays cheap even for million-bit integers.
    """
    value = abs(value)
    if value == 0:
        return 1
    # floor(bits * log10(2)) as pure integer arithmetic
    estimate = value.bit_length() * 30103 // 100000
    power = 10**estimate
    while value < power:
        estimate -= 1
        power //= 10
    while value >= power * 10:
        estimate += 1
        power *= 10
    return estimate + 1


def text_digest(text: str) -> str:
    """SHA-256 hex digest of a decimal representation already built."""
    return sha256(text.encode("ascii")).hexdigest()


def value_digest(value: int) -> str:
    """SHA-256 hex digest of the decimal representation of ``value``."""
    return text_digest(decimal_str(value))
