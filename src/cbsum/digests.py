"""Stable fingerprints and size estimates for huge exact integers.

Results in this package routinely run to hundreds of thousands of decimal
digits, so reports identify them by a SHA-256 digest of their decimal
representation plus a digit count instead of printing them in full.
"""
from __future__ import annotations

import decimal
import hashlib

#: Widest piece, in bits, that :func:`decimal_str` converts with one
#: ``Decimal(int)``; wider ones are split. Of widths from 64 to 2048 bits,
#: 512 measured fastest on 2.4e3-digit values and within 2% of the best on
#: 1.4e5-digit ones (2-vCPU x86-64 VM, CPython 3.11).
_LEAF_BITS = 512


def decimal_str(value: int) -> str:
    """Decimal representation of ``value``, regardless of its size.

    ``str(int)`` takes time quadratic in the digit count, and it refuses
    values longer than ``sys.get_int_max_str_digits()``. This converts by
    divide and conquer instead, the method of CPython 3.12's
    ``Lib/_pylong.py``: split the int at a power of two, convert both
    halves, and recombine them as hi * 2**w + lo in exact decimal
    (libmpdec) arithmetic, whose multiplication is subquadratic. It never
    calls ``str(int)``, so it works under any digit limit and leaves the
    interpreter's setting alone.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        exact = _to_decimal(abs(value))
        return format(-exact if value < 0 else exact, "f")


def _to_decimal(value: int) -> decimal.Decimal:
    """``value`` >= 0 as an exact Decimal; needs an unbounded context."""
    powers: dict[int, decimal.Decimal] = {}  # 2**w per split width w

    def power_of_two(w: int) -> decimal.Decimal:
        power = powers.get(w)
        if power is None:
            if w <= _LEAF_BITS:
                power = decimal.Decimal(1 << w)
            else:
                power = power_of_two(w >> 1) * power_of_two(w - (w >> 1))
            powers[w] = power
        return power

    def convert(x: int, width: int) -> decimal.Decimal:
        if width <= _LEAF_BITS:
            return decimal.Decimal(x)
        w = width >> 1
        hi = x >> w
        return convert(hi, width - w) * power_of_two(w) + convert(x - (hi << w), w)

    return convert(value, value.bit_length())


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
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def value_digest(value: int) -> str:
    """SHA-256 hex digest of the decimal representation of ``value``."""
    return text_digest(decimal_str(value))
