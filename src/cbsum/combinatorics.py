"""Exact binomial-coefficient arithmetic on arbitrary-precision integers.

All arithmetic in this package is exact: Python ints never overflow, there
is no floating point and no modular reduction anywhere. Coefficients are
total in the lower index via the usual convention

    C(m, k) = 0  for k < 0 or k > m,

which keeps every summation loop downstream free of boundary special cases.

:func:`binomial` calls ``math.comb`` for small coefficients and multiplies
out the coefficient's prime factorisation for large ones, where
``math.comb`` is quadratic. It works in ints, or, when asked, in exact
``decimal.Decimal`` arithmetic: a value built that way has its decimal
text for free, where an int of a million digits takes longer to convert
to decimal than to compute. Decimal arithmetic runs only in
:func:`exact_decimal`'s context, which never rounds, and never in the
thread's own context. :func:`central_binomials` sweeps C(2n, n) across a
range of n from one :func:`binomial` call, and :func:`pascal_row` builds a
whole row at once for the sums that walk one.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Any, Callable, Iterable, Iterator

#: Where :func:`binomial` switches from ``math.comb`` to the prime kernel.
#: ``math.comb`` costs about k**2 and the kernel about m (its sieve), so,
#: with k = min(k, m - k), the kernel runs when k >= PRIME_KERNEL_CROSSOVER
#: and 2 k**2 >= PRIME_KERNEL_CROSSOVER * m: from k = 1500 for a central
#: C(2k, k). Measured on a 2-vCPU x86-64 VM with CPython 3.11, the two cost
#: the same near k = 1300 (central), m/k = 2.3 (k = 1500) and m/k = 11
#: (k = 5000); the rule stays on the safe side of each. At k = 1.2e5 the
#: kernel is 20x faster than ``math.comb``.
PRIME_KERNEL_CROSSOVER = 1500


#: Smallest width, in bits, of the int pieces that :func:`binomial` converts
#: with one ``Decimal(int)`` on its decimal path: prime powers are
#: multiplied as ints until their product reaches it, so the decimal tree
#: starts from few, wide leaves. For S(n) and its text at n = 1e5-1.4e5,
#: 2048 and 4096 bits measured within 4% of each other; 1024 bits took up
#: to 20% longer, 8192 bits 5-10% and one Decimal per prime power 19-26%
#: (2-vCPU x86-64 VM, CPython 3.11).
_DECIMAL_LEAF_BITS = 4096


def prime_kernel(m: int, k: int) -> bool:
    """Whether :func:`binomial` computes C(m, k), 0 <= k <= m, by the prime
    kernel rather than ``math.comb`` (see :data:`PRIME_KERNEL_CROSSOVER`)."""
    k = min(k, m - k)
    return k >= PRIME_KERNEL_CROSSOVER and 2 * k * k >= PRIME_KERNEL_CROSSOVER * m


@functools.cache
def exact_decimal() -> Any:
    """The one ``decimal.Context`` of this package's decimal arithmetic.

    Its precision and exponent range are the largest libmpdec has, and it
    traps ``Inexact`` and ``Rounded``, so an operation on integers is
    either exact or raises. Callers use its methods (``exact_decimal().
    multiply(a, b)``), never the operators, which would round to the
    thread's current context; so that context is neither read nor changed.
    """
    import decimal  # loaded only when decimal arithmetic runs

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow, decimal.Inexact, decimal.Rounded],
    )


def binomial(m: int, k: int, number: type = int) -> Any:
    """C(m, k), exactly; 0 when k is out of range.

    ``m`` must be nonnegative; ``k`` may be any integer. Large coefficients
    are computed from their prime factorisation (see
    :data:`PRIME_KERNEL_CROSSOVER`): by Legendre's formula the exponent of
    a prime p in C(m, k) is sum_i (m//p^i - k//p^i - (m-k)//p^i), and the
    prime powers are multiplied through a balanced product tree, the idea
    behind Schoenhage's and Luschny's prime-swing factorials.

    ``number`` is the type of the result: ``int``, or ``decimal.Decimal``,
    whose prime kernel multiplies in :func:`exact_decimal`'s context.
    """
    if m < 0:
        raise ValueError(f"binomial: upper index must be >= 0, got m={m}")
    if k < 0 or k > m:
        return number(0)
    if not prime_kernel(m, k):
        return number(math.comb(m, k))
    if number is int:
        return _product(_prime_powers(m, k))
    leaves = map(number, _gathered(_prime_powers(m, k), _DECIMAL_LEAF_BITS))
    return _product(leaves, exact_decimal().multiply)


def central_binomials(ns: range) -> Iterator[int]:
    """C(2n, n) for each n of ``ns``, a step-1 range, in order.

    Only the first coefficient comes from :func:`binomial`; each next one
    follows from C(2n+2, n+1) = C(2n, n) * 2(2n+1) / (n+1), an exact
    division, so a sweep costs one kernel call and then one small multiply
    and one division per n.
    """
    if ns.step != 1:
        raise ValueError(f"central_binomials: needs a step-1 range, got {ns!r}")
    if not ns:
        return
    c = binomial(2 * ns.start, ns.start)
    yield c
    for n in ns[:-1]:
        c = c * (4 * n + 2) // (n + 1)
        yield c


def _primes_upto(limit: int) -> Iterator[int]:
    """The primes <= ``limit``, read lazily off a sieve of the odd numbers.

    Byte i of the sieve stands for 2i + 1, so the sieve takes limit/2
    bytes and no list of primes is ever built.
    """
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = bytes((len(sieve) - 1 - start) // p + 1)
    return itertools.chain((2,), itertools.compress(itertools.count(1, 2), sieve))


def _prime_powers(m: int, k: int) -> Iterator[int]:
    """p**e for every prime p dividing C(m, k), e its Legendre exponent."""
    j = m - k
    for p in _primes_upto(m):
        e, q = 0, p
        while q <= m:
            e += m // q - k // q - j // q
            q *= p
        if e:
            yield p**e


def _gathered(factors: Iterable[int], bits: int) -> Iterator[int]:
    """Products of consecutive ``factors``, each the first to reach ``bits``
    bits, and a last one of what remains."""
    piece = 1
    for x in factors:
        piece *= x
        if piece.bit_length() >= bits:
            yield piece
            piece = 1
    yield piece


def _product(factors: Iterable[Any], multiply: Callable[[Any, Any], Any] = operator.mul) -> Any:
    """Product of ``factors`` through a balanced binary tree, each step by
    ``multiply``.

    The stack holds partial products of 1, 2, 4, ... factors like the digits
    of a binary counter: a new factor merges with the top while their factor
    counts match, so operands stay balanced (which lets Karatsuba and
    libmpdec's number-theoretic multiply pay off) and only O(log) partial
    products are alive at once.
    """
    stack: list[tuple[Any, int]] = []
    for x in factors:
        count = 1
        while stack and stack[-1][1] == count:
            x, count = multiply(stack.pop()[0], x), 2 * count
        stack.append((x, count))
    result = 1
    while stack:
        result = multiply(stack.pop()[0], result)
    return result


def pascal_row(m: int) -> tuple[int, ...]:
    """Row ``m`` of Pascal's triangle: the coefficients C(m, 0..m).

    Runs along the row with C(m,k) = C(m,k-1) * (m-k+1) / k and mirrors the
    second half, so the cost is m/2 big-integer multiply/divide steps rather
    than the m**2/2 additions of the triangle recurrence.
    """
    if m < 0:
        raise ValueError(f"pascal_row: row index must be >= 0, got {m}")
    coeffs = [1] * (m + 1)
    value = 1
    for k in range(1, m // 2 + 1):
        value = value * (m - k + 1) // k
        coeffs[k] = value
        coeffs[m - k] = value
    return tuple(coeffs)
