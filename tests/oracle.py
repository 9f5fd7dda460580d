"""Independent oracles for the test suite.

Everything here is built directly on ``math.comb``, ``math.factorial`` and
literal loops so it shares no code with the package under test.
"""
from __future__ import annotations

from math import comb, factorial


def brute_force_sum(n: int) -> int:
    """S(n) summed term by term over the whole (2n+1)^2 grid."""
    total = 0
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            total += comb(2 * n, n + i) * comb(2 * n, n + j) * abs(i * i - j * j)
    return total


def closed_form_by_comb(n: int) -> int:
    """S(n) by its closed form 2 n^2 C(2n,n)^2, C(2n,n) from ``math.comb``:
    for sizes out of reach of the brute-force sums."""
    return 2 * n * n * comb(2 * n, n) ** 2


def reflected_brute_force_sum(n: int) -> int:
    """S(n) over the reflected grid (i -> -i, j -> -j)."""
    total = 0
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            total += comb(2 * n, n - i) * comb(2 * n, n - j) * abs(i * i - j * j)
    return total


def pascal_row_by_addition(m: int) -> list[int]:
    """Row m of Pascal's triangle grown row by row with the addition rule."""
    row = [1]
    for _ in range(m):
        row = [1] + [row[k] + row[k + 1] for k in range(len(row) - 1)] + [1]
    return row


def binomial_multiplicative(m: int, k: int) -> int:
    """C(m, k) as prod_{i=1..k} (m-k+i)/i, each partial product exact.

    Same conventions as the package: m < 0 is rejected, k out of 0..m is 0.
    """
    if m < 0:
        raise ValueError(f"upper index must be >= 0, got m={m}")
    if k < 0 or k > m:
        return 0
    k = min(k, m - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (m - k + i) // i
    return value


def binomial_factorial(m: int, k: int) -> int:
    """C(m, k) as m! / (k! (m-k)!), with the conventions above."""
    if m < 0:
        raise ValueError(f"upper index must be >= 0, got m={m}")
    if k < 0 or k > m:
        return 0
    return factorial(m) // (factorial(k) * factorial(m - k))
