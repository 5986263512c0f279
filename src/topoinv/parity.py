"""Binomial-coefficient parity and exact divisibility.

Every truncation order in the ring catalog is the least index in a range
whose governing binomial coefficient is odd (spaces.truncation_order).
Parity is decided by Lucas' criterion: binom(n, j) is odd exactly when
every binary digit of j is dominated by the corresponding digit of n.
Divisibility tests are done on exact integers (binom(64, 32) does not fit
in 64 bits).
"""

from __future__ import annotations

import math

from .errors import InvalidParameters

__all__ = [
    "binom_divides",
    "binom_parity",
    "parity_row",
]


def binom_parity(n: int, j: int) -> int:
    """Return binom(n, j) mod 2.  Allows j > n (gives 0)."""
    if n < 0 or j < 0:
        raise InvalidParameters(f"binom_parity needs nonnegative arguments, got ({n}, {j})")
    return 1 if (n & j) == j else 0


def parity_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle mod 2, i.e. the coefficients of (1+w)^n."""
    if n < 0:
        raise InvalidParameters(f"parity_row needs n >= 0, got {n}")
    return tuple(binom_parity(n, j) for j in range(n + 1))


def binom_divides(n: int, k: int, m: int, l: int) -> bool:
    """Exact test binom(n, n-k+1) | binom(m, m-l+1)."""
    if not (1 <= k <= n and 1 <= l <= m):
        raise InvalidParameters(
            f"binom_divides needs 1 <= k <= n and 1 <= l <= m, got ({n}, {k}, {m}, {l})"
        )
    a = math.comb(n, n - k + 1)
    b = math.comb(m, m - l + 1)
    return b % a == 0
