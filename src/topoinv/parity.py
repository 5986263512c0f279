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

from .errors import InvalidParameters, WorkCapExceeded

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


# Largest lower index binom_divides expands: binom(10^9, 2^14) has 0.28
# million bits and takes 0.06 s, and the cost grows faster than the index
# (0.36 s at 30,000, 2.8 s at 100,000; 2 vCPU).
BINOM_INDEX_CAP = 1 << 14


def binom_divides(n: int, k: int, m: int, l: int) -> bool:
    """Exact test binom(n, n-k+1) | binom(m, m-l+1).

    With equal gaps n-k = m-l and m = n + t, t > 0, the ratio of the two
    is binom(m, t) / binom(l-1, t) (cancel the common factors of the
    factorials), so that pair answers the same question; with m < n the
    larger binomial cannot divide the smaller.  The pair whose binomials
    have the smaller lower index, taken as min(j, N - j), is expanded;
    an index above BINOM_INDEX_CAP raises WorkCapExceeded.
    """
    if not (1 <= k <= n and 1 <= l <= m):
        raise InvalidParameters(
            f"binom_divides needs 1 <= k <= n and 1 <= l <= m, got ({n}, {k}, {m}, {l})"
        )
    pairs = [((n, n - k + 1), (m, m - l + 1))]
    if n - k == m - l:
        if m <= n:
            return m == n
        pairs.append(((l - 1, m - n), (m, m - n)))
    index, (a, b) = min((max(min(j, top - j) for top, j in pair), pair) for pair in pairs)
    if index > BINOM_INDEX_CAP:
        raise WorkCapExceeded(f"binomial of lower index {index} exceeds cap {BINOM_INDEX_CAP}")
    return math.comb(*b) % math.comb(*a) == 0
