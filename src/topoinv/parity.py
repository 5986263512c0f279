"""Binomial-coefficient parity, truncation indexes, and exact divisibility.

Every truncation order in the ring catalog is the least index in a range
whose governing binomial coefficient is odd.  Parity is decided by Lucas'
criterion: binom(n, j) is odd exactly when every binary digit of j is
dominated by the corresponding digit of n.  Divisibility tests are done on
exact integers (binom(64, 32) does not fit in 64 bits).
"""

from __future__ import annotations

import enum
import math

from .errors import InvalidParameters

__all__ = [
    "IndexFamily",
    "binom_divides",
    "binom_parity",
    "n_index",
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


class IndexFamily(enum.Enum):
    """Which binomial family governs the truncation index.

    REAL and FLIP cover the two real quotients (scalar and pairwise-flip);
    CQ covers the complex and quaternionic quotients, which share one rule.
    """

    REAL = "real"
    FLIP = "flip"
    CQ = "cq"


def n_index(family: IndexFamily, n: int, k: int) -> int:
    """Least j in the family's range with an odd governing binomial.

    REAL: j in [n-k+1, n] with binom(n, j) odd, for 1 < k < n.
    FLIP: j in [n-2k+1, n] with binom(k+j-1, j) odd, for k >= 1, 2k < n.
    CQ:   j in [n-k+1, n] with binom(n, j) odd, for 1 <= k <= n.

    Every search finds an index.  For REAL and CQ the range ends at j = n
    and binom(n, n) = 1; the convention "j <= n" is used even where a strict
    "j < n" also appears in the literature, since the strict version can
    fail to produce an index at all.  For FLIP the range holds 2k
    consecutive integers, so it contains a multiple j of 2^r, the least
    power of two with 2^r >= k.  Then k - 1 < 2^r shares no bit with j, so
    (k - 1) + j adds without carries and, by Lucas, binom(k+j-1, j) is odd.
    """
    if family is IndexFamily.REAL:
        if not 1 < k < n:
            raise InvalidParameters(f"real index needs 1 < k < n, got (n, k) = ({n}, {k})")
        lo, odd = n - k + 1, lambda j: binom_parity(n, j)
    elif family is IndexFamily.FLIP:
        if not (k >= 1 and 2 * k < n):
            raise InvalidParameters(f"flip index needs k >= 1 and 2k < n, got (n, k) = ({n}, {k})")
        lo, odd = n - 2 * k + 1, lambda j: binom_parity(k + j - 1, j)
    elif family is IndexFamily.CQ:
        if not 1 <= k <= n:
            raise InvalidParameters(f"index needs 1 <= k <= n, got (n, k) = ({n}, {k})")
        lo, odd = n - k + 1, lambda j: binom_parity(n, j)
    else:
        raise InvalidParameters(f"unknown index family {family!r}")
    return next(j for j in range(lo, n + 1) if odd(j))


def binom_divides(n: int, k: int, m: int, l: int) -> bool:
    """Exact test binom(n, n-k+1) | binom(m, m-l+1)."""
    if not (1 <= k <= n and 1 <= l <= m):
        raise InvalidParameters(
            f"binom_divides needs 1 <= k <= n and 1 <= l <= m, got ({n}, {k}, {m}, {l})"
        )
    a = math.comb(n, n - k + 1)
    b = math.comb(m, m - l + 1)
    return b % a == 0
