"""Catalog of Stiefel-type manifolds and their mod-2 cohomology rings.

Seven families are supported, written FAMILY:n,k throughout:

  RV, CV, HV   real / complex / quaternionic Stiefel manifolds of k-frames
  RX, CX, HX   their projective quotients by the unit scalars
  FV           flip Stiefel manifolds, the quotient of RV_{n,2k} by the
               pairwise flip (k is the half-width: FV:n,k is the manifold
               built from 2k-frames)

Each Family member is one row of the family table: field degree d,
quotient or not, fiber generators per k, the least (n, k) it admits and
its symbols.  fiber_range(space) is the one place that knows the fiber's
exponents, [n-k+1, n] or [n-2k+1, n] on FV.  Every ring is read from the
table of its Stiefel fiber (_fiber), whose generator m transgresses onto
y^m in the quotient with a binomial coefficient (_coefficient_parity,
read only by serre_verify).  The truncation order N is the least m with
an odd coefficient, found by bit arithmetic without listing the fiber
(truncation_order).  A Stiefel ring is the fiber's simple system; a
quotient ring is Z2[y]/(y^N) tensored with the fiber minus its generator
m = N.  serre_verify rebuilds a quotient ring from the transgression
differentials alone and compares graded dimensions.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from ._record import Record, setfield
from .errors import InvalidParameters, WorkCapExceeded
from .gralg import (SQ_ZERO, AlgebraPresentation, SimpleGenerator, Trunc, _counts, _pack,
                    _series, _series_size, poincare)
from .parity import binom_parity

__all__ = [
    "Family",
    "SSReport",
    "SpaceId",
    "catalog",
    "dimension",
    "fiber_range",
    "presentation",
    "serre_verify",
    "truncation_order",
]


class Family(enum.Enum):
    """One row of the family table per family of Stiefel-type manifolds.

    A row holds base_degree, the real dimension d of the field (1, 2, 4
    over R, C, H: the degree of the quotient's base class y and the step
    of the fiber degrees d*m - 1); is_projective, whether the family is a
    quotient; frames, the fiber generators per k (2 on FV, which is built
    from 2k-frames); the least k and the least n - frames*k the family
    admits; and the symbols of its generators and of y.
    """

    def __new__(cls, value: str, base_degree: int, is_projective: bool, frames: int,
                least_k: int, least_gap: int, symbol: str, y_symbol: str):
        member = object.__new__(cls)
        member._value_ = value
        member.base_degree = base_degree
        member.is_projective = is_projective
        member.frames = frames
        member.least_k = least_k
        member.least_gap = least_gap
        member.symbol = symbol
        member.y_symbol = y_symbol
        return member

    #    value  d  quotient frames least k, least n - frames*k, symbols
    RV = "RV", 1, False, 1, 1, 1, "z", "y"
    CV = "CV", 2, False, 1, 1, 0, "z'", "y"
    HV = "HV", 4, False, 1, 1, 0, "z''", "y"
    RX = "RX", 1, True, 1, 2, 1, "y", "y"
    FV = "FV", 1, True, 2, 1, 1, "y", "y"
    CX = "CX", 2, True, 1, 1, 1, "y'", "y'"
    HX = "HX", 4, True, 1, 1, 1, "y''", "y''"

    def admits(self, n: int, k: int) -> bool:
        """Whether FAMILY:n,k is a space of this family; never for n or k below 1."""
        return k >= self.least_k and n - self.frames * k >= self.least_gap


class SpaceId(Record):
    """One manifold: family plus parameters (n, k).

    For FV, k is the half-width: SpaceId(FV, n, k) is the flip quotient of
    RV_{n,2k} and requires 2k < n.  A family given by its value, such as
    "RV", is coerced to the Family member.
    """

    __slots__ = ("family", "n", "k")

    def __init__(self, family: Family | str, n: int, k: int):
        fam = family if isinstance(family, Family) else Family(family)
        setfield(self, "family", fam)
        setfield(self, "n", n)
        setfield(self, "k", k)
        if not fam.admits(n, k):
            if n < 1 or k < 1:
                raise InvalidParameters(f"{self}: n and k must be positive")
            raise InvalidParameters(f"parameters out of range for {self}")

    def __str__(self) -> str:
        return f"{self.family.value}:{self.n},{self.k}"

    @staticmethod
    def parse(spec: str, what: str = "space") -> "SpaceId":
        """The space of FAMILY:n,k; unreadable text is a `cannot parse {what} spec` error."""
        try:
            fam, rest = spec.split(":", 1)
            n, k = rest.split(",", 1)
            family, n, k = Family(fam.strip()), int(n), int(k)
        except ValueError as exc:
            raise InvalidParameters(f"cannot parse {what} spec {spec!r}") from exc
        return SpaceId(family, n, k)


def dimension(space: SpaceId) -> int:
    """d*n*w - w - d*w(w-1)/2 with w = frames*k, less d - 1 on a quotient.

    A closed form, read from no fiber table: the palindrome suite checks
    each presentation's top degree against it.
    """
    fam = space.family
    d, w = fam.base_degree, fam.frames * space.k
    return d * space.n * w - w - d * w * (w - 1) // 2 - (d - 1 if fam.is_projective else 0)


def fiber_range(space: SpaceId) -> range:
    """The exponents m of the fiber generators: [n - w + 1, n], w = frames*k."""
    return range(space.n - space.family.frames * space.k + 1, space.n + 1)


# Longest fiber _fiber lists, so presentation and serre_verify refuse a
# longer one before any list is built.  At the cap the slowest query,
# `cohomology RV:16385,16384 --max-deg 3`, takes about 0.2 s and 34 MiB; at
# 2^16, 0.6 s and 91 MiB (2 vCPU, median of 7 fresh processes).  ucharrank
# and the S^3-map screens list no fiber.
FIBER_CAP = 1 << 14


def _fiber(space: SpaceId) -> list[tuple[int, int, int]]:
    """(label, degree, target exponent m) per fiber generator.

    The Stiefel fiber of every family has one generator per m in
    fiber_range, of degree d*m - 1 with d = 1, 2, 4 over R, C, H.  Real
    labels are m - 1, the degree; complex and quaternionic labels are m.  A
    fiber of more than FIBER_CAP generators raises WorkCapExceeded.
    """
    d = space.family.base_degree
    ms = fiber_range(space)
    if len(ms) > FIBER_CAP:
        raise WorkCapExceeded(f"{space}: {len(ms)} fiber generators exceed cap {FIBER_CAP}")
    return [(m - 1 if d == 1 else m, d * m - 1, m) for m in ms]


def _coefficient_parity(space: SpaceId, m: int) -> int:
    """Parity of the coefficient with which fiber generator m transgresses
    onto y^m in the quotient: binom(n, m), or binom(k+m-1, m) on FV, the
    coefficient of the total characteristic class of the classifying
    bundle."""
    return binom_parity(space.k + m - 1 if space.family is Family.FV else space.n, m)


def truncation_order(space: SpaceId) -> int:
    """Least m in the fiber's range whose transgression coefficient is odd.

    By Lucas, binom(n, m) is odd when m is a submask of n, and
    binom(k+m-1, m) when m shares no bit with k - 1 (the sum carries
    nowhere): the least m in fiber_range with m & forbidden == 0,
    forbidden ~n or k - 1.  While m has a forbidden bit, let h be the
    highest: every integer from m up to the next multiple of 2^(h+1) keeps
    bit h, so m moves to that multiple.  It has no bit at or below h, so
    each step clears a higher bit, the loop runs at most once per bit of
    n, and no list is built.

    The order always exists.  Off FV the range ends at m = n, a submask
    of itself.  On FV the range holds 2k consecutive integers, so it
    holds a multiple m of 2^r, the least power of two with 2^r >= k, and
    k - 1 < 2^r shares no bit with m.  On a Stiefel family it is the
    order of the quotient's ring (for HV, the mod-2 index of the
    S^3-action).
    """
    m = fiber_range(space).start
    forbidden = space.k - 1 if space.family is Family.FV else ~space.n
    while m & forbidden:
        high = (m & forbidden).bit_length()
        m = ((m >> high) + 1) << high
    return m


def presentation(space: SpaceId) -> AlgebraPresentation:
    """The ring of any catalog space, read from its fiber table.

    Each generator squares to the fiber generator of twice its degree, or
    to zero; only real degrees double into the fiber.  The target is
    looked up over the whole fiber, so AlgebraPresentation would refuse a
    square onto the omitted generator m = N.  None occurs: on RX and FV,
    2j = N - 1 would make N odd; clearing the low bit of an odd N keeps
    its binomial condition (a submask of n on RX, N & (k-1) = 0 on FV, by
    Lucas), and N is the least m that meets it, so N - 1 lies just below
    the range of m and is the lowest label, at most j.
    """
    fam = space.family
    fiber = _fiber(space)
    label_of_degree = {degree: label for label, degree, _ in fiber}
    trunc, order = None, 0
    if fam.is_projective:
        order = truncation_order(space)
        trunc = Trunc(fam.base_degree, order)
    gens = tuple(SimpleGenerator(label, degree, label_of_degree.get(2 * degree, SQ_ZERO))
                 for label, degree, m in fiber if m != order)
    return AlgebraPresentation(trunc, gens, symbol=fam.symbol, y_symbol=fam.y_symbol)


# -- spectral-sequence verification -------------------------------------------


class SSReport(Record):
    __slots__ = ("space", "window", "first_nonzero_differential_page", "e_infinity_series",
                 "presentation_series", "match")

    def __init__(self, space: SpaceId, window: int, first_nonzero_differential_page: int,
                 e_infinity_series: tuple[int, ...], presentation_series: tuple[int, ...],
                 match: bool):
        setfield(self, "space", space)
        setfield(self, "window", window)
        setfield(self, "first_nonzero_differential_page", first_nonzero_differential_page)
        setfield(self, "e_infinity_series", e_infinity_series)
        setfield(self, "presentation_series", presentation_series)
        setfield(self, "match", match)


# Largest work estimate serre_verify accepts.
SS_WORK_CAP = 1 << 21


def serre_verify(space: SpaceId, window: int | None = None) -> SSReport:
    """Check a quotient presentation against its transgression differentials.

    Builds the window of the fiber-times-base bigraded Z2 vector space, lets
    every fiber generator transgress with its binomial coefficient, extends
    by the Leibniz rule, and computes graded dimensions of the limit.  A
    generator with an even coefficient has zero differential, so by Kunneth
    over Z2 the limit is the homology of the odd generators' complex tensored
    with the exterior algebra on the even ones.  Only the odd part is ranked
    over Z2 (bit-parallel Gaussian elimination); in one total degree a fiber
    monomial fixes its base exponent, so the fiber mask is the column.  With
    a bounded filtration the limit's total series equals the homology series
    of the assembled differential.  The base ring is polynomial, so a mask's
    row is the same in every degree, and degree d holds the masks of fiber
    degree d0 <= d, d0 = d mod t (t the base degree): a running rank per
    residue class, from one elimination fed in order of d0, since a fiber
    degree is -1 mod t and rows of two classes share no column.  Neither
    the truncation index nor the presentation enters the ranks; the
    presentation is read only for the comparison.

    The limit is gralg._series, exact as shown there, of count - (1 + x)*gain,
    the monomials and pivots per fiber degree, over 1 - x^t (the running
    sums per residue class), times (1 + x^deg) per even generator.  Its
    fields hold the E2 term, of which the limit is a subquotient: degree d
    sums, over at most window // t + 1 base powers, the fiber subsets of
    degree sum d, so gralg._series_size bounds it.

    The window defaults to the manifold dimension; a generator above it is
    in no monomial of the window and is left out.  Before any list is
    built, the monomials ranked are bounded by 2^g * ((window + 1) // base
    degree + 1), g the odd-coefficient generators in the window; a bound
    above SS_WORK_CAP raises WorkCapExceeded, and so does a window whose
    presentation series poincare refuses.  A row has at most 2^g bits.
    """
    if not space.family.is_projective:
        raise InvalidParameters(f"serre_verify applies to quotient families, not {space}")
    fiber = _fiber(space)
    t = space.family.base_degree
    w = dimension(space) if window is None else window
    if w < 0:
        raise InvalidParameters("window must be nonnegative")

    # (degree, m) of each odd-coefficient generator in the window, and the
    # degree of each even one
    odd, even = [], []
    for _, d, m in fiber:
        if d <= w:
            if _coefficient_parity(space, m):
                odd.append((d, m))
            else:
                even.append(d)
    estimate = (1 << len(odd)) * ((w + 1) // t + 1)
    if estimate > SS_WORK_CAP:
        raise WorkCapExceeded(f"{space}: estimated work {estimate} exceeds cap {SS_WORK_CAP}")
    # the presentation's series holds SERIES_WORK_CAP: refuse before any row
    pres = tuple(poincare(presentation(space), w))
    pres += (0,) * (w + 1 - len(pres))

    # (fiber degree, mask, row) of each odd monomial in the window, by doubling:
    # with generator i above every bit of S, row(S + i) = row(S) << 2^i | bit S
    monomials = [(0, 0, 0)]
    for i, (fdeg, _) in enumerate(odd):
        monomials += [(d0 + fdeg, mask | 1 << i, row << (1 << i) | 1 << mask)
                      for d0, mask, row in monomials if d0 + fdeg <= w]
    size = _series_size(w, w // t + 1, [d for d, _ in odd] + even)
    # what each fiber degree adds to the monomials and the rank
    count, gain = _counts(size, w + 1), _counts(size, w + 1)
    pivots: dict[int, int] = {}
    for d0, _, row in sorted(monomials):
        count[d0] += 1
        while row:
            p = row.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                gain[d0] += 1
                break
            row ^= other
    rank = _pack(gain, size)
    limit = tuple(_series(w, size, _pack(count, size) - rank - (rank << 8 * size), t, even))

    # t * m = d + 1, so every generator left in `odd` is visible
    first_page = min((t * m for _, m in odd), default=0)

    return SSReport(
        space=space,
        window=w,
        first_nonzero_differential_page=first_page,
        e_infinity_series=limit,
        presentation_series=pres,
        match=limit == pres,
    )


def catalog(
    families: Iterable[Family | str],
    n_values: Iterable[int],
    k_values: Iterable[int] | None = None,
) -> list[SpaceId]:
    """Expand a parameter grid into its valid spaces, in (family, n, k) order.

    Invalid combinations are skipped silently.  When k_values is omitted,
    all valid k for each n are generated.
    """
    n_list = list(n_values)
    k_list = None if k_values is None else list(k_values)
    return [SpaceId(fam, n, k)
            for fam in map(Family, families)
            for n in n_list
            for k in (range(1, n + 1) if k_list is None else k_list)
            if fam.admits(n, k)]
