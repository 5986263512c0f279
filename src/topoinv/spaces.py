"""Catalog of Stiefel-type manifolds and their mod-2 cohomology rings.

Seven families are supported, written FAMILY:n,k throughout:

  RV, CV, HV   real / complex / quaternionic Stiefel manifolds of k-frames
  RX, CX, HX   their projective quotients by the unit scalars
  FV           flip Stiefel manifolds, the quotient of RV_{n,2k} by the
               pairwise flip (k is the half-width: FV:n,k is the manifold
               built from 2k-frames)

Every family is read from one table of its Stiefel fiber (_fiber), whose
generator m transgresses onto y^m in the quotient.  The truncation order N
is the least m with an odd coefficient, found by bit arithmetic without
listing the fiber (truncation_order).  A Stiefel ring is the fiber's
simple system; a quotient ring is Z2[y]/(y^N) tensored with the fiber
minus its generator m = N.  serre_verify rebuilds a quotient ring from the
transgression differentials alone and compares graded dimensions.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from ._record import Record, setfield
from .errors import InvalidParameters, WorkCapExceeded
from .gralg import SQ_ZERO, AlgebraPresentation, SimpleGenerator, Trunc, poincare
from .parity import binom_parity

__all__ = [
    "Family",
    "SSReport",
    "SpaceId",
    "catalog",
    "dimension",
    "presentation",
    "serre_verify",
    "truncation_order",
]


class Family(enum.Enum):
    RV = "RV"
    CV = "CV"
    HV = "HV"
    RX = "RX"
    FV = "FV"
    CX = "CX"
    HX = "HX"

    @property
    def is_projective(self) -> bool:
        # by value: an attribute lookup of a member costs about ten times more
        return self._value_ in ("RX", "FV", "CX", "HX")

    @property
    def base_degree(self) -> int:
        """Degree of the polynomial generator of the quotient's classifying space."""
        return _FIELD_DEGREE[self]


# d = 1, 2, 4: the real dimension of the field, the degree of the quotient's
# base class, and the step of the fiber degrees d*m - 1
_FIELD_DEGREE = {Family.RV: 1, Family.RX: 1, Family.FV: 1, Family.CV: 2, Family.CX: 2,
                 Family.HV: 4, Family.HX: 4}

_SYMBOLS = {
    Family.RV: ("z", "y"),
    Family.CV: ("z'", "y"),
    Family.HV: ("z''", "y"),
    Family.RX: ("y", "y"),
    Family.FV: ("y", "y"),
    Family.CX: ("y'", "y'"),
    Family.HX: ("y''", "y''"),
}


# the (n, k) each family admits, for positive n and k
_IN_RANGE = {
    Family.RV: lambda n, k: k < n,
    Family.CV: lambda n, k: k <= n,
    Family.HV: lambda n, k: k <= n,
    Family.RX: lambda n, k: 1 < k < n,
    Family.FV: lambda n, k: 2 * k < n,
    Family.CX: lambda n, k: k < n,
    Family.HX: lambda n, k: k < n,
}


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
        if n < 1 or k < 1:
            raise InvalidParameters(f"{self}: n and k must be positive")
        if not _IN_RANGE[fam](n, k):
            raise InvalidParameters(f"parameters out of range for {self}")

    def __str__(self) -> str:
        return f"{self.family.value}:{self.n},{self.k}"

    @staticmethod
    def parse(spec: str) -> "SpaceId":
        try:
            fam, rest = spec.split(":", 1)
            n, k = rest.split(",", 1)
            family, n, k = Family(fam.strip()), int(n), int(k)
        except ValueError as exc:
            raise InvalidParameters(f"cannot parse space spec {spec!r}") from exc
        return SpaceId(family, n, k)


_DIMENSION = {
    Family.RV: lambda n, k: n * k - k * (k + 1) // 2,
    Family.RX: lambda n, k: n * k - k * (k + 1) // 2,
    Family.FV: lambda n, k: 2 * n * k - k * (2 * k + 1),
    Family.CV: lambda n, k: 2 * n * k - k * k,
    Family.CX: lambda n, k: 2 * n * k - k * k - 1,
    Family.HV: lambda n, k: 4 * n * k - 2 * k * k + k,
    Family.HX: lambda n, k: 4 * n * k - 2 * k * k + k - 3,
}


def dimension(space: SpaceId) -> int:
    return _DIMENSION[space.family](space.n, space.k)


# Longest fiber _fiber lists, so presentation and serre_verify refuse a
# longer one before any list is built.  At the cap the slowest query,
# `cohomology RV:16385,16384 --max-deg 3`, takes 0.27 s and 34 MiB; at 2^16,
# 0.63 s and 91 MiB (2 vCPU).  ucharrank and the S^3-map screens list no fiber.
FIBER_CAP = 1 << 14


def _fiber(space: SpaceId) -> list[tuple[int, int, int, int]]:
    """(label, degree, target exponent m, coefficient parity) per fiber generator.

    The Stiefel fiber of every family has one generator per m in
    [n-k+1, n], or [n-2k+1, n] on FV, of degree d*m - 1 with d = 1, 2, 4
    over R, C, H.  In the quotient it transgresses onto y^m with
    coefficient binom(n, m), or binom(k+m-1, m) on FV: the coefficient of
    the total characteristic class of the classifying bundle.  Real labels
    are m - 1, the degree; complex and quaternionic labels are m.  A fiber
    of more than FIBER_CAP generators raises WorkCapExceeded.
    """
    fam, n, k = space.family, space.n, space.k
    d = _FIELD_DEGREE[fam]
    flip = fam is Family.FV
    width = 2 * k if flip else k
    if width > FIBER_CAP:
        raise WorkCapExceeded(f"{space}: {width} fiber generators exceed cap {FIBER_CAP}")
    return [(m - 1 if d == 1 else m, d * m - 1, m, binom_parity(k + m - 1 if flip else n, m))
            for m in range(n - width + 1, n + 1)]


def truncation_order(space: SpaceId) -> int:
    """Least m in the fiber's range whose transgression coefficient is odd.

    By Lucas, binom(n, m) is odd when m is a submask of n, and
    binom(k+m-1, m) when m shares no bit with k - 1 (the sum carries
    nowhere): the least m >= lo with m & forbidden == 0, forbidden ~n or
    k - 1.  While m has a forbidden bit, let h be the highest: every
    integer from m up to the next multiple of 2^(h+1) keeps bit h, so m
    moves to that multiple.  It has no bit at or below h, so each step
    clears a higher bit, the loop runs at most once per bit of n, and no
    list is built.

    The order always exists.  Off FV the range ends at m = n, a submask
    of itself.  On FV the range holds 2k consecutive integers, so it
    holds a multiple m of 2^r, the least power of two with 2^r >= k, and
    k - 1 < 2^r shares no bit with m.  On a Stiefel family it is the
    order of the quotient's ring (for HV, the mod-2 index of the
    S^3-action).
    """
    n, k = space.n, space.k
    if space.family is Family.FV:
        m, forbidden = n - 2 * k + 1, k - 1
    else:
        m, forbidden = n - k + 1, ~n
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
    symbol, y_symbol = _SYMBOLS[fam]
    fiber = _fiber(space)
    label_of_degree = {degree: label for label, degree, _, _ in fiber}
    trunc, order = None, 0
    if fam.is_projective:
        order = truncation_order(space)
        trunc = Trunc(fam.base_degree, order)
    gens = tuple(SimpleGenerator(label, degree, label_of_degree.get(2 * degree, SQ_ZERO))
                 for label, degree, m, _ in fiber if m != order)
    return AlgebraPresentation(trunc, gens, symbol=symbol, y_symbol=y_symbol)


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

    odd = [(d, m) for _, d, m, c in fiber if c and d <= w]
    estimate = (1 << len(odd)) * ((w + 1) // t + 1)
    if estimate > SS_WORK_CAP:
        raise WorkCapExceeded(f"{space}: estimated work {estimate} exceeds cap {SS_WORK_CAP}")
    # the presentation's series holds SERIES_WORK_CAP: refuse before any row
    series = poincare(presentation(space), w)
    pres = tuple(series) + (0,) * (w + 1 - len(series))

    # (fiber degree, mask, row) of each odd monomial in the window, by doubling:
    # with generator i above every bit of S, row(S + i) = row(S) << 2^i | bit S
    monomials = [(0, 0, 0)]
    for i, (fdeg, _) in enumerate(odd):
        monomials += [(d0 + fdeg, mask | 1 << i, row << (1 << i) | 1 << mask)
                      for d0, mask, row in monomials if d0 + fdeg <= w]
    # what each fiber degree adds to size and rank; sums with step t total them
    size, gain = [0] * (w + 1), [0] * (w + 1)
    pivots: dict[int, int] = {}
    for d0, _, row in sorted(monomials):
        size[d0] += 1
        while row:
            p = row.bit_length()
            other = pivots.get(p)
            if other is None:
                pivots[p] = row
                gain[d0] += 1
                break
            row ^= other
    for d in range(t, w + 1):
        size[d] += size[d - t]
        gain[d] += gain[d - t]
    betti = [size[d] - gain[d] - (gain[d - 1] if d else 0) for d in range(w + 1)]
    # Kunneth: times (1 + x^deg) for each even-coefficient generator
    for _, fdeg, _, c in fiber:
        if not c:
            for d in range(w, fdeg - 1, -1):
                betti[d] += betti[d - fdeg]

    # t * m = d + 1, so every generator left in `odd` is visible
    first_page = min((t * m for _, m in odd), default=0)

    return SSReport(
        space=space,
        window=w,
        first_nonzero_differential_page=first_page,
        e_infinity_series=tuple(betti),
        presentation_series=pres,
        match=tuple(betti) == pres,
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
    spaces: list[SpaceId] = []
    n_list = list(n_values)
    k_list = None if k_values is None else list(k_values)
    for fam in families:
        fam = Family(fam) if not isinstance(fam, Family) else fam
        for n in n_list:
            ks = k_list if k_list is not None else list(range(1, max(n, 1) + 1))
            for k in ks:
                try:
                    spaces.append(SpaceId(fam, n, k))
                except InvalidParameters:
                    pass
    return spaces
