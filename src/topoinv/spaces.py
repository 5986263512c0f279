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
read only by serre_verify).  A generator's square is read off the
fiber's arithmetic, not looked up: over R generator m squares onto
2m - 1 while that is at most n, and over C and H never.  The truncation
order N is the least m with an odd coefficient, found by bit arithmetic
without listing the fiber (truncation_order).  A Stiefel ring is the
fiber's simple system; a quotient ring is Z2[y]/(y^N) tensored with the
fiber minus its generator m = N.  serre_verify reads the limit of the
transgression differentials in closed form, from one scan of the
coefficients over fiber_range, and compares graded dimensions; the
fiber is listed once, by presentation.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from ._record import Record, setfield
from .errors import InvalidParameters, WorkCapExceeded
from .gralg import SQ_ZERO, AlgebraPresentation, SimpleGenerator, Trunc, _series, poincare
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


# Each family by its value: SpaceId.parse looks it up with no Enum call.
_FAMILY_OF_VALUE = {fam.value: fam for fam in Family}


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
            family, n, k = _FAMILY_OF_VALUE[fam.strip()], int(n), int(k)
        except (KeyError, ValueError) as exc:
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
    to zero, and the fiber's arithmetic says which.  Over R generator m, of
    degree m - 1, squares onto m' = 2m - 1, of label and degree 2m - 2,
    exactly when 2m - 1 <= n (2m - 1 >= m lies above the range's start).
    Over C and H no square lands in the fiber: 2(dm - 1) = dm' - 1 would
    need d to divide 1.  AlgebraPresentation would refuse a square onto the
    omitted generator m = N.  None occurs: on RX and FV, 2j = N - 1 would
    make N odd; clearing the low bit of an odd N keeps its binomial
    condition (a submask of n on RX, N & (k-1) = 0 on FV, by Lucas), and N
    is the least m that meets it, so N - 1 lies just below the range of m
    and is the lowest label, at most j.
    """
    fam = space.family
    fiber = _fiber(space)
    trunc, order = None, 0
    if fam.is_projective:
        order = truncation_order(space)
        trunc = Trunc(fam.base_degree, order)
    # the highest fiber exponent a square lands on: n over R, none over C and H
    top = space.n if fam.base_degree == 1 else 0
    gens = tuple(SimpleGenerator(label, degree, 2 * degree if 2 * m - 1 <= top else SQ_ZERO)
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


def serre_verify(space: SpaceId, window: int | None = None) -> SSReport:
    """Check a quotient presentation against its transgression differentials.

    In the Serre spectral sequence of the fiber bundle V -> X, generator m
    of the fiber transgresses onto c_m y^m, c_m its binomial coefficient,
    and the differentials extend by the Leibniz rule: the limit is the
    homology of the Koszul complex over Z2[y] on the fiber generators.  A
    generator with c_m even is a cycle and splits off an exterior factor.
    Among the odd ones, with N the least m, x_m - y^(m-N) x_N is a cycle of
    the same degree for every other m, so the homology is Z2[y]/(y^N)
    tensored with the exterior algebra on every generator but x_N.  Its
    series, (1 - t^(dN)) / (1 - t^d) * prod (1 + t^deg), is one
    gralg._series call, truncated at the window; with no odd coefficient
    it is Z2[y] up to the window.  The tests keep the row-by-row GF(2)
    elimination of the complex as the reference that proves this lemma.

    N comes from one scan of the fiber's exponents and _coefficient_parity:
    neither the truncation order nor the presentation enters the limit,
    and the presentation is read only for the comparison.  So a ring that
    drops the wrong generator or truncates y at the wrong power fails, and
    the first nonzero differential, on page d*N while x_N lies in the
    window (0 otherwise), is a second route to truncation_order.  A fault
    in _coefficient_parity or gralg._series feeds both sides alike and is
    invisible here; only an independent route to the coefficients would see
    it.  The scan reads fiber_range and the degrees d*m - 1 without listing
    the fiber, so a check lists it once, in presentation.

    The window defaults to the manifold dimension; a generator above it is
    in no class of the window and is left out.  A fiber of more than
    FIBER_CAP generators raises WorkCapExceeded, before the window is
    checked, and so does a window whose presentation series poincare
    refuses.
    """
    if not space.family.is_projective:
        raise InvalidParameters(f"serre_verify applies to quotient families, not {space}")
    p = presentation(space)
    t = space.family.base_degree
    w = dimension(space) if window is None else window
    if w < 0:
        raise InvalidParameters("window must be nonnegative")
    pres = tuple(poincare(p, w))
    pres += (0,) * (w + 1 - len(pres))

    # N, the first m with an odd coefficient, and the degrees t*m - 1 of the
    # other generators in the window
    order, degrees = 0, []
    for m in fiber_range(space):
        if not order and _coefficient_parity(space, m):
            order = m
        elif t * m - 1 <= w:
            degrees.append(t * m - 1)
    terms = w // t + 1
    limit = tuple(_series(w, t, min(order, terms) if order else terms, degrees))
    # x_N has degree t*N - 1
    first_page = t * order if order and t * order <= w + 1 else 0

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
