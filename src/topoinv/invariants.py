"""Upper characteristic rank tables and cup-length bounds.

ucharrank(space) reports the rank of any catalog space either exactly or
as a closed interval, together with the case label of the decision
ladder that produced it.  Interval upper ends are capped by the manifold
dimension, the only bound guaranteed in general.  Inputs outside every
ladder are reported as "uncovered" rather than guessed.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import InvalidParameters, TopoinvError
from .gralg import (
    AlgebraPresentation,
    CupMode,
    CupResult,
    _block_ring,
    _block_shapes,
    cup_length,
)
from .spaces import SpaceId, dimension, fiber_range, presentation, truncation_order

__all__ = [
    "CupReport",
    "DIM_MINUS_INDEX_BOUND",
    "RankResult",
    "cup_bound_dim_minus_index",
    "cup_report",
    "ucharrank",
]


class RankResult(Record):
    """Exact value, interval, or uncovered verdict for an upper rank.

    kind is "exact", "interval" or "uncovered".
    """

    __slots__ = ("kind", "case_label", "value", "lo", "hi", "n_index_used", "advisory", "reason")

    def __init__(self, kind: str, case_label: str, value: int | None = None,
                 lo: int | None = None, hi: int | None = None, n_index_used: int | None = None,
                 advisory: str | None = None, reason: str | None = None):
        setfield(self, "kind", kind)
        setfield(self, "case_label", case_label)
        setfield(self, "value", value)
        setfield(self, "lo", lo)
        setfield(self, "hi", hi)
        setfield(self, "n_index_used", n_index_used)
        setfield(self, "advisory", advisory)
        setfield(self, "reason", reason)

    @staticmethod
    def exact(value: int, case: str, n_index_used: int | None = None,
              advisory: str | None = None) -> "RankResult":
        return RankResult("exact", case, value=value, n_index_used=n_index_used,
                          advisory=advisory)

    @staticmethod
    def interval(lo: int, hi: int, case: str, n_index_used: int | None = None,
                 advisory: str | None = None) -> "RankResult":
        if lo > hi:
            raise InvalidParameters(f"empty interval [{lo}, {hi}]")
        return RankResult("interval", case, lo=lo, hi=hi, n_index_used=n_index_used,
                          advisory=advisory)

    @staticmethod
    def uncovered(reason: str) -> "RankResult":
        return RankResult("uncovered", "uncovered", reason=reason)


def ucharrank(space: SpaceId) -> RankResult:
    """Upper characteristic rank of any catalog space, exact or an interval.

    Dispatches on the family's row to the Stiefel table, the real projective
    and flip ladder (field degree 1), or the complex and quaternionic
    projective formulas.  The spheres RV:n,1, CV:n,1 and HV:n,1 lie outside
    every table and come back uncovered.
    """
    fam = space.family
    if not fam.is_projective:
        return ucharrank_stiefel(space)
    if fam.base_degree == 1:
        return ucharrank_projective_real(space)
    return ucharrank_projective_CH(space)


def ucharrank_stiefel(space: SpaceId) -> RankResult:
    """Upper characteristic rank of the Stiefel manifold of k-frames in F^n.

    The real table is exact except for the frame gaps 4 (with k > 2) and 8,
    which give the intervals [3, 4] and [7, 8]; the complex and quaternionic
    values are closed formulas in m = n - k.  Spheres (k = 1) are uncovered in
    all three families.
    """
    d, n, k = space.family.base_degree, space.n, space.k
    m = fiber_range(space).start - 1
    if k == 1:
        return RankResult.uncovered(f"{space} is a sphere, outside the table")
    if d == 1:
        if m not in (1, 2, 4, 8):
            return RankResult.exact(m - 1, "R.generic")
        if m == 1:
            if n >= 4:
                return RankResult.exact(2, "R.gap1")
            return RankResult.uncovered("RV:3,2 lies outside the table")
        if m == 2:
            return RankResult.exact(2, "R.gap2")
        if m == 4:
            if k == 2:
                return RankResult.exact(4, "R.gap4.k2")
            return RankResult.interval(3, 4, "R.gap4")
        return RankResult.interval(7, 8, "R.gap8")
    if d == 2:
        if k == n:
            return RankResult.exact(2, "C.group")
        return RankResult.exact(2 * m, "C.generic")
    return RankResult.exact(4 * m + 2, "H.generic")


def _is_power_of_two(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def ucharrank_projective_real(space: SpaceId) -> RankResult:
    """Case ladder for the real projective (RX) and flip Stiefel (FV) quotients.

    The case is a function of (family, m, N) with m the first possibly
    nontrivial degree of the fiber and N the truncation index.  Interval
    upper ends are capped at the manifold dimension.
    """
    n = space.n
    m = fiber_range(space).start - 1
    N = truncation_order(space)
    dim = dimension(space)

    if m not in (1, 2, 4, 8):
        if N == m + 1:
            if m % 2 == 0 or not _is_power_of_two(m + 1):
                return RankResult.exact(m, "a1", N)
            return RankResult.interval(m, dim, "a1.lower", N)
        return RankResult.exact(m - 1, "a2", N)
    if m == 1:
        if N == 2:
            if space.family.frames == 1:  # RX, not the flip
                return RankResult.exact(2, "b1", N)
            advisory = (
                f"keyed on truncation index 2; the congruence form of this case "
                f"has no solutions for odd n = {n}"
            )
            return RankResult.interval(2, dim, "b2", N, advisory=advisory)
        return RankResult.exact(0, "b3", N)
    rung = {2: "c", 4: "d", 8: "e"}[m]
    if N == m + 1:
        return RankResult.exact(m, rung + "1", N)
    if N == m + 2:
        return RankResult.interval(m - 1, min(m + 2, dim), rung + "2", N)
    return RankResult.interval(m - 1, min(m, dim), rung + "1", N)


def ucharrank_projective_CH(space: SpaceId) -> RankResult:
    """Closed formulas in m = n - k for the complex (CX) and quaternionic
    (HX) projective quotients, selected by whether N is the lowest index
    m + 1, that is, by the parity of binom(n, m + 1)."""
    m = fiber_range(space).start - 1
    N = truncation_order(space)
    odd = N == m + 1
    if space.family.base_degree == 2:
        if odd:
            return RankResult.exact(2 * m + 2, "C.odd", N)
        return RankResult.exact(2 * m, "C.even", N)
    if odd:
        return RankResult.exact(4 * m + 6, "H.odd", N)
    return RankResult.exact(4 * m + 2, "H.even", N)


# -- cup-length bounds ---------------------------------------------------------


DIM_MINUS_INDEX_BOUND = "dim-minus-index"


def cup_bound_dim_minus_index(space: SpaceId) -> int | None:
    """Dimension-minus-index cup bound for the quotient families; absent when
    the hypotheses fail (k > 1 and N the lowest index m of the fiber)."""
    if not space.family.is_projective or space.k == 1:
        return None
    m = fiber_range(space).start
    if truncation_order(space) != m:
        return None
    # dim - m on RX and FV but dim - degree d*m - 1, one less, on CX and HX:
    # the published amounts, kept apart until they are reconciled (ROADMAP)
    d = space.family.base_degree
    return dimension(space) - (m if d == 1 else d * m - 1)


class CupReport(Record):
    """What cup_report found."""

    __slots__ = ("space", "exact", "bounds", "violations")

    def __init__(self, space: SpaceId, exact: CupResult, bounds: tuple[tuple[str, int], ...],
                 violations: tuple[str, ...]):
        setfield(self, "space", space)
        setfield(self, "exact", exact)
        setfield(self, "bounds", bounds)
        setfield(self, "violations", violations)


# Longest generator word of each tensor-block shape (square rules) met so far.
_ORACLE_OF_SHAPE: dict[tuple[int, ...], int] = {}


def cup_report(space: SpaceId, p: AlgebraPresentation | None = None) -> CupReport:
    """Exact cup length with its oracle cross-check, the catalog bound and
    any violations; p is the space's ring when the caller has built it.

    The exact value comes from the square-chain closed form.  The
    exhaustive oracle re-derives it as y^(N-1) plus the longest generator
    word of each of the ring's tensor blocks, and a disagreement raises
    TopoinvError (an internal error, not a report).  No catalog block is
    over the oracle's cap: a block of several chains holds at most 2^4
    masks, and a chain q, 2q, ..., 2^(L-1)q needs consecutive real fiber
    degrees, at most FIBER_CAP = 2^14 of them, so L <= 15, 2^15 masks.
    A word's length depends only on the block's shape, the key _rule_of_bit
    (labels, degrees and symbols only name the witness, dropped here), so
    each shape is swept once per process and its length kept in
    _ORACLE_OF_SHAPE: the catalog with n <= 16, 32 and 64 has 16, 17 and
    18 shapes.  A shape is read off p's square rules
    (gralg._block_shapes), so a memo hit builds no block ring; a miss
    builds that one block's ring, the one tensor_blocks returns, and sweeps
    it.  The closed form is still
    computed and compared on every space.
    A bound smaller than the exact value is recorded as a violation, never
    suppressed: over all catalog spaces with n <= 40 the
    dimension-minus-index bound is exceeded exactly on RX:n,2 with n odd.
    """
    if p is None:
        p = presentation(space)
    exact = cup_length(p, CupMode.GENERATOR_SEARCH)
    oracle = p.order - 1
    for index, (bits, shape) in enumerate(_block_shapes(p)):
        word = _ORACLE_OF_SHAPE.get(shape)
        if word is None:
            block = _block_ring(p, index, bits)
            word = cup_length(block, CupMode.EXHAUSTIVE_ORACLE).value - (block.order - 1)
            _ORACLE_OF_SHAPE[shape] = word
        oracle += word
    if oracle != exact.value:
        raise TopoinvError(f"{space}: closed form gave {exact.value} but the oracle gave {oracle}")
    bounds: list[tuple[str, int]] = []
    catalog_bound = cup_bound_dim_minus_index(space)
    if catalog_bound is not None:
        bounds.append((DIM_MINUS_INDEX_BOUND, catalog_bound))
    violations = tuple(name for name, value in bounds if value < exact.value)
    return CupReport(space, exact, tuple(bounds), violations)
