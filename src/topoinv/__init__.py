"""Mod-2 cohomology rings of Stiefel-type manifolds and their invariants.

The package computes the cohomology rings of real, complex and
quaternionic Stiefel manifolds, of their projective quotients, and of the
flip Stiefel manifolds, as finite graded Z2-algebras.  On top of the ring
engine it evaluates upper characteristic ranks, exact cup lengths with
catalog bounds, Steenrod-square actions, spectral-sequence consistency
checks, and feasibility screens for unit-quaternion equivariant maps.
"""

from .errors import (
    DimensionCapExceeded,
    InvalidParameters,
    MixedPresentations,
    TopoinvError,
    UnsupportedPresentation,
    WorkCapExceeded,
)
from .parity import binom_divides, binom_parity, parity_row
from .gralg import (
    SQ_ZERO,
    AlgebraPresentation,
    CupMode,
    CupResult,
    Element,
    SimpleGenerator,
    Trunc,
    cup_length,
    poincare,
    presentation_to_dict,
    steenrod_sq,
)
from .spaces import (
    Family,
    SSReport,
    SpaceId,
    catalog,
    dimension,
    fiber_range,
    presentation,
    serre_verify,
    truncation_order,
)
from .invariants import (
    CupReport,
    DIM_MINUS_INDEX_BOUND,
    RankResult,
    cup_bound_dim_minus_index,
    cup_report,
    ucharrank,
)
from .equivariant import (
    FeasibilityVerdict,
    GSpace,
    Sphere,
    SymplecticGroup,
    feasibility,
    parse_gspace,
)

__version__ = "0.1.0"
