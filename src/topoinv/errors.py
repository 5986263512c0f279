"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class TopoinvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(TopoinvError, ValueError):
    """Parameters outside the domain of the requested operation."""


class MixedPresentations(TopoinvError):
    """Elements of different presentations were combined."""


class UnsupportedPresentation(TopoinvError):
    """The requested operation is not defined on this presentation/element."""


class DimensionCapExceeded(TopoinvError):
    """Generator masks exceed the exhaustive cup-length oracle's fixed cap."""


class WorkCapExceeded(TopoinvError):
    """Estimated work exceeds a fixed cap: of a fiber (FIBER_CAP), a Poincare
    series (SERIES_WORK_CAP, which also bounds a spectral check's window), a
    cup-length witness (CUP_WITNESS_CAP), a binomial's lower index
    (BINOM_INDEX_CAP) or a Steenrod pass's total square (SQUARE_TERM_CAP,
    2^18 terms; its slowest refusal measured, on a random RV:64,63
    monomial, takes about 1.4 s and 91 MiB of peak RSS on 2 vCPU)."""
