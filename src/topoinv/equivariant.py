"""Index ideals for unit-quaternion actions and map-feasibility verdicts.

The mod-2 index of each space here is a principal ideal in the polynomial
ring on the one degree-4 class alpha, so it is stored as the exponent
alone; containment of ideals is then a single integer comparison.  The
sphere S^{4n-1} has exponent n (total degree 4n), and the k-frame space
HV:n,k has the truncation order N of its fiber table
(spaces.truncation_order).  Verdicts distinguish exact characterizations
("possible" / "impossible") from necessary-condition screens
("not-ruled-out").
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import InvalidParameters
from .parity import binom_divides
from .spaces import Family, SpaceId, truncation_order

__all__ = [
    "FeasibilityVerdict",
    "GSpace",
    "IndexIdeal",
    "Sphere",
    "StiefelH",
    "SymplecticGroup",
    "feasibility",
    "ideal_contains",
    "index_sphere",
    "index_stiefel_mod2",
    "parse_gspace",
]


class IndexIdeal(Record):
    """Principal ideal <alpha^exponent>, |alpha| = 4."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        setfield(self, "exponent", exponent)
        if exponent < 1:
            raise InvalidParameters(f"bad index ideal {self}")


class Sphere(Record):
    """S^{4n-1} with the unit-quaternion action; written S4n-1:n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        setfield(self, "n", n)
        if n < 1:
            raise InvalidParameters(f"sphere parameter must be positive, got {n}")

    def __str__(self) -> str:
        return f"S4n-1:{self.n}"


class StiefelH(Record):
    """Quaternionic Stiefel manifold of k-frames in H^n."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        setfield(self, "n", n)
        setfield(self, "k", k)
        if not 1 <= k <= n:
            raise InvalidParameters(f"needs 1 <= k <= n, got ({n}, {k})")

    def __str__(self) -> str:
        return f"HV:{self.n},{self.k}"


class SymplecticGroup(Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        setfield(self, "n", n)
        if n < 1:
            raise InvalidParameters(f"group parameter must be positive, got {n}")

    def __str__(self) -> str:
        return f"Sp:{self.n}"


GSpace = Sphere | StiefelH | SymplecticGroup


def parse_gspace(spec: str) -> GSpace:
    # only the text is parsed inside the try, so a range error keeps its message
    try:
        head, rest = spec.split(":", 1)
        kind = {"S4n-1": Sphere, "Sp": SymplecticGroup, "HV": StiefelH}.get(head.strip())
        if kind is StiefelH:
            n, k = rest.split(",", 1)
            params = int(n), int(k)
        elif kind is not None:
            params = (int(rest),)
    except ValueError as exc:
        raise InvalidParameters(f"cannot parse G-space spec {spec!r}") from exc
    if kind is None:
        raise InvalidParameters(f"unknown G-space kind in {spec!r} (use S4n-1:, HV:, Sp:)")
    return kind(*params)


def index_sphere(n: int) -> IndexIdeal:
    """Index of the free action on S^{4n-1}: <alpha^n> in units of |alpha| = 4."""
    if n < 1:
        raise InvalidParameters(f"needs n >= 1, got {n}")
    return IndexIdeal(n)


def index_stiefel_mod2(n: int, k: int) -> IndexIdeal:
    """Mod-2 index of the k-frame space: exponent is the truncation order N."""
    if not 1 <= k <= n:
        raise InvalidParameters(f"needs 1 <= k <= n, got ({n}, {k})")
    return IndexIdeal(truncation_order(SpaceId(Family.HV, n, k)))


def ideal_contains(a: IndexIdeal, b: IndexIdeal) -> bool:
    """Whether <alpha^a> contains <alpha^b> (true iff a.exponent <= b.exponent)."""
    return a.exponent <= b.exponent


class FeasibilityVerdict(Record):
    """Verdict on the existence of an equivariant map.

    status is one of "possible", "possible-iff", "not-ruled-out",
    "impossible"; impossible verdicts always carry the violated necessary
    condition in detail.
    """

    __slots__ = ("status", "rule", "detail")

    def __init__(self, status: str, rule: str, detail: str = ""):
        setfield(self, "status", status)
        setfield(self, "rule", rule)
        setfield(self, "detail", detail)
        if status not in ("possible", "possible-iff", "not-ruled-out", "impossible"):
            raise InvalidParameters(f"bad verdict status {status!r}")
        if status == "impossible" and not detail:
            raise InvalidParameters("impossible verdicts must state the violated condition")


def feasibility(source: GSpace, target: GSpace) -> FeasibilityVerdict:
    """Existence screen for unit-quaternion equivariant maps source -> target.

    Sphere-to-sphere and group-to-group cases are exact characterizations
    (index containment, and block-diagonal embeddings for the converse);
    everything else applies necessary conditions only, with the symplectic
    group treated as the full frame space of its own rank.
    """
    if isinstance(source, SymplecticGroup) and isinstance(target, SymplecticGroup):
        if target.n % source.n == 0:
            return FeasibilityVerdict("possible", "group-divisibility",
                                      f"{source.n} divides {target.n}")
        return FeasibilityVerdict("impossible", "group-divisibility",
                                  f"{source.n} does not divide {target.n}")
    if isinstance(source, Sphere) and isinstance(target, Sphere):
        if source.n <= target.n:
            return FeasibilityVerdict("possible", "sphere-sphere",
                                      f"{source.n} <= {target.n}")
        return FeasibilityVerdict(
            "impossible", "sphere-sphere",
            f"index containment fails: exponent {source.n} > {target.n}",
        )

    src = StiefelH(source.n, source.n) if isinstance(source, SymplecticGroup) else source
    tgt = StiefelH(target.n, target.n) if isinstance(target, SymplecticGroup) else target

    if isinstance(src, StiefelH) and isinstance(tgt, StiefelH):
        n, k, m, l = src.n, src.k, tgt.n, tgt.k
        if n - k > m - l:
            return FeasibilityVerdict("impossible", "frame-gap",
                                      f"n-k={n - k} > m-l={m - l}")
        if n - k == m - l and not binom_divides(n, k, m, l):
            return FeasibilityVerdict(
                "impossible", "frame-divisibility",
                f"binom({n},{n - k + 1}) does not divide binom({m},{m - l + 1})",
            )
        return FeasibilityVerdict("not-ruled-out", "frame-gap")
    if isinstance(src, Sphere) and isinstance(tgt, StiefelH):
        m, l = tgt.n, tgt.k
        if src.n > m - l + 1:
            return FeasibilityVerdict("impossible", "sphere-to-stiefel",
                                      f"n={src.n} > m-l+1={m - l + 1}")
        return FeasibilityVerdict("not-ruled-out", "sphere-to-stiefel")
    if isinstance(src, StiefelH) and isinstance(tgt, Sphere):
        n, k = src.n, src.k
        if tgt.n < n - k + 1:
            return FeasibilityVerdict("impossible", "stiefel-to-sphere",
                                      f"m={tgt.n} < n-k+1={n - k + 1}")
        return FeasibilityVerdict("not-ruled-out", "stiefel-to-sphere")
    raise InvalidParameters(f"unsupported G-space pair ({source}, {target})")
