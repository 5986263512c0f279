"""Map-feasibility verdicts for unit-quaternion actions.

The S^3-spaces are the spheres S^{4n-1} (Sphere), the symplectic groups
Sp(n) (SymplecticGroup) and the quaternionic Stiefel manifolds, which are
the catalog's own SpaceId of family HV; Sp:n meets the other kinds as
HV:n,n.  feasibility applies six rules, each named in its verdict:

  group-divisibility   Sp:n -> Sp:m exists exactly when n divides m
  sphere-sphere        S4n-1:n -> S4n-1:m exists exactly when n <= m
  frame-gap            HV:n,k -> HV:m,l is impossible when n-k > m-l
  frame-divisibility   at n-k = m-l it is impossible unless
                       binom(n, n-k+1) divides binom(m, m-l+1)
  sphere-to-stiefel    S4n-1:n -> HV:m,l is impossible when n > m-l+1
  stiefel-to-sphere    HV:n,k -> S4n-1:m is impossible when m < n-k+1

The first two are exact characterizations ("possible" / "impossible");
the other four are necessary-condition screens, "not-ruled-out" when they
pass.  No rule reads a Fadell-Husseini index (truncation_order is not
called here): deciding the screens by comparing index ideals is ROADMAP
item 14.
"""

from __future__ import annotations

from ._record import Record, setfield
from .errors import InvalidParameters
from .parity import binom_divides
from .spaces import Family, SpaceId

__all__ = [
    "FeasibilityVerdict",
    "GSpace",
    "Sphere",
    "SymplecticGroup",
    "feasibility",
    "parse_gspace",
]


class Sphere(Record):
    """S^{4n-1} with the unit-quaternion action; written S4n-1:n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        setfield(self, "n", n)
        if n < 1:
            raise InvalidParameters(f"sphere parameter must be positive, got {n}")

    def __str__(self) -> str:
        return f"S4n-1:{self.n}"


class SymplecticGroup(Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        setfield(self, "n", n)
        if n < 1:
            raise InvalidParameters(f"group parameter must be positive, got {n}")

    def __str__(self) -> str:
        return f"Sp:{self.n}"


GSpace = Sphere | SpaceId | SymplecticGroup


def parse_gspace(spec: str) -> GSpace:
    """The G-space of S4n-1:n, Sp:n or HV:n,k; SpaceId.parse reads HV specs."""
    # only the text is parsed inside the try, so a range error keeps its message
    try:
        head, rest = spec.split(":", 1)
        kind = {"S4n-1": Sphere, "Sp": SymplecticGroup, "HV": SpaceId}.get(head.strip())
        if kind in (Sphere, SymplecticGroup):
            n = int(rest)
    except ValueError as exc:
        raise InvalidParameters(f"cannot parse G-space spec {spec!r}") from exc
    if kind is None:
        raise InvalidParameters(f"unknown G-space kind in {spec!r} (use S4n-1:, HV:, Sp:)")
    return SpaceId.parse(spec, "G-space") if kind is SpaceId else kind(n)


class FeasibilityVerdict(Record):
    """Verdict on the existence of an equivariant map.

    status is one of "possible", "not-ruled-out", "impossible"; impossible
    verdicts always carry the violated necessary condition in detail.
    """

    __slots__ = ("status", "rule", "detail")

    def __init__(self, status: str, rule: str, detail: str = ""):
        setfield(self, "status", status)
        setfield(self, "rule", rule)
        setfield(self, "detail", detail)
        if status not in ("possible", "not-ruled-out", "impossible"):
            raise InvalidParameters(f"bad verdict status {status!r}")
        if status == "impossible" and not detail:
            raise InvalidParameters("impossible verdicts must state the violated condition")


def _is_frame_space(space) -> bool:
    return isinstance(space, SpaceId) and space.family is Family.HV


def feasibility(source: GSpace, target: GSpace) -> FeasibilityVerdict:
    """Existence screen for unit-quaternion equivariant maps source -> target.

    Sphere-to-sphere and group-to-group cases are exact characterizations
    (index containment, and block-diagonal embeddings for the converse);
    everything else applies necessary conditions only, with the symplectic
    group treated as the full frame space HV:n,n of its own rank.  A SpaceId
    of any family but HV is an unsupported G-space.
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

    src, tgt = (SpaceId(Family.HV, x.n, x.n) if isinstance(x, SymplecticGroup) else x
                for x in (source, target))

    if _is_frame_space(src) and _is_frame_space(tgt):
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
    if isinstance(src, Sphere) and _is_frame_space(tgt):
        m, l = tgt.n, tgt.k
        if src.n > m - l + 1:
            return FeasibilityVerdict("impossible", "sphere-to-stiefel",
                                      f"n={src.n} > m-l+1={m - l + 1}")
        return FeasibilityVerdict("not-ruled-out", "sphere-to-stiefel")
    if _is_frame_space(src) and isinstance(tgt, Sphere):
        n, k = src.n, src.k
        if tgt.n < n - k + 1:
            return FeasibilityVerdict("impossible", "stiefel-to-sphere",
                                      f"m={tgt.n} < n-k+1={n - k + 1}")
        return FeasibilityVerdict("not-ruled-out", "stiefel-to-sphere")
    raise InvalidParameters(f"unsupported G-space pair ({source}, {target})")
