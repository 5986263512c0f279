"""Finite graded-commutative Z2-algebras with square-free monomial bases.

A presentation is an optional truncated polynomial generator y (y^N = 0)
tensored with a simple system of generators: a basis of square-free
products where squaring a generator either vanishes or lands on another
generator of twice the degree.  Distinct generators square onto distinct
targets, so the squares form chains j -> 2j -> 4j -> ... and the cup
length has a closed form over them; an oracle re-derives it over generator
words in g*2^g products, one per generator on each of the 2^g masks its
cap counts.  The ring is the tensor product of y's factor and the chains,
so _block_bits groups the chains into blocks of few masks whose oracle
values add up to the closed form; tensor_blocks builds their rings, while
cup_report reads a block's shape off the ring's square rules and builds a
block's ring only for a shape it has not swept.  Monomials are packed
into single ints (a generator bitmask shifted over the y-exponent), so
products, the oracle and Steenrod squares all run on machine words.  The
y-exponent field of a code is sized per ring, to the bits of its
truncation order.

Steenrod squares follow one rule.  On an untruncated ring (RV, CV, HV)
Borel's action Sq^t z = binom(deg z, t) * (the generator of degree
deg z + t), keyed by degree, holds on every generator; the presentation
checks that its top square is z^2.  On a truncated ring only the pure
y-powers have squares.  The total square Sq = sum_t Sq^t is a ring map
(the Cartan formula), so Sq of a monomial is the product of its factors'
total squares, the largest first, taken in one pass in which a product by
a generator whose bit is free is set inline; only square chains go through
mul_codes.  The pass keeps a flat track {code: t}: in a graded ring a code
fixes its degree, and so its index t.  The presentation keeps each
monomial's track, up to SQUARE_TERM_CAP terms in all, so a monomial is
squared once per ring whichever element asks; an element groups its
monomials' tracks by t into code sets on its first ask, and makes Sq^t an
element on its first ask (the ring's one zero without terms).  A pass
whose track holds more than SQUARE_TERM_CAP terms after a sweep raises
WorkCapExceeded: the slowest refusal measured, on a random monomial of
RV:64,63, takes about 1.4 s and 91 MiB of peak RSS (2 vCPU).
"""

from __future__ import annotations

import enum
import sys
from collections.abc import Iterable, Iterator
from math import isqrt

from ._record import Record, setfield
from .errors import (
    DimensionCapExceeded,
    InvalidParameters,
    MixedPresentations,
    UnsupportedPresentation,
    WorkCapExceeded,
)

__all__ = [
    "SQ_ZERO",
    "AlgebraPresentation",
    "CupMode",
    "CupResult",
    "Element",
    "SimpleGenerator",
    "Trunc",
    "cup_length",
    "poincare",
    "presentation_to_dict",
    "steenrod_sq",
    "tensor_blocks",
]

SQ_ZERO = "zero"

# Most generator masks (2^g, y's order uncounted) the cup-length oracle
# sweeps.  At 2^16 (RV:17,16, HV:16,16) it takes 0.1-0.2 s and 0.32 MiB of
# traced peak memory (2 vCPU); the longest word there, 2^16 - 1 for one chain
# of 16 generators, still fits the oracle's 16-bit length array.
ORACLE_MASK_CAP = 1 << 16
# Largest (generators + 1) * (series length) poincare accepts: it bounds the
# bits of the one int the series is packed into, and the CLI prints one JSON
# entry per degree.
SERIES_WORK_CAP = 1 << 20
# Most terms, summed over the indices, a Steenrod pass may hold after a
# sweep: past it a pass raises WorkCapExceeded.  It is also the budget of
# the tracks a presentation keeps, about 17 MiB of peak RSS when full.  No
# catalog query comes near it (the largest total square verify --max-n 16
# builds has 320 terms); the seed-1 random monomial of RV:40,39 reaches it
# after 0.6 s at 81 MiB (2 vCPU).
SQUARE_TERM_CAP = 1 << 18
# Most generator masks (y's order uncounted) of a tensor block, unless one
# chain alone holds more.  cup_report builds a block's ring only to sweep a
# shape it has not met, so a block costs about its sweep, and smaller blocks
# sweep fewer, smaller shapes.  On cup-grid (2 vCPU, 8 s runs, 4 alternating
# rounds on each of seeds 1 and 7) 2^4 made wall_norm_s 6-7% lower than 2^6
# and the 90th percentile item 22-26% lower, the median item 2-3% higher;
# 2^8 made wall_norm_s 20% and the 90th percentile 12% higher than 2^6.
TENSOR_BLOCK_CAP = 1 << 4
# Longest cup-length witness the chain closed form lists, one entry per
# factor: the CLI prints it, and at 2^20 factors (RX:1048576,2) a query
# takes 0.5 s and prints 11 MB (2 vCPU).
CUP_WITNESS_CAP = 1 << 20

# Internal square-rule encoding per generator bit: the target's bit, or this.
_RULE_ZERO = -1
# memoryview format of an unsigned machine word of each byte size
_WORD_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


class SimpleGenerator(Record):
    """One simple-system generator: label j, its degree, and its square.

    ``square`` is the label of the generator equal to the square, or
    SQ_ZERO.  No catalog square is left open: in RX and FV no generator
    squares onto the omitted index (see spaces.presentation).
    """

    __slots__ = ("label", "degree", "square")

    def __init__(self, label: int, degree: int, square: int | str = SQ_ZERO):
        setfield(self, "label", label)
        setfield(self, "degree", degree)
        setfield(self, "square", square)


class Trunc(Record):
    """Truncated polynomial part: one generator y with y**order = 0."""

    __slots__ = ("degree", "order")

    def __init__(self, degree: int, order: int):
        setfield(self, "degree", degree)
        setfield(self, "order", order)


class AlgebraPresentation(Record):
    """A ring: an optional truncated generator tensored with a simple system.

    Equality and hashing see only the four fields, so two identical rings
    built from different spaces compare equal.  The constructor validates
    the ring and, in the same pass over the generators, builds the tables
    the engine reads, each in an underscore slot: per generator bit its
    degree and its square rule (the target's bit, or _RULE_ZERO), the bit
    of each label, the top degree and, on an untruncated ring, where only
    Borel's rule looks a generator up by degree, the bit of each degree.
    The Steenrod caches start empty.
    """

    __slots__ = ("trunc", "simple_gens", "symbol", "y_symbol", "_y_field", "_degree_of_bit",
                 "_rule_of_bit", "_bit_of_label", "_bit_of_degree", "_top_degree",
                 "_factor_options_cache", "_square_tracks", "_square_terms", "_zero")

    def __init__(self, trunc: Trunc | None, simple_gens: tuple[SimpleGenerator, ...],
                 symbol: str = "g", y_symbol: str = "y"):
        setfield(self, "trunc", trunc)
        setfield(self, "simple_gens", simple_gens)
        setfield(self, "symbol", symbol)
        setfield(self, "y_symbol", y_symbol)
        if trunc is not None and (trunc.degree < 1 or trunc.order < 1):
            raise InvalidParameters(f"bad truncation {trunc}")
        order = trunc.order if trunc is not None else 1
        width = order.bit_length()
        # Monomial code layout: (generator bitmask << width) | y_exponent, with
        # y_exponent < order.
        setfield(self, "_y_field", (width, (1 << width) - 1, order))
        labels = [g.label for g in simple_gens]
        if labels != sorted(set(labels)):
            raise InvalidParameters("generator labels must be strictly increasing")
        bits = range(len(labels))
        bit_of_label = dict(zip(labels, bits))
        degrees = tuple([g.degree for g in simple_gens])
        rules = []
        squared_onto: dict[int, int] = {}  # target bit -> label of its source
        for g in simple_gens:
            label, degree, square = g.label, g.degree, g.square
            if degree < 1:
                raise InvalidParameters(f"generator {label} must have positive degree")
            if isinstance(square, int):
                target = bit_of_label.get(square)
                if target is None or square <= label:
                    raise InvalidParameters(
                        f"square target {square} of generator {label} is not a later generator"
                    )
                if target in squared_onto:
                    raise InvalidParameters(
                        f"generators {squared_onto[target]} and {label} both square onto "
                        f"{square}; square targets must be distinct"
                    )
                squared_onto[target] = label
                if degrees[target] != 2 * degree:
                    raise InvalidParameters(f"square of generator {label} must double the degree")
                rules.append(target)
            elif square != SQ_ZERO:
                raise InvalidParameters(f"bad square rule {square!r}")
            else:
                rules.append(_RULE_ZERO)
        if trunc is None:
            # Borel's rule is keyed by degree, and its top square Sq^deg z must
            # be z^2: the generator of twice the degree, or zero without one
            bit_of_degree = dict(zip(degrees, bits))
            if len(bit_of_degree) != len(degrees):
                raise InvalidParameters("generator degrees of an untruncated ring must be distinct")
            for g, rule in zip(simple_gens, rules):
                if rule != bit_of_degree.get(2 * g.degree, _RULE_ZERO):
                    raise InvalidParameters(
                        f"Borel's rule needs the square of generator {g.label} to be "
                        f"Sq^{g.degree} of it"
                    )
            setfield(self, "_bit_of_degree", bit_of_degree)
        setfield(self, "_degree_of_bit", degrees)
        setfield(self, "_rule_of_bit", tuple(rules))
        setfield(self, "_bit_of_label", bit_of_label)
        setfield(self, "_top_degree", (order - 1) * self.y_degree + sum(degrees))
        # {factor code: its options}, filled by _factor_options
        setfield(self, "_factor_options_cache", {})
        # {monomial code: its total square's track}, holding _square_terms
        # terms in all, at most SQUARE_TERM_CAP
        setfield(self, "_square_tracks", {})
        setfield(self, "_square_terms", 0)
        # The ring's one zero, made by zero() on its first call.  Until then a
        # dropped ring is freed by reference counting alone; once made, the
        # zero refers back to the ring, and that cycle waits for the cyclic
        # garbage collector.
        setfield(self, "_zero", None)

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return self._y_field[2]

    @property
    def y_degree(self) -> int:
        return self.trunc.degree if self.trunc is not None else 0

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(self._bit_of_label)

    @property
    def num_gens(self) -> int:
        return len(self.simple_gens)

    @property
    def total_dimension(self) -> int:
        return self._y_field[2] << len(self.simple_gens)

    @property
    def top_degree(self) -> int:
        return self._top_degree

    # -- monomials ---------------------------------------------------------

    def pack(self, y_exp: int, mask: int) -> int:
        return (mask << self._y_field[0]) | y_exp

    def unpack(self, code: int) -> tuple[int, tuple[int, ...]]:
        """Return (y_exp, generator labels) of a monomial code."""
        width, y_mask, _ = self._y_field
        y_exp = code & y_mask
        mask = code >> width
        gens = self.simple_gens
        labels = []
        while mask:
            low = mask & -mask
            labels.append(gens[low.bit_length() - 1].label)
            mask ^= low
        return y_exp, tuple(labels)

    def monomial_degree(self, code: int) -> int:
        width, y_mask, _ = self._y_field
        deg = (code & y_mask) * self.y_degree
        mask = code >> width
        degs = self._degree_of_bit
        while mask:
            low = mask & -mask
            deg += degs[low.bit_length() - 1]
            mask ^= low
        return deg

    def monomial_name(self, code: int) -> str:
        y_exp, labels = self.unpack(code)
        parts = []
        if y_exp == 1:
            parts.append(self.y_symbol)
        elif y_exp > 1:
            parts.append(f"{self.y_symbol}^{y_exp}")
        parts.extend(f"{self.symbol}{j}" for j in labels)
        return "*".join(parts) if parts else "1"

    def mul_codes(self, a: int, b: int) -> int | None:
        """Product of two monomial codes; None when the product vanishes.

        Repeated generators rewrite through their square rule, cascading
        until the result is square-free again; y-exponents at or above the
        truncation order kill the monomial.
        """
        width, y_mask, order = self._y_field
        y = (a & y_mask) + (b & y_mask)
        if y >= order:
            return None
        ma = a >> width
        mb = b >> width
        mask = ma ^ mb
        dup = ma & mb
        if dup:
            rules = self._rule_of_bit
            # lowest bit first: a square's target always sits at a higher bit
            while dup:
                low = dup & -dup
                dup ^= low
                rule = rules[low.bit_length() - 1]
                if rule < 0:
                    return None
                bit = 1 << rule
                if mask & bit:
                    mask ^= bit
                    dup |= bit
                else:
                    mask |= bit
        return (mask << width) | y

    def basis_codes(self) -> Iterator[int]:
        width = self._y_field[0]
        for mask in range(1 << self.num_gens):
            base = mask << width
            for e in range(self.order):
                yield base | e

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Element":
        zero = self._zero
        if zero is None:
            zero = Element(self, frozenset())
            setfield(self, "_zero", zero)
        return zero

    def y_power(self, e: int) -> "Element":
        if self.trunc is None:
            raise InvalidParameters("presentation has no truncated polynomial generator")
        if e < 0:
            raise InvalidParameters("negative exponent")
        if e >= self.order:
            return self.zero()
        return Element(self, frozenset((self.pack(e, 0),)))

    def gen(self, label: int) -> "Element":
        bit = self._bit_of_label.get(label)
        if bit is None:
            raise InvalidParameters(f"no generator labelled {label}")
        return Element(self, frozenset((self.pack(0, 1 << bit),)))

    def monomial(self, y_exp: int = 0, labels: Iterable[int] = ()) -> "Element":
        if y_exp < 0:
            raise InvalidParameters("negative exponent")
        if y_exp:
            if self.trunc is None:
                raise InvalidParameters("presentation has no truncated polynomial generator")
            if y_exp >= self.order:
                return self.zero()
        mask = 0
        for j in labels:
            bit = self._bit_of_label.get(j)
            if bit is None:
                raise InvalidParameters(f"no generator labelled {j}")
            if mask & (1 << bit):
                raise InvalidParameters(f"generator {j} repeated in monomial")
            mask |= 1 << bit
        return Element(self, frozenset((self.pack(y_exp, mask),)))


class Element:
    """Z2-linear combination of basis monomials of one presentation.

    ``_squares`` is the element's table {t: Sq^t}, a missing t being zero,
    or None until steenrod_sq fills it from its ring's tracks: a code set
    per t, made an element and stored on its first ask.  An element's codes
    never change, so a sum with zero is the other operand itself, a product
    with zero is the zero operand, and a square asked again is that element.
    """

    __slots__ = ("presentation", "codes", "_squares")

    def __init__(self, presentation: AlgebraPresentation, codes: frozenset[int]):
        self.presentation = presentation
        self.codes = codes
        self._squares: dict[int, Element | set[int]] | None = None

    def is_zero(self) -> bool:
        return not self.codes

    def __add__(self, other: "Element") -> "Element":
        p = self.presentation
        if p is not other.presentation and p != other.presentation:
            raise MixedPresentations("elements belong to different presentations")
        if not self.codes:
            return other
        if not other.codes:
            return self
        return Element(p, self.codes ^ other.codes)

    def __mul__(self, other: "Element") -> "Element":
        p = self.presentation
        if p is not other.presentation and p != other.presentation:
            raise MixedPresentations("elements belong to different presentations")
        if not self.codes:
            return self
        if not other.codes:
            return other
        acc: set[int] = set()
        mul_codes = p.mul_codes
        for a in self.codes:
            for b in other.codes:
                c = mul_codes(a, b)
                if c is not None:
                    if c in acc:
                        acc.discard(c)
                    else:
                        acc.add(c)
        return Element(p, frozenset(acc))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Element)
            and (self.presentation is other.presentation
                 or self.presentation == other.presentation)
            and self.codes == other.codes
        )

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        if not self.codes:
            return "<0>"
        p = self.presentation
        names = [p.monomial_name(c) for c in sorted(self.codes)]
        return "<" + " + ".join(names) + ">"


# -- ring operations ---------------------------------------------------------


def _series_size(top: int, terms: int, degrees: list[int]) -> int:
    """Bytes per field of a series whose degree e <= top counts, over at
    most `terms` base powers, the subsets of `degrees` summing to e.

    Those number at most 2^g for g degrees and, when the degrees are
    distinct, at most q(e), the partitions of e into distinct parts.  For
    0 < x < 1, x^e q(e) <= prod (1 + x^k), and at x = e^(-s) the log of the
    product is at most the integral of log(1 + e^(-s u)) over u > 0,
    pi^2/(12 s).  So log q(e) <= e s + pi^2/(12 s), at least pi*sqrt(e/3) at
    its minimum, and q(e) <= e^(pi*sqrt(e/3)) < 2^(2.62*sqrt(e)) <=
    2^(isqrt(7e) + 1).  The bits of terms go on top, and the width is rounded
    up to 1, 2, 4 or 8 bytes, a machine word of _unpack's view, or whole
    bytes past 8.
    """
    bits = len(degrees)
    partitions = isqrt(7 * top) + 1
    if bits > partitions and len(set(degrees)) == bits:
        bits = partitions
    size = (bits + terms.bit_length() + 7) // 8
    return 1 << (size - 1).bit_length() if size <= 8 else size


def _unpack(packed: int, size: int, length: int) -> list[int]:
    """The `length` fields of `size` bytes of a packed series, lowest first."""
    if size > 8:
        data = packed.to_bytes(size * length, "little")
        return [int.from_bytes(data[i:i + size], "little") for i in range(0, len(data), size)]
    view = memoryview(packed.to_bytes(size * length, sys.byteorder)).cast(_WORD_FORMAT[size])
    return (view if sys.byteorder == "little" else view[::-1]).tolist()


def _series(top: int, d: int, terms: int, degrees: list[int]) -> list[int]:
    """The coefficients up to t^top of (1 + t^d + ... + t^(d(terms-1))) *
    prod (1 + t^deg): `terms` powers of a class of degree d (d = 0 for
    none, with terms = 1) times an exterior algebra on `degrees`.

    A series is one int, its polynomial taken at t = 2^b, b = 8*size: the
    powers are the repunit (2^(b*d*terms) - 1) / (2^(b*d) - 1), and each
    factor (1 + t^deg) is one shift, one add and one mask.  Evaluation is a
    ring map Z[t] -> Z, and truncation mod t^(top+1) is reduction mod
    2^(b(top+1)), a mask.  A coefficient counts, over at most `terms`
    powers, subsets of the degrees, so _series_size keeps each below 2^b
    and decoding reads every one back.
    """
    size = _series_size(top, terms, degrees)
    b = 8 * size
    mask = (1 << b * (top + 1)) - 1
    shift = b * d  # t^d is 1 << shift
    c = ((1 << shift * terms) - 1) // ((1 << shift) - 1) & mask if d else 1
    for deg in degrees:
        c = (c + (c << b * deg)) & mask
    return _unpack(c, size, top + 1)


def poincare(p: AlgebraPresentation, max_deg: int | None = None) -> list[int]:
    """Dimension of each graded piece, indexed by degree up to the top
    degree, or up to max_deg when that is lower.

    The requested length is max_deg + 1, or the top degree + 1 without
    max_deg, so it also bounds a caller's zero padding up to max_deg.  When
    (generators + 1) times that length exceeds SERIES_WORK_CAP it raises
    WorkCapExceeded before anything is built.

    The series is _series of T = min(N, top//d + 1) y-powers in range (1
    without y) times (1 + t^deg) per generator of degree at most top.
    """
    length = (p.top_degree if max_deg is None else max_deg) + 1
    work = (p.num_gens + 1) * length
    if work > SERIES_WORK_CAP:
        raise WorkCapExceeded(
            f"series of {length} degrees: work {work} exceeds cap {SERIES_WORK_CAP}"
        )
    top = p.top_degree if max_deg is None else min(max_deg, p.top_degree)
    if top < 0:
        return []
    d = p.y_degree
    terms = min(p.order, top // d + 1) if d else 1
    return _series(top, d, terms, [deg for deg in p._degree_of_bit if deg <= top])


# -- Steenrod squares --------------------------------------------------------


def _factor_options(p: AlgebraPresentation, factor: int) -> list[tuple[int, int]]:
    """The options (t, Sq^t code) of one factor code, y^e or a single
    generator, cached on p.  A generator z takes Borel's rule
    Sq^t z = binom(deg z, t) * (the generator of degree deg z + t)."""
    got = p._factor_options_cache.get(factor)
    if got is not None:
        return got
    width, y_mask, _ = p._y_field
    mask = factor >> width
    if not mask:
        e, d = factor & y_mask, p.y_degree
        got = [(s * d, p.pack(e + s, 0)) for s in range(e + 1)
               if (e & s) == s and e + s < p.order]
    else:
        q = p._degree_of_bit[mask.bit_length() - 1]
        targets = ((t, p._bit_of_degree.get(q + t)) for t in range(q + 1) if (q & t) == t)
        got = [(t, p.pack(0, 1 << bit)) for t, bit in targets if bit is not None]
    p._factor_options_cache[factor] = got
    return got


def _total_square(p: AlgebraPresentation, code: int) -> dict[int, int]:
    """The total square Sq = sum_t Sq^t of one monomial as a flat track
    {code: t}: by the Cartan formula Sq is a ring map, so this is the
    product of its factors' total squares, taken in one pass (y^e, then the
    generators from the highest bit down).  The ring is graded, so a code
    fixes its degree and with it its index t, and equal codes cancel mod 2
    by toggling.  Once the track holds more than SQUARE_TERM_CAP codes after
    a sweep of one option over it, the pass raises WorkCapExceeded.

    A generator piece whose bit is clear in a product so far is a free bit,
    set inline; only a set bit (a square chain, which cascades or vanishes)
    and the y pieces, whose exponents add under the truncation, go through
    mul_codes.
    """
    width, y_mask, _ = p._y_field
    factors = [code & y_mask] if code & y_mask else []
    m = code >> width
    while m:
        top = 1 << (m.bit_length() - 1)
        factors.append(top << width)
        m ^= top
    mul_codes = p.mul_codes
    track = {0: 0}
    for f in factors:
        free = f > y_mask
        out: dict[int, int] = {}
        for t, piece in _factor_options(p, f):
            for pc, b in track.items():
                if free and not pc & piece:
                    prod = pc | piece
                else:
                    prod = mul_codes(pc, piece)
                    if prod is None:
                        continue
                if prod in out:
                    del out[prod]
                else:
                    out[prod] = b + t
            if len(out) > SQUARE_TERM_CAP:
                raise WorkCapExceeded(
                    f"total square of {p.monomial_name(code)} exceeds cap {SQUARE_TERM_CAP} terms"
                )
        track = out
    return track


def steenrod_sq(p: AlgebraPresentation, i: int, a: Element) -> Element:
    """Sq^i on an element: Sq^0 = id, vanishing above the degree, and the
    Cartan formula across monomial factors for every 0 < i <= deg.

    Generators take Borel's rule, keyed by degree (see _factor_options); it
    holds on every untruncated ring, RV, CV and HV alike.  Sq^deg needs no
    branch of its own: at the degree each factor takes its top square,
    which the presentation checks is its square in the ring, so the pass
    computes x*x.  On a truncated presentation only pure y-powers have
    squares: Sq^i, i > 0, of any other element raises
    UnsupportedPresentation before any pass.

    The first ask with i > 0 stores the element's whole table {t: Sq^t},
    grouped by t from its monomials' flat tracks as code sets; an entry
    becomes an element, stored, on the first ask of its index, so a later
    ask returns that object, and an index with no term returns p.zero().
    Each monomial's track comes from one _total_square pass per
    presentation: p keeps it for every later element, while the tracks it
    keeps hold at most SQUARE_TERM_CAP terms in all, and past that budget a
    track is computed but not kept.  A pass whose track outgrows
    SQUARE_TERM_CAP raises WorkCapExceeded and keeps nothing.
    """
    if a.presentation is not p and a.presentation != p:
        raise MixedPresentations("element does not belong to the given presentation")
    if i < 0:
        raise InvalidParameters("Sq index must be nonnegative")
    if i == 0:
        return a
    table = a._squares
    if table is None:
        if p.trunc is not None and any(c >> p._y_field[0] for c in a.codes):
            raise UnsupportedPresentation(
                "Steenrod squares on truncated presentations are only defined on pure powers of y"
            )
        tracks = p._square_tracks
        sums: dict[int, set[int]] = {}
        for code in a.codes:
            track = tracks.get(code)
            if track is None:
                track = _total_square(p, code)
                terms = p._square_terms + len(track)
                if terms <= SQUARE_TERM_CAP:
                    tracks[code] = track
                    setfield(p, "_square_terms", terms)
            for c, t in track.items():
                got = sums.get(t)
                if got is None:
                    sums[t] = {c}
                elif c in got:
                    got.remove(c)
                else:
                    got.add(c)
        table = a._squares = sums
    got = table.get(i)
    if got is None:
        return p.zero()
    if got.__class__ is set:
        got = table[i] = Element(p, frozenset(got))
    return got


# -- cup length --------------------------------------------------------------


class CupMode(enum.Enum):
    GENERATOR_SEARCH = "generators"
    EXHAUSTIVE_ORACLE = "oracle"


class CupResult(Record):
    __slots__ = ("value", "witness")

    # every square is a generator or zero, so the value is never a mere lower
    # bound; kept because `cuplength` JSON and the cup-grid golden carry it
    caveat = False

    def __init__(self, value: int, witness: tuple[str, ...]):
        setfield(self, "value", value)
        setfield(self, "witness", witness)


def _chains(p: AlgebraPresentation) -> list[list[int]]:
    """The square chains r -> r^2 -> ... as generator bits, root first, by root."""
    rules = p._rule_of_bit
    targets = set(rules)
    chains = [[bit] for bit in range(p.num_gens) if bit not in targets]
    for chain in chains:
        while rules[chain[-1]] >= 0:
            chain.append(rules[chain[-1]])
    return chains


def _block_bits(p: AlgebraPresentation) -> list[list[int]]:
    """The generator bits of each tensor block, ascending, y's block first:
    each chain whole in one block, longest first, while a block stays
    within TENSOR_BLOCK_CAP generator masks (a chain alone above it is a
    block of its own).  A ring within the cap is its own one block, read
    without walking its chains."""
    if 1 << p.num_gens <= TENSOR_BLOCK_CAP:
        return [list(range(p.num_gens))]
    groups, bits = [], []
    for chain in sorted(_chains(p), key=len, reverse=True):
        if bits and 1 << (len(bits) + len(chain)) > TENSOR_BLOCK_CAP:
            groups.append(sorted(bits))
            bits = []
        bits += chain
    groups.append(sorted(bits))
    return groups


def _block_shapes(p: AlgebraPresentation) -> list[tuple[list[int], tuple[int, ...]]]:
    """(generator bits, shape) of each tensor block of p, in the order of
    tensor_blocks, with no block ring built: the shape is the block ring's
    _rule_of_bit, p's square rules renumbered onto the block's bits (a
    chain lies whole in one block, so every target does too)."""
    rules = p._rule_of_bit
    shapes = []
    for bits in _block_bits(p):
        if len(bits) < len(rules):
            position = dict(zip(bits, range(len(bits))))
            position[_RULE_ZERO] = _RULE_ZERO
            shape = tuple([position[rules[bit]] for bit in bits])
        else:
            shape = rules
        shapes.append((bits, shape))
    return shapes


def _block_ring(p: AlgebraPresentation, index: int, bits: list[int]) -> AlgebraPresentation:
    """The ring of block `index` of _block_bits(p), on generator bits
    `bits`: p itself when they are all of p's.  Only the first block keeps
    y's truncation; later blocks of a truncated ring keep a truncation of
    order 1, so they are validated as truncated, not by Borel's rule."""
    if len(bits) == p.num_gens:
        return p
    trunc = p.trunc if index == 0 or p.trunc is None else Trunc(p.y_degree, 1)
    gens = p.simple_gens
    return AlgebraPresentation(trunc, tuple([gens[bit] for bit in bits]), p.symbol, p.y_symbol)


def tensor_blocks(p: AlgebraPresentation) -> tuple[AlgebraPresentation, ...]:
    """The ring as a tensor product of square-closed blocks, grouped by
    _block_bits and built by _block_ring.  Over a field cup(A (x) B) =
    cup(A) + cup(B).  Only a block's products are meant.  cup_report reads
    each block's shape off p's square rules and builds a block's ring only
    on a memo miss, so a memo hit builds no block ring."""
    return tuple(_block_ring(p, i, bits) for i, bits in enumerate(_block_bits(p)))


def _cup_from_chains(p: AlgebraPresentation) -> CupResult:
    """A chain r -> r^2 -> ... of L generators is a tensor factor
    Z2[r]/(r^(2^L)), so it adds 2^L - 1; y^(N-1) times each root to that
    power is the only longest generator product.  One walk of the square
    rules finds every chain's root and length: a square's target sits at a
    higher bit, so a bit no earlier rule reached is a root.  A witness of
    more than CUP_WITNESS_CAP factors raises WorkCapExceeded before it is
    listed."""
    lengths: dict[int, int] = {}  # root bit -> its chain's length, by root
    root_of: dict[int, int] = {}  # bit reached by a square -> its chain's root
    for bit, rule in enumerate(p._rule_of_bit):
        root = root_of.pop(bit, bit)
        lengths[root] = lengths.get(root, 0) + 1
        if rule >= 0:
            root_of[rule] = root
    y_count = p.order - 1
    value = y_count + sum((1 << length) - 1 for length in lengths.values())
    if value > CUP_WITNESS_CAP:
        raise WorkCapExceeded(f"cup-length witness of {value} factors exceeds cap {CUP_WITNESS_CAP}")
    witness = [p.y_symbol] * y_count
    symbol, gens = p.symbol, p.simple_gens
    for root, length in lengths.items():
        witness += [f"{symbol}{gens[root].label}"] * ((1 << length) - 1)
    return CupResult(value, tuple(witness))


def _cup_oracle(p: AlgebraPresentation) -> CupResult:
    order, gens = p.order, p.num_gens
    size = 1 << gens
    if size > ORACLE_MASK_CAP:
        raise DimensionCapExceeded(f"2^{gens} generator masks exceed oracle cap "
                                   f"2^{ORACLE_MASK_CAP.bit_length() - 1}")
    rules = p._rule_of_bit
    # Indexed by mask: the length of the longest generator word with that
    # product (16 bits hold the longest word at the cap, 2^16 - 1, one chain
    # of 16 generators), the mask before its last factor and that factor's
    # bit.  Every mask is reached, by its own generators, and a product by a
    # generator raises the mask (a square chain clears lower bits but sets a
    # higher one), so in increasing order every mask is final before it is
    # extended.  Typed views of bytearrays, so the sweep imports no module.
    length = memoryview(bytearray(2 * size)).cast("H")
    parent = memoryview(bytearray(2 * size)).cast("H")
    factor = bytearray(size)
    steps = [(i, 1 << i) for i in range(gens)]
    for mask in range(size):
        n = length[mask] + 1
        for i, bit in steps:
            if mask & bit:  # g_i * g_i carries up the square chain of i, or vanishes
                m, j = mask ^ bit, rules[i]
                while j >= 0 and m >> j & 1:
                    m ^= 1 << j
                    j = rules[j]
                if j < 0:
                    continue
                m |= 1 << j
            else:
                m = mask | bit
            if length[m] < n:
                length[m] = n
                parent[m] = mask
                factor[m] = i
    # the least mask of greatest length, so y^(N-1) times it is the least
    # code of greatest length
    mask = max(range(size), key=length.__getitem__)
    best = order - 1 + length[mask]
    if best > CUP_WITNESS_CAP:
        raise WorkCapExceeded(f"cup-length witness of {best} factors exceeds cap {CUP_WITNESS_CAP}")
    names = [f"{p.symbol}{g.label}" for g in p.simple_gens]
    word = []
    while mask:
        word.append(names[factor[mask]])
        mask = parent[mask]
    return CupResult(best, (p.y_symbol,) * (order - 1) + tuple(reversed(word)))


def cup_length(
    p: AlgebraPresentation, mode: CupMode | str = CupMode.GENERATOR_SEARCH
) -> CupResult:
    """Largest number of positive-degree classes with nonzero product.

    GENERATOR_SEARCH reads the value off the square chains in closed form:
    (N-1) for the truncated generator plus 2^L - 1 for each chain of L
    generators, with the witness y^(N-1) followed by each chain root
    repeated, in generator order.  EXHAUSTIVE_ORACLE reads no chains: a
    product of elements is nonzero only if some product of support
    monomials is, and a monomial is the product of its generators, so it
    takes the longest nonzero word in y and the g_i.  A product by y never
    changes the generator mask and one by a generator never changes y's
    exponent, so that word is y^(N-1) and the longest generator word, found
    by extending each of the 2^g generator masks by each generator in
    increasing order: at most g*2^g products, worked out inline (no
    mul_codes call).  The witness is that word, ending at the least code of
    greatest length.  Three flat arrays indexed by mask hold the sweep's
    state, 5 bytes per generator mask whatever y's order N.  Past
    ORACLE_MASK_CAP masks it raises DimensionCapExceeded before any
    product, and past CUP_WITNESS_CAP factors WorkCapExceeded before the
    witness is listed.  A mode is a CupMode member or its value, such as
    "oracle"; any other raises ValueError.  cup_report checks the closed
    form against the oracle summed over the tensor blocks, sweeping a block
    only when its shape is new, so a memo hit builds no block ring.

    Every square is a generator or zero, so both modes give the exact cup
    length of the ring; the result's caveat is always False.
    """
    if mode.__class__ is not CupMode:
        mode = CupMode(mode)
    if mode is CupMode.GENERATOR_SEARCH:
        return _cup_from_chains(p)
    return _cup_oracle(p)


# -- serialization -----------------------------------------------------------


def presentation_to_dict(p: AlgebraPresentation) -> dict:
    return {
        "trunc": (
            {"deg": p.trunc.degree, "N": p.trunc.order} if p.trunc is not None else None
        ),
        "gens": [
            {"j": g.label, "deg": g.degree, "square": g.square} for g in p.simple_gens
        ],
    }
