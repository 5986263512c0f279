"""Consistency suites of `topoinv verify`, and run_suites, which runs them.

Each grid suite maps one check over catalog spaces in this process; a
check returns its failure, if any, as a message, and its expected
warnings.  A work-cap refusal (WorkCapExceeded) skips its space; any other
TopoinvError raised while a check builds or reads a catalog ring is that
space's failure: a broken catalog fails the suite, it is not bad input.
Only `verify` imports this module; no other command does.
"""

from __future__ import annotations

import time

from .errors import TopoinvError, WorkCapExceeded
from .gralg import AlgebraPresentation, Element, poincare, steenrod_sq
from .invariants import cup_report
from .equivariant import Sphere, SymplecticGroup, feasibility
from .parity import binom_divides, binom_parity, parity_row
from .spaces import (Family, SpaceId, catalog, dimension, presentation, serre_verify,
                     truncation_order)


def _named(space: SpaceId, exc: TopoinvError) -> str:
    """The message of `exc`, naming `space` once."""
    message = str(exc)
    return message if message.startswith(f"{space}:") else f"{space}: {message}"


def _check_palindrome(space: SpaceId) -> tuple[str | None, list[str]]:
    p = presentation(space)
    series = poincare(p)
    if p.top_degree != dimension(space):
        return f"{space}: top degree {p.top_degree} != dimension {dimension(space)}", []
    if series != series[::-1]:
        return f"{space}: series is not palindromic", []
    return None, []


def _check_spectral(space: SpaceId) -> tuple[str | None, list[str]]:
    report = serre_verify(space)
    if not report.match:
        return (f"{space}: spectral series {report.e_infinity_series} "
                f"!= presentation series {report.presentation_series}"), []
    if space.k >= 2:
        # second route for the truncation order N: the first nonzero
        # differential kills y^N, |y| = d, so it lies on page d*N (at k = 1
        # the transgressing generator of CX and HX is above the window)
        d, order = space.family.base_degree, truncation_order(space)
        if report.first_nonzero_differential_page != d * order:
            return (f"{space}: first differential on page "
                    f"{report.first_nonzero_differential_page} != {d} * order {order}"), []
    return None, []


def _adem_failure(p: AlgebraPresentation, x: Element) -> str | None:
    """The first (a, b) with 0 < a < 2b and a + b <= 8, b and then a from the
    top down, where Sq^a Sq^b x is not sum_c binom(b-c-1, a-2c) Sq^(a+b-c)
    Sq^c x, as a message."""
    sq_of = [x] + [steenrod_sq(p, c, x) for c in range(1, 8)]
    for b in range(7, 0, -1):
        for a in range(min(2 * b, 9 - b) - 1, 0, -1):
            rhs = p.zero()
            for c in range(a // 2 + 1):
                if binom_parity(b - c - 1, a - 2 * c):
                    rhs = rhs + steenrod_sq(p, a + b - c, sq_of[c])
            if steenrod_sq(p, a, sq_of[b]) != rhs:
                return f"Adem relation fails at Sq^{a} Sq^{b}"
    return None


def _check_steenrod(space: SpaceId) -> tuple[str | None, list[str]]:
    import random

    p = presentation(space)
    rng = random.Random(hash((space.n, space.k)) & 0xFFFF)
    label_of_degree = {g.degree: g.label for g in p.simple_gens}
    for g in p.simple_gens:
        z = p.gen(g.label)
        if steenrod_sq(p, g.degree, z) != z * z:
            return f"{space}: top square rule fails on generator {g.label}", []
        for i in range(0, g.degree + 2):
            # Borel's rule: binom(deg, i) times the generator of degree deg + i
            target = label_of_degree.get(g.degree + i)
            if binom_parity(g.degree, i) and target is not None:
                want = p.gen(target)
            else:
                want = p.zero()
            if steenrod_sq(p, i, z) != want:
                return f"{space}: generator rule fails at Sq^{i} on {g.label}", []
    for _ in range(4):
        # sums of random monomials, drawn as generator bit masks so that the
        # 2^g basis is never listed
        a = p.zero()
        b = p.zero()
        for _ in range(3):
            a = a + Element(p, frozenset((p.pack(0, rng.getrandbits(p.num_gens)),)))
            b = b + Element(p, frozenset((p.pack(0, rng.getrandbits(p.num_gens)),)))
        if steenrod_sq(p, 0, a) != a:
            return f"{space}: Sq^0 is not the identity", []
        i = rng.randrange(0, p.top_degree + 2)
        lhs = steenrod_sq(p, i, a * b)
        rhs = p.zero()
        for s in range(i + 1):
            rhs = rhs + steenrod_sq(p, s, a) * steenrod_sq(p, i - s, b)
        if lhs != rhs:
            return f"{space}: Cartan formula fails at Sq^{i}", []
        failure = _adem_failure(p, a) or _adem_failure(p, b)
        if failure:
            return f"{space}: {failure}", []
    return None, []


def _check_cup(space: SpaceId) -> tuple[str | None, list[str]]:
    """Cross-check one space through cup_report, whose oracle runs on the
    ring's tensor blocks, and the closed form against the ring's own
    product: its value is at least the floor (N-1) + g, and its witness
    multiplies out to a nonzero class.  The ring is built once, here."""
    p = presentation(space)
    report = cup_report(space, p)
    exact = report.exact
    # the product of y^(N-1) and every generator is the top class
    floor = (p.order - 1) + p.num_gens
    if exact.value < floor:
        return f"{space}: cup length {exact.value} below floor {floor}", []
    codes = {f"{p.symbol}{g.label}": p.pack(0, 1 << bit) for bit, g in enumerate(p.simple_gens)}
    if p.trunc is not None:
        codes[p.y_symbol] = p.pack(1, 0)
    product = 0
    for i, name in enumerate(exact.witness):
        code = codes.get(name)
        product = None if code is None else p.mul_codes(product, code)
        if product is None:
            return f"{space}: witness product vanishes at factor {i + 1} ({name})", []
    bounds = dict(report.bounds)
    return None, [
        f"{space}: bound {name}={bounds[name]} < exact {exact.value} (expected discrepancy)"
        for name in report.violations
    ]


def _check_parity() -> str | None:
    import math

    for n in range(65):
        for j in range(n + 1):
            if binom_parity(n, j) != math.comb(n, j) % 2:
                return f"parity mismatch at ({n}, {j})"
        row = parity_row(n)
        if sum(row) != 1 << bin(n).count("1"):
            return f"parity row weight wrong at n={n}"
        if row[0] != 1 or row[n] != 1:
            return f"parity row endpoints wrong at n={n}"
    return None


def _check_equivariant() -> str | None:
    import math

    for n in range(1, 65):
        for k in range(1, n + 1):
            # the least m in the fiber's range with binom(n, m) odd, exactly
            want = next(m for m in range(n - k + 1, n + 1) if math.comb(n, m) % 2)
            if (got := truncation_order(SpaceId(Family.HV, n, k))) != want:
                return f"mod-2 index of HV:{n},{k} is alpha^{got}, not alpha^{want}"
    for n in range(1, 33):
        for m in range(1, 33):
            sp = feasibility(SymplecticGroup(n), SymplecticGroup(m))
            if (sp.status == "possible") != (m % n == 0):
                return f"group verdict wrong at ({n}, {m})"
            sph = feasibility(Sphere(n), Sphere(m))
            if (sph.status == "possible") != (n <= m):
                return f"sphere verdict wrong at ({n}, {m})"
            # every equal-gap pair HV:n,k -> HV:m,l, against exact binomials
            for k in range(max(n - m, 0) + 1, n + 1):
                l, j = m - n + k, n - k + 1
                if binom_divides(n, k, m, l) != (math.comb(m, j) % math.comb(n, j) == 0):
                    return f"binom_divides wrong at ({n}, {k}, {m}, {l})"
    for n in range(1, 17):
        for k in range(1, n + 1):
            space = SpaceId(Family.HV, n, k)
            if feasibility(space, space).status == "impossible":
                return f"identity map ruled out on {space}"
    return None


# name, grid families and check per grid suite
_GRID_SUITES = (
    ("palindrome", list(Family), _check_palindrome),
    ("spectral", [fam for fam in Family if fam.is_projective], _check_spectral),
    ("steenrod", [fam for fam in Family if not fam.is_projective], _check_steenrod),
    ("cup", list(Family), _check_cup),
)


def run_suites(suite: str, max_n: int):
    """(name, spaces, failures, warnings, skips, seconds, slowest) of each
    suite that `suite` selects, as it finishes: the grid suites up to max_n,
    then with `all` the single checks (spaces None).  A skip is a space a
    cap refused; slowest holds the (seconds, space) of a grid suite's three
    slowest spaces."""
    grid = range(2, max_n + 1)
    for name, families, check in _GRID_SUITES:
        if suite in (name, "all"):
            spaces = catalog(families, grid)
            failures, warnings, skips, times = [], [], [], []
            for space in spaces:
                start = time.perf_counter()
                try:
                    failure, found = check(space)
                except WorkCapExceeded as exc:
                    skips.append(_named(space, exc))
                except TopoinvError as exc:
                    failures.append(_named(space, exc))
                else:
                    if failure is not None:
                        failures.append(failure)
                    warnings += found
                times.append((time.perf_counter() - start, str(space)))
            yield (name, len(spaces), failures, warnings, skips,
                   sum(seconds for seconds, _ in times), sorted(times, reverse=True)[:3])
    if suite == "all":
        for name, check in (("parity", _check_parity), ("equivariant", _check_equivariant)):
            start = time.perf_counter()
            failure = check()
            yield (name, None, [] if failure is None else [failure], [], [],
                   time.perf_counter() - start, [])
