"""Consistency suites of `topoinv verify`, and run_suites, which runs them.

Each grid suite maps one check over catalog spaces, on a process pool
when asked; a check returns its failure, if any, as a message, and its
expected warnings.  A TopoinvError raised while a check builds or reads a
catalog ring is that space's failure: a broken catalog fails the suite, it
is not bad input.  Only `verify` imports this module; no other command does.
"""

from __future__ import annotations

import functools
import os

from .errors import TopoinvError
from .gralg import ORACLE_DIMENSION_CAP, AlgebraPresentation, Element, poincare, steenrod_sq
from .invariants import cup_report
from .equivariant import feasibility, index_sphere, index_stiefel_mod2
from .parity import binom_parity, parity_row
from .spaces import (Family, SpaceId, catalog, dimension, presentation, serre_verify,
                     truncation_order)


def _space_check(check):
    """`check` with a TopoinvError as the failure of the item's space, named
    once.  The wrapper keeps the check's name, so a process pool pickles it."""

    @functools.wraps(check)
    def guarded(item):
        try:
            return check(item)
        except TopoinvError as exc:
            space = item[0] if isinstance(item, tuple) else item
            message = str(exc)
            return (message if message.startswith(f"{space}:") else f"{space}: {message}"), []

    return guarded


@_space_check
def _check_palindrome(space: SpaceId) -> tuple[str | None, list[str]]:
    p = presentation(space)
    series = poincare(p)
    if p.top_degree != dimension(space):
        return f"{space}: top degree {p.top_degree} != dimension {dimension(space)}", []
    if series != series[::-1]:
        return f"{space}: series is not palindromic", []
    return None, []


@_space_check
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


@_space_check
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


@_space_check
def _check_cup(item: tuple[SpaceId, int | None]) -> tuple[str | None, list[str]]:
    """Cross-check one space through cup_report, with the oracle up to its
    cap; `item` is the space and the cup-length floor (N-1) + g of its ring,
    None for a ring that cannot be built."""
    space, floor = item
    report = cup_report(space, oracle_max_dimension=ORACLE_DIMENSION_CAP)
    exact = report.exact.value
    if floor is not None and exact < floor:
        return f"{space}: cup length {exact} below floor {floor}", []
    bounds = dict(report.bounds)
    return None, [
        f"{space}: bound {name}={bounds[name]} < exact {exact} (expected discrepancy)"
        for name in report.violations
    ]


def _cup_items(grid: range) -> list[tuple[SpaceId, int | None]]:
    """The grid's spaces within the oracle's cap, with their floors; a
    space whose ring cannot be built is kept, for its check to report."""
    items = []
    for space in catalog(list(Family), grid):
        try:
            p = presentation(space)
        except TopoinvError:
            items.append((space, None))
            continue
        if p.total_dimension <= ORACLE_DIMENSION_CAP:
            # the product of y^(N-1) and every generator is the top class
            items.append((space, (p.order - 1) + p.num_gens))
    return items


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
    from .equivariant import Sphere, StiefelH, SymplecticGroup

    for n in range(1, 65):
        if index_stiefel_mod2(n, 1) != index_sphere(n):
            return f"sphere/frame index disagreement at n={n}"
    for n in range(1, 33):
        for m in range(1, 33):
            sp = feasibility(SymplecticGroup(n), SymplecticGroup(m))
            if (sp.status == "possible") != (m % n == 0):
                return f"group verdict wrong at ({n}, {m})"
            sph = feasibility(Sphere(n), Sphere(m))
            if (sph.status == "possible") != (n <= m):
                return f"sphere verdict wrong at ({n}, {m})"
    for n in range(1, 17):
        for k in range(1, n + 1):
            if feasibility(StiefelH(n, k), StiefelH(n, k)).status == "impossible":
                return f"identity map ruled out on HV:{n},{k}"
    return None


def _map_grid(fn, items: list, jobs: int) -> list:
    """fn over items in order, on at most `jobs` worker processes.

    The worker count is also capped by the CPU count and the grid size;
    with one worker or fewer the grid runs in this process.
    """
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: the pool pulls in multiprocessing, which a query never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# name, grid families (None: the cup suite's own items) and check per grid suite
_GRID_SUITES = (
    ("palindrome", list(Family), _check_palindrome),
    ("spectral", [fam for fam in Family if fam.is_projective], _check_spectral),
    ("steenrod", [fam for fam in Family if not fam.is_projective], _check_steenrod),
    ("cup", None, _check_cup),
)


def run_suites(suite: str, max_n: int, jobs: int):
    """(name, spaces, failures, warnings) of each suite that `suite` selects,
    as it finishes: the grid suites up to max_n, each on its own pool of at
    most `jobs` workers, then with `all` the single checks (spaces None)."""
    grid = range(2, max_n + 1)
    for name, families, check in _GRID_SUITES:
        if suite in (name, "all"):
            items = _cup_items(grid) if families is None else catalog(families, grid)
            results = _map_grid(check, items, jobs)
            yield (name, len(items), [failure for failure, _ in results if failure is not None],
                   [warning for _, found in results for warning in found])
    if suite == "all":
        for name, check in (("parity", _check_parity), ("equivariant", _check_equivariant)):
            failure = check()
            yield name, None, [] if failure is None else [failure], []
