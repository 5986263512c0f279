"""Command-line front end.

Single queries print one deterministic JSON document (sorted keys, no
timestamps; --meta wraps the payload instead of polluting it).  Grids
stream through `table` as CSV or JSON, and `verify` runs the consistency
suites.  Exit codes: 0 success, 1 verification failure or internal error
(such as a cross-check disagreement), 2 invalid parameters, a usage error
or a work cap hit, 3 input not covered by the decision tables; every error
is one `error:` line on stderr.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
from datetime import datetime, timezone

import click

from . import __version__
from .errors import DimensionCapExceeded, InvalidParameters, TopoinvError, WorkCapExceeded
from .gralg import (AlgebraPresentation, CupMode, Element, cup_length, poincare,
                    presentation_to_dict, steenrod_sq)
from .invariants import ORACLE_CROSS_CHECK_MAX_DIMENSION, RankResult, cup_report, ucharrank
from .equivariant import feasibility, index_sphere, index_stiefel_mod2, parse_gspace
from .parity import binom_parity, parity_row
from .spaces import Family, SpaceId, catalog, dimension, presentation, serre_verify

SCHEMA = "topoinv/1"


class _Cli(click.Group):
    """The command group; its `main` is the CLI's one error boundary.

    Every error ends in one `error:` line on stderr and an exit code: 2 for
    a usage error, invalid parameters or a cap hit, 1 for an interrupt or
    any other TopoinvError (such as a cross-check disagreement).  A bare
    `topoinv` prints the help on stderr and exits 2.
    """

    def invoke(self, ctx: click.Context):
        # click's own handler would print a blank line before the error line
        try:
            return super().invoke(ctx)
        except KeyboardInterrupt:
            raise click.Abort() from None

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, standalone_mode=False, **kwargs)
        except click.exceptions.NoArgsIsHelpError as exc:
            exc.show()  # a bare `topoinv` prints the help on stderr
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            message, code = exc.format_message(), exc.exit_code
        except click.Abort:
            message, code = "aborted", 1
        except (InvalidParameters, DimensionCapExceeded, WorkCapExceeded) as exc:
            message, code = str(exc), 2
        except TopoinvError as exc:
            message, code = str(exc), 1
        click.echo("error: " + " ".join(message.split()), err=True)
        sys.exit(code)


def _emit(ctx: click.Context, payload: dict) -> None:
    if ctx.obj and ctx.obj.get("meta"):
        payload = {
            "meta": {
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "version": __version__,
            },
            "payload": payload,
        }
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


def _rank_to_dict(r: RankResult) -> dict:
    out: dict = {"kind": r.kind, "case": r.case_label}
    if r.value is not None:
        out["value"] = r.value
    if r.lo is not None:
        out["lo"] = r.lo
        out["hi"] = r.hi
    if r.n_index_used is not None:
        out["N"] = r.n_index_used
    if r.advisory:
        out["advisory"] = r.advisory
    if r.reason:
        out["reason"] = r.reason
    return out


@click.group(cls=_Cli)
@click.version_option(version=__version__, prog_name="topoinv")
@click.option("--meta", is_flag=True, help="Wrap output with a timestamped meta envelope.")
@click.pass_context
def main(ctx: click.Context, meta: bool) -> None:
    """Cohomology rings and rank/cup/index invariants of Stiefel-type manifolds.

    Space specs are FAMILY:n,k with families RV, CV, HV (Stiefel), RX, CX,
    HX (projective quotients) and FV (flip; k is the half-width).  G-space
    specs for s3map are S4n-1:n (the sphere S^{4n-1}), HV:n,k and Sp:n.
    """
    ctx.ensure_object(dict)
    ctx.obj["meta"] = meta


@main.command("ucharrank")
@click.argument("space_spec")
@click.pass_context
def ucharrank_command(ctx: click.Context, space_spec: str) -> None:
    """Upper characteristic rank of SPACE_SPEC (exact or interval)."""
    space = SpaceId.parse(space_spec)
    result = ucharrank(space)
    payload = {
        "schema": SCHEMA,
        "query": {"command": "ucharrank", "space": str(space)},
        "result": _rank_to_dict(result),
        "provenance": [result.case_label],
        "warnings": [result.advisory] if result.advisory else [],
    }
    _emit(ctx, payload)
    if result.kind == "uncovered":
        sys.exit(3)


@main.command()
@click.argument("space_spec")
@click.option("--max-deg", type=int, default=None, help="Truncate/pad the series at this degree.")
@click.option("--emit-presentation", is_flag=True,
              help="Dump the ring in its canonical serialization instead of a summary.")
@click.pass_context
def cohomology(ctx: click.Context, space_spec: str, max_deg: int | None,
               emit_presentation: bool) -> None:
    """Generators, truncation and mod-2 Betti series of SPACE_SPEC."""
    if max_deg is not None and max_deg < 0:
        raise InvalidParameters("--max-deg must be nonnegative")
    space = SpaceId.parse(space_spec)
    p = presentation(space)
    result = presentation_to_dict(p)
    if emit_presentation:
        result["space"] = str(space)
    else:
        series = poincare(p, max_deg)
        if max_deg is not None:
            series += [0] * (max_deg + 1 - len(series))
        result.update(series=series, top_degree=p.top_degree, dimension=dimension(space))
    payload = {
        "schema": SCHEMA,
        "query": {"command": "cohomology", "space": str(space), "max_deg": max_deg},
        "result": result,
        "provenance": [],
        "warnings": [],
    }
    _emit(ctx, payload)


@main.command()
@click.argument("space_spec")
@click.option("--mode", type=click.Choice(["generators", "oracle"]), default="generators")
@click.option("--with-bounds", is_flag=True, help="Include catalog bounds and violations.")
@click.pass_context
def cuplength(ctx: click.Context, space_spec: str, mode: str, with_bounds: bool) -> None:
    """Exact mod-2 cup length of SPACE_SPEC from its square chains."""
    space = SpaceId.parse(space_spec)
    cup_mode = CupMode(mode)
    report = cup_report(space) if with_bounds else None
    res = None
    if report is not None:
        res = report.exact if cup_mode is CupMode.GENERATOR_SEARCH else report.oracle
    if res is None:
        res = cup_length(presentation(space), cup_mode)
    warnings: list[str] = []
    result: dict = {"value": res.value, "witness": list(res.witness), "caveat": res.caveat}
    if res.caveat:
        warnings.append("an undetermined square was treated as zero during the search")
    if report is not None:
        result["bounds"] = [{"name": name, "value": value} for name, value in report.bounds]
        result["violations"] = list(report.violations)
        for name in report.violations:
            bound = dict(report.bounds)[name]
            warnings.append(f"bound {name}={bound} exceeded by exact value {report.exact.value}")
    payload = {
        "schema": SCHEMA,
        "query": {"command": "cuplength", "space": str(space), "mode": mode},
        "result": result,
        "provenance": [],
        "warnings": warnings,
    }
    _emit(ctx, payload)


@main.command()
@click.option("--from", "source_spec", required=True, help="Source G-space spec.")
@click.option("--to", "target_spec", required=True, help="Target G-space spec.")
@click.pass_context
def s3map(ctx: click.Context, source_spec: str, target_spec: str) -> None:
    """Feasibility of an equivariant map between unit-quaternion spaces."""
    source = parse_gspace(source_spec)
    target = parse_gspace(target_spec)
    verdict = feasibility(source, target)
    payload = {
        "schema": SCHEMA,
        "query": {"command": "s3map", "from": str(source), "to": str(target)},
        "result": {"status": verdict.status, "detail": verdict.detail},
        "provenance": [verdict.rule],
        "warnings": [],
    }
    _emit(ctx, payload)


_MAX_GRID_N = 128


def _parse_range(name: str, spec: str) -> range:
    """Values of `lo..hi` or of one integer for --NAME, checked before any
    list is built; values below 1 name no space and are dropped."""
    lo, sep, hi = spec.strip().partition("..")
    try:
        first, last = int(lo), int(hi if sep else lo)
    except ValueError:
        raise InvalidParameters(
            f"--{name} must be an integer or a range lo..hi, got {spec!r}"
        ) from None
    if last > _MAX_GRID_N:
        raise InvalidParameters(f"{name} ranges are limited to {name} <= {_MAX_GRID_N}")
    return range(max(first, 1), last + 1)


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


_TABLE_COLUMNS = ("family", "n", "k", "kind", "value", "lo", "hi", "case", "N")


def _table_row(invariant: str, space: SpaceId) -> dict:
    if invariant == "ucharrank":
        fields = _rank_to_dict(ucharrank(space))
    else:
        fields = {"kind": "exact", "value": cup_length(presentation(space)).value}
    row = {"family": space.family.value, "n": space.n, "k": space.k, **fields}
    return {column: row.get(column, "") for column in _TABLE_COLUMNS}


@main.command()
@click.argument("invariant", type=click.Choice(["ucharrank", "cuplength"]))
@click.argument("family", type=click.Choice([f.value for f in Family]))
@click.option("--n", "n_spec", required=True, help="Range of n, e.g. 3..16 or 7.")
@click.option("--k", "k_spec", default=None, help="Range of k (default: all valid).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--jobs", type=int, default=1, help="Parallel workers for the grid.")
@click.pass_context
def table(ctx: click.Context, invariant: str, family: str, n_spec: str,
          k_spec: str | None, fmt: str, jobs: int) -> None:
    """One row per valid (n, k) of FAMILY, in deterministic order."""
    n_values = _parse_range("n", n_spec)
    k_values = _parse_range("k", k_spec) if k_spec is not None else None
    spaces = catalog([family], n_values, k_values)
    rows = _map_grid(functools.partial(_table_row, invariant), spaces, jobs)
    if fmt == "csv":
        lines = [",".join(_TABLE_COLUMNS)]
        lines += [",".join(str(row[c]) for c in _TABLE_COLUMNS) for row in rows]
        click.echo("\n".join(lines))
    else:
        click.echo(json.dumps(rows, indent=2, sort_keys=True))


# -- verification suites -------------------------------------------------------

# The spectral suite's reach: `verify --suite all --max-n 16` takes about 20 s
# serially, and the palindrome and steenrod grids grow steeply beyond it.
_MAX_VERIFY_N = 16


def _grid(families: list[Family], max_n: int) -> list[SpaceId]:
    return catalog(families, range(2, max_n + 1))


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
    if report.match:
        return None, []
    return (f"{space}: spectral series {report.e_infinity_series} "
            f"!= presentation series {report.presentation_series}"), []


def _adem_failure(p: AlgebraPresentation, x: Element) -> str | None:
    """The first (a, b) with 0 < a < 2b and a + b <= 8 where Sq^a Sq^b x is
    not sum_c binom(b-c-1, a-2c) Sq^(a+b-c) Sq^c x, as a message."""
    sq_of = [x] + [steenrod_sq(p, c, x) for c in range(1, 8)]
    for b in range(1, 8):
        for a in range(1, min(2 * b, 9 - b)):
            rhs = p.zero()
            for c in range(a // 2 + 1):
                if binom_parity(b - c - 1, a - 2 * c):
                    rhs = rhs + steenrod_sq(p, a + b - c, sq_of[c])
            if steenrod_sq(p, a, sq_of[b]) != rhs:
                return f"Adem relation fails at Sq^{a} Sq^{b}"
    return None


def _check_steenrod(space: SpaceId) -> tuple[str | None, list[str]]:
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


def _check_cup(item: tuple[SpaceId, int | None]) -> tuple[str | None, list[str]]:
    """Cross-check one space through cup_report; `item` is the space and the
    cup-length floor (N-1) + g of a truncated ring, None for the others."""
    space, floor = item
    try:
        report = cup_report(space)
    except TopoinvError as exc:
        return str(exc), []
    exact = report.exact.value
    if floor is not None and exact < floor:
        return f"{space}: cup length {exact} below floor {floor}", []
    bounds = dict(report.bounds)
    return None, [
        f"{space}: bound {name}={bounds[name]} < exact {exact} (expected discrepancy)"
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


@main.command()
@click.option("--suite", type=click.Choice(["spectral", "palindrome", "steenrod", "all"]),
              default="all")
@click.option("--max-n", type=click.IntRange(max=_MAX_VERIFY_N), default=8,
              help=f"Largest n in the verification grids (at most {_MAX_VERIFY_N}).")
@click.option("--jobs", type=int, default=1, help="Parallel workers for grid suites.")
@click.pass_context
def verify(ctx: click.Context, suite: str, max_n: int, jobs: int) -> None:
    """Run consistency suites; exit 1 on any unexpected failure.

    Documented discrepancies (the dimension-minus-index cup bound falling
    below the exact cup length) are listed as expected warnings and do not
    fail the run.
    """
    failures: list[str] = []
    warnings: list[str] = []
    checks = 0

    def run_grid(name: str, items: list, check) -> None:
        # each check returns its failure, if any, and its expected warnings
        nonlocal checks
        results = _map_grid(check, items, jobs)
        bad = [failure for failure, _ in results if failure is not None]
        for _, found in results:
            warnings.extend(found)
        checks += len(items)
        failures.extend(bad)
        click.echo(f"{name}: {len(items)} spaces, {len(bad)} failures")

    if suite in ("palindrome", "all"):
        run_grid("palindrome", _grid(list(Family), max_n), _check_palindrome)
    if suite in ("spectral", "all"):
        projective = [Family.RX, Family.FV, Family.CX, Family.HX]
        run_grid("spectral", _grid(projective, max_n), _check_spectral)
    if suite in ("steenrod", "all"):
        run_grid("steenrod", _grid([Family.RV, Family.CV, Family.HV], max_n), _check_steenrod)
    if suite == "all":
        cup_items = []
        for space in _grid(list(Family), max_n):
            p = presentation(space)
            if p.total_dimension <= ORACLE_CROSS_CHECK_MAX_DIMENSION:
                floor = (p.order - 1) + p.num_gens if p.trunc is not None else None
                cup_items.append((space, floor))
        run_grid("cup", cup_items, _check_cup)
        for name, check in (("parity", _check_parity), ("equivariant", _check_equivariant)):
            checks += 1
            failure = check()
            if failure:
                failures.append(failure)
            click.echo(f"{name}: {'ok' if not failure else 'FAILED'}")

    for w in warnings:
        click.echo(f"expected warning: {w}")
    for f in failures:
        click.echo(f"FAIL: {f}", err=True)
    if failures:
        click.echo(f"verify: FAIL ({checks} checks, {len(failures)} failures)")
        sys.exit(1)
    click.echo(f"verify: PASS ({checks} checks, {len(warnings)} expected warnings)")


if __name__ == "__main__":
    main()
