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

import argparse
import contextlib
import functools
import json
import os
import re
import sys

from . import __version__
from .errors import DimensionCapExceeded, InvalidParameters, TopoinvError, WorkCapExceeded
from .gralg import (ORACLE_DIMENSION_CAP, AlgebraPresentation, CupMode, Element, cup_length,
                    poincare, presentation_to_dict, steenrod_sq)
from .invariants import RankResult, cup_report, ucharrank
from .equivariant import feasibility, index_sphere, index_stiefel_mod2, parse_gspace
from .parity import binom_parity, parity_row
from .spaces import Family, SpaceId, catalog, dimension, presentation, serre_verify

SCHEMA = "topoinv/1"


def _emit(args: argparse.Namespace, query: dict, result: dict, provenance: list,
          warnings: list) -> None:
    """Print a query's one JSON document; --meta wraps it in a timestamped envelope."""
    doc = {"schema": SCHEMA, "query": {"command": args.command, **query}, "result": result,
           "provenance": provenance, "warnings": warnings}
    if args.meta:
        from datetime import datetime, timezone  # only the envelope reads the clock

        meta = {"generated_at": datetime.now(timezone.utc).isoformat(), "version": __version__}
        doc = {"meta": meta, "payload": doc}
    print(json.dumps(doc, indent=2, sort_keys=True))


def _rank_to_dict(r: RankResult) -> dict:
    fields = {"kind": r.kind, "case": r.case_label, "value": r.value, "lo": r.lo, "hi": r.hi,
              "N": r.n_index_used, "advisory": r.advisory, "reason": r.reason}
    return {key: value for key, value in fields.items() if value not in (None, "")}


def ucharrank_command(args: argparse.Namespace) -> int | None:
    """Upper characteristic rank of SPACE_SPEC (exact or interval)."""
    space = SpaceId.parse(args.space_spec)
    result = ucharrank(space)
    _emit(args, {"space": str(space)}, _rank_to_dict(result), [result.case_label],
          [result.advisory] if result.advisory else [])
    return 3 if result.kind == "uncovered" else None


def cohomology(args: argparse.Namespace) -> None:
    """Generators, truncation and mod-2 Betti series of SPACE_SPEC."""
    max_deg = args.max_deg
    if max_deg is not None and max_deg < 0:
        raise InvalidParameters("--max-deg must be nonnegative")
    space = SpaceId.parse(args.space_spec)
    p = presentation(space)
    result = presentation_to_dict(p)
    if args.emit_presentation:
        result["space"] = str(space)
    else:
        series = poincare(p, max_deg)
        if max_deg is not None:
            series += [0] * (max_deg + 1 - len(series))
        result.update(series=series, top_degree=p.top_degree, dimension=dimension(space))
    _emit(args, {"space": str(space), "max_deg": max_deg}, result, [], [])


def cuplength(args: argparse.Namespace) -> None:
    """Exact mod-2 cup length of SPACE_SPEC from its square chains."""
    space = SpaceId.parse(args.space_spec)
    cup_mode = CupMode(args.mode)
    report = cup_report(space) if args.with_bounds else None
    res = None
    if report is not None:
        res = report.exact if cup_mode is CupMode.GENERATOR_SEARCH else report.oracle
    if res is None:
        res = cup_length(presentation(space), cup_mode)
    warnings: list[str] = []
    result: dict = {"value": res.value, "witness": list(res.witness), "caveat": res.caveat}
    if report is not None:
        result["bounds"] = [{"name": name, "value": value} for name, value in report.bounds]
        result["violations"] = list(report.violations)
        for name in report.violations:
            bound = dict(report.bounds)[name]
            warnings.append(f"bound {name}={bound} exceeded by exact value {report.exact.value}")
    _emit(args, {"space": str(space), "mode": args.mode}, result, [], warnings)


def s3map(args: argparse.Namespace) -> None:
    """Feasibility of an equivariant map between unit-quaternion spaces."""
    source = parse_gspace(args.source_spec)
    target = parse_gspace(args.target_spec)
    verdict = feasibility(source, target)
    _emit(args, {"from": str(source), "to": str(target)},
          {"status": verdict.status, "detail": verdict.detail}, [verdict.rule], [])


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


def table(args: argparse.Namespace) -> None:
    """One row per valid (n, k) of FAMILY, in deterministic order."""
    n_values = _parse_range("n", args.n_spec)
    k_values = _parse_range("k", args.k_spec) if args.k_spec is not None else None
    spaces = catalog([args.family], n_values, k_values)
    rows = _map_grid(functools.partial(_table_row, args.invariant), spaces, args.jobs)
    if args.fmt == "csv":
        lines = [",".join(_TABLE_COLUMNS)]
        lines += [",".join(str(row[c]) for c in _TABLE_COLUMNS) for row in rows]
        print("\n".join(lines))
    else:
        print(json.dumps(rows, indent=2, sort_keys=True))


# -- verification suites -------------------------------------------------------

# Largest n of the grids: `verify --suite all --max-n 16` takes about 6 s serially
# (2 vCPU; spectral 0.3 s of it), and the steenrod spaces at n = 17 cost 3x those at 16.
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
    if not report.match:
        return (f"{space}: spectral series {report.e_infinity_series} "
                f"!= presentation series {report.presentation_series}"), []
    if space.family is Family.HX and space.k >= 2:
        # second route for the mod-2 index <alpha^N>: the first nonzero
        # differential kills alpha^N, |alpha| = 4, so it lies on page 4N (at
        # k = 1 the transgressing generator is above the window)
        index = index_stiefel_mod2(space.n, space.k).exponent
        if report.first_nonzero_differential_page != 4 * index:
            return (f"{space}: first differential on page "
                    f"{report.first_nonzero_differential_page} != 4 * index {index}"), []
    return None, []


def _adem_failure(p: AlgebraPresentation, x: Element) -> str | None:
    """The first (a, b) with 0 < a < 2b and a + b <= 8, b and then a from the
    top down, where Sq^a Sq^b x is not sum_c binom(b-c-1, a-2c) Sq^(a+b-c)
    Sq^c x, as a message.  Sq^7 x first and the downward walks fill most
    squares tables in one pass, not over a rising window of indices."""
    steenrod_sq(p, 7, x)
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


def _check_cup(item: tuple[SpaceId, int | None]) -> tuple[str | None, list[str]]:
    """Cross-check one space through cup_report, with the oracle up to its
    cap; `item` is the space and the cup-length floor (N-1) + g of a
    truncated ring, None for the others."""
    space, floor = item
    try:
        report = cup_report(space, oracle_max_dimension=ORACLE_DIMENSION_CAP)
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


def verify(args: argparse.Namespace) -> int | None:
    """Run consistency suites; exit 1 on any unexpected failure.

    Documented discrepancies (the dimension-minus-index cup bound falling
    below the exact cup length) are listed as expected warnings and do not
    fail the run.
    """
    suite, max_n, jobs = args.suite, args.max_n, args.jobs
    if max_n < 2:
        # the grids start at n = 2, so a smaller bound would check nothing
        raise InvalidParameters("--max-n must be at least 2")
    if max_n > _MAX_VERIFY_N:
        raise InvalidParameters(f"--max-n must be at most {_MAX_VERIFY_N}")
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
        print(f"{name}: {len(items)} spaces, {len(bad)} failures")

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
            if p.total_dimension <= ORACLE_DIMENSION_CAP:
                floor = (p.order - 1) + p.num_gens if p.trunc is not None else None
                cup_items.append((space, floor))
        run_grid("cup", cup_items, _check_cup)
        for name, check in (("parity", _check_parity), ("equivariant", _check_equivariant)):
            checks += 1
            failure = check()
            if failure:
                failures.append(failure)
            print(f"{name}: {'ok' if not failure else 'FAILED'}")

    for w in warnings:
        print(f"expected warning: {w}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        print(f"verify: FAIL ({checks} checks, {len(failures)} failures)")
        return 1
    print(f"verify: PASS ({checks} checks, {len(warnings)} expected warnings)")
    return None


class _Parser(argparse.ArgumentParser):
    """argparse held to the CLI's contract: no option prefixes and no `-h`,
    `--n -3..4` reads -3..4 as a value, and a usage error raises
    InvalidParameters for `main` to print."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")  # the Python 3.13 rule
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        raise InvalidParameters(message)


@functools.cache
def _parser(prog: str) -> _Parser:
    """The CLI's parser, built once per process and reused by every `main` call."""
    parser = _Parser(prog=prog, description=(
        "Cohomology rings and rank/cup/index invariants of Stiefel-type manifolds.  "
        "Space specs are FAMILY:n,k with families RV, CV, HV (Stiefel), RX, CX, HX "
        "(projective quotients) and FV (flip; k is the half-width).  G-space specs for "
        "s3map are S4n-1:n (the sphere S^{4n-1}), HV:n,k and Sp:n."))
    parser.add_argument("--version", action="version", version=f"topoinv, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--meta", action="store_true",
                        help="Wrap output with a timestamped meta envelope.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, run) -> _Parser:
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command("ucharrank", ucharrank_command)
    sub.add_argument("space_spec", metavar="SPACE_SPEC")
    sub = command("cohomology", cohomology)
    sub.add_argument("space_spec", metavar="SPACE_SPEC")
    sub.add_argument("--max-deg", type=int, help="Truncate/pad the series at this degree.")
    sub.add_argument("--emit-presentation", action="store_true",
                     help="Dump the ring in its canonical serialization instead of a summary.")
    sub = command("cuplength", cuplength)
    sub.add_argument("space_spec", metavar="SPACE_SPEC")
    sub.add_argument("--mode", choices=["generators", "oracle"], default="generators")
    sub.add_argument("--with-bounds", action="store_true",
                     help="Include catalog bounds and violations.")
    sub = command("s3map", s3map)
    sub.add_argument("--from", dest="source_spec", required=True, help="Source G-space spec.")
    sub.add_argument("--to", dest="target_spec", required=True, help="Target G-space spec.")
    sub = command("table", table)
    sub.add_argument("invariant", choices=["ucharrank", "cuplength"])
    sub.add_argument("family", choices=[f.value for f in Family])
    sub.add_argument("--n", dest="n_spec", required=True, help="Range of n, e.g. 3..16 or 7.")
    sub.add_argument("--k", dest="k_spec", help="Range of k (default: all valid).")
    sub.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
    sub.add_argument("--jobs", type=int, default=1, help="Parallel workers for the grid.")
    sub = command("verify", verify)
    sub.add_argument("--suite", choices=["spectral", "palindrome", "steenrod", "all"],
                     default="all")
    sub.add_argument("--max-n", type=int, default=8,
                     help=f"Largest n in the verification grids (2 to {_MAX_VERIFY_N}).")
    sub.add_argument("--jobs", type=int, default=1, help="Parallel workers for grid suites.")
    return parser


def main(argv: list[str] | None = None, prog_name: str = "topoinv") -> None:
    """Run one command line; the CLI's one error boundary.

    Returns on success and otherwise exits with the command's code, or
    with one `error:` line on stderr and 2 for a usage error, invalid
    parameters or a cap hit, 1 for an interrupt or any other TopoinvError.
    A bare call prints the help on stderr and exits 2, and a reader that
    closes stdout early gets exit 1 with nothing on stderr.
    """
    parser = _parser(prog_name)
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_help(sys.stderr)
        sys.exit(2)
    message = None
    try:
        args = parser.parse_args(argv)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # closing drops what stdout still buffers, so the exit flush stays quiet
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        code = 1
    except KeyboardInterrupt:
        message, code = "aborted", 1
    except (InvalidParameters, DimensionCapExceeded, WorkCapExceeded) as exc:
        message, code = str(exc), 2
    except TopoinvError as exc:
        message, code = str(exc), 1
    if message is not None:
        print("error: " + " ".join(message.split()), file=sys.stderr)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
