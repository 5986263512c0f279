"""Command-line front end.

Single queries print one deterministic JSON document (sorted keys, no
timestamps; --meta wraps the payload instead of polluting it).  Grids
stream through `table` as CSV or JSON, and `verify` runs the consistency
suites of topoinv.checks.  The command line is read by a small parser
driven by one table of commands; it loads neither argparse nor gettext.
Exit codes: 0 success, 1 verification failure or internal error (such as
a cross-check disagreement), 2 invalid parameters, a usage error or a
work cap hit, 3 input not covered by the decision tables; every error is
one `error:` line on stderr.
"""

from __future__ import annotations

import contextlib
import json
import sys
from types import SimpleNamespace

from . import __version__
from .errors import DimensionCapExceeded, InvalidParameters, TopoinvError, WorkCapExceeded
from .gralg import CupMode, cup_length, poincare, presentation_to_dict
from .invariants import RankResult, cup_report, ucharrank
from .equivariant import feasibility, parse_gspace
from .spaces import Family, SpaceId, catalog, dimension, presentation

SCHEMA = "topoinv/1"


def _emit(args: SimpleNamespace, query: dict, result: dict, provenance: list,
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


def ucharrank_command(args: SimpleNamespace) -> int | None:
    """Upper characteristic rank of SPACE_SPEC (exact or interval)."""
    space = SpaceId.parse(args.space_spec)
    result = ucharrank(space)
    _emit(args, {"space": str(space)}, _rank_to_dict(result), [result.case_label],
          [result.advisory] if result.advisory else [])
    return 3 if result.kind == "uncovered" else None


def cohomology(args: SimpleNamespace) -> None:
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


def cuplength(args: SimpleNamespace) -> None:
    """Exact mod-2 cup length of SPACE_SPEC from its square chains."""
    space = SpaceId.parse(args.space_spec)
    p = presentation(space)
    mode = CupMode(args.mode)
    report = cup_report(space, p) if args.with_bounds else None
    if report is not None and mode is CupMode.GENERATOR_SEARCH:
        res = report.exact  # the closed form, computed once
    else:
        res = cup_length(p, mode)
    warnings: list[str] = []
    result: dict = {"value": res.value, "witness": list(res.witness), "caveat": res.caveat}
    if report is not None:
        result["bounds"] = [{"name": name, "value": value} for name, value in report.bounds]
        result["violations"] = list(report.violations)
        for name in report.violations:
            bound = dict(report.bounds)[name]
            warnings.append(f"bound {name}={bound} exceeded by exact value {report.exact.value}")
    _emit(args, {"space": str(space), "mode": args.mode}, result, [], warnings)


def s3map(args: SimpleNamespace) -> None:
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


_TABLE_COLUMNS = ("family", "n", "k", "kind", "value", "lo", "hi", "case", "N")


def _table_row(invariant: str, space: SpaceId) -> dict:
    if invariant == "ucharrank":
        fields = _rank_to_dict(ucharrank(space))
    else:
        fields = {"kind": "exact", "value": cup_length(presentation(space)).value}
    row = {"family": space.family.value, "n": space.n, "k": space.k, **fields}
    return {column: row.get(column, "") for column in _TABLE_COLUMNS}


def table(args: SimpleNamespace) -> None:
    """One row per valid (n, k) of FAMILY, in deterministic order."""
    n_values = _parse_range("n", args.n_spec)
    k_values = _parse_range("k", args.k_spec) if args.k_spec is not None else None
    spaces = catalog([args.family], n_values, k_values)
    rows = [_table_row(args.invariant, space) for space in spaces]
    if args.fmt == "csv":
        lines = [",".join(_TABLE_COLUMNS)]
        lines += [",".join(str(row[c]) for c in _TABLE_COLUMNS) for row in rows]
        print("\n".join(lines))
    else:
        print(json.dumps(rows, indent=2, sort_keys=True))


# Largest n of the grids: `verify --suite all --max-n 16` takes about 0.67-0.92 s
# in process (2 vCPU, eight fresh processes, median 0.73 s; by `--meta`,
# steenrod 0.58-0.82 s, cup 0.04 s, spectral 0.012-0.017 s of it), and the
# steenrod spaces at n = 17 cost 3x those at 16.
_MAX_VERIFY_N = 16


def verify(args: SimpleNamespace) -> int | None:
    """Run consistency suites; exit 1 on any unexpected failure.

    Documented discrepancies (the dimension-minus-index cup bound falling
    below the exact cup length) are listed as expected warnings and do not
    fail the run.  A space a work or dimension cap refuses is skipped: it is
    named on stderr and counted, when any is, in its suite's line.  With
    --meta, each suite's time and its three slowest spaces go to stderr.
    """
    from . import checks  # only verify loads the suites

    if args.max_n < 2:
        # the grids start at n = 2, so a smaller bound would check nothing
        raise InvalidParameters("--max-n must be at least 2")
    if args.max_n > _MAX_VERIFY_N:
        raise InvalidParameters(f"--max-n must be at most {_MAX_VERIFY_N}")
    failures: list[str] = []
    warnings: list[str] = []
    skips: list[str] = []
    count = 0
    for name, spaces, bad, found, skipped, seconds, slowest in checks.run_suites(args.suite,
                                                                                args.max_n):
        if spaces is None:  # a single check counts as one
            count += 1
            print(f"{name}: {'FAILED' if bad else 'ok'}")
        else:
            count += spaces - len(skipped)
            print(f"{name}: {spaces} spaces, {len(bad)} failures"
                  + (f", {len(skipped)} skipped" if skipped else ""))
        if args.meta:
            print(f"time: {name} {1e3 * seconds:.1f} ms"
                  + "".join(f"; {space} {1e3 * took:.2f} ms" for took, space in slowest),
                  file=sys.stderr)
        failures += [f"{failure} [{name}]" for failure in bad]
        warnings += found
        skips += [f"{skip} [{name}]" for skip in skipped]

    for w in warnings:
        print(f"expected warning: {w}")
    for s in skips:
        print(f"skipped: {s}", file=sys.stderr)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    skipped = f", {len(skips)} skipped" if skips else ""
    if failures:
        print(f"verify: FAIL ({count} checks, {len(failures)} failures{skipped})")
        return 1
    print(f"verify: PASS ({count} checks, {len(warnings)} expected warnings{skipped})")
    return None


# -- the command line ----------------------------------------------------------

_DESCRIPTION = """\
Cohomology rings and rank/cup/index invariants of Stiefel-type manifolds.
Space specs are FAMILY:n,k with families RV, CV, HV (Stiefel), RX, CX, HX
(projective quotients) and FV (flip; k is the half-width).  G-space specs
for s3map are S4n-1:n (the sphere S^{4n-1}), HV:n,k and Sp:n."""

_TOP_OPTIONS = {"--help": "Show this message and exit", "--version": "Show the version and exit",
                "--meta": "Wrap output with a timestamped meta envelope (verify: time "
                          "each suite on stderr)"}

# Per command: its function, its positionals as (dest, kind), and its options
# as flag: (dest, kind, default, required, help).  A kind is bool for a switch,
# int, str, or a tuple of the allowed values.  A command's options follow it,
# and an option's value is always the next token, so `--n -3..4` reaches the
# command's own checks.
_COMMANDS = {
    "ucharrank": (ucharrank_command, [("space_spec", str)], {}),
    "cohomology": (cohomology, [("space_spec", str)], {
        "--max-deg": ("max_deg", int, None, False, "Truncate/pad the series at this degree"),
        "--emit-presentation": ("emit_presentation", bool, False, False,
                                "Dump the ring in its canonical serialization"),
    }),
    "cuplength": (cuplength, [("space_spec", str)], {
        "--mode": ("mode", ("generators", "oracle"), "generators", False,
                   "Square-chain closed form or exhaustive oracle"),
        "--with-bounds": ("with_bounds", bool, False, False, "Include catalog bounds and violations"),
    }),
    "s3map": (s3map, [], {
        "--from": ("source_spec", str, None, True, "Source G-space spec"),
        "--to": ("target_spec", str, None, True, "Target G-space spec"),
    }),
    "table": (table, [("invariant", ("ucharrank", "cuplength")),
                      ("family", tuple(f.value for f in Family))], {
        "--n": ("n_spec", str, None, True, "Range of n, e.g. 3..16 or 7"),
        "--k": ("k_spec", str, None, False, "Range of k (default: all valid)"),
        "--format": ("fmt", ("json", "csv"), "json", False, "Output format"),
    }),
    "verify": (verify, [], {
        "--suite": ("suite", ("spectral", "palindrome", "steenrod", "cup", "all"), "all", False,
                    "Suites to run"),
        "--max-n": ("max_n", int, 8, False, f"Largest n of the grids, 2 to {_MAX_VERIFY_N}"),
    }),
}


def _value(name: str, kind, text: str):
    """`text` read as the kind of argument `name`; a usage error otherwise."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise InvalidParameters(f"argument {name}: invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        raise InvalidParameters(f"argument {name}: invalid choice: {text!r} "
                                f"(choose from {', '.join(map(repr, kind))})")
    return text


def _parse(argv: list[str], prog: str) -> SimpleNamespace | None:
    """The arguments of one command line, or None once --help or --version
    has printed.  Option names are matched whole; `--` ends the options."""
    tokens, meta = iter(argv), False
    for token in tokens:
        if token in ("--help", "--version"):
            print(_help(prog) if token == "--help" else f"topoinv, version {__version__}")
            return None
        if token != "--meta":
            break
        meta = True
    else:
        raise InvalidParameters("the following arguments are required: COMMAND")
    command = _value("COMMAND", tuple(_COMMANDS), token)
    _, positionals, options = _COMMANDS[command]
    args = SimpleNamespace(meta=meta, command=command,
                           **{dest: default for dest, _, default, _, _ in options.values()})
    given, seen = [], set()
    for token in tokens:
        if token == "--help":
            print(_help(prog, command))
            return None
        if token == "--":
            given += tokens  # the rest, and the loop ends
        elif not token.startswith("--"):
            given.append(token)
        elif token not in options:
            raise InvalidParameters(f"unrecognized arguments: {token}")
        else:
            dest, kind, _, _, _ = options[token]
            text = True if kind is bool else next(tokens, None)
            if text is None:
                raise InvalidParameters(f"argument {token}: expected one argument")
            setattr(args, dest, text if kind is bool else _value(token, kind, text))
            seen.add(token)
    if len(given) > len(positionals):
        raise InvalidParameters(f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    missing = [dest for dest, _ in positionals[len(given):]]
    missing += [flag for flag, option in options.items() if option[3] and flag not in seen]
    if missing:
        raise InvalidParameters(f"the following arguments are required: {', '.join(missing)}")
    for (dest, kind), text in zip(positionals, given):
        setattr(args, dest, _value(dest, kind, text))
    return args


def _help(prog: str, command: str | None = None) -> str:
    """The --help text of the top level, or of one command."""
    def metavar(dest: str, kind) -> str:
        return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else dest.upper()

    if command is None:
        usage, text = "[--help] [--version] [--meta] COMMAND ...", _DESCRIPTION
        rows = [("commands:", "")] + [(f"  {name}", run.__doc__.splitlines()[0])
                                      for name, (run, _, _) in _COMMANDS.items()]
        rows += [("", ""), ("options:", "")]
        rows += [(f"  {flag}", note) for flag, note in _TOP_OPTIONS.items()]
    else:
        run, positionals, options = _COMMANDS[command]
        usage = [command, "[--help]"] + [metavar(dest, kind) for dest, kind in positionals]
        rows = [("options:", ""), ("  --help", _TOP_OPTIONS["--help"])]
        for flag, (dest, kind, default, required, note) in options.items():
            spec = flag if kind is bool else f"{flag} {metavar(dest, kind)}"
            usage.append(spec if required else f"[{spec}]")
            rows.append((f"  {spec}", note if default in (None, False) else
                         f"{note} (default: {default})"))
        usage = " ".join(usage)
        text = "\n".join(line.strip() for line in run.__doc__.strip().splitlines())
    return "\n".join([f"usage: {prog} {usage}", "", text, ""] +
                     [f"{name:<24}{note}".rstrip() if len(name) < 24 else f"{name}\n{'':24}{note}"
                      for name, note in rows])


def main(argv: list[str] | None = None, prog_name: str = "topoinv") -> None:
    """Run one command line; the CLI's one error boundary.

    Returns on success and otherwise exits with the command's code, or
    with one `error:` line on stderr and 2 for a usage error, invalid
    parameters or a cap hit, 1 for an interrupt or any other TopoinvError.
    A bare call prints the help on stderr and exits 2, and a reader that
    closes stdout early gets exit 1 with nothing on stderr.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        print(_help(prog_name), file=sys.stderr)
        sys.exit(2)
    message, code = None, None
    try:
        args = _parse(argv, prog_name)
        if args is not None:
            code = _COMMANDS[args.command][0](args)
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
