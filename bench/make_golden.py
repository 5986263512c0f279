"""Regenerate the golden answers in golden/ from the package as it stands.

Usage (from the repository root):

    python3 bench/make_golden.py

Run it only when a change is meant to alter answers; the benchmark checks
every run against these files, and all three are always rewritten.
cli-queries keeps, per argument line of the pool, the exit code and a
digest of stdout (the first word of the line is the command, by which the
draw stratifies).  Every pool line must exit 0, or 3 for an uncovered
ucharrank; any other exit code stops the generation and writes no pool.
cup-grid keeps value, witness and caveat; spectral-grid keeps
e_infinity_series.  steenrod-cartan checks itself and has no file.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import workloads
from run import ROOT, child_env
from worker import run_cli

ALLOWED_EXIT = {"ucharrank": (0, 3)}
JOBS = 2  # CLI subprocesses at a time


def cli_candidates(spaces) -> dict[str, list[str]]:
    """Every CLI argument line the cli-queries draw may pick, by command."""
    def dim(spec):
        return spaces.dimension(spaces.SpaceId.parse(spec))

    def total_dim(spec):
        return spaces.presentation(spaces.SpaceId.parse(spec)).total_dimension

    upto16 = workloads.grid(workloads.FAMILIES, range(2, 17))
    upto10 = workloads.grid(workloads.FAMILIES, range(2, 11))
    gspaces = ([f"S4n-1:{n}" for n in range(1, 9)] + [f"Sp:{n}" for n in range(1, 9)]
               + [f"HV:{n},{k}" for n in range(1, 9) for k in range(1, n + 1)])
    small_rings = [s for s in upto16 if total_dim(s) <= 256]
    return {
        # The real Stiefel table is defined only for k > 1: RV:n,1 is out of
        # domain (exit 2), not a query a user would expect to succeed.
        "ucharrank": [f"ucharrank {s}" for s in upto16
                      if not (s.startswith("RV:") and s.endswith(",1"))],
        "cohomology": [f"cohomology {s} --max-deg {dim(s) // 2}" for s in upto10]
        + [f"cohomology {s} --emit-presentation" for s in upto10],
        "cuplength": [f"cuplength {s}" for s in small_rings]
        + [f"cuplength {s} --with-bounds" for s in small_rings],
        "s3map": [f"s3map --from {a} --to {b}" for a in gspaces for b in gspaces],
        "table": [
            f"table ucharrank {fam} --n {a}..{a + 2} --k 2..4 --format {fmt}"
            for fam in workloads.FAMILIES for a in range(3, 11) for fmt in ("csv", "json")
        ],
    }


def write(workload: str, data: dict) -> None:
    """One JSON object, one entry per line, so changes diff line by line."""
    path = workloads.golden_path(workload)
    path.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(key)}: {json.dumps(data[key])}" for key in sorted(data)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{path.name}: {len(data)} entries", file=sys.stderr)


def main() -> int:
    env = child_env()
    os.environ.pop("TOPOINV_WORK_CAP", None)
    sys.path.insert(0, str(ROOT / "src"))
    from topoinv import invariants, spaces

    write("cup-grid", {
        s: workloads.cup_answer(invariants.cup_report(spaces.SpaceId.parse(s)))
        for s in workloads.cup_grid_specs()
    })
    series = {}
    for s in workloads.spectral_grid_specs():
        report = spaces.serre_verify(spaces.SpaceId.parse(s))
        if not report.match:
            raise SystemExit(f"{s}: serre_verify does not match; no golden written")
        series[s] = list(report.e_infinity_series)
    write("spectral-grid", series)
    pool = {}
    with ThreadPoolExecutor(max_workers=JOBS) as ex:
        for kind, lines in cli_candidates(spaces).items():
            allowed = ALLOWED_EXIT.get(kind, (0,))
            results = ex.map(lambda line: run_cli(line.split(" "), env), lines)
            for line, (code, stdout) in zip(lines, results):
                if code not in allowed:
                    raise SystemExit(f"{line}: exit code {code}; no cli-queries golden written")
                pool[line] = [code, workloads.digest(stdout)]
    write("cli-queries", pool)
    return 0


if __name__ == "__main__":
    sys.exit(main())
