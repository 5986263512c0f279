"""Inputs, golden answers and per-item checks of the four workloads.

Inputs are plain strings (space specs, CLI argument lines) generated here
from the seed, so the package sees only the generated inputs and the
benchmark keeps working when catalog helpers change shape.  This module
imports nothing from the package; callers pass the modules in.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

WORKLOADS = ("cli-queries", "cup-grid", "spectral-grid", "steenrod-cartan")

FAMILIES = ("RV", "CV", "HV", "RX", "FV", "CX", "HX")
QUOTIENTS = ("RX", "FV", "CX", "HX")

# Parameter ranges of each family, as documented in the package README.
_VALID = {
    "RV": lambda n, k: 1 <= k < n,
    "CV": lambda n, k: 1 <= k <= n,
    "HV": lambda n, k: 1 <= k <= n,
    "RX": lambda n, k: 1 < k < n,
    "FV": lambda n, k: k >= 1 and 2 * k < n,
    "CX": lambda n, k: 1 <= k < n,
    "HX": lambda n, k: 1 <= k < n,
}

# Search-only tail of cup-grid: too large for the oracle cross-check, so
# only the exponential generator search runs on them.
CUP_TAIL = ("CX:20,14", "RX:20,12", "FV:15,6")

# Items per kind in one cli-queries pass (30 in all, about 5 s, so a run
# repeats the pass several times and the percentiles rest on every
# execution).
CLI_DRAW = {"ucharrank": 10, "cohomology": 8, "cuplength": 6, "s3map": 4, "table": 2}

# Random Cartan identities per space in steenrod-cartan.
CARTAN_PER_SPACE = 33


def grid(families, n_values) -> list[str]:
    """Every valid FAMILY:n,k spec, in family, n, k order."""
    return [
        f"{fam}:{n},{k}"
        for fam in families
        for n in n_values
        for k in range(1, n + 1)
        if _VALID[fam](n, k)
    ]


def cup_grid_specs() -> list[str]:
    return grid(FAMILIES, range(6, 10)) + list(CUP_TAIL)


def spectral_grid_specs() -> list[str]:
    return grid(QUOTIENTS, range(2, 13))


def steenrod_specs() -> list[str]:
    return grid(("RV",), range(3, 13))


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()[:16]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> dict:
    with open(golden_path(workload)) as fh:
        return json.load(fh)


def shuffled(specs: list[str], seed: int) -> list[str]:
    """The grid workloads fix the set; the seed sets only the order."""
    out = list(specs)
    random.Random(seed).shuffle(out)
    return out


def cli_draw(golden: dict, seed: int) -> list[str]:
    """Stratified draw of CLI argument lines from the golden pool.

    A fixed count per command kind keeps the mix, and so the pass time,
    the same from seed to seed; the seed picks the queries and the order.
    """
    rng = random.Random(seed)
    lines: list[str] = []
    for kind, count in CLI_DRAW.items():
        lines += rng.sample(sorted(line for line in golden if line.split(" ", 1)[0] == kind),
                            count)
    rng.shuffle(lines)
    return lines


def cup_answer(report) -> dict:
    exact = report.exact
    return {"value": exact.value, "witness": list(exact.witness), "caveat": exact.caveat}


def check_cup(golden: dict, spec: str, report) -> str | None:
    got = cup_answer(report)
    want = golden.get(spec)
    if want is None:
        return "no golden answer"
    if got != want:
        return f"got {got}, golden {want}"
    return None


def check_spectral(golden: dict, spec: str, report) -> str | None:
    if not report.match:
        return f"spectral series {report.e_infinity_series} != {report.presentation_series}"
    want = golden.get(spec)
    if want is None:
        return "no golden answer"
    if list(report.e_infinity_series) != want:
        return f"e_infinity_series {list(report.e_infinity_series)} != golden {want}"
    return None


# -- steenrod-cartan -----------------------------------------------------------


def steenrod_items(seed: int) -> list[tuple[str, str, tuple]]:
    """(item id, space spec, check arguments) for every Steenrod check.

    Per space: one generator-rule check per generator z_q (all i from 0 to
    q+1), then CARTAN_PER_SPACE identities Sq^i(ab) = sum Sq^s a Sq^(i-s) b.
    Each factor is a sum of two monomials with half of the generators, and
    i runs over a fixed ladder up to half the top degree, so the cost of a
    pass hardly depends on the seed.  RV:n,k has generators z_(n-k)..z_(n-1)
    and top degree sum(n-k..n-1).
    """
    rng = random.Random(seed)
    items = []
    for spec in steenrod_specs():
        n, k = map(int, spec.split(":")[1].split(","))
        labels = list(range(n - k, n))
        for q in labels:
            items.append((f"{spec} gen z{q}", spec, ("gen", q)))
        half = sum(labels) // 2
        width = max(1, k // 2)
        for j in range(CARTAN_PER_SPACE):
            a = tuple(tuple(sorted(rng.sample(labels, width))) for _ in range(2))
            b = tuple(tuple(sorted(rng.sample(labels, width))) for _ in range(2))
            i = (j % 11) * half // 10
            items.append((f"{spec} cartan #{j} Sq^{i}", spec, ("cartan", a, b, i)))
    return items


def element(p, monomials):
    acc = p.zero()
    for labels in monomials:
        acc = acc + p.monomial(0, labels)
    return acc


def steenrod_check(gralg, p, args) -> str | None:
    """Run one Steenrod check on presentation p; None when it holds."""
    sq = gralg.steenrod_sq
    if args[0] == "gen":
        q = args[1]
        z = p.gen(q)
        labels = {g.label for g in p.simple_gens}
        for i in range(q + 2):
            got = sq(p, i, z)
            if i <= q and (q & i) == i and q + i in labels:
                want = p.gen(q + i)
            else:
                want = p.zero()
            if got != want:
                return f"Sq^{i} z{q} = {got}, expected {want}"
        return None
    _, a_monos, b_monos, i = args
    a = element(p, a_monos)
    b = element(p, b_monos)
    lhs = sq(p, i, a * b)
    rhs = p.zero()
    for s in range(i + 1):
        rhs = rhs + sq(p, s, a) * sq(p, i - s, b)
    if lhs != rhs:
        return f"Cartan fails: Sq^{i}(ab) = {lhs}, sum = {rhs}"
    return None
