"""Replay of the benchmark's golden answers in bench/golden/.

Every recorded CLI line must give the same exit code and stdout digest,
and cup_report and serre_verify must give the recorded cup lengths and
spectral series, so a change that alters any golden answer fails here.
"""

import hashlib
import json
from pathlib import Path

from topoinv.invariants import cup_report
from topoinv.spaces import SpaceId, serre_verify

from cli_runner import run

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def test_cli_queries_match_golden():
    mismatches = []
    for line, want in _golden("cli-queries").items():
        res = run(*line.split(" "))
        got = [res.exit_code, hashlib.sha256(res.stdout.encode()).hexdigest()[:16]]
        if got != want:
            mismatches.append((line, got, want))
    assert not mismatches, mismatches[:5]


def test_cup_grid_matches_golden():
    for spec, want in _golden("cup-grid").items():
        exact = cup_report(SpaceId.parse(spec)).exact
        assert {"value": exact.value, "witness": list(exact.witness),
                "caveat": exact.caveat} == want, spec


def test_spectral_grid_matches_golden():
    for spec, want in _golden("spectral-grid").items():
        report = serre_verify(SpaceId.parse(spec))
        assert report.match, spec
        assert list(report.e_infinity_series) == want, spec
