"""One pass of a workload in a fresh process; prints one JSON line.

Started by run.py, never by hand.  The pass computes every item once, so
no process-level memo can pass for a speed-up across repeats.  setup_s
runs from the moment run.py spawned this process (a CLOCK_MONOTONIC
reading passed in --spawned-at) to the start of the first timed item:
interpreter start, imports, input generation and golden loading.  Then
it times reference.SETUP_CHUNKS chunks, by which run.py rescales setup_s;
with --setup-only the process stops there.  A pass times a reference
chunk between items (reference.Pacer) and reports every time both as
measured and rescaled.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    return ap.parse_args()


def grid_items(workload: str, seed: int, trace: bool):
    """(item id, run, check) triples of an in-process workload, and the tracer."""
    from topoinv import gralg, invariants, spaces

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    if workload == "steenrod-cartan":
        presentations = {}
        items = []
        for item_id, spec, args in workloads.steenrod_items(seed):
            if spec not in presentations:
                presentations[spec] = spaces.presentation(spaces.SpaceId.parse(spec))
            p = presentations[spec]
            items.append((item_id, lambda p=p, a=args: workloads.steenrod_check(gralg, p, a),
                          lambda error: error))
        return items, tracer

    golden = workloads.load_golden(workload)
    if workload == "cup-grid":
        specs, call, check = workloads.cup_grid_specs(), "cup_report", workloads.check_cup
        module = invariants
    else:
        specs, call, check = workloads.spectral_grid_specs(), "serre_verify", workloads.check_spectral
        module = spaces
    items = [
        (spec,
         lambda s=spec: getattr(module, call)(spaces.SpaceId.parse(s)),
         lambda report, s=spec: check(golden, s, report))
        for spec in workloads.shuffled(specs, seed)
    ]
    return items, tracer


class CliTrace:
    """Traced re-runs of each CLI query through cli_entry.py.

    Each query runs untraced (the timed item) and then traced, so the
    overhead of tracing is measured on the same queries a moment apart.
    A bare `python -c pass` every INTERP_EVERY items gives the floor.
    """

    INTERP_EVERY = 12

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.mul_codes = [0, 0]
        self.import_ms: list[float] = []
        self.command_ms: list[float] = []
        self.interp_ms: list[float] = []
        self.traced_s: list[tuple[int, float, float]] = []  # (index, untraced, traced)

    def run(self, index: int, args: list[str], elapsed: float) -> tuple[int, bytes]:
        """Run one query traced; returns its exit code and stdout."""
        out = self.spans_dir / f"child-{os.getpid()}-{index}.json"
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "cli_entry.py"), str(out), *args],
                              capture_output=True, cwd=ROOT, timeout=120)
        self.traced_s.append((index, elapsed, time.perf_counter() - t0))
        with open(out) as fh:
            data = json.load(fh)
        out.unlink()
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               " ".join(args)))
            if name == "cli.command":
                self.command_ms.append((end - start) / 1e6)
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.mul_codes[0] += data["mul_codes"][0]
        self.mul_codes[1] += data["mul_codes"][1]
        self.import_ms.append(data["import_ns"] / 1e6)
        if index % self.INTERP_EVERY == 0:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
            self.interp_ms.append((time.perf_counter() - t0) * 1e3)
        return proc.returncode, proc.stdout

    def layers(self) -> dict:
        import tracer as tracing

        out = tracing.layer_metrics(self.spans, self.counts, self.mul_codes)
        out["cli.interp_ms"] = statistics.median(self.interp_ms)
        out["cli.import_ms"] = statistics.median(self.import_ms)
        out["cli.command_ms"] = statistics.median(self.command_ms)
        return out


def run_cli(args: list[str], env: dict | None = None) -> tuple[int, bytes]:
    """One `python -m topoinv.cli` query; its exit code and stdout."""
    proc = subprocess.run([sys.executable, "-m", "topoinv.cli", *args],
                          capture_output=True, cwd=ROOT, env=env, timeout=120)
    return proc.returncode, proc.stdout


def cli_items(seed: int, golden: dict):
    items = []
    for line in workloads.cli_draw(golden, seed):
        def check(result, line=line):
            return cli_mismatch(golden, line, result)

        items.append((line, lambda args=line.split(" "): run_cli(args), check))
    return items


def cli_mismatch(golden: dict, line: str, result) -> str | None:
    code, stdout = result
    want_code, want_digest = golden[line]
    if code != want_code:
        return f"exit code {code}, golden {want_code}"
    if workloads.digest(stdout) != want_digest:
        return "stdout differs from golden"
    return None


def main() -> int:
    args = parse_args()
    if "TOPOINV_WORK_CAP" in os.environ:
        print("TOPOINV_WORK_CAP must be cleared for benchmark children", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    cli = args.workload == "cli-queries"
    cli_trace = None
    if cli:
        golden = workloads.load_golden("cli-queries")
        items = cli_items(args.seed, golden)
        tracer = None
        if trace:
            cli_trace = CliTrace(Path(args.spans_out).parent)
    else:
        items, tracer = grid_items(args.workload, args.seed, trace)

    setup_s = time.monotonic() - args.spawned_at
    pacer = reference.Pacer()
    setup_chunks_s = reference.timed_chunks(reference.SETUP_CHUNKS)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_chunks_s": setup_chunks_s}))
        return 0

    latencies_s: list[float] = []
    failures: list[str] = []
    clock = time.perf_counter
    for index, (item_id, run, check) in enumerate(items):
        if tracer is not None:
            tracer.item = item_id
        pacer.before(index)
        elapsed = None
        t0 = clock()
        try:
            value = run()
            elapsed = clock() - t0
            error = check(value)
            if cli_trace is not None and error is None:
                traced = cli_trace.run(index, item_id.split(" "), elapsed)
                error = cli_mismatch(golden, item_id, traced)
        except Exception as exc:  # a bad item is counted, never fatal
            if elapsed is None:
                elapsed = clock() - t0
            error = f"{type(exc).__name__}: {exc}"
        latencies_s.append(elapsed)
        if error:
            failures.append(f"{item_id}: {error}")

    # Pass time is the items' own time: the checks and the chunks are left out.
    factors = pacer.factors(len(latencies_s))
    rescaled_s = [s * f for s, f in zip(latencies_s, factors)]
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "setup_chunks_s": setup_chunks_s,
        "wall_s": sum(latencies_s),
        "norm_wall_s": sum(rescaled_s),
        "latencies_ms": [s * 1e3 for s in latencies_s],
        "norm_latencies_ms": [s * 1e3 for s in rescaled_s],
        "chunks_s": [s for _, s in pacer.chunks],
        "failures": failures,
        "peak_rss_kib": resource.getrusage(who).ru_maxrss,
        "layers": None,
    }
    if cli_trace is not None:
        result["layers"] = cli_trace.layers()
        result["traced_wall_s"] = sum(t * factors[i] for i, _, t in cli_trace.traced_s)
        result["untraced_wall_s"] = sum(u * factors[i] for i, u, _ in cli_trace.traced_s)
        spans = cli_trace.spans
    elif tracer is not None:
        import tracer as tracing

        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, tracer.mul_codes)
        spans = tracer.spans
    if trace and args.spans_out:
        with open(args.spans_out, "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
