"""Benchmark of topoinv: seeded workloads, checked answers, end-to-end and
per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-queries, cup-grid, spectral-grid, steenrod-cartan, or
`all` to run the four in turn.  Each pass over a workload's items runs in
a fresh worker process (worker.py); passes repeat while another one fits
in S seconds, and the end-to-end metrics are medians over them.  Times
that carry a bound are rescaled to a reference host speed (reference.py).  With
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics instead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every item matched its golden answer.  A record with machine metadata,
the metrics and every failure goes to bench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# The end-to-end metrics of the JSON line.  The times as measured, and
# fail_frac, are printed and recorded too, but are not in it: see README.md.
END_TO_END = {
    "wall_norm_s": "s",
    "item_p50_norm_ms": "ms",
    "item_p90_norm_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
RUN_LIMIT_S = 170  # every worker is killed by then, so a run ends within 180 s
SHOWN_FAILURES = 20


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TOPOINV_WORK_CAP", None)  # the default caps apply
    # Import from cached bytecode, as an installed package does, whatever
    # the caller's setting; the warm-up in measure() writes the cache.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run cmd in its own session; kill the whole group at the deadline."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])}: killed at the {RUN_LIMIT_S} s run limit")
    except BaseException:  # interrupted: leave no worker or CLI child behind
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def worker(workload: str, seed: int, trace: bool, env: dict, deadline: float,
           setup_only: bool = False, spans_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    before = reference.timed_chunks(reference.SETUP_CHUNKS)
    cmd += ["--spawned-at", repr(time.monotonic())]
    out = run_child(cmd, env, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    result["norm_setup_s"] = reference.rescale(result["setup_s"],
                                               before + result["setup_chunks_s"])
    return result


def metadata() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = nonblank = 0
    for path in sorted((ROOT / "src" / "topoinv").rglob("*.py")):
        for line in path.read_text().splitlines():
            lines += 1
            nonblank += bool(line.strip())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": commit or None,
        "src_lines": lines,
        "src_nonblank_lines": nonblank,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """All passes of one run, aggregated."""
    env = child_env()
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    # Warm-up, untimed: write the bytecode caches of the package and the bench.
    run_child([sys.executable, "-c", "import topoinv.cli"], env, deadline)
    reference.chunk()
    worker(workload, seed, False, env, deadline, setup_only=True)

    setups: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if not trace:
            # Set-up samples are spread over the run like the passes are.
            setups.append(worker(workload, seed, False, env, deadline, setup_only=True))
        spans_out = RESULTS / f"spans-{workload}-seed{seed}-pass{len(rounds)}.jsonl"
        if trace and workload == "cli-queries":
            # One worker runs every query untraced, then traced.
            traced.append(worker(workload, seed, True, env, deadline, spans_out=spans_out))
        else:
            untraced.append(worker(workload, seed, False, env, deadline))
            if trace:
                traced.append(worker(workload, seed, True, env, deadline, spans_out=spans_out))
        rounds.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(rounds) > seconds:
            break

    passes = untraced + traced
    setups += untraced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies_ms"]) for p in passes)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": len(rounds), "attempted": attempted, "failures": failures,
              "setup_samples_s": [w["setup_s"] for w in setups],
              "norm_setup_samples_s": [w["norm_setup_s"] for w in setups],
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_norm_wall_s": [p["norm_wall_s"] for p in passes],
              "pass_latencies_ms": [p["latencies_ms"] for p in passes],
              "pass_norm_latencies_ms": [p["norm_latencies_ms"] for p in passes],
              "pass_chunks_s": [p["chunks_s"] for p in passes]}
    if not trace:
        # Every execution of every item is one sample, and every figure is
        # a median over the passes and set-ups spread over the run.
        latencies = sorted(x for p in untraced for x in p["latencies_ms"])
        rescaled = sorted(x for p in untraced for x in p["norm_latencies_ms"])
        record["items"] = len(untraced[0]["latencies_ms"])
        record["samples"] = len(latencies)
        record["measured"] = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "item_p50_ms": statistics.median(latencies),
            "item_p90_ms": tracer.p90(latencies),
            "setup_s": statistics.median(w["setup_s"] for w in setups),
            "chunk_ms": 1e3 * statistics.median(x for p in untraced for x in p["chunks_s"]),
        }
        record["metrics"] = {
            "wall_norm_s": statistics.median(p["norm_wall_s"] for p in untraced),
            "item_p50_norm_ms": statistics.median(rescaled),
            "item_p90_norm_ms": tracer.p90(rescaled),
            "setup_s": statistics.median(w["norm_setup_s"] for w in setups),
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in untraced) / 1024,
        }
        return record

    # median_low keeps counts whole when there are two traced passes
    layers = {name: statistics.median_low(p["layers"].get(name, 0) for p in traced)
              for name in tracer.PER_LAYER}
    if workload == "cli-queries":
        slow = statistics.median(p["traced_wall_s"] for p in traced)
        fast = statistics.median(p["untraced_wall_s"] for p in traced)
    else:
        slow = statistics.median(p["norm_wall_s"] for p in traced)
        fast = statistics.median(p["norm_wall_s"] for p in untraced)
    layers["trace.overhead_frac"] = slow / fast - 1
    record["metrics"] = layers
    return record


def report(record: dict, units: dict, meta: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    metrics = record["metrics"]
    failed = len(record["failures"])
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} passes={record['passes']}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    samples = (f"  (n={record['samples']}: {record['items']} items"
               f" x {record['passes']} passes)") if "samples" in record else ""
    notes = {
        "wall": f"  (median of {record['passes']} passes)",
        "item": samples,
        "setup": f"  (median of {len(record['setup_samples_s'])})",
        "chunk": "  (median reference chunk)",
    }
    if "measured" in record:
        print("# as measured, not gated:")
        for name, value in record["measured"].items():
            note = notes[name.split("_")[0]]
            print(f"{name:40s} {value:14.6g} {name.rpartition('_')[2]}{note}")
        print("# rescaled to a 1 ms reference chunk, gated (setup_s too):")
    for name, value in metrics.items():
        note = notes.get(name.split("_")[0], "")
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    print(f"{'fail_frac':40s} {failed / record['attempted']:14.6g}"
          f"  ({failed}/{record['attempted']} items)")
    for failure in record["failures"][:SHOWN_FAILURES]:
        print(f"FAIL {failure}")
    if failed > SHOWN_FAILURES:
        print(f"... {failed - SHOWN_FAILURES} more failures in the record file")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "topoinv" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'topoinv'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    units = tracer.PER_LAYER if trace else END_TO_END
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    meta = metadata()
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, trace)
            record["meta"] = meta
            out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1) + "\n")
            report(record, units, meta)
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(len(r["failures"]) for r in records)
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}." if len(records) > 1 else ""
        metrics.update({f"{prefix}{k}": {"value": v, "unit": units[k]}
                        for k, v in r["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
