"""Traced stand-in for `python -m topoinv.cli`, used by traced cli-queries runs.

Usage: python cli_entry.py SPANS_OUT ARG...

Times `import topoinv.cli`, installs the tracer, runs the CLI on ARG...
inside a `cli.command` span, writes the spans and counts to SPANS_OUT as
one JSON document, and exits with the CLI's exit code.  Stdout is the
CLI's own, so the run is checked against the same golden digests.
"""

import sys
import time

start = time.perf_counter_ns()
import topoinv.cli  # noqa: E402

import_ns = time.perf_counter_ns() - start

import json  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    spans_out, args = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    tracer.install(t)
    command = t.wrap(topoinv.cli.main, "cli.command")
    code = 0
    try:
        command(args, prog_name="topoinv")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as fh:
            json.dump({"import_ns": import_ns, "spans": t.spans, "counts": t.counts,
                       "mul_codes": t.mul_codes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
