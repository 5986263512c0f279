"""Spans recorded from outside the package, for the traced runs.

`install` wraps public functions of the package and patches the wrapper
into every topoinv module that imported the name, so calls made inside
the package are seen too.  Each call becomes a span (name, start, end,
parent, item id) kept in memory; `layer_metrics` turns the spans into the
per-layer metrics.  `AlgebraPresentation.mul_codes` runs millions of times
per pass, so it is counted, not spanned.  Untraced runs never import this
module.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Public (module, name) -> span name.
SPANNED = {
    ("topoinv.parity", "n_index"): "parity.n_index",
    ("topoinv.spaces", "presentation"): "spaces.presentation",
    ("topoinv.spaces", "serre_verify"): "spaces.serre_verify",
    ("topoinv.gralg", "poincare"): "gralg.poincare",
    ("topoinv.gralg", "steenrod_sq"): "gralg.steenrod_sq",
    ("topoinv.invariants", "cup_report"): "invariants.cup_report",
    ("topoinv.invariants", "ucharrank_stiefel"): "invariants.ucharrank",
    ("topoinv.invariants", "ucharrank_projective_real"): "invariants.ucharrank",
    ("topoinv.invariants", "ucharrank_projective_CH"): "invariants.ucharrank",
    ("topoinv.equivariant", "feasibility"): "equivariant.feasibility",
}

# Every per-layer metric, with its unit, in BENCHMARK.json order.  A
# traced run reports all of them; a layer a workload never reaches reads 0.
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "parity.n_index.calls": "count",
    "parity.n_index.self_ms": "ms",
    "spaces.presentation.calls": "count",
    "spaces.presentation.self_ms": "ms",
    "spaces.serre_verify.calls": "count",
    "spaces.serre_verify.self_ms": "ms",
    "spaces.serre_verify.p90_ms": "ms",
    "spaces.serre_verify.window_monomials": "count",
    "spaces.serre_verify.ns_per_monomial": "ns",
    "gralg.cup_search.calls": "count",
    "gralg.cup_search.self_ms": "ms",
    "gralg.cup_search.p90_ms": "ms",
    "gralg.cup_oracle.calls": "count",
    "gralg.cup_oracle.self_ms": "ms",
    "gralg.cup_oracle.basis_monomials": "count",
    "gralg.mul_codes.calls": "count",
    "gralg.mul_codes.nonzero_ratio": "ratio",
    "gralg.element_mul.calls": "count",
    "gralg.element_mul.self_ms": "ms",
    "gralg.steenrod_sq.calls": "count",
    "gralg.steenrod_sq.self_ms": "ms",
    "gralg.poincare.self_ms": "ms",
    "invariants.cup_report.calls": "count",
    "invariants.cup_report.self_ms": "ms",
    "invariants.ucharrank.calls": "count",
    "invariants.ucharrank.self_ms": "ms",
    "equivariant.feasibility.calls": "count",
    "equivariant.feasibility.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

_BASE_DEGREE = {"RX": 1, "FV": 1, "CX": 2, "HX": 4}


class Tracer:
    """In-memory spans and work counts of one process."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, item id)
        self.stack = [-1]
        self.item = None
        self.counts: dict[str, int] = {}
        self.mul_codes = [0, 0]  # attempts, nonzero products

    def wrap(self, fn, name, work=None):
        """Span every call of fn; work(args, kwargs) -> (counter, amount) or None."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_of(args, kwargs), start, end, parent, self.item)
                if work is not None:
                    counted = work(args, kwargs)
                    if counted is not None:
                        key, amount = counted
                        self.counts[key] = self.counts.get(key, 0) + amount

        return traced


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _cup_name(args, kwargs) -> str:
    mode = _arg(args, kwargs, 1, "mode", "generators")
    return "gralg.cup_oracle" if getattr(mode, "value", mode) == "oracle" else "gralg.cup_search"


def _cup_work(args, kwargs):
    if _cup_name(args, kwargs) == "gralg.cup_oracle":
        return "gralg.cup_oracle.basis_monomials", args[0].total_dimension
    return None


def install(tracer: Tracer) -> None:
    """Wrap the traced names in every loaded topoinv module."""
    import topoinv  # noqa: F401  (loads every engine module)
    from topoinv import gralg, spaces

    modules = [m for name, m in sys.modules.items()
               if name == "topoinv" or name.startswith("topoinv.")]

    def patch(orig, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)

    def window_work(args, kwargs):
        # The work-cap estimate of serre_verify: 2^fibergens * (window/base + 1).
        space = args[0]
        fam = space.family.value
        gens = 2 * space.k if fam == "FV" else space.k
        window = _arg(args, kwargs, 1, "window")
        window = spaces.dimension(space) if window is None else window
        return "spaces.serre_verify.window_monomials", (1 << gens) * (
            (window + 1) // _BASE_DEGREE[fam] + 1)

    for (module, attr), name in SPANNED.items():
        orig = getattr(sys.modules[module], attr, None)
        if orig is not None:
            work = window_work if name == "spaces.serre_verify" else None
            patch(orig, tracer.wrap(orig, name, work))
    patch(gralg.cup_length, tracer.wrap(gralg.cup_length, _cup_name, _cup_work))
    gralg.Element.__mul__ = tracer.wrap(gralg.Element.__mul__, "gralg.element_mul")

    orig_mul_codes = gralg.AlgebraPresentation.mul_codes
    counts = tracer.mul_codes

    def mul_codes(self, a, b):
        counts[0] += 1
        product = orig_mul_codes(self, a, b)
        if product is not None:
            counts[1] += 1
        return product

    gralg.AlgebraPresentation.mul_codes = mul_codes


def p90(values):
    """90th percentile (exclusive method), or the lone value."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def layer_metrics(spans, counts: dict, mul_codes) -> dict:
    """Per-layer metrics from spans: calls, self time, p90 and work ratios.

    A span's self time is its duration minus the durations of its direct
    children; spans nest because each process traces one thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + (end - start) - child_ns[i]
        durations.setdefault(name, []).append((end - start) / 1e6)

    out = {}
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_ms":
            out[metric] = self_ns.get(layer, 0) / 1e6
        elif stat == "p90_ms":
            out[metric] = p90(durations.get(layer, []))
    monomials = counts.get("spaces.serre_verify.window_monomials", 0)
    out["spaces.serre_verify.window_monomials"] = monomials
    out["spaces.serre_verify.ns_per_monomial"] = (
        self_ns.get("spaces.serre_verify", 0) / monomials if monomials else 0.0)
    out["gralg.cup_oracle.basis_monomials"] = counts.get("gralg.cup_oracle.basis_monomials", 0)
    attempts, nonzero = mul_codes
    out["gralg.mul_codes.calls"] = attempts
    out["gralg.mul_codes.nonzero_ratio"] = nonzero / attempts if attempts else 0.0
    return out
