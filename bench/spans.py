"""Spans around the package's public entry points, recorded from outside.

`install` replaces each call site in SITES, in the namespace that makes
the call, by a wrapper that records a span: name, start, end, parent and
pass id, plus the work counts of that call.  Spans are kept in memory and
only while a pass is open, so checks and set-up between passes go
unrecorded.  `summarize` turns one pass's spans into per-layer numbers;
a span's self time is its duration minus the time its child spans cover.

`bonnet_coeffs` is deliberately not wrapped: it runs about 123k times per
accumulate pass, inside `legendre.recurrence`, and a span on it would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time

# span names in report order; the later per-package spans must reuse them
SPANS = [
    "galerkin.build", "galerkin.eigsolve", "galerkin.solve",
    "legendre.recurrence", "prolate.make", "prolate.field",
    "operators.verify", "operators.transform", "special.gauss",
    "monogenics.basis", "monogenics.eval", "algebra.mul",
    "accumulation.sum", "cli.import", "cli.command", "cli.total",
]

# per-layer metrics of a traced run: (name, unit, which way is better).
# Self time goes out as a share of the traced pass: a layer that a
# workload never calls has a self time of exactly 0 on every run, and a
# time that never varies would read as a fake measurement.  The report
# lines print `<span>.self_s` in seconds as well.
PER_LAYER = [(f"{span}.{key}", unit, "lower") for span in SPANS
             for key, unit in (("calls", "count"), ("self_share", "ratio"))] + [
    ("galerkin.build.rows", "count", "lower"),
    ("galerkin.eigsolve.rows", "count", "lower"),
    ("galerkin.solve.doublings", "count", "lower"),
    ("galerkin.solve.useful_ratio", "ratio", "higher"),
    ("legendre.recurrence.values", "count", "lower"),
    ("prolate.field.points", "count", "lower"),
    ("operators.transform.bessel_evals", "count", "lower"),
    ("operators.transform.distinct_ratio", "ratio", "higher"),
    ("special.gauss.hit_ratio", "ratio", "higher"),
    ("monogenics.basis.hit_ratio", "ratio", "higher"),
    ("monogenics.eval.terms", "count", "lower"),
    ("algebra.mul.flops", "flop", "lower"),
    ("algebra.mul.useful_ratio", "ratio", "higher"),
    ("algebra.structure_tensor.bytes", "bytes", "lower"),
    ("accumulation.overshoot", "ratio", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# the workload whose self time each layer group dominates
LAYER_GROUPS = {
    "accumulate": ("galerkin.", "legendre."),
    "verify": ("operators.transform",),
    "field": ("algebra.mul", "monogenics.eval"),
}


def _rows(args, kwargs, out):
    return {"rows": out.size}


def _eig_rows(args, kwargs, out):
    return {"rows": len(args[0])}


def _doublings(args, kwargs, out):
    # solve_radial(parity, k, m, c, N, tol) starts at T0 = 2N + 16 + ceil(2c)
    c, N = args[3], args[4]
    return {"doublings": round(math.log2(out.truncation / (2 * N + 16 + math.ceil(2 * c))))}


def _values(args, kwargs, out):
    pv, _ = out
    return {"values": pv.size}


def _points(args, kwargs, out):
    return {"points": out.size // out.shape[-1]}


def _transform(args, kwargs, out):
    nu, c, targets, rule = args
    return {"bessel_evals": out.size, "distinct": hash((nu, c, targets.tobytes(), id(rule)))}


def _terms(args, kwargs, out):
    poly = args[0]
    return {"terms": (out.size >> poly.m) * len(poly.terms)}


def _flops(args, kwargs, out):
    m = args[0]
    return {"flops": (out.size >> m) * 8 ** m, "m": m}


# (module, attribute, span, counter); a dotted attribute patches a class
SITES = [
    ("cliffordprolate.galerkin", "build", "galerkin.build", _rows),
    ("cliffordprolate.galerkin", "eigh_tridiagonal", "galerkin.eigsolve", _eig_rows),
    ("cliffordprolate.prolate", "solve_radial", "galerkin.solve", _doublings),
    ("cliffordprolate.cli", "solve_radial", "galerkin.solve", _doublings),
    ("cliffordprolate.prolate", "radial_values", "legendre.recurrence", _values),
    ("cliffordprolate", "make_cpswf", "prolate.make", None),
    ("cliffordprolate.accumulation", "make_cpswf", "prolate.make", None),
    ("cliffordprolate.cli", "make_cpswf", "prolate.make", None),
    ("cliffordprolate.prolate", "eval_field_coeffs", "prolate.field", _points),
    ("cliffordprolate.cli", "eval_field_coeffs", "prolate.field", _points),
    ("cliffordprolate", "verify", "operators.verify", None),
    ("cliffordprolate.cli", "op_verify", "operators.verify", None),
    ("cliffordprolate.operators", "transform_matrix", "operators.transform", _transform),
    ("cliffordprolate.operators", "gauss_rule_unit_interval", "special.gauss", None),
    ("cliffordprolate.prolate", "basis", "monogenics.basis", None),
    ("cliffordprolate.operators", "basis", "monogenics.basis", None),
    ("cliffordprolate.monogenics", "PolyMultivector.evaluate_coeffs", "monogenics.eval", _terms),
    ("cliffordprolate.algebra", "mul_coeffs", "algebra.mul", _flops),
    ("cliffordprolate.monogenics", "mul_coeffs", "algebra.mul", _flops),
    ("cliffordprolate.prolate", "mul_coeffs", "algebra.mul", _flops),
    ("cliffordprolate.operators", "mul_coeffs", "algebra.mul", _flops),
    ("cliffordprolate", "partial_sum", "accumulation.sum", None),
    ("cliffordprolate.cli", "partial_sum", "accumulation.sum", None),
]

# lru caches whose hit ratio is reported: (span, module, attribute)
CACHES = [
    ("special.gauss", "cliffordprolate.special", "gauss_rule_unit_interval"),
    ("monogenics.basis", "cliffordprolate.monogenics", "basis_3d"),
]


# self times must add up to the pass time within the clock's resolution
ACCOUNTING_TOL_S = max(time.get_clock_info("perf_counter").resolution, 1e-9)


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, pass, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.pass_id is None:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][5] = count(args, kwargs, out)
            return out
        return traced


def _target(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install(tracer: Tracer):
    """Wrap every call site whose module is imported; returns the undo."""
    undo = []
    for module, attr, span, count in SITES:
        if module not in sys.modules:
            continue
        owner, name = _target(module, attr)
        original = getattr(owner, name)
        setattr(owner, name, tracer.wrap(span, original, count))
        undo.append((owner, name, original))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
    return restore


def cache_counts() -> dict:
    """Current (hits, misses) of each reported cache."""
    out = {}
    for span, module, attr in CACHES:
        info = getattr(*_target(module, attr)).cache_info()
        out[span] = (info.hits, info.misses)
    return out


def cache_delta(before: dict, after: dict) -> dict:
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


def summarize(spans: list, pass_id) -> dict:
    """Per-span-name calls, self time and summed counts for one pass,
    plus the accounting error: |sum of self times - root durations|."""
    mine = [i for i, s in enumerate(spans) if s[4] == pass_id]
    child = {i: 0.0 for i in mine}
    for i in mine:
        parent = spans[i][3]
        if parent is not None:
            child[parent] += spans[i][2] - spans[i][1]
    out: dict = {}
    total_self = root_time = 0.0
    worst_self = 0.0
    for i in mine:
        name, start, end, parent, _, counts = spans[i]
        self_s = end - start - child[i]
        total_self += self_s
        worst_self = min(worst_self, self_s)
        if parent is None:
            root_time += end - start
        rec = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        for key, value in (counts or {}).items():
            if key == "distinct":
                rec.setdefault("distinct", set()).add(value)
            elif key == "m":
                rec["m"] = max(rec.get("m", 0), value)
            else:
                rec[key] = rec.get(key, 0) + value
    # the self times of a well-formed tree add up to its root's duration,
    # and none is negative
    return {"layers": out, "root_s": root_time,
            "accounting_error_s": max(abs(total_self - root_time), -worst_self)}


def layer_metrics(cold: dict, warm: list, overshoot: float) -> dict:
    """Per-layer metrics from one traced run.

    Counts come from the first warm pass, self times are medians over the
    warm passes, and cache hit ratios come from the cold pass (every warm
    lookup hits).  A layer the workload does not call reports 0.
    """
    first = warm[0]["layers"]

    def get(span, key):
        return first.get(span, {}).get(key, 0)

    out = {}
    for span in SPANS:
        self_s = [p["layers"].get(span, {}).get("self_s", 0.0) for p in warm]
        out[f"{span}.calls"] = get(span, "calls")
        out[f"{span}.self_s"] = statistics.median(self_s)
        out[f"{span}.self_share"] = statistics.median(
            t / p["root_s"] for t, p in zip(self_s, warm))
    out["galerkin.build.rows"] = get("galerkin.build", "rows")
    out["galerkin.eigsolve.rows"] = get("galerkin.eigsolve", "rows")
    out["galerkin.solve.doublings"] = get("galerkin.solve", "doublings")
    eig = get("galerkin.eigsolve", "calls")
    out["galerkin.solve.useful_ratio"] = get("galerkin.solve", "calls") / eig if eig else 0.0
    out["legendre.recurrence.values"] = get("legendre.recurrence", "values")
    out["prolate.field.points"] = get("prolate.field", "points")
    out["operators.transform.bessel_evals"] = get("operators.transform", "bessel_evals")
    tr = get("operators.transform", "calls")
    out["operators.transform.distinct_ratio"] = (
        len(get("operators.transform", "distinct")) / tr if tr else 0.0)
    for span, _, _ in CACHES:
        hits, misses = cold["caches"].get(span, (0, 0))
        out[f"{span}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["monogenics.eval.terms"] = get("monogenics.eval", "terms")
    out["algebra.mul.flops"] = get("algebra.mul", "flops")
    m = get("algebra.mul", "m")
    out["algebra.mul.useful_ratio"] = 4 ** m / 8 ** m if m else 0.0
    out["algebra.structure_tensor.bytes"] = 8 ** m * 8 if m else 0
    out["accumulation.overshoot"] = overshoot
    return out


def group_share(warm: list, prefixes: tuple) -> float:
    """Median over warm passes of the share of self time spent in spans
    whose name starts with one of the prefixes."""
    def share(layers):
        total = sum(v["self_s"] for v in layers.values())
        part = sum(v["self_s"] for k, v in layers.items() if k.startswith(prefixes))
        return part / total if total else 0.0
    return statistics.median(share(p["layers"]) for p in warm)


def traced_report(cold: dict, warm: list, plain: list, overshoot: float,
                  workload: str) -> dict:
    """Per-layer metrics of a traced run, the tracing overhead, the span
    accounting error, and the self-time share of the workload's layers."""
    traced_s = statistics.median(p["pass_s"] for p in warm if p["pass_s"] is not None)
    plain_s = statistics.median(plain)
    metrics = layer_metrics(cold, warm, overshoot)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = plain_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    errors = [p["accounting_error_s"] for p in [cold, *warm]]
    metrics["trace.accounting_error_s"] = max(errors)
    out = {"per_layer": metrics, "passes": len(warm),
           "accounting": (len(errors), sum(e > ACCOUNTING_TOL_S for e in errors))}
    if workload in LAYER_GROUPS:
        out["layer_share"] = group_share(warm, LAYER_GROUPS[workload])
    return out
