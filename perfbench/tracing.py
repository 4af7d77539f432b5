"""Span recording around mixheat's public functions, and the per-layer
metrics derived from the spans.

The wrapping lives here, in the benchmark, so no file of the package
changes to be measured. `install` replaces every public function of each
layer module (and every other mixheat namespace that imported it by name)
with a wrapper that records a span; it also wraps the numpy.fft transforms,
numpy.polyfit and the absorption schedules' `integral` method. Spans are
kept in memory as plain lists and written out once, when the run ends.

`layer_metrics` turns the written spans into the per-layer metrics. It
imports nothing from mixheat, so it runs (and is tested) anywhere.
"""

import functools
import importlib
import inspect
import math
import os
import sys
import time

# Layer = mixheat module. Order is the order of the printed table.
LAYERS = ("cli", "config", "solver", "grid", "kernels", "fractional", "observers")

FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")

H_INTEGRAL = "solver.h_integral"
PROFILE_SPANS = ("fractional.bracket_profile", "fractional.bracket_laplacian")
CONFIG_SPANS = ("solver.make_step_schedule",)  # config work done in solver

# Per-layer metric -> (unit, end-to-end metric it should move, workloads).
# This is the layer map: which number a change to one layer should move,
# and where. PER_LAYER below names the per_layer metrics of BENCHMARK.json.
METRICS = {
    "cli.import_s": ("s", "setup_s", "all"),
    "cli.self_s": ("s", "wall_s", "all"),
    "config.build_s": ("s", "wall_s", "all"),
    "solver.solve_s": ("s", "wall_s", "sweep-1d, solve-2d"),
    "solver.solve_calls": ("count", "wall_s", "sweep-1d, solve-2d"),
    "solver.steps": ("count", "wall_s", "sweep-1d, solve-2d"),
    "solver.self_s": ("s", "wall_s", "sweep-1d, then solve-2d"),
    "solver.fft_s": ("s", "wall_s", "solve-2d, then sweep-1d"),
    "solver.fft_calls": ("count", "wall_s", "solve-2d, then sweep-1d"),
    "solver.fft_flops_computed": ("flop", "wall_s", "solve-2d"),
    "solver.fft_bytes_computed": ("B", "wall_s, peak_rss_mb", "solve-2d"),
    "solver.h_integral_s": ("s", "wall_s", "sweep-1d"),
    "solver.h_integral_calls": ("count", "wall_s", "sweep-1d"),
    "grid.self_s": ("s", "wall_s", "kernel-wide"),
    "grid.apply_symbol_s": ("s", "wall_s, peak_rss_mb", "kernel-wide"),
    "grid.apply_symbol_calls": ("count", "wall_s", "kernel-wide"),
    "grid.fft_s": ("s", "wall_s, peak_rss_mb", "kernel-wide"),
    "grid.fft_bytes_computed": ("B", "wall_s, peak_rss_mb", "kernel-wide"),
    "grid.write_field_s": ("s", "wall_s", "kernel-wide, solve-2d"),
    "grid.write_field_bytes": ("B", "wall_s", "kernel-wide, solve-2d"),
    "kernels.self_s": ("s", "wall_s", "kernel-wide"),
    "kernels.mixed_kernel_s": ("s", "wall_s", "kernel-wide"),
    "kernels.mixed_kernel_calls": ("count", "wall_s", "kernel-wide"),
    "kernels.lq_norm_s": ("s", "wall_s", "kernel-wide"),
    "fractional.capacity_s": ("s", "wall_s", "capacity-1d"),
    "fractional.capacity_calls": ("count", "wall_s", "capacity-1d"),
    "fractional.points": ("count", "wall_s", "capacity-1d"),
    "fractional.profile_s": ("s", "wall_s", "capacity-1d"),
    "fractional.tail_fit_s": ("s", "wall_s", "capacity-1d"),
    "fractional.self_s": ("s", "wall_s", "capacity-1d"),
    "fractional.cache_entries": ("count", "wall_s", "capacity-1d"),
    "fractional.cache_hit_ratio": ("1", "wall_s", "capacity-1d"),
    "observers.self_s": ("s", "wall_s", "sweep-1d"),
    "observers.classify_s": ("s", "wall_s", "sweep-1d"),
    "observers.write_csv_s": ("s", "wall_s", "sweep-1d"),
    "observers.csv_rows": ("count", "wall_s", "sweep-1d"),
    "trace.wall_s": ("s", "-", "all"),
    "trace.self_sum_s": ("s", "-", "all"),
    "trace.overhead_s": ("s", "-", "all"),
    "trace.spans": ("count", "-", "all"),
}

# The result line carries these in seconds. Every other time is spent only by
# some workloads and would read exactly 0 on every run of the others, so the
# result line carries it as `<name>_share`: a share of trace.wall_s (unit 1).
ALWAYS_SPENT = ("cli.import_s", "cli.self_s", "config.build_s", "grid.self_s",
                "trace.wall_s", "trace.self_sum_s", "trace.overhead_s")


def _result_name(name, unit):
    if unit == "s" and name not in ALWAYS_SPENT:
        return name[:-len("_s")] + "_share", "1"
    return name, unit


# per_layer metric of BENCHMARK.json -> (unit, metric in METRICS).
PER_LAYER = {_result_name(n, u)[0]: (_result_name(n, u)[1], n)
             for n, (u, _, _) in METRICS.items()}


def per_layer(metrics):
    """The per_layer values of the result line, from layer_metrics' output."""
    wall = metrics["trace.wall_s"]
    return {name: (metrics[src] / wall if name != src else metrics[src], unit)
            for name, (unit, src) in PER_LAYER.items()}


# Self-time buckets: every span's self time lands in exactly one, so the
# buckets sum to the traced wall time.
SELF_BUCKETS = ("cli.self_s", "config.build_s", "solver.self_s",
                "solver.h_integral_s", "solver.fft_s", "grid.self_s",
                "grid.fft_s", "kernels.self_s", "fractional.self_s",
                "fractional.profile_s", "fractional.tail_fit_s",
                "observers.self_s")

# Function spans whose summed self time is reported on its own.
FUNCTION_SELF = {
    "solver.solve_s": "solver.solve",
    "grid.apply_symbol_s": "grid.apply_symbol",
    "grid.write_field_s": "grid.write_field",
    "kernels.mixed_kernel_s": "kernels.mixed_kernel",
    "kernels.lq_norm_s": "kernels.kernel_lq_norm",
    "fractional.capacity_s": "fractional.capacity_integral",
    "observers.classify_s": "observers.classify_mass_limit",
    "observers.write_csv_s": "observers.write_mass_csv",
}

# Self-time sum vs. traced wall time: the spans are malformed (lost,
# overlapping or double counted) if they disagree by more than this.
SELF_SUM_RTOL = 0.01
SELF_SUM_ATOL_S = 0.005


class Tracer:
    """In-memory span recorder.

    A span is [run_id, span_id, name, start, end, parent_id, attrs]; the
    parent is the span open when this one started (calls nest, one thread).
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, annotate=None):
        """Return fn recording one span per call; annotate(args, kwargs,
        result) -> dict of counts, evaluated after the call returns."""
        clock = time.perf_counter
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [run_id, len(spans), name, 0.0, 0.0,
                    stack[-1][1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if annotate is not None:
                span[6] = annotate(args, kwargs, result)
            return result

        return traced


def _fft_counts(real):
    """Computed (not measured) work of one transform: 5 N log2 N flops for a
    complex transform of N points, half that for a real one (rfft*, irfft*);
    bytes are the input plus output array sizes."""
    def annotate(args, kwargs, result):
        data = args[0] if args else kwargs["a"]
        n = max(int(data.size), int(result.size))
        flops = (2.5 if real else 5.0) * n * math.log2(max(n, 2))
        return {"flops": flops, "bytes": int(data.nbytes) + int(result.nbytes)}
    return annotate


def _write_field_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _csv_rows(args, kwargs, result):
    trace = args[0] if args else kwargs["trace"]
    return {"rows": int(trace.times.size)}


def _solve_counts(args, kwargs, result):
    return {"steps": int(result.total_steps)}


def _capacity_counts(fractional):
    def annotate(args, kwargs, result):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        out = {"points": int(grid.points) ** int(grid.dim)}
        cache = getattr(fractional, "_BATCH_CACHE", None)
        if cache is not None:  # read, not traced; absent once the cache is gone
            out["cache_entries"] = len(cache)
        return out
    return annotate


def install(tracer):
    """Wrap mixheat's public functions, numpy.fft, numpy.polyfit and the
    absorption integrals."""
    import numpy

    modules = {layer: importlib.import_module(f"mixheat.{layer}") for layer in LAYERS}
    namespaces = [m for name, m in list(sys.modules.items())
                  if name == "mixheat" or name.startswith("mixheat.")]
    annotations = {
        "solver.solve": _solve_counts,
        "grid.write_field": _write_field_counts,
        "observers.write_mass_csv": _csv_rows,
        "fractional.capacity_integral": _capacity_counts(modules["fractional"]),
    }
    replaced = {}

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            span = f"{layer}.{name}"
            replaced[id(obj)] = (obj, tracer.wrap(span, obj, annotations.get(span)))
        if layer == "solver":
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and inspect.isfunction(vars(cls).get("integral"))):
                    cls.integral = tracer.wrap(H_INTEGRAL, vars(cls)["integral"])

    for name in FFT_FUNCS:
        fn = getattr(numpy.fft, name, None)
        if fn is not None:
            wrapped = tracer.wrap(f"numpy.fft.{name}", fn,
                                  _fft_counts(real="rfft" in name))
            replaced[id(fn)] = (fn, wrapped)
            setattr(numpy.fft, name, wrapped)
    replaced[id(numpy.polyfit)] = (numpy.polyfit,
                                   tracer.wrap("numpy.polyfit", numpy.polyfit))
    numpy.polyfit = replaced[id(numpy.polyfit)][1]

    # Rebind every name that still points at an original, in every mixheat
    # namespace: `from .grid import apply_symbol` made its own binding.
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, name, hit[1])


# ---------------------------------------------------------------------------
# Span arithmetic (pure Python, no mixheat import).

def self_times(spans):
    """Map span_id -> self time: the span's duration minus the durations of
    its direct children. Calls nest, so children never overlap each other
    and lie inside the parent; recursion (a span whose parent has the same
    name) is handled like any other nesting."""
    child_total = {}
    for _, sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_total.get(sid, 0.0)
            for _, sid, _, start, end, _, _ in spans}


def _enclosing_layer(span, by_id):
    """Layer of the nearest mixheat span at or above this one."""
    while span is not None:
        layer = span[2].split(".", 1)[0]
        if layer in LAYERS:
            return layer
        span = by_id.get(span[5])
    return "cli"


def _bucket(span, by_id):
    name = span[2]
    if name == H_INTEGRAL:
        return "solver.h_integral_s"
    if name in PROFILE_SPANS:
        return "fractional.profile_s"
    layer = _enclosing_layer(span, by_id)
    if name in CONFIG_SPANS or layer == "config":
        return "config.build_s"
    if name.startswith("numpy.fft.") and layer in ("solver", "grid"):
        return f"{layer}.fft_s"
    if name == "numpy.polyfit" and layer == "fractional":
        return "fractional.tail_fit_s"
    return f"{layer}.self_s"


def layer_metrics(spans, traced_wall_s, import_s, overhead_s):
    """Per-layer metrics of one traced run, as name -> value, and whether
    the capacity cache was seen.

    traced_wall_s is the subcommand's wall time measured around the root
    span; overhead_s is how much longer it took than untraced calls.
    """
    by_id = {s[1]: s for s in spans}
    selfs = self_times(spans)
    out = {name: 0 if unit in ("count", "B") else 0.0
           for name, (unit, _, _) in METRICS.items()}
    out["cli.import_s"] = import_s
    for span in spans:
        out[_bucket(span, by_id)] += selfs[span[1]]
    for metric, fname in FUNCTION_SELF.items():
        out[metric] = sum((selfs[s[1]] for s in spans if s[2] == fname), 0.0)

    cache_calls = cache_hits = 0
    last_entries = 0
    for span in spans:
        name, attrs = span[2], span[6] or {}
        layer = _enclosing_layer(span, by_id)
        if name == "solver.solve":
            out["solver.solve_calls"] += 1
            out["solver.steps"] += attrs["steps"]
        elif name == H_INTEGRAL:
            out["solver.h_integral_calls"] += 1
        elif name == "grid.apply_symbol":
            out["grid.apply_symbol_calls"] += 1
        elif name == "grid.write_field":
            out["grid.write_field_bytes"] += attrs["bytes"]
        elif name == "kernels.mixed_kernel":
            out["kernels.mixed_kernel_calls"] += 1
        elif name == "observers.write_mass_csv":
            out["observers.csv_rows"] += attrs["rows"]
        elif name == "fractional.capacity_integral":
            out["fractional.capacity_calls"] += 1
            out["fractional.points"] += attrs["points"]
            if "cache_entries" in attrs:
                cache_calls += 1
                cache_hits += attrs["cache_entries"] == last_entries
                last_entries = attrs["cache_entries"]
        elif name.startswith("numpy.fft.") and layer == "solver":
            out["solver.fft_calls"] += 1
            out["solver.fft_flops_computed"] += attrs["flops"]
            out["solver.fft_bytes_computed"] += attrs["bytes"]
        elif name.startswith("numpy.fft.") and layer == "grid":
            out["grid.fft_bytes_computed"] += attrs["bytes"]
    out["fractional.cache_entries"] = last_entries
    out["fractional.cache_hit_ratio"] = cache_hits / cache_calls if cache_calls else 0.0

    out["trace.wall_s"] = traced_wall_s
    out["trace.self_sum_s"] = sum(selfs.values())
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(spans)
    return out, cache_calls > 0


def self_sum_problem(metrics):
    """None when the self-time buckets add up to the traced wall time within
    SELF_SUM_RTOL + SELF_SUM_ATOL_S, else a message."""
    total = sum(metrics[b] for b in SELF_BUCKETS)
    wall = metrics["trace.wall_s"]
    if abs(total - wall) > SELF_SUM_RTOL * wall + SELF_SUM_ATOL_S:
        return (f"self times sum to {total:.6f} s but the traced wall time "
                f"is {wall:.6f} s")
    return None
