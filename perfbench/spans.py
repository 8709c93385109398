"""Span tracing of graphtv from outside the package.

:func:`install` replaces every function defined in the six traced modules
(graphs, signals, spectral, tvsolver, experiments, cli) by a wrapper that
records one span per call: name, start, end and the index of the parent
span.  Calls between modules go through module attributes (``tv.denoise``,
``G.incidence``, ...) and calls inside a module go through its globals,
which are the same dictionary, so the wrappers see both.  Nothing in the
package changes on disk.

:func:`layer_metrics` folds the spans into the per-layer metrics named in
``BENCHMARK.json``.  A layer's self time is the duration of its spans
minus the time covered by their direct child spans; a layer's call count
is the number of its spans whose parent lies in another layer, so nested
calls inside one layer (``denoise_path_exact`` -> ``tv1d_prox``) count once.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

TRACED_MODULES = ("graphs", "signals", "spectral", "tvsolver", "experiments", "cli")

# Private functions wrapped in addition to the public ones: the harness's
# per-cell entry point, so that cells are counted where they run.
EXTRA_FUNCTIONS = {"experiments": ("_run_cell_trial",)}

# Span name -> layer.  Names not listed fall back to their module's layer;
# for graphs that is "graphs.build": the builders and the validation they
# call (is_connected, adjacency), everything but the incidence matrix.
LAYER_OF = {
    "experiments.rho_estimate": "spectral.rho",
    "tvsolver.operator_norm": "tvsolver.opnorm",
    "tvsolver.denoise": "tvsolver.solve",
    "tvsolver.denoise_complete_exact": "tvsolver.exact",
    "tvsolver.denoise_path_exact": "tvsolver.exact",
    "tvsolver.tv1d_prox": "tvsolver.exact",
    "tvsolver.kkt_certificate": "tvsolver.cert",
    "graphs.incidence": "graphs.incidence",
    "cli.read_vector": "cli.io",
    "cli.write_vector": "cli.io",
}
MODULE_LAYER = {
    "graphs": "graphs.build",
    "signals": "signals",
    "spectral": "spectral.rho",
    "tvsolver": "tvsolver.other",
    "experiments": "experiments",
    "cli": "cli",
}
LAYERS = ("graphs.build", "graphs.incidence", "signals", "spectral.rho",
          "tvsolver.opnorm", "tvsolver.solve", "tvsolver.exact", "tvsolver.cert",
          "tvsolver.other", "experiments", "cli.io", "cli")

# Per-layer metrics reported by the traced run, in BENCHMARK.json order.
TIME_METRICS = {
    "graphs.build_s": "graphs.build",
    "graphs.incidence_s": "graphs.incidence",
    "signals.s": "signals",
    "spectral.rho_s": "spectral.rho",
    "tvsolver.opnorm_s": "tvsolver.opnorm",
    "tvsolver.solve_s": "tvsolver.solve",
    "tvsolver.exact_s": "tvsolver.exact",
    "tvsolver.cert_s": "tvsolver.cert",
    "experiments.self_s": "experiments",
    "cli.io_s": "cli.io",
    "cli.self_s": "cli",
}
CALL_METRICS = {
    "graphs.build_calls": "graphs.build",
    "graphs.incidence_calls": "graphs.incidence",
    "spectral.rho_calls": "spectral.rho",
    "tvsolver.opnorm_calls": "tvsolver.opnorm",
    "tvsolver.solve_calls": "tvsolver.solve",
    "tvsolver.exact_calls": "tvsolver.exact",
    "tvsolver.cert_calls": "tvsolver.cert",
}


def layer_of(name: str) -> str:
    if name in LAYER_OF:
        return LAYER_OF[name]
    return MODULE_LAYER[name.split(".", 1)[0]]


# Per-call facts taken from a call's result, kept on its span.
INFO = {
    "tvsolver.denoise": lambda result: (result.iterations, result.converged),
    "experiments.oracle_lambda_search": lambda result: (result.j_star, len(result.errors)),
    "tvsolver.tv1d_prox": len,
}


class Tracer:
    """In-memory span recorder; ``spans`` holds [name, start, end, parent, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        info = INFO.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(out)
            return out

        return functools.update_wrapper(traced, fn)


def install(tracer: Tracer) -> None:
    """Replace the traced modules' functions by ``tracer``'s wrappers."""
    for short in TRACED_MODULES:
        module = importlib.import_module(f"graphtv.{short}")
        extra = EXTRA_FUNCTIONS.get(short, ())
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            setattr(module, attr, tracer.wrap(f"{short}.{attr}", value))


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer self times, counts and the coverage of ``wall`` by spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    layers = [layer_of(s[0]) for s in spans]
    roots = 0.0
    iters, unconverged, oracle_steps, oracle_jstar = [], 0, 0, 0
    taut_s, taut_elems, cells = 0.0, 0, 0
    for i, (name, start, end, parent, info) in enumerate(spans):
        layer = layers[i]
        own = (end - start) - child_time[i]
        self_s[layer] += own
        if parent < 0:
            roots += end - start
        if parent < 0 or layers[parent] != layer:
            calls[layer] += 1
        if name == "tvsolver.denoise":
            iters.append(info[0])
            unconverged += not info[1]
        elif name == "experiments.oracle_lambda_search":
            oracle_jstar += info[0]
            oracle_steps += info[1]
        elif name == "experiments._run_cell_trial":
            cells += 1
        elif name == "tvsolver.tv1d_prox":
            taut_s += end - start
            taut_elems += info
    solve_s = self_s["tvsolver.solve"]
    out = {m: self_s[layer] for m, layer in TIME_METRICS.items()}
    out.update({m: calls[layer] for m, layer in CALL_METRICS.items()})
    out.update({
        "tvsolver.iters": sum(iters),
        "tvsolver.iters_p50": statistics.median(iters) if iters else 0,
        "tvsolver.us_per_iter": 1e6 * solve_s / sum(iters) if iters else 0.0,
        "tvsolver.unconverged": unconverged,
        "tvsolver.taut_ns_per_elem": 1e9 * taut_s / taut_elems if taut_elems else 0.0,
        "experiments.cells": cells,
        "experiments.oracle_steps": oracle_steps,
        "experiments.oracle_useful_ratio": oracle_jstar / oracle_steps if oracle_steps else 0.0,
        "trace.spans": len(spans),
        "trace.unwrapped_s": wall - roots,
        "trace.self_sum_s": sum(self_s.values()),
    })
    return out
