"""Span tracing of the tunneltimes layers, installed from outside the package.

Every public function of a layer module is replaced, at every module that
binds it, by a wrapper that records a span (name, start, end, parent).  A
span's self time is its duration minus the durations of its child spans;
the layer's self time is the sum over its spans.  Counters are taken at the
same boundaries.  Nothing inside the package is edited: the wrappers are
module attributes swapped in before the workload runs.
"""

import contextlib
import functools
import importlib
import inspect
import time
import warnings
from collections import defaultdict

import numpy as np

PACKAGE = "tunneltimes"
LAYERS = ("kernels", "timescales", "decomposition", "scattering", "packets",
          "larmor", "cli")
# model holds records and constants; its helpers are charged to the caller
BINDING_MODULES = ("model",) + LAYERS

# format_float runs once per CSV cell (6e5 times in a 1e5-row sweep); a span
# there would cost more than the formatting it measures, so its time stays in
# the self time of the cli span that calls it
UNWRAPPED = {("cli", "format_float")}


class Tracer:
    """In-memory span recorder with per-name and per-layer aggregates."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self._stack = []       # [span index, start, accumulated child time]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.synthesis_binding = False

    def wrap(self, name, fn, hook=None):
        tracer = self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(tracer.counts, args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                own = duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.spans[index] = (name, frame[1], end, parent)
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += own
                tracer.self_s[layer] += own

        return traced

    def write(self, path):
        """Write the spans as CSV: id, parent, name, start and end in seconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write("%d,%d,%s,%.9f,%.9f\n"
                             % (index, parent, name, start - origin, end - origin))


def _bound(fn):
    signature = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _hooks(modules):
    """Counters recorded on entry to particular public functions."""

    def kernel(counts, args, kwargs):
        size = int(np.size(args[0] if args else next(iter(kwargs.values()))))
        counts["kernels.elements"] += size
        if size == 1:
            counts["kernels.scalar_calls"] += 1

    widths_args = _bound(modules["timescales"].evaluate_widths)

    def evaluate_widths(counts, args, kwargs):
        counts["timescales.evaluate_widths.kpts"] += int(
            np.size(widths_args(args, kwargs)["k"]))

    table_args = _bound(modules["scattering"].interior_table)

    def interior_table(counts, args, kwargs):
        bound = table_args(args, kwargs)
        counts["scattering.interior_table.knodes"] += int(np.size(bound["ks"])) * len(
            bound["potential"].filled_regions())

    evolve_args = _bound(modules["packets"].evolve)

    def evolve(counts, args, kwargs):
        bound = evolve_args(args, kwargs)
        n_x = bound["n_x"] if bound["x"] is None else int(np.size(bound["x"]))
        counts["packets.synth_cells"] += int(n_x) * int(bound["spec"].n_k)

    def write_atomic(counts, args, kwargs):
        text = args[1] if len(args) > 1 else kwargs["text"]
        counts["cli.bytes_written"] += len(text)

    return {
        "kernels": kernel,   # every public kernel
        ("timescales", "evaluate_widths"): evaluate_widths,
        ("scattering", "interior_table"): interior_table,
        ("packets", "evolve"): evolve,
        ("cli", "write_atomic"): write_atomic,
    }


def install(tracer):
    """Swap traced wrappers in for every public layer function, everywhere bound.

    Returns a function that puts the originals back.  larmor's own binding of
    the synthesis helper gets a call counter (no span), so syntheses per clock
    rung can be read off; when that binding is absent the count is skipped.
    """
    package = importlib.import_module(PACKAGE)
    modules = {name: importlib.import_module(PACKAGE + "." + name)
               for name in BINDING_MODULES}
    hooks = _hooks(modules)
    replacement = {}
    for layer in LAYERS:
        module = modules[layer]
        for name, fn in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or (layer, name) in UNWRAPPED):
                continue
            replacement[fn] = tracer.wrap("%s.%s" % (layer, name), fn,
                                          hooks.get((layer, name), hooks.get(layer)))
    swapped = []
    for module in (package,) + tuple(modules.values()):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacement:
                setattr(module, attr, replacement[value])
                swapped.append((module, attr, value))

    larmor = modules["larmor"]
    synthesize = getattr(larmor, "_synthesize", None)
    if synthesize is not None:
        def counted(*args, **kwargs):
            tracer.counts["larmor.syntheses"] += 1
            return synthesize(*args, **kwargs)

        larmor._synthesize = counted
        swapped.append((larmor, "_synthesize", synthesize))
        tracer.synthesis_binding = True

    def uninstall():
        for module, attr, value in swapped:
            setattr(module, attr, value)

    return uninstall


@contextlib.contextmanager
def runtime_warnings():
    """Record every RuntimeWarning raised inside, repeats included."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always", RuntimeWarning)
        yield records


def kernel_warning_count(records):
    path = importlib.import_module(PACKAGE + ".kernels").__file__
    return sum(1 for w in records
               if issubclass(w.category, RuntimeWarning) and w.filename == path)


# (metric name, unit, how to read it from a tracer) for every layer metric;
# each value is per round of the workload so counts repeat exactly
def layer_metrics(tracer, rounds, warning_records):
    calls, total, own, counts = tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    kernel_names = [n for n in calls if n.startswith("kernels.")]
    out = {
        "kernels.calls": (sum(calls[n] for n in kernel_names), "count"),
        "kernels.elements": (counts["kernels.elements"], "count"),
        "kernels.scalar_calls": (counts["kernels.scalar_calls"], "count"),
        "kernels.overflow_warnings": (kernel_warning_count(warning_records), "count"),
        "timescales.evaluate_widths.calls": (calls["timescales.evaluate_widths"], "count"),
        "timescales.evaluate_widths.kpts": (counts["timescales.evaluate_widths.kpts"], "count"),
        "timescales.evaluate_widths.self_s": (own["timescales.evaluate_widths"], "s"),
        "decomposition.stationary_channels.self_s":
            (own["decomposition.stationary_channels"], "s"),
        "decomposition.channel_sweep.s": (total["decomposition.channel_sweep"], "s"),
        "scattering.amplitudes.calls": (calls["scattering.amplitudes"], "count"),
        "scattering.interior_table.calls": (calls["scattering.interior_table"], "count"),
        "scattering.interior_table.knodes": (counts["scattering.interior_table.knodes"], "count"),
        "scattering.interior_table.s": (total["scattering.interior_table"], "s"),
        "scattering.stationary_value.s": (total["scattering.stationary_value"], "s"),
        "packets.evolve.calls": (calls["packets.evolve"], "count"),
        "packets.evolve.s": (total["packets.evolve"], "s"),
        "packets.evolve.self_s": (own["packets.evolve"], "s"),
        "packets.synth_cells": (counts["packets.synth_cells"], "count"),
        "packets.default_grid.s": (total["packets.default_grid"], "s"),
        "packets.gaussian_spectrum.calls": (calls["packets.gaussian_spectrum"], "count"),
        "larmor.run_clock.calls": (calls["larmor.run_clock"], "count"),
        "larmor.run_clock.s": (total["larmor.run_clock"], "s"),
        "larmor.run_clock.self_s": (own["larmor.run_clock"], "s"),
        "cli.bytes_written": (counts["cli.bytes_written"], "count"),
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = (own[layer], "s")
    metrics = {name: {"value": value / rounds, "unit": unit}
               for name, (value, unit) in out.items()}
    if tracer.synthesis_binding:
        rungs = calls["larmor.run_clock"]
        metrics["larmor.syntheses_per_rung"] = {
            "value": counts["larmor.syntheses"] / rungs if rungs else 0.0,
            "unit": "count"}
    return metrics
