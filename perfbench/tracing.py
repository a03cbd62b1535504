"""Spans and counters recorded from outside the library.

The tracer wraps public tasproc functions under the names their callers look
up (``tasproc.experiments.simulate_tas``, ``tasproc.estimation.cKDTree``, ...),
so no library file changes.  Spans are kept in memory and turned into
per-layer metrics when the run ends.  A wrapper returns exactly what the
wrapped call returned, so traced outputs are bit-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans (name, start, end, parent, op) plus additive counters."""

    def __init__(self):
        self.spans = []     # [layer, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.missing = set()  # "module.attribute" of hooks not found
        self.op = None
        self._stack = []

    def current(self):
        """Index of the innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, layer):
        parent = self._stack[-1] if self._stack else None
        record = [layer, time.perf_counter(), None, parent, self.op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add_spans(self, records, parent):
        """Graft spans recorded by another process under span `parent`.

        perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes,
        so the child's timestamps need no offset.
        """
        base = len(self.spans)
        for layer, start, end, p in records:
            self.spans.append([layer, start, end,
                               parent if p is None else base + p, self.op])

    def export(self):
        return [[s[0], s[1], s[2], s[3]] for s in self.spans]


# ---------------------------------------------------------------------------
# Hooks

def _count_simulate(counts, args, kwargs, out):
    counts["sampling.points"] += len(out)
    counts["sampling.centres"] += out.metadata["n_centres"]
    counts["sampling.truncations"] += out.metadata["truncation_count"]


def _count_curves(counts, args, kwargs, out):
    profile = args[0]
    counts["estimation.curves.calls"] += 1
    counts["estimation.curves.cells"] += profile.distances.size * out.radii.size


def _count_coverage(counts, args, kwargs, out):
    counts["analytics.coverage.calls"] += 1
    counts["analytics.coverage.evals"] += getattr(out, "size", 1)


def _count_fit(counts, args, kwargs, out):
    counts["estimation.fit.fits"] += 1
    counts["estimation.fit.converged"] += bool(out.converged)


def _count_rows(counts, args, kwargs, out):
    counts["model.io.rows"] += len(out)


class _TracedTree:
    """A built cKDTree whose query methods record kdtree spans."""

    def __init__(self, tracer, tree):
        self._tracer = tracer
        self._tree = tree

    def query(self, *args, **kwargs):
        with self._tracer.span("estimation.kdtree"):
            return self._tree.query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        with self._tracer.span("estimation.kdtree"):
            return self._tree.query_ball_point(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._tree, name)


class _TracedOptimize:
    """Stands in for the ``scipy.optimize`` module a library module imported;
    counts objective evaluations and optimiser iterations."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def _counted(self, fun):
        counts = self._tracer.counts

        @functools.wraps(fun)
        def objective(*args, **kwargs):
            counts["estimation.fit.objective_evals"] += 1
            return fun(*args, **kwargs)
        return objective

    def _record(self, res):
        self._tracer.counts["estimation.fit.iterations"] += int(res.nit)
        return res

    def minimize(self, fun, *args, **kwargs):
        return self._record(self._module.minimize(self._counted(fun), *args,
                                                  **kwargs))

    def minimize_scalar(self, fun, *args, **kwargs):
        return self._record(self._module.minimize_scalar(self._counted(fun),
                                                         *args, **kwargs))

    def __getattr__(self, name):
        return getattr(self._module, name)


# (module, attribute, layer, counter).  A layer of None marks a hook that
# replaces the attribute with a proxy instead of a timed wrapper.
HOOKS = [
    ("tasproc.experiments", "replicate_table1", "experiments", None),
    ("tasproc.experiments", "_fig3_replicate", "experiments", None),
    ("tasproc.experiments", "simulate_tas", "sampling", _count_simulate),
    ("tasproc.experiments", "cKDTree", "estimation.kdtree", None),
    ("tasproc.experiments", "fit_void", "estimation.fit", _count_fit),
    ("tasproc.estimation", "cKDTree", "estimation.kdtree", None),
    ("tasproc.estimation", "thinned_contact_estimate", "estimation.curves",
     _count_curves),
    ("tasproc.estimation", "coverage_values", "analytics.coverage",
     _count_coverage),
    ("tasproc.estimation", "coverage_integral", "analytics.coverage",
     _count_coverage),
    ("tasproc.estimation", "fit_void", "estimation.fit", _count_fit),
    ("tasproc.estimation", "fit_count_pgf", "estimation.fit", None),
    ("tasproc.estimation", "fit_pgf_curve", "estimation.fit", _count_fit),
    ("tasproc.estimation", "optimize", None, None),
    ("tasproc.cli", "main", "cli", None),
    ("tasproc.cli", "read_pattern", "model.io", _count_rows),
    ("tasproc.cli", "read_window_json", "model.io", None),
]


def _wrap(tracer, layer, fn, counter):
    if layer == "estimation.kdtree":
        @functools.wraps(fn)
        def build(*args, **kwargs):
            with tracer.span(layer):
                tree = fn(*args, **kwargs)
            tracer.counts["estimation.kdtree.points_indexed"] += tree.n
            return _TracedTree(tracer, tree)
        return build

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(layer):
            out = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer.counts, args, kwargs, out)
        return out
    return wrapper


def install(tracer, hooks=HOOKS):
    """Install every hook whose target exists; add the names of the others
    ("module.attribute") to ``tracer.missing``.

    Returns a function that puts the originals back.
    """
    saved = []
    for module_name, attr, layer, counter in hooks:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.add("%s.%s" % (module_name, attr))
            continue
        if layer is None:
            replacement = _TracedOptimize(tracer, original)
        else:
            replacement = _wrap(tracer, layer, original, counter)
        saved.append((module, attr, original))
        setattr(module, attr, replacement)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics

# metric -> (unit, hooks it needs; empty for metrics the benchmark measures
# itself).  A metric none of whose hooks was found is reported "unhooked".
_SAMPLING = ["tasproc.experiments.simulate_tas"]
_KDTREE = ["tasproc.experiments.cKDTree", "tasproc.estimation.cKDTree"]
_CURVES = ["tasproc.estimation.thinned_contact_estimate"]
_COVERAGE = ["tasproc.estimation.coverage_values",
             "tasproc.estimation.coverage_integral"]
_FIT = ["tasproc.experiments.fit_void", "tasproc.estimation.fit_void",
        "tasproc.estimation.fit_pgf_curve"]
_OPTIMIZE = ["tasproc.estimation.optimize"]
_EXPERIMENTS = ["tasproc.experiments.replicate_table1",
                "tasproc.experiments._fig3_replicate"]
_IO = ["tasproc.cli.read_pattern", "tasproc.cli.read_window_json"]

LAYER_METRICS = {
    "sampling.busy_s": ("s", _SAMPLING),
    "sampling.points": ("count", _SAMPLING),
    "sampling.centres": ("count", _SAMPLING),
    "sampling.truncations": ("count", _SAMPLING),
    "estimation.kdtree.busy_s": ("s", _KDTREE),
    "estimation.kdtree.points_indexed": ("count", _KDTREE),
    "estimation.curves.busy_s": ("s", _CURVES),
    "estimation.curves.calls": ("count", _CURVES),
    "estimation.curves.cells": ("count", _CURVES),
    "analytics.coverage.busy_s": ("s", _COVERAGE),
    "analytics.coverage.calls": ("count", _COVERAGE),
    "analytics.coverage.evals": ("count", _COVERAGE),
    "analytics.coverage.ms_per_eval": ("ms", _COVERAGE),
    "estimation.fit.self_s": ("s", _FIT),
    "estimation.fit.iterations": ("count", _OPTIMIZE),
    "estimation.fit.objective_evals": ("count", _OPTIMIZE),
    "estimation.fit.converged_ratio": ("ratio", _FIT),
    "experiments.self_s": ("s", _EXPERIMENTS),
    "cli.import_s": ("s", []),
    "cli.self_s": ("s", ["tasproc.cli.main"]),
    "model.io.busy_s": ("s", _IO),
    "model.io.rows": ("count", _IO),
    "trace.overhead_ratio": ("ratio", []),
    "trace.unattributed_share": ("ratio", []),
}


def layer_times(spans):
    """(busy, self) seconds per layer.

    A layer's busy time counts each of its spans that has no ancestor of the
    same layer; its self time is each span minus its direct children.
    """
    children = defaultdict(float)
    for layer, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent] += end - start
    busy, self_time = defaultdict(float), defaultdict(float)
    for i, (layer, start, end, parent, *_) in enumerate(spans):
        self_time[layer] += (end - start) - children[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            busy[layer] += end - start
    return busy, self_time


def layer_metrics(tracer, untraced_s, traced_s):
    """Every per-layer metric as {name: {"value", "unit"}}.

    `untraced_s` and `traced_s` are the summed op times of the same ops run
    without and with the hooks installed.
    """
    busy, self_time = layer_times(tracer.spans)
    c = tracer.counts
    values = {
        "sampling.busy_s": busy["sampling"],
        "sampling.points": c["sampling.points"],
        "sampling.centres": c["sampling.centres"],
        "sampling.truncations": c["sampling.truncations"],
        "estimation.kdtree.busy_s": busy["estimation.kdtree"],
        "estimation.kdtree.points_indexed":
            c["estimation.kdtree.points_indexed"],
        "estimation.curves.busy_s": busy["estimation.curves"],
        "estimation.curves.calls": c["estimation.curves.calls"],
        "estimation.curves.cells": c["estimation.curves.cells"],
        "analytics.coverage.busy_s": busy["analytics.coverage"],
        "analytics.coverage.calls": c["analytics.coverage.calls"],
        "analytics.coverage.evals": c["analytics.coverage.evals"],
        "analytics.coverage.ms_per_eval":
            (1000.0 * busy["analytics.coverage"] / c["analytics.coverage.evals"]
             if c["analytics.coverage.evals"] else 0.0),
        "estimation.fit.self_s": self_time["estimation.fit"],
        "estimation.fit.iterations": c["estimation.fit.iterations"],
        "estimation.fit.objective_evals": c["estimation.fit.objective_evals"],
        "estimation.fit.converged_ratio":
            (c["estimation.fit.converged"] / c["estimation.fit.fits"]
             if c["estimation.fit.fits"] else 0.0),
        "experiments.self_s": self_time["experiments"],
        "cli.import_s": busy["cli.import"],
        "cli.self_s": self_time["cli"],
        "model.io.busy_s": busy["model.io"],
        "model.io.rows": c["model.io.rows"],
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
        "trace.unattributed_share":
            self_time["op"] / busy["op"] if busy["op"] else 0.0,
    }
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        unhooked = bool(needs) and all(h in tracer.missing for h in needs)
        value = "unhooked" if unhooked else values[name]
        if isinstance(value, float) and value.is_integer() and unit == "count":
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out
