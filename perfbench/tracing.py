"""Outside-in tracing: wrap cavscreen's public callables where they are
imported and record one span per call.

A span holds its layer name, start and end (time.perf_counter), the index
of the span that caused it and the operation it belongs to.  Spans stay in
memory until the run ends.  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct child spans;
calls on one thread nest, so the children never overlap.

Wrappers are installed for the traced pass and removed afterwards, so the
untraced pass of the same run executes the unmodified program.  A target
that the package no longer has, or a count that cannot be derived from
what the wrappers saw, is recorded in ``Tracer.missing`` and fails the
traced run: a layer that moved must be traced where it now lives, not
reported as 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import numpy as np


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op = -1
        self.missing: set[str] = set()
        # Upper facets of the hulls built below each open span, and of the
        # hull behind each SimplexEnvelope, for counting plane evaluations.
        self.hull_planes: Counter = Counter()
        self.envelope_planes = weakref.WeakKeyDictionary()
        # Envelope input points built below each open span, and per verdict
        # (n, resolution asked, prior points, hull input points): calls.
        self.hull_points: Counter = Counter()
        self.grids: Counter = Counter()

    def span(self, layer: str, fn: Callable, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span; ``count`` maps
        (args, kwargs, result, tracer, span index) to counter increments."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, time.perf_counter(), math.nan, parent, self.op))
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())
        if count is not None:
            self.counts.update(count(args, kwargs, out, self, idx))
        return out

    def self_times(self) -> dict[str, float]:
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        for k, s in enumerate(self.spans):
            out[s.layer] += (s.end - s.start) - child_time[k]
        return dict(out)

    def calls_below(self, idx: int, layer: str) -> int:
        """Spans of ``layer`` caused, directly or not, by span idx."""
        inside = {idx}
        total = 0
        for k in range(idx + 1, len(self.spans)):
            if self.spans[k].parent in inside:
                inside.add(k)
                total += self.spans[k].layer == layer
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(f"{s.op}\t{s.layer}\t{s.start:.9f}\t{s.end:.9f}\t{s.parent}\n")


def _rows(x) -> int:
    return int(np.asarray(x).shape[0]) if np.ndim(x) else 1


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _one(name):
    return lambda a, k, out, tr, idx: {name: 1}


def _grid_count(a, k, out, tr, idx):
    return {"simplex.grid_points": _rows(out)}


def _linprog_count(a, k, out, tr, idx):
    return {"envelopes.lp_calls": 1, "envelopes.lp_iterations": int(getattr(out, "nit", 0) or 0)}


def _hull_count(a, k, out, tr, idx):
    # The envelope is the minimum over the upward-facing facets (normal
    # pointing up in the value coordinate); credit them to the open spans.
    upper = int((out.equations[:, -2] > 1e-12).sum())
    for open_span in tr._stack:
        tr.hull_planes[open_span] += upper
    return {"envelopes.hull_facets": int(out.simplices.shape[0])}


def _envelope_count(a, k, out, tr, idx):
    # a[0] is the envelope instance, a[1] the sampled points.
    planes = tr.hull_planes.pop(idx, None)
    if planes is None:
        tr.missing.add("SimplexEnvelope built no scipy ConvexHull seen by the tracer")
    else:
        tr.envelope_planes[a[0]] = planes
    points = _rows(_arg(a, k, 1, "points"))
    for open_span in tr._stack:
        tr.hull_points[open_span] += points
    return {"envelopes.hull_input_points": points}


def _query_count(a, k, out, tr, idx):
    planes = tr.envelope_planes.get(a[0])
    if planes is None:
        tr.missing.add("SimplexEnvelope.values on an envelope whose hull was not seen")
        planes = 0
    evals = _rows(out) * planes
    # Each plane evaluation materializes one float64 in the dense block.
    return {"envelopes.query_plane_evals": evals, "envelopes.query_bytes_computed": 8 * evals}


def _scan_count(a, k, out, tr, idx):
    return {"envelopes.scan1d_points": _rows(_arg(a, k, 1, "xs"))}


def _sweep_count(a, k, out, tr, idx):
    return {"informed.sweep_priors": _rows(out)}


def _verdict_count(a, k, out, tr, idx):
    grid = k.get("grid")
    if grid is not None:
        priors, asked = len(grid), "grid"
    else:
        priors = math.comb(out.resolution + out.n - 1, out.n - 1)
        asked = k.get("resolution") or "default"
    tr.grids[(out.n, asked, priors, tr.hull_points.pop(idx, 0))] += 1
    return {"screening.verdicts": 1, "screening.prior_points": priors}


def _xi_count(a, k, out, tr, idx):
    return {
        "screening.xi_sweeps": tr.calls_below(idx, "informed.sweep"),
        "screening.mc_draws": int(out.samples),
        "screening.xi_results": 1,
    }


def _write_count(a, k, out, tr, idx):
    path = _arg(a, k, 0, "path")
    return {"traces.bytes_written": os.path.getsize(path)}


def _payoff_count(a, k, out, tr, idx):
    return {"values.payoff_points": _rows(out)}


def _potential_count(a, k, out, tr, idx):
    return {"costs.potential_points": _rows(out)}


# (module, attribute, layer, counter): module functions, replaced at every
# cavscreen module that imported them.
FUNCTIONS = (
    ("cavscreen.simplex", "simplex_grid_array", "simplex.grid", _grid_count),
    ("cavscreen.experiments", "induced_posterior_distribution", "experiments.posterior", None),
    ("cavscreen.experiments", "posterior", "experiments.posterior", None),
    ("cavscreen.experiments", "upsilon", "experiments.upsilon", _one("experiments.upsilon_calls")),
    ("cavscreen.envelopes", "concavify_1d", "envelopes.scan1d", None),
    ("cavscreen.envelopes", "concavify_lp", "envelopes.lp", None),
    ("cavscreen.envelopes", "linprog", "envelopes.lp", _linprog_count),
    ("cavscreen.envelopes", "ConvexHull", "envelopes.hull_build", _hull_count),
    ("cavscreen.informed", "informed_value", "informed.point", _one("informed.point_calls")),
    ("cavscreen.informed", "informed_value_sweep", "informed.sweep", _sweep_count),
    ("cavscreen.screening", "screens", "screening.verdict", _verdict_count),
    ("cavscreen.screening", "construct_screening_contract", "screening.construct", None),
    ("cavscreen.screening", "assumption_probe", "screening.probe", None),
    ("cavscreen.screening", "xi_screen_search", "screening.xi_search", _xi_count),
    # One result per lattice pair that passed the grid check and was priced
    # by Monte Carlo: the candidates the search tried.
    ("cavscreen.screening", "XiScreenResult", "screening.xi_search",
     _one("screening.xi_candidates")),
    ("cavscreen.config", "load_config", "config.parse", None),
    ("cavscreen.config", "cost_model_from", "config.parse", None),
    ("cavscreen.config", "contract_from", "config.parse", None),
    ("cavscreen.config", "belief_from", "config.parse", None),
    ("cavscreen.traces", "binary_figure_traces", "traces.figure", None),
    ("cavscreen.traces", "write_csv", "traces.write", _write_count),
    ("cavscreen.traces", "write_svg", "traces.write", _write_count),
    ("cavscreen.cli", "main", "cli.command", None),
)

# (module, class, method, layer, counter): methods, replaced on the class.
METHODS = (
    ("cavscreen.simplex", "PosteriorDistribution", "__init__", "simplex.plan", _one("simplex.plan_count")),
    ("cavscreen.envelopes", "Envelope1d", "__init__", "envelopes.scan1d", _scan_count),
    ("cavscreen.envelopes", "Envelope1d", "value", "envelopes.scan1d", None),
    ("cavscreen.envelopes", "Envelope1d", "values", "envelopes.scan1d", None),
    ("cavscreen.envelopes", "Envelope1d", "split", "envelopes.scan1d", None),
    ("cavscreen.envelopes", "SimplexEnvelope", "__init__", "envelopes.hull_build", _envelope_count),
    ("cavscreen.envelopes", "SimplexEnvelope", "values", "envelopes.hull_query", _query_count),
)


def _wrapper(tracer: Tracer, layer: str, fn, count):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.span(layer, fn, args, kwargs, count)

    return wrapped


class Installed:
    """Undo log for installed wrappers."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()


_MISSING = object()


def install(tracer: Tracer) -> Installed:
    """Wrap every traced callable; returns the handle that removes them."""
    done = Installed()
    for mod_name in {entry[0] for entry in FUNCTIONS + METHODS}:
        try:
            importlib.import_module(mod_name)
        except ImportError:
            tracer.missing.add(mod_name)
    modules = [m for k, m in list(sys.modules.items()) if k == "cavscreen" or k.startswith("cavscreen.")]
    for mod_name, attr, layer, count in FUNCTIONS:
        original = getattr(sys.modules.get(mod_name), attr, None)
        if original is None:
            tracer.missing.add(f"{mod_name}.{attr}")
            continue
        wrapped = _wrapper(tracer, layer, original, count)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    done.set(mod, name, wrapped)
    for mod_name, cls_name, method, layer, count in METHODS:
        cls = getattr(sys.modules.get(mod_name), cls_name, None)
        if cls is None or method not in vars(cls):
            tracer.missing.add(f"{mod_name}.{cls_name}.{method}")
            continue
        done.set(cls, method, _wrapper(tracer, layer, vars(cls)[method], count))
    values = sys.modules.get("cavscreen.values")
    payoffs = 0
    for cls in list(vars(values).values()) if values else ():
        if inspect.isclass(cls) and cls.__module__ == values.__name__:
            for method in ("batch", "value"):
                if method in vars(cls):
                    done.set(cls, method, _wrapper(tracer, "values.payoff", vars(cls)[method], _payoff_count))
                    payoffs += 1
    if not payoffs:
        tracer.missing.add("cavscreen.values: no class with batch or value")
    _install_potential(tracer, done)
    return done


def _install_potential(tracer: Tracer, done: Installed) -> None:
    # Potential.batch is a dataclass field holding a plain function, so it
    # is intercepted with a data descriptor that wraps the stored field.
    costs = sys.modules.get("cavscreen.costs")
    cls = getattr(costs, "Potential", None)
    if cls is None or "batch" not in getattr(cls, "__dataclass_fields__", {}):
        tracer.missing.add("cavscreen.costs.Potential.batch")
        return

    wrapped = {}

    def get(self):
        fn = self.__dict__["batch"]
        if fn not in wrapped:
            wrapped[fn] = _wrapper(tracer, "costs.potential", fn, _potential_count)
        return wrapped[fn]

    def put(self, value):
        self.__dict__["batch"] = value

    done.set(cls, "batch", property(get, put))
