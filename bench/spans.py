"""Span tracing installed from outside the program, for the traced benchmark run.

``Tracer.installed()`` replaces the public functions and methods of each
layer with thin wrappers, at every place the program looks them up (the
module that imports the name, or the class that owns the method), and puts
the originals back on exit.  Each wrapper records one span: name, start, end,
parent span, CLI call id and replication id.  Spans stay in memory; the
per-layer metrics are computed from them when the run ends.

A layer is the span name up to the first dot: ``error_models``, ``kernels``,
``estimators``, ``simulation`` or ``cli``.  The self time of a span is its
duration minus the durations of its child spans (calls are single-threaded
and strictly nested, so the children never overlap).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("error_models", "kernels", "estimators", "simulation", "cli")

# Complex multiply-add is 4 multiplies and 4 adds.
_FLOP_PER_CMAC = 8
_COMPLEX_BYTES = 16


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.spans = []          # (name, start, end, parent, call_id, rep_id)
        self.counts = defaultdict(float)   # name -> total over traced calls
        self.stack = []
        self.cf_evals = 0        # per call; a plain int keeps the per-law hook cheap
        self.call_id = -1
        self.rep_id = 0
        self.missing = []

    # -- recording -------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, start, end, parent, self.call_id, self.rep_id)

    def count(self, name, value):
        self.counts[name] += value

    @contextmanager
    def call(self, name="cli"):
        """Root span around one CLI invocation; starts a new call id."""
        self.call_id += 1
        self.rep_id = 0
        self.cf_evals = 0
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start)
            self.count("error_models.cf_evals", self.cf_evals)

    def _wrap(self, fn, name, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = name(args, kwargs) if callable(name) else name
            idx, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, span, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _cf_counter(self, fn):
        """ErrorModel.cf runs once per law and frequency vector: count values, no span."""
        tracer = self

        @functools.wraps(fn)
        def cf(model, v):
            out = fn(model, v)
            tracer.cf_evals += np.size(out)
            return out

        return cf

    # -- hooks that turn call arguments and results into counts ----------

    def _next_rep(self, args, kwargs):
        self.rep_id += 1

    def _kernel_grid(self, args, kwargs, result):
        weights, obs_args, eval_args = args[:3]
        n, m, t = np.size(obs_args), weights.quad.size, np.size(eval_args)
        self.count("kernels.deconv_kernel_grid_calls", 1)
        self.count("kernels.deconv_kernel_grid_flop", _FLOP_PER_CMAC * (n * m * t + n * m))
        self.count("kernels.deconv_kernel_grid_bytes", _COMPLEX_BYTES * (n * m + m * t + n * t))

    def _gaussian(self, args, kwargs, result):
        self.count("kernels.gaussian_kernel_calls", 1)

    def _flagged(self, args, kwargs, result):
        flags = result[1]
        self.count("estimators.flagged_points", int(np.count_nonzero(flags)))
        self.count("estimators.ratio_points", np.size(flags))

    def _searched(self, args, kwargs, result):
        self.count("simulation.pairs_scored", int(np.isfinite(result.ase_values).sum()))
        self.count("simulation.pairs_attempted", len(result.pairs))

    @staticmethod
    def _search_name(args, kwargs):
        estimator = kwargs.get("estimator", args[5] if len(args) > 5 else "deconv")
        return f"simulation.bandwidth_search.{estimator}"

    # -- installation ----------------------------------------------------

    def _targets(self):
        em, kn, es, sim, cli = (self.modules[k] for k in LAYERS)
        span = []     # (owner, attribute, span name, after hook, before hook)
        for owner in (es, sim, cli):
            span.append((owner, "validate_ensemble", "error_models.validate", None, None))
        span += [
            (em.ErrorEnsemble, "cf_matrix", "error_models.cf_matrix", None, None),
            (em.ErrorEnsemble, "deconv_weight_matrix", "error_models.deconv_weight_matrix",
             None, None),
            (kn.QuadratureGrid, "gauss_legendre", "kernels.quadrature", None, None),
        ]
        for owner in (es, sim):
            span += [
                (owner, "build_deconv_weights", "kernels.build_deconv_weights", None, None),
                (owner, "deconv_kernel_grid", "kernels.deconv_kernel_grid", self._kernel_grid, None),
                (owner, "gaussian_kernel", "kernels.gaussian_kernel", self._gaussian, None),
                (owner, "floored_ratio", "estimators.floored_ratio", self._flagged, None),
            ]
        span += [
            (sim, "naive_regression_grid", "estimators.naive_regression_grid", None, None),
            (sim, "partial_linear_grid", "estimators.partial_linear_grid", None, None),
            (es.DeconvEstimator, "predict_grid", "estimators.predict_grid", None, None),
            (es.DeconvEstimator, "density_grid", "estimators.density_grid", None, None),
            (sim, "ase", "simulation.ase", None, None),
            (sim, "_replicate", "simulation.replicate", None, None),
        ]
        for owner in (sim, cli):
            span += [
                (owner, "generate", "simulation.generate", None, self._next_rep),
                (owner, "bandwidth_search", self._search_name, self._searched, None),
                (owner, "run_replications", "simulation.run_replications", None, None),
                (owner, "build_ensemble", "simulation.build_ensemble", None, None),
            ]
        return span, [(em.ErrorModel, "cf")]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        spans, counters = self._targets()
        try:
            for owner, attr, name, after, before in spans:
                self._patch(owner, attr, saved,
                            lambda fn, n=name, a=after, b=before: self._wrap(fn, n, a, b))
            for owner, attr in counters:
                self._patch(owner, attr, saved, self._cf_counter)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patch(self, owner, attr, saved, make):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if label not in self.missing:
                self.missing.append(label)
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Total self time per span name, over all recorded calls."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

