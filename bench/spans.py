"""Outside-in span tracer for the ambitlab benchmark.

The tracer changes no library code.  It replaces a public function at every
module of the package that binds it (``from .montecarlo import
run_ensemble_blocks`` makes ``experiments.run_ensemble_blocks`` a binding of
its own), so a call through any binding opens a span.  Spans stay in memory
and are written out once, when the traced run ends.

A span records its name (the defining module and function), the span that
caused it, its wall interval and the CPU time of its thread.  Spans opened in
a worker thread of an ensemble with no open span of their own hang under the
ensemble span.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import threading
import time

import numpy


class Tracer:
    def __init__(self):
        self.spans = []
        self.bindings = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._pool_parent = None
        self._t0 = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, *, parent=None, before=None,
             after=None, bound=None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main:
                parent = self._pool_parent
        rec = {"id": next(self._ids), "parent": parent, "name": name,
               "thread": threading.get_ident()}
        ctx = None
        if before is not None:
            ctx = before(bound, rec)
            args, kwargs = bound.args, bound.kwargs
        stack.append(rec["id"])
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            rec["start"] = t0 - self._t0
            rec["end"] = t1 - self._t0
            rec["cpu"] = c1 - c0
            self.spans.append(rec)
        if after is not None:
            rec["attrs"] = after(bound, result, ctx)
        return result

    def instrument(self, func, name, before=None, after=None):
        """Wrap `func` at every ambitlab module that binds it.

        `before(bound, rec)` may replace arguments in `bound` (an
        inspect.BoundArguments) and returns a context for
        `after(bound, result, context)`, whose return value becomes the
        span's attributes.
        """
        sig = inspect.signature(func) if before or after else None

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            return self.call(name, func, args, kwargs, before=before,
                             after=after, bound=bound)

        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "ambitlab" and not mod_name.startswith("ambitlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    setattr(mod, attr, wrapper)
                    self.bindings.append(f"{mod_name}.{attr}")

    def set_pool_parent(self, span_id):
        self._pool_parent = span_id

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"bindings": self.bindings, "spans": self.spans}, fh)


class CountingRNG:
    """Delegates to a numpy Generator and sums the Poisson counts it draws
    (the jump counts of levy.sample_integral).  The stream is unchanged."""

    def __init__(self, rng):
        self._rng = rng
        self.poisson_total = 0

    def poisson(self, *args, **kwargs):
        out = self._rng.poisson(*args, **kwargs)
        self.poisson_total += int(numpy.sum(out))
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _defaults(func):
    return {k: p.default for k, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty}


def install(tracer):
    """Wrap the public functions each benchmark layer is measured by."""
    from ambitlab import (ambit, besov, config, experiments, levy, montecarlo,
                          noise, spde)

    for mod, fname in ((config, "load_config"),
                       (experiments, "run_experiment"),
                       (experiments, "write_artifacts"),
                       (montecarlo, "path_rng"),
                       (noise, "exponent_gamma"),
                       (levy, "replay_integral"),
                       (ambit, "make_path"),
                       (ambit, "approx_parts"),
                       (ambit, "exponent_conditions")):
        layer = mod.__name__.rpartition(".")[2]
        tracer.instrument(getattr(mod, fname), f"{layer}.{fname}")

    def ensemble_before(bound, rec):
        block_fn = bound.arguments["block_fn"]
        parent = rec["id"]
        tracer.set_pool_parent(parent)

        def traced_block(idx, rngs):
            return tracer.call("montecarlo.block", block_fn, (idx, rngs), {},
                               parent=parent)

        bound.arguments["block_fn"] = traced_block

    tracer.instrument(montecarlo.run_ensemble_blocks,
                      "montecarlo.run_ensemble_blocks", before=ensemble_before)

    def solve_after(bound, result, _ctx):
        a = bound.arguments
        steps = int(round(a["t_end"] / a["dt"]))
        modes = a["model"].m ** a["model"].d
        return {"path_step_modes": len(a["rngs"]) * steps * modes}

    tracer.instrument(spde.solve_batch, "spde.solve_batch", after=solve_after)

    sample_defaults = _defaults(levy.sample_integral)

    def sample_before(bound, rec):
        counter = CountingRNG(bound.arguments["rng"])
        bound.arguments["rng"] = counter
        return counter

    def sample_after(bound, result, counter):
        a = dict(sample_defaults, **bound.arguments)
        cells = a["cells"]
        n_cells = cells.n_cells if cells is not None else a["nt"] * a["nx"]
        draws = 1 if a["n_draws"] is None else int(a["n_draws"])
        return {"draws": draws, "jumps": counter.poisson_total,
                "cells": int(n_cells)}

    tracer.instrument(levy.sample_integral, "levy.sample_integral",
                      before=sample_before, after=sample_after)

    def criterion_after(bound, stats, _ctx):
        n_samples = len(bound.arguments["samples"])
        points = sum(st.h_values.size for st in stats)
        # order-n stencils have n + 1 terms (n = 0 is the identity)
        terms = int(bound.arguments["n"]) + 1
        return {"evals": n_samples * points * terms, "points": points,
                "kept": sum(len(st.window) for st in stats)}

    tracer.instrument(besov.criterion_statistic, "besov.criterion_statistic",
                      after=criterion_after)
