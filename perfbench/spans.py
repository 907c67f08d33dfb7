"""Span tracer that wraps circlepoly's functions from outside the package.

``Tracer.installed()`` replaces each function below with a wrapper that
opens a span, in every circlepoly namespace that binds it (a function
imported by name into another module, or stored in a dict such as
``experiments.RUNNERS``, is replaced there too), and wraps methods on
their class.  Leaving the context restores the originals.

A span's self time is its duration minus the time of the spans it opened.
Counts of work (nodes, bytes, terms) are computed from array sizes at the
wrapped call, not measured by hardware counters.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

from circlepoly import _accel, cli, experiments, laurent, measures, nlfs, szego

NLFS_FUNCTIONS = ("forward", "layer_strip", "layer_strip_truncated", "outer_from_modulus", "measure_from_pair")
SZEGO_FUNCTIONS = ("ladder_from_coeffs", "verify_system", "plancherel_check")


def _count_nodes(tracer, args, out):
    tracer.counts["measures.circle_nodes.nodes_built"] += len(out)
    tracer.node_sizes.add(len(out))


def _count_new(tracer, args, out):
    tracer.counts["laurent.LaurentPoly.new.bytes"] += args[0].coeffs.nbytes


def _count_eval(tracer, args, out):
    tracer.counts["laurent.LaurentPoly.eval.terms_x_points"] += len(args[0].coeffs) * np.size(args[1])


def _count_convolve(tracer, args, out):
    if len(args[0]) + len(args[1]) - 1 > laurent.FFT_THRESHOLD:
        tracer.counts["laurent.convolve.fft_calls"] += 1


def _count_ladder(tracer, args, out):
    tracer.counts["accel.ladder_eval.steps_x_points"] += len(args[0]) * len(args[1])


def _targets():
    """(owner, attribute, span name, count hook) for every traced callable."""
    out = [
        (measures, "circle_nodes", "measures.circle_nodes", _count_nodes),
        (measures, "l_functional", "measures.l_functional", None),
        (measures, "pairing", "measures.pairing", None),
        (measures.CircleMeasure, "integrate_adaptive", "measures.CircleMeasure.integrate_adaptive", None),
        (measures.CircleMeasure, "integrate", "measures.CircleMeasure.integrate", None),
        (laurent.LaurentPoly, "__init__", "laurent.LaurentPoly.new", _count_new),
        (laurent.LaurentPoly, "__call__", "laurent.LaurentPoly.eval", _count_eval),
        (laurent, "convolve", "laurent.convolve", _count_convolve),
        # metric names may not start with "_", so _accel reports as accel
        (_accel, "ladder_eval", "accel.ladder_eval", _count_ladder),
        (cli, "main", "cli.main", None),
    ]
    out += [(nlfs, f, f"nlfs.{f}", None) for f in NLFS_FUNCTIONS]
    out += [(szego, f, f"szego.{f}", None) for f in SZEGO_FUNCTIONS]
    out += [(experiments, fn.__name__, f"experiments.{fn.__name__}", None) for fn in experiments.RUNNERS.values()]
    return out


class Tracer:
    """Per-span [calls, total_s, self_s] and computed work counts."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.node_sizes = set()
        self.ops = 0
        self._stack = []

    def _wrap(self, name, fn, hook):
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if hook is not None:
                hook(self, args, out)
            return out

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def installed(self):
        """Trace one op: wrap every target, then restore the originals."""
        patches = []  # (class or dict, key, original) in the order applied
        try:
            originals = {}
            for owner, attr, name, hook in _targets():
                fn = owner.__dict__[attr]
                wrapper = self._wrap(name, fn, hook)
                originals[id(fn)] = wrapper
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    patches.append((owner, attr, fn))
            for mod in [m for n, m in sys.modules.items() if n == "circlepoly" or n.startswith("circlepoly.")]:
                for namespace in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]:
                    for key, value in list(namespace.items()):
                        if id(value) in originals and originals[id(value)].__wrapped__ is value:
                            namespace[key] = originals[id(value)]
                            patches.append((namespace, key, value))
            self.node_sizes = set()
            yield self
            self.ops += 1
            self.counts["measures.circle_nodes.distinct"] += len(self.node_sizes)
        finally:
            for owner, key, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def per_op(self):
        """Per-layer metrics, averaged over the traced ops."""
        ops = max(self.ops, 1)
        span = self.spans

        def calls(name):
            return span.get(name, (0, 0.0, 0.0))[0]

        def stat(name, which):
            return span.get(name, (0, 0.0, 0.0))[which] / ops

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        def put_calls_self(name):
            put(f"{name}.calls", stat(name, 0), "calls/op")
            put(f"{name}.self_s", stat(name, 2), "s/op")

        put_calls_self("measures.circle_nodes")
        put("measures.circle_nodes.nodes_built", c["measures.circle_nodes.nodes_built"] / ops, "nodes/op")
        put("measures.circle_nodes.distinct_frac",
            ratio(c["measures.circle_nodes.distinct"], calls("measures.circle_nodes")), "ratio")
        put_calls_self("measures.l_functional")
        put_calls_self("measures.CircleMeasure.integrate_adaptive")
        put("measures.CircleMeasure.integrate.per_adaptive",
            ratio(calls("measures.CircleMeasure.integrate"), calls("measures.CircleMeasure.integrate_adaptive")),
            "grids/call")
        put("measures.pairing.calls", stat("measures.pairing", 0), "calls/op")
        put("measures.pairing.total_s", stat("measures.pairing", 1), "s/op")
        put("laurent.LaurentPoly.new.calls", stat("laurent.LaurentPoly.new", 0), "calls/op")
        put("laurent.LaurentPoly.new.bytes", c["laurent.LaurentPoly.new.bytes"] / ops, "B/op")
        put_calls_self("laurent.LaurentPoly.eval")
        put("laurent.LaurentPoly.eval.terms_x_points", c["laurent.LaurentPoly.eval.terms_x_points"] / ops, "terms/op")
        put_calls_self("laurent.convolve")
        put("laurent.convolve.fft_frac", ratio(c["laurent.convolve.fft_calls"], calls("laurent.convolve")), "ratio")
        for name in [f"nlfs.{f}" for f in NLFS_FUNCTIONS] + [f"szego.{f}" for f in SZEGO_FUNCTIONS]:
            put_calls_self(name)
            put(f"{name}.total_s", stat(name, 1), "s/op")
        put_calls_self("accel.ladder_eval")
        put("accel.ladder_eval.steps_x_points", c["accel.ladder_eval.steps_x_points"] / ops, "steps/op")
        runners = [f"experiments.{fn.__name__}" for fn in experiments.RUNNERS.values()]
        for name in runners:
            put(f"{name}.total_s", stat(name, 1), "s/op")
        put("experiments.self_s", sum(stat(name, 2) for name in runners), "s/op")
        put("cli.main.self_s", stat("cli.main", 2), "s/op")
        return m
