"""Per-layer tracing by wrapping twistkit's public functions.

Installed only for a traced run.  Each wrapped call records a span
(layer, operation, parent span, start, end) kept in memory; the spans
are written out when the run ends.  The innermost leaf,
``specfun.bessel_j``, is called ~80k times per ``triple_bessel``, so it
gets no span of its own: its calls, time and large-argument count are
added to the enclosing span.  Every call site inside the package looks
these names up through the module at call time, so replacing the module
attribute is enough to see every call.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

# (module, attribute) of every wrapped layer, innermost first.
LAYERS = (
    ("specfun", "bessel_j"),
    ("quadrature", "integrate_finite"),
    ("quadrature", "integrate_bessel_semiinfinite"),
    ("expansion", "psi_shifted"),
    ("fields", "vector_potential"),
    ("fields", "magnetic_field"),
    ("matrix_elements", "symbolic_channels"),
    ("matrix_elements", "azimuthal_channel_table"),
    ("matrix_elements", "triple_bessel"),
    ("matrix_elements", "icm0"),
    ("cli", "main"),
)
BESSEL = "specfun.bessel_j"
OP = "op"


class Span:
    __slots__ = ("sid", "name", "parent", "op", "start", "end", "child_s",
                 "bessel_calls", "bessel_s", "bessel_x_ge_8", "counts")

    def __init__(self, sid, name, parent, op, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.bessel_calls = 0
        self.bessel_s = 0.0
        self.bessel_x_ge_8 = 0
        self.counts: Dict[str, int] = {}

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s - self.bessel_s

    def record(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "self_s": self.self_s, "bessel_calls": self.bessel_calls,
                "bessel_s": self.bessel_s, "bessel_x_ge_8": self.bessel_x_ge_8,
                **self.counts}


class Tracer:
    """Owns the wrappers and the spans of one traced run."""

    def __init__(self, modules):
        self._modules = modules
        self._originals = {}
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1]
        span = Span(len(self.spans), name, parent.sid, parent.op,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._stack[-1].child_s += span.end - span.start

    def begin_op(self, index):
        span = Span(len(self.spans), OP, None, index, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)

    def end_op(self):
        self._stack.pop().end = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _wrap_bessel(self, original):
        stack = self._stack
        clock = time.perf_counter

        def bessel_j(order, x):
            t0 = clock()
            value = original(order, x)
            top = stack[-1]
            top.bessel_s += clock() - t0
            top.bessel_calls += 1
            if x >= 8.0:
                top.bessel_x_ge_8 += 1
            return value
        return bessel_j

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
                self._count(name, span, result)
                return result
            finally:
                self._close(span)
        return traced

    def _wrap_semiinfinite(self, name, original):
        # Count the caller's integrand calls, so that the evaluations the
        # method's own node cache saved show as cache hits.
        def traced(f, *args, **kwargs):
            span = self._open(name)
            calls = [0]

            def counted(x):
                calls[0] += 1
                return f(x)
            try:
                result = original(counted, *args, **kwargs)
                span.counts["evals"] = result.evaluations
                span.counts["f_calls"] = calls[0]
                return result
            finally:
                self._close(span)
        return traced

    @staticmethod
    def _count(name, span, result):
        if name == "quadrature.integrate_finite":
            span.counts["evals"] = result.evaluations
        elif name == "expansion.psi_shifted":
            span.counts["terms"] = result.terms_used

    def install(self):
        for mod_name, attr in LAYERS:
            module = self._modules[mod_name]
            original = getattr(module, attr)
            name = f"{mod_name}.{attr}"
            self._originals[(mod_name, attr)] = original
            if name == BESSEL:
                wrapper = self._wrap_bessel(original)
            elif name == "quadrature.integrate_bessel_semiinfinite":
                wrapper = self._wrap_semiinfinite(name, original)
            else:
                wrapper = self._wrap(name, original)
            setattr(module, attr, wrapper)

    def uninstall(self):
        for (mod_name, attr), original in self._originals.items():
            setattr(self._modules[mod_name], attr, original)
        self._originals = {}

    # -- results ----------------------------------------------------------

    def op_counts(self) -> List[Dict[str, int]]:
        """Deterministic counts of every operation, in order."""
        per_op: Dict[int, Dict[str, int]] = {}
        for span in self.spans:
            c = per_op.setdefault(span.op, {})
            if span.name != OP:
                c[span.name + ".calls"] = c.get(span.name + ".calls", 0) + 1
                for key, val in span.counts.items():
                    k = f"{span.name}.{key}"
                    c[k] = c.get(k, 0) + val
            c[BESSEL + ".calls"] = c.get(BESSEL + ".calls", 0) + span.bessel_calls
            c[BESSEL + ".x_ge_8"] = c.get(BESSEL + ".x_ge_8", 0) + span.bessel_x_ge_8
        return [per_op[i] for i in sorted(per_op)]

    def layer_totals(self, factors):
        """Per-layer sums over the run: calls, self seconds and counts.
        The times of operation i are multiplied by ``factors[i]``."""
        totals: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            f = factors[span.op]
            t = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += span.self_s * f
            for key, val in span.counts.items():
                t[key] = t.get(key, 0) + val
            if span.bessel_calls:
                b = totals.setdefault(BESSEL, {"calls": 0, "self_s": 0.0,
                                               "x_ge_8": 0})
                b["calls"] += span.bessel_calls
                b["self_s"] += span.bessel_s * f
                b["x_ge_8"] += span.bessel_x_ge_8
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")
