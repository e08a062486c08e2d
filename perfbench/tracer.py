"""Layer spans recorded from outside the program.

`Tracer.installed()` replaces the public entry points of each cocyclelab
module (listed in LAYERS) with wrappers that open a span per call, and puts
the originals back on exit.  Nothing under src/ is edited: a function is
replaced in every cocyclelab module namespace that binds it, so calls made
through `from .x import f` imports are caught as well.

A span records its name, its parent, its start and its end.  Its self time
is its duration minus the inclusive time of its child spans.  Counts (bytes,
mode pairs, steps, points, elements) are computed from the call arguments
and results after the span has closed; the time spent computing them is
charged to the tracer, not to any layer, and shows in trace.overhead_frac.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from collections import defaultdict

import numpy as np


def _path_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _matmul_counts(args, result):
    u, v = args
    nu = sum(bool(np.any(c)) for c in u.modes.values())
    nv = sum(bool(np.any(c)) for c in v.modes.values())
    return {"mode_pairs": len(u.modes) * len(v.modes), "nonzero_pairs": nu * nv}


def _deriv_elements(args, result):
    return {"elements": int(np.asarray(args[0]).size)}


def _build_points(args, result):
    # grid points times channels of the data handed to the spline fit
    return {"points": int(np.asarray(args[1]).size)}


def _eval_points(args, result):
    return {"points": int(np.asarray(args[1]).size)}


def _geodesic_steps(args, result):
    return {"steps": len(result.times) - 1}


def _transport_steps(args, result):
    return {"steps": (len(result.path_times) - 1) // 2}


# (module, attribute or Class.method, span name, count function).  Several
# entry points may share one span name; a call nested in a span of the same
# name opens no new span, but its counts are still recorded.
LAYERS = [
    # bytes of pair and field files only: the length of a report or CSV
    # changes with the seed, and exact counts must not
    ("fieldio", "save_pair", "fieldio.save", _path_bytes),
    ("fieldio", "save_field", "fieldio.save", _path_bytes),
    ("fieldio", "save_json", "fieldio.save", None),
    ("fieldio", "write_transport_csv", "fieldio.save", None),
    ("fieldio", "load_pair", "fieldio.load", None),
    ("fieldio", "load_field", "fieldio.load", None),
    ("fieldio", "load_json", "fieldio.load", _path_bytes),
    ("smfield", "FourierField.__matmul__", "smfield.matmul", _matmul_counts),
    ("smfield", "eta_plus", "smfield.eta", None),
    ("smfield", "eta_minus", "smfield.eta", None),
    ("smfield", "l2_inner", "smfield.l2_inner", None),
    ("spectral", "deriv", "spectral.deriv", _deriv_elements),
    ("spectral", "refine_grid", "spectral.refine_grid", None),
    ("interp", "PeriodicCubic2D.__init__", "interp.build", _build_points),
    ("interp", "PeriodicCubic2D.__call__", "interp.eval", _eval_points),
    ("torus", "integrate_geodesic", "torus.integrate_geodesic", _geodesic_steps),
    ("cocycle", "TransportContext.__init__", "cocycle.context", None),
    ("cocycle", "transport", "cocycle.transport", _transport_steps),
    ("cocycle", "triviality_residual", "cocycle.triviality_residual", None),
    ("cocycle", "holonomy_closed", "cocycle.holonomy_closed", None),
    ("cocycle", "h0_residuals", "cocycle.h0_residuals", None),
    ("cocycle", "recurrence_residuals", "cocycle.recurrence_residuals", None),
    ("cocycle", "transport_residual_field", "cocycle.transport_residual_field", None),
    ("backlund", "backlund_transform", "backlund.backlund_transform", None),
    ("backlund", "holomorphy_residuals", "backlund.holomorphy_residuals", None),
    ("backlund", "reduce_degree", "backlund.reduce_degree", None),
    ("backlund", "holomorphic_g_factory", "backlund.holomorphic_g_factory", None),
    ("elliptic", "weierstrass_p", "elliptic.weierstrass_p", None),
]

# every module that defines or imports a wrapped entry point
MODULES = ("fieldio", "smfield", "spectral", "interp", "torus", "cocycle",
           "backlund", "elliptic", "cli")


class _Frame:
    __slots__ = ("name", "parent", "start", "child_incl", "overhead")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.child_incl = 0.0
        self.overhead = 0.0


class Tracer:
    """Collects spans as (name, parent index, start, end, incl, self) tuples."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []  # (frame, span index)

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = _Frame(name, parent, time.perf_counter())
        self._stack.append((frame, index))
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            incl = end - frame.start - frame.overhead
            self.spans[index] = (name, parent, frame.start, end, incl,
                                 incl - frame.child_incl)
            if self._stack:
                up = self._stack[-1][0]
                up.child_incl += incl
                up.overhead += frame.overhead

    def _count(self, name, counter, args, result):
        t0 = time.perf_counter()
        for key, value in counter(args, result).items():
            self.counts[f"{name}.{key}"] += value
        if self._stack:
            self._stack[-1][0].overhead += time.perf_counter() - t0

    def _wrap(self, fn, name, counter):
        def wrapped(*args, **kwargs):
            if self._stack and self._stack[-1][0].name == name:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if counter is not None:
                self._count(name, counter, args, result)
            return result

        return wrapped

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every LAYERS entry point for the duration of the block."""
        mods = {m: importlib.import_module(f"cocyclelab.{m}") for m in MODULES}
        undo = []
        try:
            for modname, attr, name, counter in LAYERS:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mods[modname], cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(orig, name, counter))
                    undo.append((cls, meth, orig))
                    continue
                orig = getattr(mods[modname], attr)
                wrapped = self._wrap(orig, name, counter)
                for mod in list(mods.values()) + [importlib.import_module("cocyclelab")]:
                    if getattr(mod, attr, None) is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- summaries ---------------------------------------------------------

    def layer_totals(self, root: int):
        """Per span name under the root span: calls, incl_s and self_s.

        incl_s sums only spans with no ancestor of the same name, so a
        recursive layer is not counted twice.
        """
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i in range(root + 1, len(self.spans)):
            name, parent, _, _, incl, self_s = self.spans[i]
            chain = []
            p = parent
            while p != -1 and p != root:
                chain.append(self.spans[p][0])
                p = self.spans[p][1]
            if p != root:
                continue
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            if name not in chain:
                row["incl_s"] += incl
        return out

    def coverage(self, root: int) -> float:
        """Share of the root span's own time covered by its child spans."""
        _, _, _, _, incl, self_s = self.spans[root]
        return (incl - self_s) / incl if incl > 0 else 0.0
