"""Spans around calls into merokit's public functions, kept in memory.

The traced run wraps each function listed in ``STAGES`` with a span named
after its layer.  A wrapper is installed in every ``merokit`` module
namespace that holds the original object, so calls between modules are
seen as well as calls from the benchmark; ``Tracer.patched()`` restores
the originals on exit.  Nothing under ``src/`` is changed.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans.  Children started on a thread with
no open span of its own (the suite runner's pool) are attached to the
innermost span open on the main thread.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np


def _grid_eval_counts(f, zs):
    return {"terms": len(f.coeffs) * int(np.size(zs))}


def _conv_counts(op, cp, f, grid, theta_count, threshold):
    from merokit.membership import RADIUS_CAP
    from merokit.series import default_grid

    grid = grid or default_grid()
    points = grid.angles_count * sum(1 for r in grid.radii if r <= RADIUS_CAP)
    pairs = points * int(theta_count)
    # one complex128 of |u - beta sigma v| per (sigma, z) pair, as the
    # numpy scan materializes it: a computed size, not a measured one
    return {"pairs": pairs, "bytes_computed": 16 * pairs}


def _recurrence_counts(op, _params, _source, trunc_order):
    from merokit.series import default_trunc_order

    K = default_trunc_order(op.p) if trunc_order is None else int(trunc_order)
    return {"terms": K + op.p + 1}


def _trials_plus(op, cp, f, trials, seed):
    return {"count": int(trials)}


def _trials_general(op, cp, f, delta, eps_trials, trials, grid, seed):
    return {"count": int(eps_trials) + int(trials)}


#: (layer, module, function, counter); a counter receives the call's
#: arguments with merokit's defaults filled in
STAGES = (
    ("series.grid_eval", "merokit.series", "eval_many", _grid_eval_counts),
    ("operator.apply", "merokit.operator", "apply_coeff", None),
    ("operator.apply", "merokit.operator", "apply_differential", None),
    ("operator.apply", "merokit.operator", "invert", None),
    ("operator.apply", "merokit.operator", "integral_operator", None),
    ("membership.margins", "merokit.membership", "numeric_membership", None),
    ("membership.margins", "merokit.membership", "disk_characterization", None),
    ("membership.margins", "merokit.membership", "subordination_power_target", None),
    ("membership.coeff_sums", "merokit.membership", "exact_membership_plus", None),
    ("membership.coeff_sums", "merokit.membership", "sufficient_condition", None),
    ("bounds.conv_min", "merokit.bounds", "convolution_nonvanishing", _conv_counts),
    ("bounds.partial_sums", "merokit.bounds", "partial_sum_bounds", None),
    ("bounds.tail_sums", "merokit.bounds", "distortion", None),
    ("generators.recurrence", "merokit.generators", "from_herglotz", _recurrence_counts),
    ("generators.recurrence", "merokit.generators", "from_schwarz", _recurrence_counts),
    ("neighborhoods.trials", "merokit.neighborhoods", "verify_inclusion_plus", _trials_plus),
    ("neighborhoods.trials", "merokit.neighborhoods", "verify_inclusion_general", _trials_general),
    ("cli.suite", "merokit.cli", "_cmd_report", None),
)

#: layers reported by the traced run, with the counters each one records
LAYERS = {
    "series.grid_eval": ("terms",),
    "operator.apply": (),
    "membership.margins": (),
    "membership.coeff_sums": (),
    "bounds.conv_min": ("pairs", "bytes_computed"),
    "bounds.partial_sums": (),
    "bounds.tail_sums": (),
    "generators.recurrence": ("terms",),
    "neighborhoods.trials": ("count",),
    "cli.dispatch": (),
    "cli.suite": (),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, t0, t1, counts]
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        rec = [None, parent, name, time.perf_counter(), None, counts or {}]
        with self._lock:
            rec[0] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            stack.pop()

    @contextmanager
    def patched(self):
        """Install span wrappers on every STAGES function; restore on exit."""
        undo = []
        mods = [m for n, m in list(sys.modules.items()) if n == "merokit" or n.startswith("merokit.")]
        for layer, modname, attr, counter in STAGES:
            mod = sys.modules.get(modname)
            if mod is None or not hasattr(mod, attr):
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(layer, orig, counter)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for m, attr, orig in reversed(undo):
                setattr(m, attr, orig)

    def _wrap(self, layer, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(*bound.args, **bound.kwargs)
            with self.span(layer, counts):
                return fn(*args, **kwargs)

        return traced

    def aggregate(self) -> dict:
        """Per layer: self time (ms), calls and summed counters."""
        children: dict = {}
        for rec in self.spans:
            if rec[1] is not None:
                children.setdefault(rec[1], []).append(rec)
        out: dict = {}
        for rec in self.spans:
            if rec[4] is None:
                continue
            t0, t1 = rec[3], rec[4]
            covered = _covered(t0, t1, [(c[3], c[4]) for c in children.get(rec[0], ()) if c[4] is not None])
            agg = out.setdefault(rec[2], {"self_ms": 0.0, "calls": 0})
            agg["self_ms"] += 1000.0 * ((t1 - t0) - covered)
            agg["calls"] += 1
            for k, v in rec[5].items():
                agg[k] = agg.get(k, 0) + v
        return out


def _covered(t0: float, t1: float, intervals: list) -> float:
    """Length of [t0, t1] covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, t0), min(e, t1)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def merge(into: dict, agg: dict) -> dict:
    for layer, vals in agg.items():
        dst = into.setdefault(layer, {})
        for k, v in vals.items():
            dst[k] = dst.get(k, 0) + v
    return into
