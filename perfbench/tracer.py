"""Per-thread span tracer for the traced benchmark run.

The tracer times the program's layers from outside.  It replaces each module
or class attribute through which the program calls a public function with a
wrapper that records a span.  A name bound by ``from ... import`` lives in
the importing module, so a span lists every site its function is looked up
at.  Sites are resolved at install time; one that does not exist (a later
version renamed or deleted the function) is skipped, and its span reports
zero calls.

Each thread keeps its own span stack, so the sweep's worker threads do not
interleave their spans: every span carries its thread id and its parent in
the same thread, and self time (duration minus the child spans') is never
negative.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

# span name -> (module, attribute path) sites where the program looks it up
SPANS = {
    "cli.main": [("tiltobs.cli", "main")],
    "harness.load_config": [("tiltobs.harness", "load_config")],
    "harness.run_simulation": [("tiltobs.harness", "run_simulation")],
    "harness.emit_csv": [("tiltobs.harness", "emit_csv")],
    "harness.write_report": [("tiltobs.harness", "write_report")],
    "harness.save_config": [("tiltobs.harness", "save_config")],
    "harness.sweep": [("tiltobs.harness", "sweep")],
    "plant.signals": [("tiltobs.plant", "pivot_rate"), ("tiltobs.plant", "mount_rate"),
                      ("tiltobs.plant", "pivot_accel")],
    "plant.rotation_path": [("tiltobs.plant", "rotation_path")],
    "plant.mount_translation": [("tiltobs.plant", "mount_translation")],
    "plant.MountNoise": [("tiltobs.plant", "MountNoise.value"),
                         ("tiltobs.plant", "MountNoise.deriv"),
                         ("tiltobs.plant", "MountNoise.lag_response")],
    "plant.sensor_streams": [("tiltobs.plant", "gyro_stream"), ("tiltobs.plant", "accel_stream")],
    "observer.observer_step": [("tiltobs.observer", "observer_step"),
                               ("tiltobs.harness", "observer_step")],
    "analysis.sample_basin": [("tiltobs.analysis", "sample_basin")],
    "analysis.integrate_error_ode": [("tiltobs.analysis", "integrate_error_ode")],
    "analysis.lyapunov": [("tiltobs.analysis", "lyapunov"), ("tiltobs.analysis", "lyapunov_rate"),
                          ("tiltobs.harness", "lyapunov"), ("tiltobs.harness", "lyapunov_rate")],
    "so3.rotate_by_exp": [("tiltobs.so3", "rotate_by_exp"), ("tiltobs.analysis", "rotate_by_exp")],
    "so3.rotation_exp_batch": [("tiltobs.so3", "rotation_exp_batch"),
                               ("tiltobs.plant", "rotation_exp_batch")],
}

# a basin candidate takes 3 normal variates for its direction and 3 for its
# velocity error
VARIATES_PER_CANDIDATE = 6

# what a probe may fail with while reading a call's arguments or result; the
# call itself has already returned by then
_PROBE_ERRORS = (TypeError, KeyError, AttributeError, ValueError, IndexError, OSError)


class Span:
    __slots__ = ("name", "tid", "parent", "t0", "t1", "c0", "c1", "child_wall", "child_busy")

    def __init__(self, name, tid, parent):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.child_wall = 0.0
        self.child_busy = 0.0


class CountingRng:
    """Forwards to a numpy ``Generator`` and counts the normal variates it
    hands out; the draws themselves are unchanged."""

    def __init__(self, rng):
        self._rng = rng
        self.variates = 0

    def standard_normal(self, *args, **kwargs):
        out = self._rng.standard_normal(*args, **kwargs)
        self.variates += np.size(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Probes run the call and return (result, counts added to the span).  Counts
# are read after the call returns, so a changed signature loses the count,
# never the call.


def _probe_noise_samples(fn, args, kwargs):
    result = fn(*args, **kwargs)
    try:
        return result, {"samples": np.size(_bound(fn, args, kwargs)["t"])}
    except _PROBE_ERRORS:
        return result, {}


def _probe_traj_steps(fn, args, kwargs):
    traj = fn(*args, **kwargs)
    try:
        a = _bound(fn, args, kwargs)
        batch = np.atleast_2d(a["verr0"]).shape[0]
        return traj, {"traj_steps": batch * round(float(traj.t[-1]) / a["dt"])}
    except _PROBE_ERRORS:
        return traj, {}


def _probe_basin_draws(fn, args, kwargs):
    try:
        a = _bound(fn, args, kwargs)
        rng = a["rng"] = CountingRng(a["rng"])
    except _PROBE_ERRORS:
        return fn(*args, **kwargs), {}
    result = fn(**a)
    try:
        kept = len(result[0])
    except _PROBE_ERRORS:
        return result, {}
    return result, {"kept": kept, "candidates": rng.variates / VARIATES_PER_CANDIDATE}


def _probe_file_bytes(fn, args, kwargs):
    result = fn(*args, **kwargs)
    try:
        return result, {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}
    except _PROBE_ERRORS:
        return result, {}


def _probe_sweep_cells(fn, args, kwargs):
    rows = fn(*args, **kwargs)
    try:
        status = [r["status"] for r in rows]
        return rows, {"cells_ok": status.count("ok"), "cells_rejected": status.count("rejected")}
    except _PROBE_ERRORS:
        return rows, {}


PROBES = {
    "plant.MountNoise": _probe_noise_samples,
    "analysis.integrate_error_ode": _probe_traj_steps,
    "analysis.sample_basin": _probe_basin_draws,
    "harness.emit_csv": _probe_file_bytes,
    "harness.sweep": _probe_sweep_cells,
}


class Tracer:
    """Installs span wrappers on every resolvable site and collects spans and
    counts until ``uninstall``."""

    def __init__(self):
        self.spans = []  # finished spans; list.append is atomic under the GIL
        self.counts = {}  # (span name, counter) -> total
        self.missing = []  # sites that did not resolve
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed = []  # (owner, attribute, original)

    def install(self):
        self.missing = []
        for name, sites in SPANS.items():
            for module, path in sites:
                try:
                    owner = importlib.import_module(module)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = vars(owner)[attr]
                except (ImportError, AttributeError, KeyError):
                    original = None
                if not callable(original):
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self._wrap(name, original, PROBES.get(name)))
                self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, probe):
        local = self._local
        spans = self.spans
        wall = time.perf_counter
        busy = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            span.t0 = wall()
            span.c0 = busy()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                result, counts = probe(fn, args, kwargs)
                with self._lock:
                    for key, value in counts.items():
                        self.counts[name, key] = self.counts.get((name, key), 0) + value
                return result
            finally:
                span.c1 = busy()
                span.t1 = wall()
                stack.pop()
                spans.append(span)

        return wrapper

    def summary(self):
        """Per span name: calls, total wall, self wall and self busy time, plus
        the smallest self time of any single span and the wall time the root
        spans' direct children cover."""
        for s in self.spans:
            if s.parent is not None:
                s.parent.child_wall += s.t1 - s.t0
                s.parent.child_busy += s.c1 - s.c0
        stats = {name: {"calls": 0, "total": 0.0, "self": 0.0, "busy": 0.0} for name in SPANS}
        min_self = 0.0
        covered = 0.0
        for s in self.spans:
            st = stats[s.name]
            self_wall = (s.t1 - s.t0) - s.child_wall
            self_busy = (s.c1 - s.c0) - s.child_busy
            st["calls"] += 1
            st["total"] += s.t1 - s.t0
            st["self"] += self_wall
            st["busy"] += self_busy
            min_self = min(min_self, self_wall, self_busy)
            if s.parent is not None and s.parent.parent is None and s.parent.name == "cli.main":
                covered += s.t1 - s.t0
        return stats, min_self, covered
