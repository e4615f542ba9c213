"""Span tracer that wraps uavsense's public functions in place.

A function imported with ``from .x import y`` is bound under several module
names (``engine.aoa``, ``ofdm.aoa``, ``uavsense.aoa``, ...), and a call made
inside the library goes through the binding of the calling module. The tracer
therefore finds every binding of a traced function by object identity across
all loaded ``uavsense`` modules and replaces each with the same wrapper.

Spans (name, parent, start, end) are kept in flat typed arrays while the
benchmark runs and are written out when it ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Span name -> (module that defines the functions, function names).
TRACED = {
    "geometry.aoa": ("uavsense.geometry", ("aoa",)),
    "geometry.cells": ("uavsense.geometry", ("build_grid", "deploy_uavs", "classify_cells")),
    "beamforming.steering_vector": ("uavsense.beamforming", ("steering_vector",)),
    "beamforming.design": ("uavsense.beamforming", ("capon_beamformer", "ls_beamformer")),
    "engine.build_tables": ("uavsense.engine", ("build_tables",)),
    "engine.substream": ("uavsense.engine", ("substream",)),
    "engine.trial_loop": ("uavsense.engine", ("run_trial",)),
    "engine.batch": ("uavsense.engine", ("run_monte_carlo", "run_monte_carlo_all_fusions", "sweep")),
    "ofdm.dirichlet_kernel": ("uavsense.ofdm", ("dirichlet_kernel",)),
    "ofdm.synth_tx_frame": ("uavsense.ofdm", ("synth_tx_frame",)),
    "ofdm.build_reflections": ("uavsense.ofdm", ("build_reflections",)),
    "ofdm.synth_rx_frame": ("uavsense.ofdm", ("synth_rx_frame",)),
    "ofdm.remove_data": ("uavsense.ofdm", ("remove_data",)),
    "ofdm.matched_point_value": ("uavsense.ofdm", ("matched_point_value",)),
    "fusion.fuse": ("uavsense.fusion", ("fuse",)),
    "fusion.detect": ("uavsense.fusion", ("detect",)),
}


def uavsense_modules() -> list:
    """Every loaded module of the uavsense package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "uavsense" or name.startswith("uavsense."))
    ]


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    durations = ends - starts
    nested = parents >= 0
    children = np.bincount(parents[nested], weights=durations[nested], minlength=len(durations))
    return durations - children


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self, targets: dict = TRACED, clock=time.perf_counter):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._clock = clock
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = self._clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the caller, e.g. the benchmark's root span."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Replace every binding of every traced function in the uavsense modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for span_name, (module_name, functions) in self.targets.items():
            module = sys.modules[module_name]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrappers[id(fn)] = (fn, self.wrap(fn, span_name))
        for module in uavsense_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_ids": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parents": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "starts": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "ends": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and inclusive seconds.

        Inclusive time counts a span only when its parent has another name, so
        a function that calls its own layer (run_monte_carlo ->
        run_monte_carlo_all_fusions) is not counted twice.
        """
        a = self.arrays()
        names, parents = a["name_ids"], a["parents"]
        own = self_times(parents, a["starts"], a["ends"])
        durations = a["ends"] - a["starts"]
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
        outer = parent_names != names
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        incl_s = np.bincount(names[outer], weights=durations[outer], minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "inclusive_s": float(incl_s[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
