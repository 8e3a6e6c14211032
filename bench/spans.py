"""Span tracing around the public functions of each `mesonq` module.

Modules import names directly (`from .effective import effective_operator`),
so a function is wrapped at every `mesonq` namespace that binds it.  Spans
(name, start, end, parent) are kept in flat in-memory arrays; a layer's self
time is its span minus the spans of its direct children.  Spans of one
benchmark item share the item's root span, named `item`.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = {
    "core": ("hermitian_eigen", "cp_basis_data"),
    "effective": ("effective_operator", "effective_operator_cp", "spectral",
                  "cp_eigenvectors", "eigenpair_from_matrix",
                  "bipartite_expectation"),
    "evolution": ("evolve_single_closed", "evolve_bipartite",
                  "lindblad_integrate", "joint_probabilities"),
    "uncertainty": ("mu_bound", "bipartite_mu_bound", "complementary_time",
                    "misid_time", "delta_for_equal_times"),
    "bell": ("bell_operator", "bell_bounds", "chsh_value", "cp_bell_test",
             "scan_bell", "sample_witness_max"),
    "cli": ("main",),
}

ITEM = "item"


def _operator_key(q, t, params):
    return q.alpha, q.phi, float(t), params


def _spectral_key(o):
    return o.quasispin.alpha, o.quasispin.phi, o.time, o.params, o.cp_corrected


def rk4_steps(rho, t, params, dt=1e-3, summed_generator=False) -> int:
    """RK4 steps lindblad_integrate takes: ceil(t/dt), plus 3 for the doubling check."""
    steps = max(1, math.ceil(t / dt))
    return steps + (3 if t / steps > 0.0 else 0)


DISTINCT_KEYS = {
    "effective.effective_operator": _operator_key,
    "effective.effective_operator_cp": _operator_key,
    "effective.spectral": _spectral_key,
}


class Tracer:
    """Installs span wrappers on the traced functions and restores them."""

    def __init__(self):
        self.names = [ITEM] + [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.keys = {name: set() for name in DISTINCT_KEYS}  # of the current item
        self.distinct = dict.fromkeys(DISTINCT_KEYS, 0)
        self.rk4_steps = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        key_of = DISTINCT_KEYS.get(name)
        keys = self.keys.get(name)
        counts_steps = name == "evolution.lindblad_integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                keys.add(key_of(*args, **kwargs))
            if counts_steps:
                self.rk4_steps += rk4_steps(*args, **kwargs)
            idx = self._open(name_id)
            self.start[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return wrapper

    def item(self, fn, *args):
        """Run one benchmark item under a root span; count its distinct keys."""
        idx = self._open(0)
        self.start[idx] = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
            for name, keys in self.keys.items():
                self.distinct[name] += len(keys)
                keys.clear()

    def install(self):
        """Wrap every traced function at every `mesonq` namespace binding it."""
        targets = {}
        for module, funcs in LAYERS.items():
            mod = sys.modules[f"mesonq.{module}"]
            for f in funcs:
                fn = getattr(mod, f)
                targets[id(fn)] = self._wrap(f"{module}.{f}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mesonq"
                                   or mod_name.startswith("mesonq.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in targets:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, targets[id(val)])

    def restore(self):
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "names": np.array(self.names)}

    def save(self, path: str):
        np.savez_compressed(path, **self.arrays())

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        return dur - np.bincount(a["parent"][child], weights=dur[child],
                                 minlength=len(dur))

    def layer_metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-item calls and self time of each traced function and module."""
        a = self.arrays()
        self_s = self.self_times()
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_by_name = np.bincount(a["name_id"], weights=self_s, minlength=n)
        out = {}
        module_ms = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names[1:], start=1):
            ms = 1e3 * self_by_name[i] / items
            out[f"{name}.calls"] = (calls[i] / items, "count/item")
            out[f"{name}.self_ms"] = (ms, "ms/item")
            module_ms[name.split(".")[0]] += ms
        for module, ms in module_ms.items():
            out[f"{module}.self_ms"] = (ms, "ms/item")
        for name, distinct in self.distinct.items():
            n_calls = calls[self.names.index(name)]
            out[f"{name}.distinct_ratio"] = (
                distinct / n_calls if n_calls else 1.0, "ratio")
        out["evolution.lindblad_integrate.rk4_steps"] = (
            self.rk4_steps / items, "steps/item")
        return out

