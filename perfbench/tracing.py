"""Outside-in layer tracer for the ``strata`` modules.

The tracer wraps every public function of every layer module and rebinds
each wrapper wherever the module set holds the original function: in the
defining module, in every module that imported it by name (for example
``strata.sv.reduce_to_fundamental``) and in module-level dispatch tables
(``strata.cli._RUNNERS``).  Nothing inside the program changes; spans are
taken at the call boundary only.

A span is ``(name, start, end, parent)``.  Spans stay in memory while the
timed phase runs and are written out at the end.  A layer's self time is
the sum over its spans of the span's duration minus its children's.

The benchmark's own callbacks (plane functions, radial profiles and other
integrands it hands to the program) form the ``profile`` layer, so that
their cost is not charged to the program.  Work counters are taken at the
same boundaries; ``layer_metrics()`` names every figure a traced run prints.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

PROGRAM_LAYERS = ("cli", "sv", "saff", "special", "fourier", "series",
                  "operators", "spectral", "enveloping")
LAYERS = PROGRAM_LAYERS + ("profile",)

#: Work counters per layer, each as (name, unit, better).
COUNTERS = (
    ("sv.samples", "count", "lower"),
    ("sv.samples_per_s", "1/s", "higher"),
    ("sv.lattice_points", "count", "lower"),
    ("sv.points_per_sample", "count", "lower"),
    ("sv.adjoint_cosets", "count", "lower"),
    ("special.hankel_freqs", "count", "lower"),
    ("special.ms_per_freq", "ms", "lower"),
    ("special.profile_points", "count", "lower"),
    ("special.profile_points_per_call", "count", "higher"),
    ("special.whittaker_values", "count", "lower"),
    ("special.ms_per_whittaker", "ms", "lower"),
    ("saff.points_sampled", "count", "lower"),
    ("saff.reduce_calls", "count", "lower"),
    ("saff.us_per_reduce", "us", "lower"),
    ("fourier.grid_points", "count", "lower"),
    ("spectral.dofs", "count", "lower"),
    ("profile.points", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
)


def layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run prints, in a fixed order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.calls", "count", "lower"))
    return out + list(COUNTERS)


def _size(a) -> int:
    return int(np.size(a))


def _spec_points(spec, dims: tuple[str, ...]) -> int:
    return math.prod(getattr(spec, d) for d in dims)


def _cosets(a, r) -> int:
    return a["n_samples"] * np.atleast_2d(a["p_rows"]).shape[0]


# Work extracted from the bound arguments (and result) of selected calls:
# function name -> (counter, fn(arguments, result) -> amount); an amount
# of ``None`` counts the call.  Sample counts are taken at the outermost
# sv span only, so that a function that delegates to another sv function
# is not counted twice.
_SV_SAMPLES = {
    "sv_rel_values": lambda a, r: _size(r),
    "sv_rel_value": lambda a, r: 1,
    "sv_mean_mc": lambda a, r: a["n_samples"],
    "sv_second_moment_mc": lambda a, r: a["n_samples"],
    "sv_second_moment_exact_fibre": lambda a, r: a["n_samples"],
    "dual_norm_sum_values": lambda a, r: _size(r),
}
_SV_COSETS = {"sv_adjoint": _cosets, "sv_adjoint_of_bump": _cosets}
_COUNTS = {
    ("special", "hankel_transform"): ("special.hankel_freqs",
                                      lambda a, r: _size(a["s"])),
    ("special", "whittaker_w"): ("special.whittaker_values",
                                 lambda a, r: _size(a["x"])),
    ("saff", "sample_masur_veech"): ("saff.points_sampled",
                                     lambda a, r: a["n"]),
    ("saff", "reduce_to_fundamental"): ("saff.reduce_calls", None),
    ("fourier", "coeff_H0_table"): ("fourier.grid_points",
                                    lambda a, r: _spec_points(a["spec"], ("nx", "nu", "nv"))),
    ("fourier", "coeff_T_table"): ("fourier.grid_points",
                                   lambda a, r: _spec_points(a["spec"], ("nx", "nu"))),
    ("fourier", "coeff_H"): ("fourier.grid_points",
                             lambda a, r: _spec_points(a["spec"], ("nx", "nu"))),
    ("spectral", "build_mode_operator"): ("spectral.dofs",
                                          lambda a, r: r.size),
}
# Inclusive time kept for the per-unit rates.
_TIMED = {("special", "hankel_transform"), ("special", "whittaker_w"),
          ("saff", "reduce_to_fundamental")}


class Tracer:
    """Collects spans and counters; ``install`` patches, ``remove`` undoes."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[tuple[int, str]] = []   # (span index, layer)
        self.counts: dict[str, float] = {}
        self.inclusive: dict[str, float] = {}
        self.active = False
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append((idx, layer))
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def _add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _enclosing_layer(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    # -- wrappers -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        """Wrap a program callable so that each call is one span."""
        key = (layer, name)
        full = f"{layer}.{name}"
        nid = self._name_id(full)
        calls = f"{layer}.calls"
        samples = _SV_SAMPLES.get(name) if layer == "sv" else None
        cosets = _SV_COSETS.get(name) if layer == "sv" else None
        counter, amount = _COUNTS.get(key, (None, None))
        timed = key in _TIMED
        sig = inspect.signature(fn) if (samples or cosets or amount) else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            outermost_sv = layer == "sv" and self._enclosing_layer() != "sv"
            self._add(calls, 1)
            idx = self._open(nid, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            if timed:
                self.inclusive[full] = self.inclusive.get(full, 0.0) + dur
            if counter and amount is None:
                self._add(counter, 1)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if samples and outermost_sv:
                    self._add("sv.samples", samples(a, result))
                    self.inclusive["sv.samples"] = (
                        self.inclusive.get("sv.samples", 0.0) + dur)
                if cosets and outermost_sv:
                    self._add("sv.adjoint_cosets", cosets(a, result))
                if amount:
                    self._add(counter, amount(a, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def profile(self, fn):
        """Wrap a benchmark callback (plane function, profile, integrand).

        Points are charged to ``profile.points`` and to the program layer
        that made the call, as ``sv.lattice_points`` or
        ``special.profile_points``.
        """
        nid = self._name_id(f"profile.{getattr(fn, '__name__', 'callback')}")

        def wrapper(x, *args, **kwargs):
            if not self.active:
                return fn(x, *args, **kwargs)
            caller = self._enclosing_layer()
            n = _size(x)
            self._add("profile.calls", 1)
            self._add("profile.points", n)
            if caller == "sv":
                self._add("sv.lattice_points", n)
            elif caller == "special":
                self._add("special.profile_points", n)
                self._add("special.profile_calls", 1)
            idx = self._open(nid, "profile")
            try:
                return fn(x, *args, **kwargs)
            finally:
                self._close(idx)

        wrapper.__name__ = getattr(fn, "__name__", "callback")
        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every public function of every layer module to a wrapper."""
        mods = {layer: importlib.import_module(f"strata.{layer}")
                for layer in PROGRAM_LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patch(mod, attr, val, wrappers[id(val)])
                elif isinstance(val, dict) and not attr.startswith("__"):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and id(v) in wrappers:
                            self._patch(val, k, v, wrappers[id(v)])

    def _patch(self, target, key, old, new) -> None:
        if isinstance(target, dict):
            target[key] = new
        else:
            setattr(target, key, new)
        self._patches.append((target, key, old))

    def remove(self) -> None:
        for target, key, old in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = old
            else:
                setattr(target, key, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over all spans."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        layer_of = np.array([LAYERS.index(n.split(".", 1)[0])
                             for n in self.names], dtype=np.int64)
        ids = np.asarray(self.name_id, dtype=np.int64)
        per = np.bincount(layer_of[ids], weights=dur - child,
                          minlength=len(LAYERS))
        return {layer: float(per[i]) for i, layer in enumerate(LAYERS)}

    def metrics(self, round_walls: list[float]) -> dict[str, float]:
        """Per-layer metrics per round of the workload."""
        rounds = len(round_walls)
        selfs = self.self_times()
        c = self.counts
        inc = self.inclusive
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = selfs[layer] / rounds
            out[f"{layer}.calls"] = c.get(f"{layer}.calls", 0) / rounds

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        samples = c.get("sv.samples", 0)
        out["sv.samples"] = samples / rounds
        out["sv.samples_per_s"] = ratio(samples, inc.get("sv.samples", 0.0))
        out["sv.lattice_points"] = c.get("sv.lattice_points", 0) / rounds
        out["sv.points_per_sample"] = ratio(c.get("sv.lattice_points", 0),
                                            samples)
        out["sv.adjoint_cosets"] = c.get("sv.adjoint_cosets", 0) / rounds
        freqs = c.get("special.hankel_freqs", 0)
        out["special.hankel_freqs"] = freqs / rounds
        out["special.ms_per_freq"] = ratio(
            inc.get("special.hankel_transform", 0.0), freqs, 1e3)
        out["special.profile_points"] = c.get("special.profile_points", 0) / rounds
        out["special.profile_points_per_call"] = ratio(
            c.get("special.profile_points", 0),
            c.get("special.profile_calls", 0))
        whit = c.get("special.whittaker_values", 0)
        out["special.whittaker_values"] = whit / rounds
        out["special.ms_per_whittaker"] = ratio(
            inc.get("special.whittaker_w", 0.0), whit, 1e3)
        out["saff.points_sampled"] = c.get("saff.points_sampled", 0) / rounds
        reduces = c.get("saff.reduce_calls", 0)
        out["saff.reduce_calls"] = reduces / rounds
        out["saff.us_per_reduce"] = ratio(
            inc.get("saff.reduce_to_fundamental", 0.0), reduces, 1e6)
        out["fourier.grid_points"] = c.get("fourier.grid_points", 0) / rounds
        out["spectral.dofs"] = c.get("spectral.dofs", 0) / rounds
        out["profile.points"] = c.get("profile.points", 0) / rounds
        wall = sum(round_walls) / rounds
        out["trace.wall_s"] = wall
        out["harness.self_s"] = wall - sum(selfs.values()) / rounds
        return out

    def write(self, path: Path) -> None:
        """Write the spans as compressed arrays plus a JSON name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            parent=np.asarray(self.parent, dtype=np.int64),
            names=np.array(json.dumps(self.names)))


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)
