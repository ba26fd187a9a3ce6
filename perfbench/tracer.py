"""Layer spans and counters for the traced benchmark run.

``Tracer.install`` wraps the public functions of each ``fracsurf`` module in
every namespace that looks them up (the package, and each module that
imported the name), plus the per-call methods of the kernel, profile and body
classes.  The program's files are not touched; ``uninstall`` puts every
original back.  A span records name, start, end and parent; spans live in
flat arrays and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("kernelfn", "profiles", "geometry", "curvature", "oracle",
          "barrier", "sliding", "blowdown", "cli", "config")

# per-call methods, wrapped on the class that defines them
_KERNEL_METHODS = ("value", "__call__", "gap", "deriv")
_SCALAR_PROFILE_METHODS = ("value", "first_derivative", "second_derivative",
                           "chord", "bend")

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_layer = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self._stack = []
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(LAYERS.index(name.split(".", 1)[0]))
        return self._name_ids[name]

    def layer_of(self, span: int):
        if span < 0:
            return None
        return LAYERS[self._name_layer[self.span_name[span]]]

    def wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        stack, names, parents = self._stack, self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(idx)
            starts.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = _perf()
                stack.pop()
            if hook is not None:
                hook(parent, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        import fracsurf

        mods = {layer: importlib.import_module(f"fracsurf.{layer}") for layer in LAYERS}
        hooks = {
            "profiles.profile_values": self._entry_counter("profiles", "profiles.array_calls"),
            "geometry.boundary_sample": self._boundary_hook,
            "curvature.graph_curvature": self._curvature_hook,
        }
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                hook = hooks.get(name)
                if hook is None and layer == "oracle":
                    hook = self._count("oracle.calls")
                wrapped[obj] = self.wrap(name, obj, hook)
        for ns in (fracsurf, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(ns, attr, wrapped[obj])

        kernel = mods["kernelfn"].SliceIntegral
        for meth in _KERNEL_METHODS:
            self._set(kernel, meth, self.wrap(f"kernelfn.SliceIntegral.{meth}",
                                              kernel.__dict__[meth], self._kernel_hook))
        radial = mods["profiles"].RadialProfile
        scalar_hook = self._entry_counter("profiles", "profiles.scalar_calls")
        for meth in _SCALAR_PROFILE_METHODS:
            self._set(radial, meth, self.wrap(f"profiles.RadialProfile.{meth}",
                                              radial.__dict__[meth], scalar_hook))
        body = mods["geometry"].Body
        for cls in vars(mods["geometry"]).values():
            if (inspect.isclass(cls) and issubclass(cls, body) and cls is not body
                    and "contains" in cls.__dict__):
                self._set(cls, "contains", self.wrap(f"geometry.{cls.__name__}.contains",
                                                     cls.__dict__["contains"],
                                                     self._contains_hook))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------------

    def _count(self, key):
        def hook(parent, args, kwargs, result):
            self.counters[key] += 1
        return hook

    def _entry_counter(self, layer, key):
        # only entries into the layer count, not its calls to itself
        def hook(parent, args, kwargs, result):
            if self.layer_of(parent) != layer:
                self.counters[key] += 1
        return hook

    def _kernel_hook(self, parent, args, kwargs, result):
        self.counters["kernelfn.calls"] += 1
        self.counters["kernelfn.elems"] += int(np.size(args[1] if len(args) > 1 else kwargs["t"]))

    def _contains_hook(self, parent, args, kwargs, result):
        if self.layer_of(parent) != "geometry":
            self.counters["geometry.points_classified"] += int(np.size(result))

    def _boundary_hook(self, parent, args, kwargs, result):
        self.counters["geometry.points_classified"] += len(result)

    def _curvature_hook(self, parent, args, kwargs, result):
        self.counters["curvature.points"] += 1
        config = kwargs.get("config", args[4] if len(args) > 4 else None)
        truncation = config.truncation_radius if config is not None else 1e3
        if result.outer_radius > 0.0:
            self.counters["curvature.tail_bands"] += math.log10(result.outer_radius / truncation)
        if "tail-above-target" in result.warnings:
            self.counters["curvature.tail_warnings"] += 1
        # attribute the point to the nearest caller outside the curvature layer
        while self.layer_of(parent) == "curvature":
            parent = self.span_parent[parent]
        if self.layer_of(parent) == "barrier":
            self.counters["barrier.points_evaluated"] += 1

    # -- summaries -----------------------------------------------------------

    def self_seconds(self) -> dict:
        """Per layer: span time minus the time its child spans cover."""
        count = len(self.span_start)
        out = {layer: 0.0 for layer in LAYERS}
        if not count:
            return out
        start, end, parent, name = self._arrays()
        dur = end - start
        child = np.zeros(count)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        layer = np.asarray(self._name_layer, dtype=np.int64)[name]
        totals = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        return {name: float(totals[i]) for i, name in enumerate(LAYERS)}

    def span_count(self) -> int:
        return len(self.span_start)

    def _arrays(self):
        # copies, so the span arrays stay free to grow
        return (np.array(self.span_start, dtype=float), np.array(self.span_end, dtype=float),
                np.array(self.span_parent, dtype=np.int32), np.array(self.span_name, dtype=np.int32))

    def write(self, path):
        start, end, parent, name = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
