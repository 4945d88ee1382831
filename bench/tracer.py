"""Span tracer for the traced run, installed from outside the package.

``Tracer.install`` wraps every public function of the idrig modules (the
layers) and rebinds each one wherever idrig holds it: names bound by
``from .x import y`` and module attributes in every ``idrig`` namespace, the
command table ``cli.COMMANDS``, and the method ``InitialDataSet.curvature``.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is ``[name, layer, start, end, parent, report, tag]``; ``parent`` is
the index of the innermost enclosing span or -1, and ``tag`` holds a few
values computed from the call's inputs (array elements differentiated,
multiply-adds of a contraction, a cache hit).  A call that re-enters a
function already on the stack (``evaluate``, ``unparse`` recurse) opens no
span, so ``.calls`` counts outermost calls.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "scene", "exprlang", "mesh", "geometry", "initial_data",
          "rigidity", "killing_dev")

# per-layer metrics of one pass: name -> unit
PASS_METRICS = {
    "cli.self_s": "s",
    "scene.self_s": "s",
    "scene.build_s": "s",
    "exprlang.self_s": "s",
    "exprlang.evaluate.calls": "count",
    "mesh.self_s": "s",
    "mesh.partial.calls": "count",
    "mesh.partial.self_s": "s",
    "mesh.partial.spectral_self_s": "s",
    "mesh.partial.points": "count",
    "mesh.partial_stack.self_s": "s",
    "geometry.self_s": "s",
    "geometry.riemann_from.self_s": "s",
    "geometry.christoffels_from.self_s": "s",
    "geometry.curvature.calls": "count",
    "geometry.contract_gflops": "GFLOP/s",
    "initial_data.self_s": "s",
    "initial_data.constraints.calls": "count",
    "initial_data.ambient_derivative.calls": "count",
    "initial_data.curvature_hit_ratio": "ratio",
    "rigidity.self_s": "s",
    "rigidity.rigid_report_s": "s",
    "rigidity.lambda_form.calls": "count",
    "rigidity.theta_plus_field.calls": "count",
    "killing_dev.self_s": "s",
    "killing_dev.spacetime_curvature.calls": "count",
    "killing_dev.spacetime_curvature_s": "s",
    "killing_dev.kd_roundtrip_s": "s",
    "killing_dev.frame_dec_minimum.self_s": "s",
    "trace.spans": "count",
}


def _partial_tag(data, grid, axis, scheme=None):
    mesh = sys.modules["idrig.mesh"]
    scheme = mesh.DEFAULT_SCHEME if scheme is None else scheme
    return {"points": int(np.size(data)), "spectral": scheme.for_axis(grid, axis) == "spectral"}


def _riemann_tag(gamma, dgamma):
    # two Gamma*Gamma contractions, n multiply-adds per output element each
    n = gamma.shape[0]
    return {"madds": 2 * n**5 * (gamma.size // n**3)}


def _christoffels_tag(ginv, dg):
    # three ginv*dg contractions, n multiply-adds per output element each
    n = ginv.shape[0]
    return {"madds": 3 * n**4 * (ginv.size // n**2)}


def _curvature_hit_tag(ids):
    return {"hit": ids._curv is not None}


TAGS = {
    "mesh.partial": _partial_tag,
    "geometry.riemann_from": _riemann_tag,
    "geometry.christoffels_from": _christoffels_tag,
    "initial_data.InitialDataSet.curvature": _curvature_hit_tag,
}


class Tracer:
    """Records spans around idrig's public functions while installed."""

    def __init__(self):
        self.spans = []
        self.report = None      # id stamped on every span opened from now on
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, layer):
        tag = TAGS.get(name)
        active = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.report, tag(*args, **kwargs) if tag else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            active += 1
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                active -= 1
                self._stack.pop()

        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"idrig.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}", layer)
        for modname, module in list(sys.modules.items()):
            if modname != "idrig" and not modname.startswith("idrig."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(vars(module), name, wrapped[obj])
        commands = modules["cli"].COMMANDS
        for key, fn in list(commands.items()):
            self._rebind(commands, key, wrapped[fn])
        ids_cls = modules["initial_data"].InitialDataSet
        original = ids_cls.curvature
        ids_cls.curvature = self._wrap(original, "initial_data.InitialDataSet.curvature",
                                       "initial_data")
        self._undo.append(lambda: setattr(ids_cls, "curvature", original))
        return self

    def _rebind(self, namespace, key, value):
        original = namespace[key]
        namespace[key] = value
        self._undo.append(lambda: namespace.__setitem__(key, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def self_times(spans):
    """Each span's duration minus the time its direct child spans cover."""
    own = [end - start for _, _, start, end, *_ in spans]
    for span, duration in zip(spans, list(own)):
        if span[4] >= 0:
            own[span[4]] -= duration
    return own


def pass_metrics(spans, own, indices):
    """The per-layer metrics of one pass, over the spans at `indices`."""
    layer_self = defaultdict(float)
    name_self = defaultdict(float)
    name_total = defaultdict(float)
    calls = Counter()
    points = madds = hits = 0
    spectral_self = scene_total = 0.0
    for i in indices:
        name, layer, start, end, parent, _, tag = spans[i]
        layer_self[layer] += own[i]
        name_self[name] += own[i]
        name_total[name] += end - start
        calls[name] += 1
        if name == "mesh.partial":
            points += tag["points"]
            spectral_self += own[i] if tag["spectral"] else 0.0
        elif name in ("geometry.riemann_from", "geometry.christoffels_from"):
            madds += tag["madds"]
        elif name == "initial_data.InitialDataSet.curvature":
            hits += tag["hit"]
        if layer == "scene" and (parent < 0 or spans[parent][1] != "scene"):
            scene_total += end - start
    contract_s = name_self["geometry.riemann_from"] + name_self["geometry.christoffels_from"]
    curvature_calls = calls["initial_data.InitialDataSet.curvature"]
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out.update({
        "scene.build_s": scene_total,
        "exprlang.evaluate.calls": calls["exprlang.evaluate"],
        "mesh.partial.calls": calls["mesh.partial"],
        "mesh.partial.self_s": name_self["mesh.partial"],
        "mesh.partial.spectral_self_s": spectral_self,
        "mesh.partial.points": points,
        "mesh.partial_stack.self_s": name_self["mesh.partial_stack"],
        "geometry.riemann_from.self_s": name_self["geometry.riemann_from"],
        "geometry.christoffels_from.self_s": name_self["geometry.christoffels_from"],
        "geometry.curvature.calls": calls["geometry.curvature"],
        "geometry.contract_gflops": 2.0 * madds / contract_s / 1e9 if contract_s else 0.0,
        "initial_data.constraints.calls": calls["initial_data.constraints"],
        "initial_data.ambient_derivative.calls": calls["initial_data.ambient_derivative"],
        "initial_data.curvature_hit_ratio": hits / curvature_calls if curvature_calls else 0.0,
        "rigidity.rigid_report_s": name_total["rigidity.rigid_report"],
        "rigidity.lambda_form.calls": calls["rigidity.lambda_form"],
        "rigidity.theta_plus_field.calls": calls["rigidity.theta_plus_field"],
        "killing_dev.spacetime_curvature.calls": calls["killing_dev.spacetime_curvature"],
        "killing_dev.spacetime_curvature_s": name_total["killing_dev.spacetime_curvature"],
        "killing_dev.kd_roundtrip_s": name_total["killing_dev.kd_roundtrip"],
        "killing_dev.frame_dec_minimum.self_s": name_self["killing_dev.frame_dec_minimum"],
        "trace.spans": len(indices),
    })
    return out
