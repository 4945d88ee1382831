"""Scene files: INI-style description of one grid plus one data source.

A scene selects everything a batch run needs::

    [grid]
    ell = 1.0
    n_s = 21
    leaf_counts = 24, 24
    leaf_lengths = 1.0, 1.0

    [data]
    phi = 1 + 0.1*sin(2*pi*x1)
    # leaf_metric = 1, 0; 0, 1        (optional; rows split on ';')
    # k = recipe | explicit           (explicit reads k_0_0, k_0_1, ...)

    [tolerances]
    default = 1e-8
    # any residual key may be overridden by name

    [scheme]
    s = fd4
    leaf = spectral

The alternative data source is a wave profile::

    [data]
    ppwave_f = 1 + 0.2*sin(2*pi*x1)
    hypersurface = 0                  # graph v = w(s); enables induction

Exactly one of `phi` and `ppwave_f` must be present.  Every expression is
parsed at load time, and a wave profile linted for periodicity, so malformed
scenes fail before any computation.  The scene keeps the ASTs, and every
command and s level reuses them: no report parses a scene's text twice.  The
text of a leaf-metric entry is kept too, for the messages of
`undefined_expression`.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import exprlang, killing_dev
from .initial_data import InitialDataSet
from .mesh import DataError, Field, Grid, MeshError, Scheme, sample
from .rigidity import rigid_recipe


class SceneError(Exception):
    """Scene file missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Scene:
    path: str
    digest: str
    ell: float
    n_s: int
    leaf_counts: tuple
    leaf_lengths: tuple
    scheme: Scheme
    source: str                 # "recipe" | "explicit" | "ppwave"
    phi: object = None          # lapse AST
    leaf_metric: tuple = None   # rows of entry ASTs, or None for identity
    leaf_metric_text: tuple = None  # its rows as the scene writes them, for messages
    k_entries: tuple = None     # n x n ASTs when source == "explicit"
    k_keys: tuple = ()          # (key, AST) pairs as the scene gives them
    f: object = None            # wave profile AST
    hypersurface: object = None  # graph AST, or None when absent
    tolerances: tuple = ()      # sorted (key, value) pairs

    @property
    def n(self):
        return 1 + len(self.leaf_counts)

    def grid(self, n_s=None):
        return Grid.product(self.ell, self.n_s if n_s is None else n_s,
                            self.leaf_counts, self.leaf_lengths)

    def override_tolerance(self, value):
        tols = dict(self.tolerances)
        tols["default"] = float(value)
        return replace(self, tolerances=tuple(sorted(tols.items())))

    def override_scheme(self, s=None, leaf=None):
        return replace(self, scheme=Scheme(s or self.scheme.s,
                                           leaf or self.scheme.leaf))


def is_tolerance(value):
    """A tolerance is a finite number >= 0."""
    return bool(np.isfinite(value) and value >= 0.0)


def _parse_expr(text, where):
    try:
        return exprlang.parse(text)
    except exprlang.ExprError as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _split_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def parse_scene(path):
    """Read and validate a scene file; raises SceneError on any defect."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SceneError(f"scene {path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from exc
    try:
        parser.read_string(raw, source=path)
    except configparser.Error as exc:
        raise SceneError(f"scene syntax: {exc}") from exc
    digest = hashlib.sha256(raw.encode()).hexdigest()

    if not parser.has_section("grid"):
        raise SceneError("scene needs a [grid] section")
    grid_sec = parser["grid"]
    try:
        ell = float(grid_sec.get("ell", "1.0"))
        n_s = int(grid_sec.get("n_s"))
        leaf_counts = tuple(int(v) for v in _split_list(grid_sec.get("leaf_counts", "")))
        leaf_lengths = tuple(float(v) for v in _split_list(grid_sec.get("leaf_lengths", "")))
        n = 1 + len(leaf_counts)
        declared_n = int(grid_sec.get("n", n))
    except (TypeError, ValueError) as exc:
        raise SceneError(f"[grid] values: {exc}") from exc
    if len(leaf_counts) != len(leaf_lengths):
        raise SceneError("[grid] leaf_counts and leaf_lengths differ in length")
    if declared_n != n:
        raise SceneError(f"[grid] declares n = {declared_n} but leaves imply {n}")

    scheme_sec = parser["scheme"] if parser.has_section("scheme") else {}
    try:
        scheme = Scheme(scheme_sec.get("s", "fd4"), scheme_sec.get("leaf", "spectral"))
    except MeshError as exc:
        raise SceneError(f"[scheme]: {exc}") from exc

    tols = {}
    if parser.has_section("tolerances"):
        for key, value in parser["tolerances"].items():
            try:
                tols[key] = float(value)
            except ValueError as exc:
                raise SceneError(f"[tolerances] {key}: {exc}") from exc
            if not is_tolerance(tols[key]):
                raise SceneError(f"[tolerances] {key} must be finite and >= 0, got {value}")

    if not parser.has_section("data"):
        raise SceneError("scene needs a [data] section")
    data = parser["data"]
    has_phi = data.get("phi") is not None
    has_wave = data.get("ppwave_f") is not None
    if has_phi == has_wave:
        raise SceneError("[data] must define exactly one of phi and ppwave_f")

    common = dict(path=str(path), digest=digest, ell=ell, n_s=n_s,
                  leaf_counts=leaf_counts, leaf_lengths=leaf_lengths,
                  scheme=scheme, tolerances=tuple(sorted(tols.items())))

    if has_wave:
        f = _parse_expr(data["ppwave_f"], "[data] ppwave_f")
        hyper = data.get("hypersurface")
        if hyper is not None:
            hyper = _parse_expr(hyper, "[data] hypersurface")
        scene = Scene(source="ppwave", f=f, hypersurface=hyper, **common)
        killing_dev.ppwave(scene.grid(), f, scheme)  # lints the profile, once per scene
        return scene

    phi = _parse_expr(data["phi"], "[data] phi")
    leaf_metric = text = None
    if data.get("leaf_metric") is not None:
        rows = [r for r in data["leaf_metric"].split(";") if r.strip()]
        text = tuple(tuple(_split_list(row)) for row in rows)
        leaf_metric = tuple(tuple(_parse_expr(e, "[data] leaf_metric") for e in row)
                            for row in text)
        if len(leaf_metric) != n - 1 or any(len(r) != n - 1 for r in leaf_metric):
            raise SceneError(f"[data] leaf_metric must be {n-1} x {n-1}")
    common.update(phi=phi, leaf_metric=leaf_metric, leaf_metric_text=text)
    kind = data.get("k", "recipe").strip()
    if kind == "recipe":
        return Scene(source="recipe", **common)
    if kind != "explicit":
        raise SceneError(f"[data] k must be 'recipe' or 'explicit', got {kind!r}")
    entries = [[exprlang.Num(0.0)] * n for _ in range(n)]
    seen = set()
    for key in data:
        if not key.startswith("k_") or key == "k":
            continue
        parts = key.split("_")
        try:
            a, b = int(parts[1]), int(parts[2])
        except (IndexError, ValueError) as exc:
            raise SceneError(f"[data] bad k entry key {key!r}") from exc
        if not (0 <= a < n and 0 <= b < n):
            raise SceneError(f"[data] k entry {key} outside 0..{n-1}")
        entries[a][b] = _parse_expr(data[key], f"[data] {key}")
        seen.add((a, b))
    for a in range(n):
        for b in range(n):
            if (a, b) not in seen and (b, a) in seen:
                entries[a][b] = entries[b][a]
    return Scene(source="explicit", k_entries=tuple(tuple(r) for r in entries),
                 k_keys=tuple((f"k_{a}_{b}", entries[a][b]) for a, b in sorted(seen)),
                 **common)


def scene_initial_data(scene, n_s=None):
    """Build the scene's data set, optionally on a refined s axis."""
    grid = scene.grid(n_s)
    if scene.source == "recipe":
        return rigid_recipe(grid, scene.phi, scene.leaf_metric, scene.scheme)
    if scene.source == "explicit":
        lm = scene.leaf_metric if scene.leaf_metric is not None else np.eye(scene.n - 1)
        k = sample(grid, [list(row) for row in scene.k_entries], kind="gen2").data
        asym = np.max(np.abs(k - np.swapaxes(k, 0, 1)), axis=tuple(range(2, k.ndim)))
        if np.max(asym) > 1e-12 * (1.0 + np.max(np.abs(k))):
            a, b = np.unravel_index(np.argmax(asym), asym.shape)
            raise DataError(f"k is not symmetric: k_{a}_{b} and k_{b}_{a} differ")
        return InitialDataSet.product(grid, scene.phi, lm, Field(grid, "sym2", k), scene.scheme)
    graph = exprlang.Num(0.0) if scene.hypersurface is None else scene.hypersurface
    return killing_dev.induce_from_ppwave(scene_ppwave(scene, n_s), graph)


def scene_ppwave(scene, n_s=None):
    """The scene's wave on its grid at `n_s` s nodes; `parse_scene` linted its profile."""
    if scene.source != "ppwave":
        raise SceneError("scene has no wave profile")
    return killing_dev.PpWaveSpec(scene.grid(n_s), scene.f, scene.scheme)


def _evaluated_expressions(scene):
    """(key, text, AST, derivative axes) for each expression a command evaluates.

    Besides the expressions themselves, the recipe's k takes the first
    derivatives of phi, the wave check the second leaf derivatives of the
    profile and the induction the s derivative of the graph.  The text is
    given for a leaf-metric entry, whose message quotes it, and None for the others.
    """
    axes = ("s",) + tuple(f"x{i}" for i in range(1, scene.n))
    if scene.source == "ppwave":
        out = [("ppwave_f", None, scene.f, ())]
        out += [("ppwave_f", None, scene.f, (x, x)) for x in axes[1:]]
        if scene.hypersurface is not None:
            out.append(("hypersurface", None, scene.hypersurface, ("s",)))
        return out
    out = [("phi", None, scene.phi, ())]
    out += [("leaf_metric", text, entry, ())
            for texts, row in zip(scene.leaf_metric_text or (), scene.leaf_metric or ())
            for text, entry in zip(texts, row)]
    if scene.source == "recipe":
        out += [("phi", None, scene.phi, (x,)) for x in axes]
    return out + [(key, None, expr, ()) for key, expr in scene.k_keys]


def undefined_expression(scene, n_s_values):
    """Name the scene expression, or derivative of one, undefined at a grid node.

    Each expression a command evaluates is evaluated again on the grid of
    every s resolution given; the first that fails is described, with an
    offset only when it counts into the key's own text.
    Returns None when all of them are defined everywhere.
    """
    for n_s in n_s_values:
        env = scene.grid(n_s).coord_env()
        for key, text, expr, axes in _evaluated_expressions(scene):
            for axis in axes:
                expr = exprlang.diff(expr, axis)
            try:
                exprlang.evaluate(expr, env)
            except exprlang.ExprError as exc:
                if axes:
                    what = "its derivative " + " ".join(f"d/d{axis}" for axis in axes)
                elif key == "leaf_metric":  # offsets count from the entry, not the key
                    what = f"entry {text!r}"
                else:
                    return f"[data] {key}: {exc}"
                return f"[data] {key}: {what} is undefined at a node ({exc.reason})"
    return None
