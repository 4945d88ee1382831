"""Shared fixtures-by-hand for the test suite.

CORPUS is the fixed 10-expression set every derivative operator is validated
against; each entry mixes an interval profile in s with a torus profile in x1
so both axis schemes are exercised by the same expression.
"""
import dataclasses
import math

import numpy as np

from idrig import exprlang, geometry
from idrig.killing_dev import DecReport, causal_direction_set
from idrig.mesh import Field, Grid, Scheme, _contract, fit_order

SCHEME = Scheme("fd4", "spectral")

CORPUS = (
    "exp(s/2)*sin(2*pi*x1)",
    "tanh(s - 1/2) + cos(2*pi*x1)",
    "1/(2 + s^2) * (1 + 0.3*sin(2*pi*x1))",
    "sqrt(1 + s^2) * cos(4*pi*x1)",
    "log(2 + s) + 0.2*sin(4*pi*x1)*cos(2*pi*x1)",
    "s^3 - 2*s + 0.5 + 0.1*cos(2*pi*x1)",
    "exp(-s^2)*(1 + 0.2*cos(6*pi*x1))",
    "sin(s)*sin(2*pi*x1) + s/3",
    "(1 + 0.1*s)^4 + 0.05*sin(2*pi*x1)^2",
    "cos(s)^2 * (2 + sin(2*pi*x1))",
)

# an error sequence below this is at round-off; order fits on it are noise
FLOOR = 1e-12


def sample_expr(grid, source):
    ast = exprlang.parse(source) if isinstance(source, str) else source
    vals = exprlang.evaluate(ast, grid.coord_env())
    return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy()


def measured_order(hs, errors, floor=FLOOR):
    """fit_order with a round-off floor: returns (order_or_None, floor_hit)."""
    if all(e <= floor for e in errors):
        return None, True
    return fit_order(hs, [max(e, 1e-300) for e in errors]), False


def order_passes(hs, errors, want, floor=FLOOR):
    order, hit = measured_order(hs, errors, floor)
    return hit or order >= want


def dense_christoffels_from(ginv, dg):
    """Gamma^a_bc with the lowered components summed as one array and the 0.5 applied last.

    The reference for geometry.christoffels_from, which applies the 0.5 before
    the contraction.
    """
    low = np.einsum("bdc...->dbc...", dg) + np.einsum("cdb...->dbc...", dg) - dg
    return _contract("ad...,dbc...->abc...", ginv, low) * 0.5  # low[d, b, c] = 2 Gamma_dbc


def dense_riemann_from(gamma, dgamma):
    """R^a_bcd with every component assembled densely.

    The reference for geometry.riemann_from, which assembles only the live
    components.
    """
    r = np.einsum("cadb...->abcd...", dgamma).copy()
    r -= np.einsum("dacb...->abcd...", dgamma)
    gg = _contract("ace...,edb...->abcd...", gamma, gamma)
    r += gg
    r -= np.swapaxes(gg, 2, 3)  # Gamma^a_de Gamma^e_cb is gg with c and d swapped
    return r


def dense_frame_dec_minimum(ein_frame, grid, count=64):
    """The energy scan of killing_dev.frame_dec_minimum over every grid node.

    The reference for frame_dec_minimum, which scans only distinct nodes.
    """
    n = ein_frame.shape[0] - 1
    dirs = causal_direction_set(n, count)
    rays = np.concatenate([np.ones((dirs.shape[0], 1)), dirs], axis=1)
    best = math.inf
    best_node = None
    best_pair = None
    for p, ray in enumerate(rays):
        contracted = np.einsum("A,AB...->B...", ray, ein_frame)
        vals = np.einsum("qA,A...->q...", rays, contracted)
        q_flat = int(np.argmin(vals))
        if vals.flat[q_flat] < best:
            best = float(vals.flat[q_flat])
            unravel = np.unravel_index(q_flat, vals.shape)
            best_pair = (p, int(unravel[0]))
            best_node = tuple(int(i) for i in unravel[1:])
    coords = tuple(float(grid.axis_coords(i)[best_node[i]]) for i in range(grid.ndim))
    scale = float(np.max(np.abs(ein_frame)))
    return DecReport(best, best_node, best_pair, coords, rays.shape[0], scale)


def fd4_interval_reference(data, axis, h):
    """The fd4 derivative along an interval axis, one written-out formula per edge row."""
    d = np.moveaxis(data, axis, 0)
    out = np.empty_like(d)
    out[2:-2] = (d[:-4] - 8.0 * d[1:-3] + 8.0 * d[3:-1] - d[4:]) / (12.0 * h)
    out[0] = (-25.0 * d[0] + 48.0 * d[1] - 36.0 * d[2] + 16.0 * d[3] - 3.0 * d[4]) / (12.0 * h)
    out[1] = (-3.0 * d[0] - 10.0 * d[1] + 18.0 * d[2] - 6.0 * d[3] + d[4]) / (12.0 * h)
    out[-2] = (3.0 * d[-1] + 10.0 * d[-2] - 18.0 * d[-3] + 6.0 * d[-4] - d[-5]) / (12.0 * h)
    out[-1] = (25.0 * d[-1] - 48.0 * d[-2] + 36.0 * d[-3] - 16.0 * d[-4] + 3.0 * d[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def leaf_arrays(value, path=""):
    """Every array of a leaf result, through its fields, metrics and bundles, by attribute path."""
    if isinstance(value, Field):
        value = value.data
    if isinstance(value, np.ndarray):
        return {path: value}
    if isinstance(value, geometry.MetricField):
        return {path + ".ginv": value.ginv, **leaf_arrays(value.field, path)}
    if dataclasses.is_dataclass(value):
        return {key: array for field in dataclasses.fields(value)
                for key, array in leaf_arrays(getattr(value, field.name),
                                               f"{path}.{field.name}").items()}
    return {}


def same_bits(got, want):
    """Bit for bit equal but for the sign of a zero (adding +0.0 turns -0.0 into +0.0)."""
    return (got + 0.0).tobytes() == (want + 0.0).tobytes()


def torus(counts, lengths):
    """Periodic grid with axes x1, x2, ..."""
    names = tuple(f"x{i}" for i in range(1, len(counts) + 1))
    return Grid(names, tuple(int(c) for c in counts), tuple(float(length) for length in lengths),
                (True,) * len(counts))


def grid3(n_s=17, leaf=16, ell=1.0):
    return Grid.product(ell, n_s, (leaf, leaf), (1.0, 1.0))


def pattern_metric(grid, pattern):
    """A smooth symmetric metric array on `grid` with the given zero pattern.

    "permuted" couples only indices 0 and n-1; "gbar" is a development metric,
    an indefinite {v, s} block with gbar_vv = 0 beside a diagonal leaf part, so
    it has one more index than the grid has axes.
    """
    x = np.meshgrid(*(grid.axis_coords(i) for i in range(grid.ndim)), indexing="ij")

    def wave(k):
        return (np.sin(2 * np.pi * (k + 1) * x[k % grid.ndim] + k)
                * np.cos(2 * np.pi * x[(k + 1) % grid.ndim]))

    n = grid.ndim + (pattern == "gbar")
    g = np.zeros((n, n) + grid.shape)
    for i in range(n):
        g[i, i] = 1.0 + 0.3 * wave(i)
    pairs = {"diagonal": [], "dense": [(i, j) for i in range(n) for j in range(i + 1, n)],
             "permuted": [(0, n - 1)], "gbar": [(0, 1)]}[pattern]
    for k, (i, j) in enumerate(pairs):
        g[i, j] = g[j, i] = 0.4 * wave(k + 3)
    if pattern == "gbar":
        g[0, 0] = 0.0
        g[0, 1] = g[1, 0] = -1.0 + 0.2 * wave(5)
    return g


def pattern_grid(ndim):
    return Grid.product(1.0, 10, (8,) * (ndim - 1), (1.0,) * (ndim - 1))


def reduced_along(g, axes):
    """A copy of the metric array `g` cut to its first slice, of length 1, along each grid axis
    in `axes`: the shape idrig gives data that does not vary along those axes."""
    return np.ascontiguousarray(g[(slice(None),) * 2 + tuple(
        slice(0, 1) if axis in axes else slice(None) for axis in range(g.ndim - 2))])


def constant_along(g, axes):
    """A dense copy of the metric array `g` that is constant along each grid axis in `axes`."""
    return np.ascontiguousarray(np.broadcast_to(reduced_along(g, axes), g.shape))
