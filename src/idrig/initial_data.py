"""Initial data sets (g, k) on [0, l] x T^(n-1) and the ambient bundle R + TM.

Sign conventions, fixed once here: the second fundamental form is
k(X, Y) = g(nabla_X Y, nu) = -g(nabla_X nu, Y), which is minus the shape
operator convention; both appear in the literature.  The unit normal of the
leaves is nu = phi^{-1} d_s with lapse phi = ds(nu)^{-1}.  The ambient bundle
R + TM carries the indefinite fiber metric
    gbar(x e0 + X, x' e0 + X') = -x x' + g(X, X')
and the connection
    nablabar_Y (x e0 + X) = (d_Y x + k(Y, X)) e0 + (x k(Y, .)# + nabla_Y X),
which is metric for gbar.  Constraint quantities:
    rho = (scal + tr(k)^2 - |k|^2) / 2,     j = div k - d tr k.

A data set is not changed after construction, so each derived field is
computed once: `curvature()`, every `derived` function (constraints,
lambda, theta+, ...) and `leaf_null_geometry`, once per leaf node, store
their first result on the data set, read-only, and return that object to
later calls.  It lives as long as the data set.  Wave specs and Killing
developments store their derived values the same way, through `derived`.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from . import geometry
from .mesh import (
    DEFAULT_SCHEME,
    DataError,
    Field,
    Grid,
    MeshError,
    _contract,
    leaf_block,
    leaf_index,
    partial_stack,
    sample,
)


@dataclass(frozen=True)
class AmbientVector:
    """Section x e0 + X of the ambient bundle: scalar part and tangent part."""

    grid: Grid
    a: np.ndarray   # coefficient of e0, shape grid.shape
    x: np.ndarray   # tangent components X^b, shape (n,) + grid.shape

    def __post_init__(self):
        a = np.broadcast_to(np.asarray(self.a, dtype=float), self.grid.shape)
        x = np.asarray(self.x, dtype=float)
        if x.shape != (self.grid.ndim,) + self.grid.shape:
            raise MeshError(f"ambient tangent part has shape {x.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
            raise MeshError("ambient vector contains NaN or Inf")
        object.__setattr__(self, "a", np.array(a))
        object.__setattr__(self, "x", x)


class InitialDataSet:
    """Product initial data: g = phi^2 ds^2 + g_s with flat-torus leaves."""

    def __init__(self, grid, phi, metric, k, scheme=DEFAULT_SCHEME):
        if grid.periodic[0]:
            raise MeshError("initial data needs a product grid with an s axis")
        if phi.kind != "scalar" or k.kind != "sym2":
            raise MeshError("phi must be scalar and k sym2")
        if np.min(phi.data) <= 0.0:
            raise DataError("lapse phi must be positive")
        mixed = metric.data[0, 1:]
        if np.max(np.abs(mixed)) > 1e-12 * (1.0 + np.max(np.abs(metric.data))):
            raise DataError("metric has nonzero mixed s-leaf components")
        self.grid = grid
        self.phi = phi
        self.metric = metric
        self.k = k
        self.scheme = scheme
        self._curv = None
        self._derived = {}

    @staticmethod
    def product(grid, phi, leaf_metric, k, scheme=DEFAULT_SCHEME):
        """Assemble from a lapse, a leaf metric family and full k components.

        phi and the entries of leaf_metric ((n-1) x (n-1) nested) and k
        (n x n nested) may be expression strings or ASTs; leaf_metric may
        also be a constant matrix.
        """
        phi_f = phi if isinstance(phi, Field) else sample(grid, phi)
        n = grid.ndim
        g = np.zeros((n, n) + grid.shape)
        g[0, 0] = phi_f.data**2
        lm = _leaf_metric_components(grid, leaf_metric)
        g[1:, 1:] = lm
        metric = geometry.MetricField(Field(grid, "sym2", g))
        k_f = k if isinstance(k, Field) else sample(grid, k, kind="sym2")
        return InitialDataSet(grid, phi_f, metric, k_f, scheme)

    @staticmethod
    def from_normal_components(grid, phi, leaf_metric, k_nn, k_nf, k_ff,
                               scheme=DEFAULT_SCHEME):
        """Assemble k from k(nu,nu), the leaf covector k(nu, .) and k|_FF."""
        phi_f = phi if isinstance(phi, Field) else sample(grid, phi)
        n = grid.ndim
        values = lambda entry: (entry if isinstance(entry, np.ndarray)
                                else sample(grid, entry).data)
        knn = values(k_nn)
        kff = np.zeros((n - 1, n - 1) + grid.shape)
        knf = np.zeros((n - 1,) + grid.shape)
        for i in range(n - 1):
            knf[i] = values(k_nf[i])
            for jj in range(n - 1):
                kff[i, jj] = values(k_ff[i][jj])
        k = np.zeros((n, n) + grid.shape)
        k[0, 0] = phi_f.data**2 * knn
        k[0, 1:] = phi_f.data * knf
        k[1:, 0] = phi_f.data * knf
        k[1:, 1:] = kff
        return InitialDataSet.product(grid, phi_f, leaf_metric,
                                      Field(grid, "sym2", k), scheme)

    # -- basic geometry ------------------------------------------------------

    @property
    def nu(self):
        """Unit normal of the leaves, nu = phi^{-1} d_s."""
        n = self.grid.ndim
        out = np.zeros((n,) + self.grid.shape)
        out[0] = 1.0 / self.phi.data
        return out

    def curvature(self):
        if self._curv is None:
            self._curv = _read_only(geometry.curvature(self.metric, self.scheme))
        return self._curv


def _leaf_metric_components(grid, leaf_metric):
    m = grid.ndim - 1
    if isinstance(leaf_metric, Field):
        return leaf_metric.data
    try:
        const = np.asarray(leaf_metric, dtype=float)
    except (TypeError, ValueError):
        const = None
    out = np.zeros((m, m) + grid.shape)
    if const is not None and const.shape == (m, m):
        out[:] = const.reshape((m, m) + (1,) * grid.ndim)
        return out
    for i in range(m):
        for jj in range(m):
            entry = leaf_metric[i][jj]
            if isinstance(entry, (int, float)):
                out[i, jj] = float(entry)
            else:
                out[i, jj] = sample(grid, entry).data
    return out


def _read_only(value):
    """Mark every array inside a stored value read-only; returns the value."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _read_only(item)
    elif dataclasses.is_dataclass(value) or isinstance(value, geometry.MetricField):
        _read_only(tuple(vars(value).values()))
    return value


def derived(build):
    """Run build(owner, *inputs) once per owner and store it in owner._derived.

    Owners are data sets, wave specs and developments.  Extra inputs must be
    derived from the owner; only the first call reads them.
    """
    @functools.wraps(build)
    def cached(owner, *inputs):
        if build not in owner._derived:
            owner._derived[build] = _read_only(build(owner, *inputs))
        return owner._derived[build]
    return cached


# --- constraint quantities ---------------------------------------------------


@derived
def constraints(ids):
    """Energy and momentum densities (rho, j) of the data set."""
    curv = ids.curvature()
    g = ids.metric
    k = ids.k.data
    trk = geometry.trace_sym2(k, g)
    k_up = _contract("ac...,bd...,cd...->ab...", g.ginv, g.ginv, k)
    k2 = _contract("ab...,ab...->...", k, k_up)
    rho = 0.5 * (curv.scal + trk**2 - k2)
    div_k = geometry.div_sym2(k, g, curv.christoffels, ids.scheme)
    j = div_k - partial_stack(trk, ids.grid, ids.scheme)
    return Field(ids.grid, "scalar", rho), Field(ids.grid, "covector", j)


def dec_margin(ids, rho=None, j=None):
    """Pointwise rho - |j|_g; nonnegative iff the DEC holds."""
    if rho is None or j is None:
        rho, j = constraints(ids)
    return Field(ids.grid, "scalar", rho.data - j_norm(ids, j))


def j_norm(ids, j):
    """Pointwise |j|_g as an array; round-off below zero reads as 0."""
    return np.sqrt(np.maximum(ids.metric.norm2_covector(j.data), 0.0))


def j_normal(ids, j):
    """j(nu) as a scalar array."""
    return _contract("a...,a...->...", ids.nu, j.data)


# --- ambient connection and curvature ------------------------------------------


def ambient_pairing(ids, v, w):
    return -v.a * w.a + _contract("ab...,a...,b...->...", ids.metric.data, v.x, w.x)


def ambient_derivative(ids, v):
    """Coordinate-direction ambient derivatives D_c V.

    Returns (da, dx): da[c] is the e0 coefficient of nablabar_{d_c} V and
    dx[c, b] its tangent components.
    """
    curv = ids.curvature()
    da = partial_stack(v.a, ids.grid, ids.scheme)
    da += _contract("cb...,b...->c...", ids.k.data, v.x)
    dx = geometry.cov_vector(v.x, ids.grid, curv.christoffels, ids.scheme)
    dx += v.a * _k_mixed(ids)
    return da, dx


@derived
def _k_mixed(ids):
    """k(d_c, .)^# over the full grid, indexed [c, b]."""
    return _contract("be...,ce...->cb...", ids.metric.ginv, ids.k.data)


def ambient_residual_norm(ids, v):
    """Euclidean-style magnitude of D_c V per direction, max over the grid.

    The fiber metric is indefinite, so residuals are measured with
    sqrt(a^2 + |X|_g^2) which vanishes exactly on parallel sections.
    """
    da, dx = ambient_derivative(ids, v)
    mags = da**2 + _contract("ab...,ca...,cb...->c...", ids.metric.data, dx, dx)
    return np.sqrt(np.maximum(mags, 0.0))


@dataclass(frozen=True)
class AmbientCurvature:
    """Rbar(d_c, d_d)V as an ambient-vector-valued 2-form: parts [c,d] and [c,d,b]."""

    a: np.ndarray
    x: np.ndarray


def ambient_curvature(ids, v):
    """Curvature of the ambient connection on V via the discrete commutator."""
    curv = ids.curvature()
    k = ids.k.data
    k_mixed = _k_mixed(ids)
    da, dx = ambient_derivative(ids, v)
    # second application: the d-indexed family (da[d], dx[d]) is a set of
    # ambient fields; [d_c, d_d] = 0 so the commutator is the curvature
    dda = partial_stack(da, ids.grid, ids.scheme)
    dda += _contract("cb...,db...->cd...", k, dx)
    ddx = partial_stack(dx, ids.grid, ids.scheme)
    ddx += _contract("bce...,de...->cdb...", curv.christoffels, dx)
    ddx += _contract("d...,cb...->cdb...", da, k_mixed)
    a_part = dda - np.einsum("cd...->dc...", dda)
    x_part = ddx - np.einsum("cdb...->dcb...", ddx)
    return AmbientCurvature(a_part, x_part)


def ambient_curvature_pairing(ids, curv_v, w):
    """gbar(Rbar(d_c, d_d)V, W), indexed [c, d]."""
    out = -curv_v.a * w.a
    out += _contract("ab...,cda...,b...->cd...", ids.metric.data, curv_v.x, w.x)
    return out


# --- leaf null geometry -----------------------------------------------------------


@dataclass(frozen=True)
class LeafData:
    """One leaf: its metric and curvature, the data on it, and its null expansion."""

    tau_idx: int
    g_tau: geometry.MetricField   # its grid is the leaf grid
    curvature: geometry.CurvatureBundle   # of g_tau
    phi: np.ndarray          # lapse on the leaf
    k_ff: Field              # k restricted to the leaf
    shape_operator: Field    # A(X, Y) = g(nabla_X nu, Y)
    chi_plus: Field          # A + k restricted to the leaf
    theta_plus: Field        # tr_{g_tau} chi_plus


@derived
def _shape_form(ids):
    """A(d_c, d_b) = g(nabla_c nu, d_b) over the full grid, indexed [c, b]."""
    curv = ids.curvature()
    nnu = geometry.cov_vector(ids.nu, ids.grid, curv.christoffels, ids.scheme)
    return _contract("bd...,cd...->cb...", ids.metric.data, nnu)


def leaf_null_geometry(ids, tau):
    """The leaf at the node nearest tau, built once per node and stored on ids."""
    idx = leaf_index(ids.grid, tau)
    if (leaf_null_geometry, idx) not in ids._derived:
        leaf_grid = ids.grid.leaf()
        k_leaf = leaf_block(ids.k, idx)
        a_leaf = Field(leaf_grid, "sym2",
                       geometry.symmetrize(_shape_form(ids)[1:, 1:][:, :, idx]))
        g_tau = geometry.MetricField(leaf_block(ids.metric.field, idx))
        chi = a_leaf + k_leaf
        theta = _contract("ab...,ab...->...", g_tau.ginv, chi.data)
        ids._derived[leaf_null_geometry, idx] = _read_only(LeafData(
            idx, g_tau, geometry.curvature(g_tau, ids.scheme), ids.phi.data[idx],
            k_leaf, a_leaf, chi, Field(leaf_grid, "scalar", theta)))
    return ids._derived[leaf_null_geometry, idx]


# --- parallel transport -------------------------------------------------------------


@dataclass(frozen=True)
class TransportResult:
    a_end: float                # e0 coefficient of the transported vector
    x_end: np.ndarray           # tangent components at the final node
    norm_start: float           # gbar(V, V) at the first node
    norm_end: float
    drift: float                # |gbar(V,V) end - start|
    length: float               # coordinate length of the polyline
    steps: int


def _lagrange_weights(offsets, t):
    w = np.ones(len(offsets))
    for i, oi in enumerate(offsets):
        for oj in offsets:
            if oj != oi:
                w[i] *= (t - oj) / (oi - oj)
    return w


class _StencilInterpolator:
    """Tensor-product Lagrange interpolation of stacked component arrays."""

    degree = 6

    def __init__(self, arrays, grid):
        self.grid = grid
        self.data = np.concatenate([a.reshape((-1,) + grid.shape) for a in arrays])
        self.sizes = [int(np.prod(a.shape[: a.ndim - grid.ndim], dtype=int)) for a in arrays]

    def __call__(self, point):
        grid = self.grid
        npts = self.degree + 1
        idx_lists, weight_lists = [], []
        for axis in range(grid.ndim):
            u = point[axis] / grid.spacing[axis]
            base = int(np.floor(u)) - self.degree // 2
            if not grid.periodic[axis]:  # the stencil stays inside the interval
                base = min(max(base, 0), grid.counts[axis] - npts)
            offs = np.arange(base, base + npts)
            weight_lists.append(_lagrange_weights(offs, u))
            idx_lists.append(offs % grid.counts[axis])
        block = self.data
        for axis in range(grid.ndim):
            block = np.take(block, idx_lists[axis], axis=1 + axis)
        w = weight_lists[0]
        for wl in weight_lists[1:]:
            w = np.multiply.outer(w, wl)
        flat = np.tensordot(block, w, axes=(tuple(range(1, grid.ndim + 1)),
                                            tuple(range(grid.ndim))))
        return np.split(flat, np.cumsum(self.sizes)[:-1])


def parallel_transport(ids, v0_a, v0_x, path):
    """Transport (v0_a, v0_x) along a polyline of grid node indices.

    path is a sequence of node index tuples; consecutive nodes are joined by
    straight coordinate segments.  Integration is RK4 with step halving until
    the endpoint state changes by less than 1e-10, in at most 65536 steps a
    segment; connection coefficients are interpolated with tensor-product
    Lagrange polynomials of degree 6.
    """
    grid = ids.grid
    n = grid.ndim
    if len(path) == 0:
        raise MeshError("transport path is empty")
    for idx in path:
        if len(idx) != n or not all(0 <= idx[i] < grid.counts[i] for i in range(n)):
            raise MeshError(f"path node {tuple(idx)} outside the grid")
    curv = ids.curvature()
    interp = _StencilInterpolator(
        [curv.christoffels.reshape((n**3,) + grid.shape),
         ids.k.data.reshape((n**2,) + grid.shape),
         _k_mixed(ids).reshape((n**2,) + grid.shape)], grid)

    def rhs(point, state, direction):
        gam_f, k_f, km_f = interp(point)
        gam = gam_f.reshape(n, n, n)
        kk = k_f.reshape(n, n)
        km = km_f.reshape(n, n)
        a, x = state[0], state[1:]
        ky_x = direction @ kk @ x
        da = -ky_x
        dx = -(a * (direction @ km) + np.einsum("bce,c,e->b", gam, direction, x))
        return np.concatenate(([da], dx))

    def run_segment(p0, p1, state, nsteps):
        direction = p1 - p0
        dt = 1.0 / nsteps
        y = state.copy()
        for istep in range(nsteps):
            t = istep * dt
            pt = lambda tt: p0 + (t + tt) * direction
            k1 = rhs(pt(0.0), y, direction)
            k2 = rhs(pt(0.5 * dt), y + 0.5 * dt * k1, direction)
            k3 = rhs(pt(0.5 * dt), y + 0.5 * dt * k2, direction)
            k4 = rhs(pt(dt), y + dt * k3, direction)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    nodes = [np.array([grid.spacing[i] * idx[i] for i in range(n)]) for idx in path]
    state = np.concatenate(([float(v0_a)], np.asarray(v0_x, dtype=float)))
    total_len = 0.0
    total_steps = 0
    for p0, p1 in zip(nodes[:-1], nodes[1:]):
        seg_len = float(np.linalg.norm(p1 - p0))
        if seg_len == 0.0:
            continue
        total_len += seg_len
        nsteps = 8
        coarse = run_segment(p0, p1, state, nsteps)
        while True:
            fine = run_segment(p0, p1, state, 2 * nsteps)
            if np.max(np.abs(fine - coarse)) < 1e-10:
                state = fine
                total_steps += 2 * nsteps
                break
            if 2 * nsteps > 65536:
                raise MeshError("parallel transport step size underflow")
            coarse = fine
            nsteps *= 2

    def norm_at(idx, a, x):
        g_node = ids.metric.data[(slice(None), slice(None)) + tuple(idx)]
        return float(-a * a + x @ g_node @ x)

    norm0 = norm_at(path[0], float(v0_a), np.asarray(v0_x, dtype=float))
    norm1 = norm_at(path[-1], state[0], state[1:])
    return TransportResult(
        float(state[0]), state[1:].copy(), norm0, norm1,
        abs(norm1 - norm0), total_len, total_steps)
