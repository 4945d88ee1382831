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
later calls.  It lives as long as the data set.  Leaf values are stored per
s node their inputs are read at (`leaf_shared`: the leaf metric and its
curvature, the leaf-intrinsic terms of two-for-three and the MOTS
variation), so leaves that read the same slices share one result; values
that read s-varying fields (chi+, theta+, the rates, j + lambda) stay per
leaf.  Wave specs and Killing developments store their derived values the
same way, through `derived`.
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
    components,
    fits,
    leaf_block,
    leaf_index,
    leaf_node,
    leaf_values,
    partial_stack,
    sample,
    updated,
)


@dataclass(frozen=True)
class AmbientVector:
    """Section x e0 + X of the ambient bundle: scalar part and tangent part."""

    grid: Grid
    a: np.ndarray   # coefficient of e0, broadcasting to grid.shape
    x: np.ndarray   # tangent components X^b, broadcasting to (n,) + grid.shape

    def __post_init__(self):
        a = np.array(self.a, dtype=float, ndmin=self.grid.ndim)
        x = np.asarray(self.x, dtype=float)
        for part, want in ((a, self.grid.shape), (x, (self.grid.ndim,) + self.grid.shape)):
            if not fits(part.shape, want):
                raise MeshError(f"ambient vector part has shape {part.shape}, expected {want}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
            raise MeshError("ambient vector contains NaN or Inf")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", x)


def _lapse(grid, phi):
    """The lapse as a field; one whose square g_ss = phi^2 overflows is bad input."""
    phi_f = phi if isinstance(phi, Field) else sample(grid, phi)
    big = max(np.max(phi_f.data), -np.min(phi_f.data))
    with np.errstate(over="ignore"):
        if np.isinf(big * big):
            raise DataError(f"lapse phi squared overflows (max |phi| {big:.3g})")
    return phi_f


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
        phi_f = _lapse(grid, phi)
        n = grid.ndim
        g_ss = phi_f.data**2
        lm = _leaf_metric_components(grid, leaf_metric)
        g = np.zeros((n, n) + np.broadcast_shapes(g_ss.shape, lm.shape[2:]))
        g[0, 0] = g_ss
        g[1:, 1:] = lm
        metric = geometry.MetricField(Field(grid, "sym2", g))
        k_f = k if isinstance(k, Field) else sample(grid, k, kind="sym2")
        return InitialDataSet(grid, phi_f, metric, k_f, scheme)

    # -- basic geometry ------------------------------------------------------

    @property
    def nu(self):
        """Unit normal of the leaves, nu = phi^{-1} d_s."""
        n = self.grid.ndim
        out = np.zeros((n,) + self.phi.data.shape)
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
    if const is not None and const.shape == (m, m):
        return const.reshape((m, m) + (1,) * grid.ndim).copy()
    entries = [float(entry) if isinstance(entry, (int, float)) else sample(grid, entry).data
               for row in leaf_metric[:m] for entry in row[:m]]
    return components(entries, (m, m))


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


def _stored(owner, key, build):
    """build(), run once per `key` and stored read-only in owner._derived."""
    if key not in owner._derived:
        owner._derived[key] = _read_only(build())
    return owner._derived[key]


def derived(build):
    """Run build(owner, *inputs) once per owner and store it in owner._derived.

    Owners are data sets, wave specs and developments.  Extra inputs must be
    derived from the owner; only the first call reads them.
    """
    @functools.wraps(build)
    def cached(owner, *inputs):
        return _stored(owner, build, lambda: build(owner, *inputs))
    return cached


def leaf_shared(*inputs):
    """Run build(ids, tau_idx) once per s node that `leaf_values` reads each input at.

    Each input maps the data set to an array over M that build reads at the
    leaf, directly or through another leaf_shared value; leaving one out
    would share a result that is wrong at some leaf.
    """
    def wrap(build):
        @functools.wraps(build)
        def shared(ids, tau_idx):
            key = (build,) + tuple(leaf_node(read(ids), ids.grid, tau_idx) for read in inputs)
            return _stored(ids, key, lambda: build(ids, tau_idx))
        return shared
    return wrap


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


@derived
def j_normal(ids, j):
    """j(nu) as a scalar array, for the data set's momentum density j."""
    return _contract("a...,a...->...", ids.nu, j.data)


# --- ambient connection and curvature ------------------------------------------


def ambient_derivative(ids, v):
    """Coordinate-direction ambient derivatives D_c V.

    Returns (da, dx): da[c] is the e0 coefficient of nablabar_{d_c} V and
    dx[c, b] its tangent components.
    """
    curv = ids.curvature()
    da = partial_stack(v.a, ids.grid, ids.scheme)
    da = updated(np.add, da, _contract("cb...,b...->c...", ids.k.data, v.x))
    dx = geometry.cov_vector(v.x, ids.grid, curv.christoffels, ids.scheme)
    return da, updated(np.add, dx, v.a * _k_mixed(ids))


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
    dda = updated(np.add, dda, _contract("cb...,db...->cd...", k, dx))
    ddx = partial_stack(dx, ids.grid, ids.scheme)
    ddx = updated(np.add, ddx, _contract("bce...,de...->cdb...", curv.christoffels, dx))
    ddx = updated(np.add, ddx, _contract("d...,cb...->cdb...", da, k_mixed))
    a_part = dda - np.einsum("cd...->dc...", dda)
    x_part = ddx - np.einsum("cdb...->dcb...", ddx)
    return AmbientCurvature(a_part, x_part)


def ambient_curvature_pairing(ids, curv_v, w):
    """gbar(Rbar(d_c, d_d)V, W), indexed [c, d]."""
    out = -curv_v.a * w.a
    return updated(np.add, out, _contract("ab...,cda...,b...->cd...", ids.metric.data,
                                          curv_v.x, w.x))


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


@leaf_shared(lambda ids: ids.metric.data)
def leaf_curvature(ids, tau_idx):
    """The leaf metric at s node tau_idx and its curvature."""
    g_tau = geometry.MetricField(leaf_block(ids.metric.field, tau_idx))
    return g_tau, geometry.curvature(g_tau, ids.scheme)


def leaf_null_geometry(ids, tau):
    """The leaf at the node nearest tau, built once per node and stored on ids."""
    idx = leaf_index(ids.grid, tau)

    def build():
        leaf_grid = ids.grid.leaf()
        k_leaf = leaf_block(ids.k, idx)
        a_leaf = Field(leaf_grid, "sym2", geometry.symmetrize(
            leaf_values(_shape_form(ids)[1:, 1:], ids.grid, idx)))
        g_tau, curv = leaf_curvature(ids, idx)
        chi = a_leaf + k_leaf
        theta = _contract("ab...,ab...->...", g_tau.ginv, chi.data)
        return LeafData(idx, g_tau, curv, leaf_values(ids.phi.data, ids.grid, idx),
                        k_leaf, a_leaf, chi, Field(leaf_grid, "scalar", theta))
    return _stored(ids, (leaf_null_geometry, idx), build)

