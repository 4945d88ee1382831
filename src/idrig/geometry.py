"""Tensor calculus over a grid metric: curvature, Lie derivatives, d and delta.

Index conventions: Riemann R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
+ Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb, Ricci R_bd = R^a_bad,
covariant derivatives carry the direction index first.  The codifferential
is the L2 adjoint of d (p-form inner products weighted by 1/p!), so the
Hodge Laplacian d delta + delta d is positive on functions.

The *_from helpers are plain array algebra over precomputed partials; the
Lorentzian development module reuses them with its own derivative rule.
ricci_from takes the Christoffels, their divergence d_a Gamma^a_bd and the
partials of their trace Gamma^a_ab, so Ricci needs no Riemann tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import DEFAULT_SCHEME, DataError, Field, MeshError, _contract, partial_stack

# --- pure array core ---------------------------------------------------------


def inverse(gdata):
    """Pointwise inverse of a metric component array."""
    inv = np.linalg.inv(np.moveaxis(gdata, (0, 1), (-2, -1)))
    return np.ascontiguousarray(np.moveaxis(inv, (-2, -1), (0, 1)))


def symmetrize(t):
    """Symmetric part of a rank-2 component array over its first two axes."""
    return 0.5 * (t + np.swapaxes(t, 0, 1))


def christoffels_from(ginv, dg):
    """Gamma^a_bc from the inverse metric and dg[c, a, b] = d_c g_ab."""
    low = np.einsum("bdc...->dbc...", dg) + np.einsum("cdb...->dbc...", dg) - dg
    gam = _contract("ad...,dbc...->abc...", ginv, low)  # low[d, b, c] = 2 Gamma_dbc
    gam *= 0.5
    return gam


def riemann_from(gamma, dgamma):
    """R^a_bcd from Christoffels and dgamma[e, a, b, c] = d_e Gamma^a_bc."""
    r = np.einsum("cadb...->abcd...", dgamma).copy()
    r -= np.einsum("dacb...->abcd...", dgamma)
    del dgamma  # with no caller reference left, this frees it before the Gamma*Gamma terms
    gg = _contract("ace...,edb...->abcd...", gamma, gamma)
    r += gg
    r -= np.swapaxes(gg, 2, 3)  # Gamma^a_de Gamma^e_cb is gg with c and d swapped
    return r


def ricci_from(gamma, div_gamma, d_trace):
    """R_bd from Gamma, div_gamma[b, d] = d_a Gamma^a_bd and d_trace[d, b] = d_d Gamma^a_ab."""
    ric = div_gamma - np.swapaxes(d_trace, 0, 1)
    ric += _contract("aae...,ebd...->bd...", gamma, gamma)
    ric -= _contract("ade...,eab...->bd...", gamma, gamma)
    return ric


# --- Riemannian metric fields --------------------------------------------------


class MetricField:
    """Positive-definite sym2 field with cached inverse and volume density."""

    def __init__(self, field):
        if field.kind != "sym2":
            raise MeshError("metric must be a sym2 field")
        self.field = field
        self.grid = field.grid
        arr = np.moveaxis(field.data, (0, 1), (-2, -1))
        try:
            chol = np.linalg.cholesky(arr)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(arr)
            worst = float(eigs.min())
            raise DataError(f"metric is not positive definite (min eigenvalue {worst:g})")
        # g = L L^T, so sqrt(det g) is the product of the diagonal of L
        self.sqrt_det = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
        del chol  # freed before the inverse allocates
        self.ginv = inverse(field.data)

    @property
    def data(self):
        return self.field.data

    def norm2_covector(self, omega):
        return _contract("ab...,a...,b...->...", self.ginv, omega, omega)

    def norm2_vector(self, x):
        return _contract("ab...,a...,b...->...", self.data, x, x)

    def flat(self, xdata):
        return _contract("ab...,b...->a...", self.data, xdata)

    def sharp(self, omega):
        return _contract("ab...,b...->a...", self.ginv, omega)


def christoffels(metric, scheme=DEFAULT_SCHEME):
    dg = partial_stack(metric.data, metric.grid, scheme)
    return christoffels_from(metric.ginv, dg)


@dataclass(frozen=True)
class CurvatureBundle:
    christoffels: np.ndarray  # Gamma^a_bc
    ricci: np.ndarray         # R_bd
    scal: np.ndarray          # scalar curvature


def curvature(metric, scheme=DEFAULT_SCHEME):
    gam = christoffels(metric, scheme)
    r_up = riemann_from(gam, partial_stack(gam, metric.grid, scheme))
    ric = np.einsum("abad...->bd...", r_up)
    scal = _contract("bd...,bd...->...", metric.ginv, ric)
    return CurvatureBundle(gam, ric, scal)


# --- covariant derivatives ------------------------------------------------------


def cov_vector(xdata, grid, gamma, scheme=DEFAULT_SCHEME):
    """nabla_c X^a, indexed [c, a]."""
    dx = partial_stack(xdata, grid, scheme)
    return dx + _contract("ace...,e...->ca...", gamma, xdata)


def cov_covector(wdata, grid, gamma, scheme=DEFAULT_SCHEME):
    """nabla_c w_b, indexed [c, b]."""
    dw = partial_stack(wdata, grid, scheme)
    return dw - _contract("ecb...,e...->cb...", gamma, wdata)


def cov_rank2(tdata, grid, gamma, scheme=DEFAULT_SCHEME):
    """nabla_c T_ab for covariant rank 2, indexed [c, a, b]."""
    dt = partial_stack(tdata, grid, scheme)
    dt -= _contract("eca...,eb...->cab...", gamma, tdata)
    dt -= _contract("ecb...,ae...->cab...", gamma, tdata)
    return dt


def cov_rank3(tdata, grid, gamma, scheme=DEFAULT_SCHEME):
    """nabla_c T_abd for covariant rank 3, indexed [c, a, b, d]."""
    dt = partial_stack(tdata, grid, scheme)
    dt -= _contract("eca...,ebd...->cabd...", gamma, tdata)
    dt -= _contract("ecb...,aed...->cabd...", gamma, tdata)
    dt -= _contract("ecd...,abe...->cabd...", gamma, tdata)
    return dt


# --- first-order metric operations ----------------------------------------------


def divergence_vector(xdata, metric, gamma, scheme=DEFAULT_SCHEME):
    return np.einsum("cc...->...", cov_vector(xdata, metric.grid, gamma, scheme))


def lie_metric(xdata, metric, gamma, scheme=DEFAULT_SCHEME):
    """(L_X g)_ab = nabla_a X_b + nabla_b X_a."""
    w = metric.flat(xdata)
    nw = cov_covector(w, metric.grid, gamma, scheme)
    return nw + np.einsum("ab...->ba...", nw)


def div_sym2(tdata, metric, gamma, scheme=DEFAULT_SCHEME):
    """(div T)_b = g^{ca} nabla_c T_ab."""
    nt = cov_rank2(tdata, metric.grid, gamma, scheme)
    return _contract("ac...,acb...->b...", metric.ginv, nt)


def trace_sym2(tdata, metric):
    return _contract("ab...,ab...->...", metric.ginv, tdata)


# --- exterior calculus ------------------------------------------------------------


def exterior_d(field, scheme=DEFAULT_SCHEME):
    """Exterior derivative of a 0-, 1- or 2-form field."""
    grid = field.grid
    d = partial_stack(field.data, grid, scheme)
    if field.kind == "scalar":
        return Field(grid, "covector", d)
    if field.kind == "covector":
        return Field(grid, "form2", d - np.einsum("ab...->ba...", d))
    if field.kind == "form2":
        out = d - np.einsum("bac...->abc...", d) + np.einsum("cab...->abc...", d)
        return Field(grid, "cov3", out)
    raise MeshError(f"exterior derivative undefined for kind {field.kind!r}")


def codifferential(field, metric, gamma, scheme=DEFAULT_SCHEME):
    """L2 adjoint of the exterior derivative (positive convention)."""
    grid = field.grid
    if field.kind == "covector":
        nw = cov_covector(field.data, grid, gamma, scheme)
        out = -_contract("ab...,ab...->...", metric.ginv, nw)
        return Field(grid, "scalar", out)
    if field.kind == "form2":
        nb = cov_rank2(field.data, grid, gamma, scheme)
        out = -_contract("ac...,acb...->b...", metric.ginv, nb)
        return Field(grid, "covector", out)
    if field.kind == "cov3":
        ng = cov_rank3(field.data, grid, gamma, scheme)
        out = -_contract("ad...,adbc...->bc...", metric.ginv, ng)
        return Field(grid, "form2", out)
    raise MeshError(f"codifferential undefined for kind {field.kind!r}")


def hodge_laplacian(field, metric, gamma, scheme=DEFAULT_SCHEME):
    """(d delta + delta d) on forms of rank 0..2."""
    if field.kind == "scalar":
        return codifferential(exterior_d(field, scheme), metric, gamma, scheme)
    up = codifferential(exterior_d(field, scheme), metric, gamma, scheme)
    down = exterior_d(codifferential(field, metric, gamma, scheme), scheme)
    return up + down
