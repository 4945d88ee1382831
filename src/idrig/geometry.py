"""Tensor calculus over a grid metric: curvature, covariant derivatives and d.

Index conventions: Riemann R^a_bcd = d_c Gamma^a_db - d_d Gamma^a_cb
+ Gamma^a_ce Gamma^e_db - Gamma^a_de Gamma^e_cb, Ricci R_bd = R^a_bad,
covariant derivatives carry the direction index first.

The *_from helpers are plain array algebra over precomputed partials; the
Lorentzian development module reuses them with its own derivative rule.
ricci_from takes the Christoffels, their divergence d_a Gamma^a_bd and the
partials of their trace Gamma^a_ab, so Ricci needs no Riemann tensor.

`exterior_d` is d of a covector, the one case a report takes (d lambda and
d(phi lambda)); d of a function or of a 2-form, which only tests take, is in
tests/references.py with the codifferential.

Metric factorizations: a diagonal metric (every off-diagonal component 0 at
every node) takes one sign test and one division per component; any other
goes whole to LAPACK (inv, cholesky, eigvalsh) at the nodes of its own grid
shape, which is length 1 along every axis the metric does not vary on (see
mesh).  LAPACK factors each matrix of a stack on its own, so inverse equals
np.linalg.inv bit for bit, up to the sign of a zero.  The Cholesky factor
only tests positive definiteness and is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import (DEFAULT_SCHEME, DataError, Field, Grid, MeshError, Scheme, _contract, _live,
                   partial_stack, updated)

# --- pure array core ---------------------------------------------------------


def _is_diagonal(gdata):
    """Whether every off-diagonal component is 0 at every node (-0.0 is, NaN is not)."""
    live = _live(gdata, 2)
    return not np.any(live & ~np.eye(len(live), dtype=bool))


def _node_matrices(gdata):
    """The metric's matrices [*grid, n, n] over its own grid shape."""
    return np.moveaxis(gdata.astype(float, copy=False), (0, 1), (-2, -1))


def _inverse(gdata, diagonal):
    out = np.zeros(gdata.shape)
    if diagonal:
        for i in range(len(gdata)):
            if not np.all(gdata[i, i]):  # LAPACK's zero pivot; NaN counts as nonzero
                raise np.linalg.LinAlgError("Singular matrix")
            np.divide(1.0, gdata[i, i], out=out[i, i])
    else:
        inv = np.moveaxis(np.linalg.inv(_node_matrices(gdata)), (-2, -1), (0, 1))
        # only the live components are written, so the others stay untouched pages
        for i, j in zip(*np.nonzero(_live(inv, 2))):
            out[i, j] = inv[i, j]
    out.flags.writeable = False
    return out


def inverse(gdata):
    """Pointwise inverse of a metric component array, as np.linalg.inv gives it.

    Fresh, read-only, C-contiguous float64.  A metric that is singular at
    some node raises np.linalg.LinAlgError; a NaN leaves its node non-finite.
    """
    return _inverse(gdata, _is_diagonal(gdata))


def symmetrize(t):
    """Symmetric part of a rank-2 component array over its first two axes."""
    return 0.5 * (t + np.swapaxes(t, 0, 1))


def christoffels_from(ginv, dg):
    """Gamma^a_bc from the inverse metric and dg[c, a, b] = d_c g_ab.

    The lowered Christoffels Gamma_dbc = 0.5*((dg[b, d, c] + dg[c, d, b]) -
    dg[d, b, c]) are built as one C-contiguous array, the terms taken in that
    order at every component.  The contraction scans it (mesh._live) and
    skips each component that is 0 at every node, whether its three terms are
    dead or cancel, and whatever the sign of its zeros.  The 0.5 is applied here, before ginv
    raises d.  A power of two commutes with rounding, so that equals halving
    the raised sum bit for bit unless a value is subnormal.
    """
    low = np.einsum("bdc...->dbc...", dg).copy()
    low += np.einsum("cdb...->dbc...", dg)
    low -= dg
    low *= 0.5
    return _contract("ad...,dbc...->abc...", ginv, low)


_RIEMANN_LIVE = {}  # (gamma mask, dgamma mask) -> the components riemann_from assembles


def _riemann_live(gmask, dmask):
    """[a, b, c, d] of each component where a term of R^a_bcd is live, as python ints."""
    ggmask = np.einsum("ace,edb->abcd", gmask, gmask)
    live = (np.einsum("cadb->abcd", dmask) | np.einsum("dacb->abcd", dmask)
            | ggmask | np.swapaxes(ggmask, 2, 3))
    return np.argwhere(live).tolist()  # python ints index faster than numpy ints


def riemann_from(gamma, dgamma):
    """R^a_bcd from Christoffels and dgamma[e, a, b, c] = d_e Gamma^a_bc.

    R^a_bcd = ((dgamma[c, a, d, b] - dgamma[d, a, c, b]) + gg[a, b, c, d])
    - gg[a, b, d, c] with gg = Gamma^a_ce Gamma^e_db, in that order, as a dense
    assembly would round it.  Only the components where one of the four terms
    is live are assembled (mesh._live), the others stay +0.0.  gg's mask is
    not scanned but derived from gamma's: it marks the components where
    _contract has a product, a superset of gg's nonzero ones.  That is the
    dense result bit for bit: in a skipped component both gg terms are the
    +0.0 _contract leaves where it has no product, and
    (+-0.0 - +-0.0) + 0.0 - 0.0 is +0.0.  The component list is kept per pair
    of masks, as mesh keeps a contraction's plan.
    """
    gg = _contract("ace...,edb...->abcd...", gamma, gamma)
    gmask = _live(gamma, 3)
    dmask = _live(dgamma, 4)
    key = (gmask.shape, gmask.tobytes(), dmask.shape, dmask.tobytes())
    if key not in _RIEMANN_LIVE:
        _RIEMANN_LIVE[key] = _riemann_live(gmask, dmask)
    r = np.zeros(gg.shape[:4] + np.broadcast_shapes(gg.shape[4:], dgamma.shape[5:]))
    for a, b, c, d in _RIEMANN_LIVE[key]:
        component = r[a, b, c, d]
        np.subtract(dgamma[c, a, d, b], dgamma[d, a, c, b], out=component)
        component += gg[a, b, c, d]
        component -= gg[a, b, d, c]
    return r


def ricci_from(gamma, div_gamma, d_trace):
    """R_bd from Gamma, div_gamma[b, d] = d_a Gamma^a_bd and d_trace[d, b] = d_d Gamma^a_ab."""
    ric = div_gamma - np.swapaxes(d_trace, 0, 1)
    ric = updated(np.add, ric, _contract("aae...,ebd...->bd...", gamma, gamma))
    return updated(np.subtract, ric, _contract("ade...,eab...->bd...", gamma, gamma))


# --- Riemannian metric fields --------------------------------------------------


class MetricField:
    """Positive-definite sym2 field and its inverse; the constructor rejects any other field."""

    def __init__(self, field):
        if field.kind != "sym2":
            raise MeshError("metric must be a sym2 field")
        self.field = field
        self.grid = field.grid
        g = field.data
        diagonal = _is_diagonal(g)
        try:
            if diagonal:
                for i in range(len(g)):
                    if not np.all(g[i, i] > 0.0):  # LAPACK's test, NaN fails it too
                        raise np.linalg.LinAlgError
            else:
                np.linalg.cholesky(_node_matrices(g))
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))
            worst = float(eigs.min())
            raise DataError(f"metric is not positive definite (min eigenvalue {worst:g})")
        self.ginv = _inverse(g, diagonal)

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
    return christoffels_from(metric.ginv, partial_stack(metric.data, metric.grid, scheme))


@dataclass(frozen=True)
class CurvatureBundle:
    """A metric's Christoffels, and its Ricci and scalar curvature on first read.

    The Riemann tensor, Ricci and scal are built together on the first read
    of `ricci` or `scal`, marked read-only and kept; a reader of the
    connection alone never builds them.
    """

    christoffels: np.ndarray  # Gamma^a_bc
    ginv: np.ndarray          # the metric's inverse, which raises Ricci's index for scal
    grid: Grid
    scheme: Scheme

    @cached_property
    def ricci(self):
        """R_bd, read-only."""
        gam = self.christoffels
        r_up = riemann_from(gam, partial_stack(gam, self.grid, self.scheme))
        ric = np.einsum("abad...->bd...", r_up)
        ric.flags.writeable = False
        return ric

    @cached_property
    def scal(self):
        """The scalar curvature, read-only."""
        scal = _contract("bd...,bd...->...", self.ginv, self.ricci)
        scal.flags.writeable = False
        return scal


def curvature(metric, scheme=DEFAULT_SCHEME):
    """The metric's curvature bundle: Christoffels now, Ricci and scal when first read."""
    return CurvatureBundle(christoffels(metric, scheme), metric.ginv, metric.grid, scheme)


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
    dt = updated(np.subtract, dt, _contract("eca...,eb...->cab...", gamma, tdata))
    return updated(np.subtract, dt, _contract("ecb...,ae...->cab...", gamma, tdata))


# --- first-order metric operations ----------------------------------------------


def divergence_vector(xdata, metric, gamma, scheme=DEFAULT_SCHEME):
    return np.einsum("cc...->...", cov_vector(xdata, metric.grid, gamma, scheme))


def div_sym2(nt, metric):
    """(div T)_b = g^{ca} nabla_c T_ab from nabla T, indexed [c, a, b] (cov_rank2)."""
    return _contract("ac...,acb...->b...", metric.ginv, nt)


def trace_sym2(tdata, metric):
    return _contract("ab...,ab...->...", metric.ginv, tdata)


# --- exterior calculus ------------------------------------------------------------


def exterior_d(field, scheme=DEFAULT_SCHEME):
    """Exterior derivative (dw)_ab = d_a w_b - d_b w_a of a covector field, a 2-form."""
    d = partial_stack(field.data, field.grid, scheme)
    return Field(field.grid, "form2", d - np.einsum("ab...->ba...", d))
