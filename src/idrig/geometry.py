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

Metric blocks: the metrics idrig factors are block diagonal up to a
permutation of their indices (the recipe metric is diagonal; a development
metric is a {v, s} block with gbar_vv = 0 beside its leaf part).
metric_blocks finds the blocks as the connected components of the live
component pattern (mesh._live): i and j share a block when g_ij is nonzero at
some node, directly or through other indices.  The inverse, the Cholesky
factor behind sqrt(det g) and the signature count work block by block, a 1x1
block by a division or a square root, a larger one by LAPACK on that block
alone, once per distinct node: along every grid axis on which the block is
constant, compared bit by bit so that -0.0 and +0.0 stay apart, LAPACK sees one
slice and its result is broadcast back.  The derivatives cut constant axes
by the same test (mesh._constant_axes, mesh._first_slices).  A development or
pp-wave {v, s} block depends on one or two coordinates, so on a 12^4 wave 12
of its 20,736 blocks are factored.  LAPACK factors each matrix of a stack on its own, so this
changes no bit.  On finite data sqrt(det g) equals the whole-matrix Cholesky
product bit for bit.  So does the inverse for diagonal and dense metrics and
for a development metric with a diagonal leaf part ({v, s} first, then 1x1
blocks), on the OpenBLAS kernels tried (SkylakeX, Haswell).  Other patterns can
differ from np.linalg.inv of the whole matrix by a few ulps of the node's
largest entry, because OpenBLAS's triangular solve rounds a row by where it
sits in the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import (DEFAULT_SCHEME, DataError, Field, MeshError, _constant_axes, _contract,
                   _first_slices, _known, _live, _recorded_stack, partial_stack)

# --- pure array core ---------------------------------------------------------


def metric_blocks(gdata):
    """Index tuples of the diagonal blocks of a metric array, ascending by first index.

    A block is a connected component of the graph whose edges are the
    components g_ij that are nonzero at some node (mesh._live).
    """
    live = _live(gdata, 2)
    reach = live | live.T | np.eye(len(live), dtype=bool)
    for _ in range(len(live).bit_length()):  # paths of up to 2^k edges after k squarings
        reach = reach @ reach
    return sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})


def _block_matrices(gdata, block):
    """The block's matrices [*grid, k, k] at its distinct nodes.

    Along every grid axis on which all of the block's components are constant
    (mesh._constant_axes), the stack keeps one slice of length 1; LAPACK
    results on it broadcast back to the grid.
    """
    sub = gdata[np.ix_(block, block)].astype(float, copy=False)
    sub = _first_slices(sub, _constant_axes(sub, 2))
    return np.moveaxis(sub, (0, 1), (-2, -1))


def _inverse(gdata, blocks):
    out = np.zeros(gdata.shape)
    for block in blocks:
        if len(block) == 1:
            (i,) = block
            if not np.all(gdata[i, i]):  # LAPACK's zero pivot; NaN counts as nonzero
                raise np.linalg.LinAlgError("Singular matrix")
            np.divide(1.0, gdata[i, i], out=out[i, i])
        else:
            inv = np.linalg.inv(_block_matrices(gdata, block))
            out[np.ix_(block, block)] = np.moveaxis(inv, (-2, -1), (0, 1))
    # scanned, not taken from the blocks: a block can hold exact zeros, as
    # ginv_ss = 0 does in a development metric's {v, s} block
    return _known(out, _live(out, 2))


def inverse(gdata):
    """Pointwise inverse of a metric component array, one metric block at a time.

    Returns a fresh, read-only C-contiguous float64 array whose components
    outside the blocks are exactly 0 (see the module docstring for how it
    compares with np.linalg.inv of the whole matrix).  A block that is singular at some node
    raises np.linalg.LinAlgError; a NaN leaves its node non-finite.
    """
    return _inverse(gdata, metric_blocks(gdata))


def symmetrize(t):
    """Symmetric part of a rank-2 component array over its first two axes."""
    return 0.5 * (t + np.swapaxes(t, 0, 1))


_INDICES = {}  # (union, its zero masks) -> the components a kernel assembles


def _live_indices(union, *masks):
    """Indices, as lists, of the True entries of union(*masks), cached per union and masks."""
    key = (union,) + tuple((mask.shape, mask.tobytes()) for mask in masks)
    if key not in _INDICES:
        _INDICES[key] = np.argwhere(union(*masks)).tolist()
    return _INDICES[key]


def _lowered_live(mask):
    """Where Gamma_dbc has a live term, from the zero mask of dg."""
    return np.einsum("bdc->dbc", mask) | np.einsum("cdb->dbc", mask) | mask


def _riemann_live(dmask, gmask):
    """Where R^a_bcd has a live term, from the zero masks of dgamma and gg."""
    return (np.einsum("cadb->abcd", dmask) | np.einsum("dacb->abcd", dmask)
            | gmask | np.swapaxes(gmask, 2, 3))


def christoffels_from(ginv, dg):
    """Gamma^a_bc from the inverse metric and dg[c, a, b] = d_c g_ab.

    The lowered Christoffels Gamma_dbc = 0.5*((dg[b, d, c] + dg[c, d, b]) -
    dg[d, b, c]) are written only where one of those three dg slices is live
    (mesh._live); the rest stay exactly 0.  Each written component is checked
    once, so the lowered array carries its exact mask into the contraction: a
    component whose terms cancel to 0 at every node stays dead.  The 0.5 is
    applied here, before ginv raises d.  A power of two commutes with
    rounding, so that equals halving the raised sum bit for bit unless a value
    is subnormal.
    """
    mask = _live(dg, 3)
    low = np.zeros(dg.shape)
    low_mask = np.zeros(mask.shape, dtype=bool)
    for d, b, c in _live_indices(_lowered_live, mask):
        component = low[d, b, c]
        np.add(dg[b, d, c], dg[c, d, b], out=component)
        component -= dg[d, b, c]
        component *= 0.5
        low_mask[d, b, c] = component.any()
    return _contract("ad...,dbc...->abc...", ginv, _known(low, low_mask))


def riemann_from(gamma, dgamma):
    """R^a_bcd from Christoffels and dgamma[e, a, b, c] = d_e Gamma^a_bc.

    R^a_bcd = ((dgamma[c, a, d, b] - dgamma[d, a, c, b]) + gg[a, b, c, d])
    - gg[a, b, d, c] with gg = Gamma^a_ce Gamma^e_db, in that order, as a dense
    assembly would round it.  Only the components where one of the four terms
    is live are assembled (mesh._live; gg's mask is the one _contract records),
    the others stay +0.0.  That is the dense result bit for bit: there both gg
    terms are the +0.0 _contract leaves in a component it never writes, and
    (+-0.0 - +-0.0) + 0.0 - 0.0 is +0.0.
    """
    gg = _contract("ace...,edb...->abcd...", gamma, gamma)
    r = np.zeros(gg.shape)
    for a, b, c, d in _live_indices(_riemann_live, _live(dgamma, 4), _live(gg, 4)):
        component = r[a, b, c, d]
        np.subtract(dgamma[c, a, d, b], dgamma[d, a, c, b], out=component)
        component += gg[a, b, c, d]
        component -= gg[a, b, d, c]
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
        g = field.data
        blocks = metric_blocks(g)
        # g = L L^T with L block diagonal, so sqrt(det g) is the product of the
        # diagonal of L, taken in index order as over the Cholesky factor of all of g
        chol_diag = np.empty(g.shape[1:])
        try:
            for block in blocks:
                if len(block) == 1:
                    (i,) = block
                    if not np.all(g[i, i] > 0.0):  # LAPACK's test, NaN fails it too
                        raise np.linalg.LinAlgError
                    np.sqrt(g[i, i], out=chol_diag[i])
                else:
                    chol = np.linalg.cholesky(_block_matrices(g, block))
                    chol_diag[list(block)] = np.moveaxis(
                        np.diagonal(chol, axis1=-2, axis2=-1), -1, 0)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh(np.moveaxis(g, (0, 1), (-2, -1)))
            worst = float(eigs.min())
            raise DataError(f"metric is not positive definite (min eigenvalue {worst:g})")
        self.sqrt_det = np.prod(chol_diag, axis=0)
        self.ginv = _inverse(g, blocks)

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
    return christoffels_from(metric.ginv, _recorded_stack(metric.data, metric.grid, scheme))


@dataclass(frozen=True)
class CurvatureBundle:
    christoffels: np.ndarray  # Gamma^a_bc
    ricci: np.ndarray         # R_bd
    scal: np.ndarray          # scalar curvature


def curvature(metric, scheme=DEFAULT_SCHEME):
    gam = christoffels(metric, scheme)
    r_up = riemann_from(gam, _recorded_stack(gam, metric.grid, scheme))
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
