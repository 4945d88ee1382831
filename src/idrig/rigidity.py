"""Rigidity structure checks: parallel candidate and leafwise identities.

On rigid product data the section V = phi^{-1}(e0 + nu) is parallel for the
ambient connection.  The checks here quantify how far given data is from
that structure: the residual of nablabar V, the obstruction 1-form
lambda(X) = nabla_X k(nu, nu) - nabla_nu k(X, nu), its closedness relations
d(phi lambda) = 0 and d lambda + d log phi ^ lambda = 0, the two-for-three
identity tying j, lambda and the s-derivative of the leaf metric family, and
the MOTS variation formula in both its raw and simplified forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang, geometry
from .initial_data import (
    AmbientVector,
    InitialDataSet,
    _shape_form,
    ambient_curvature,
    ambient_curvature_pairing,
    ambient_residual_norm,
    constraints,
    dec_margin,
    derived,
    j_normal,
    leaf_curvature,
    leaf_shared,
    nabla_k,
    null_section,
)
from .mesh import (
    DEFAULT_SCHEME,
    Field,
    _contract,
    leaf_block,
    leaf_index,
    leaf_values,
    partial,
    partial_stack,
)

# --- rigid recipe and parallel candidate ---------------------------------------


def rigid_recipe(grid, phi, leaf_metric=None, scheme=DEFAULT_SCHEME):
    """Initial data g = phi^2 ds^2 + g_F, k = phi^{-1}(dphi ds + ds dphi).

    The lapse is given in closed form; k components are sampled from its
    exact symbolic derivatives (k_ss = d_s phi, k_si = d_i phi, k_ij = 0),
    so every residual of the returned data measures pure grid error.  The
    leaf metric must be a constant flat one (defaults to the identity).
    """
    m = grid.ndim - 1
    if leaf_metric is None:
        leaf_metric = np.eye(m)
    phi_ast = exprlang.parse(phi) if isinstance(phi, str) else phi
    n = grid.ndim
    k_exprs = [[exprlang.Num(0.0)] * n for _ in range(n)]
    k_exprs[0][0] = exprlang.diff(phi_ast, "s")
    for i in range(1, n):
        d = exprlang.diff(phi_ast, f"x{i}")
        k_exprs[0][i] = d
        k_exprs[i][0] = d
    return InitialDataSet.product(grid, phi_ast, leaf_metric, k_exprs, scheme)


def parallel_residuals(ids):
    """Max norms of nablabar V for the candidate V = phi^{-1}(e0 + nu), split by direction class.

    Returns dict with keys all/s/leaf; the leaf part is spectral-exact on
    band-limited data while the s part carries the finite-difference error.
    """
    per_dir = ambient_residual_norm(ids, null_section(ids, 1.0))
    return {
        "all": float(np.max(per_dir)),
        "s": float(np.max(per_dir[0])),
        "leaf": float(np.max(per_dir[1:])) if ids.grid.ndim > 1 else 0.0,
    }


# --- the obstruction 1-form lambda ----------------------------------------------


@derived
def lambda_form(ids):
    """lambda as an M-covector field; lambda(nu) = 0 by antisymmetry.

    lambda(X) = nabla_X k(nu, nu) - nabla_nu k(X, nu) for leaf-tangent X,
    which equals gbar(Rbar(X, nu)(e0 + nu), nu).
    """
    nk = nabla_k(ids)
    nu = ids.nu
    first = _contract("cab...,a...,b...->c...", nk, nu, nu)
    second = _contract("b...,bac...,c...->a...", nu, nk, nu)
    lam = first - second
    lam[0] = 0.0  # the s component mixes in lambda(nu) = 0
    return Field(ids.grid, "covector", lam)


def lambda_via_curvature(ids):
    """Independent route: contract the ambient curvature of e0 + nu with nu."""
    nu = ids.nu
    v = AmbientVector(ids.grid, 1.0, nu)
    w = AmbientVector(ids.grid, 0.0, nu)
    rv = ambient_curvature(ids, v)
    paired = ambient_curvature_pairing(ids, rv, w)  # gbar(Rbar(d_c, d_d)V, nu)
    paired[0] = 0.0  # lambda(nu) = 0; a zero row is skipped, so lam[0] is exactly 0
    lam = _contract("cd...,d...->c...", paired, nu)
    return Field(ids.grid, "covector", lam)


def closedness_residual(ids, tau=None):
    """d(phi lambda) and d lambda + d log phi ^ lambda.

    The closedness statement lives on the leaves: both forms vanish on
    leaf-tangent pairs whenever k(X, nu) = d log phi(X) holds, whatever
    k(nu, nu) is.  With tau given, the leaf-tangential 2-form blocks at
    that leaf are returned (the lemma's literal content); without tau the
    full M 2-forms, whose mixed s-leaf components are not constrained by
    the lemma for non-rigid data.
    """
    d_phil, identity = _closedness_forms(ids, lambda_form(ids))
    if tau is None:
        return d_phil, identity
    idx = leaf_index(ids.grid, tau)
    return leaf_block(d_phil, idx), leaf_block(identity, idx)


@derived
def _closedness_forms(ids, lam):
    """The full M 2-forms d(phi lambda) and d lambda + d log phi ^ lambda."""
    phi = ids.phi.data
    phil = Field(ids.grid, "covector", phi * lam.data)
    d_phil = geometry.exterior_d(phil, ids.scheme)
    dlam = geometry.exterior_d(lam, ids.scheme)
    dlogphi = partial_stack(np.log(phi), ids.grid, ids.scheme)
    wedge = _contract("a...,b...->ab...", dlogphi, lam.data)
    wedge = wedge - np.einsum("ab...->ba...", wedge)
    return d_phil, Field(ids.grid, "form2", dlam.data + wedge)


# --- leaf tensor calculus helpers ------------------------------------------------


def leaf_div_minus_dtr(tfield, leaf_metric, gamma, scheme=DEFAULT_SCHEME):
    """(div T - d tr T) on a leaf, for a general leaf metric field."""
    nt = geometry.cov_rank2(tfield.data, leaf_metric.grid, gamma, scheme)
    div = geometry.div_sym2(nt, leaf_metric)
    tr = geometry.trace_sym2(tfield.data, leaf_metric)
    d_tr = partial_stack(tr, leaf_metric.grid, scheme)
    return Field(leaf_metric.grid, "covector", div - d_tr)


# --- two for three ----------------------------------------------------------------


@dataclass(frozen=True)
class TwoForThreeResult:
    lhs: Field                # (j + lambda) restricted to the leaf
    rhs: Field                # -(1/2) phi^{-1} (div gdot - d tr gdot)
    residual: Field
    gdot_defect: Field        # gdot + 2 phi k|_FF, zero for MOTS-parallel data


@derived
def _leaf_metric_rate(ids):
    """d_s g_F: the s derivative of the leaf-metric block over all of M."""
    return partial(ids.metric.data[1:, 1:], ids.grid, 0, ids.scheme)


@leaf_shared(_leaf_metric_rate, lambda ids: ids.metric.data)
def _leaf_rate_terms(ids, tau_idx):
    """d_s g_F on the leaf at s node tau_idx, and its (div - d tr) there."""
    g_tau, curv = leaf_curvature(ids, tau_idx)
    gdot = Field(g_tau.grid, "sym2", geometry.symmetrize(
        leaf_values(_leaf_metric_rate(ids), ids.grid, tau_idx)))
    return gdot, leaf_div_minus_dtr(gdot, g_tau, curv.christoffels, ids.scheme)


def two_for_three_residual(ids, tau):
    """Residual of the identity j + lambda = -(1/2phi)(div - d tr)(d_s g_F)."""
    grid = ids.grid
    idx = leaf_index(grid, tau)
    leaf_grid = grid.leaf()
    rho, j = constraints(ids)
    lam = lambda_form(ids)
    lhs = leaf_values((j.data + lam.data)[1:], grid, idx)
    gdot, dd = _leaf_rate_terms(ids, idx)
    phi = leaf_values(ids.phi.data, grid, idx)
    rhs = -0.5 / phi * dd.data
    defect = gdot.data + 2.0 * phi * leaf_values(ids.k.data[1:, 1:], grid, idx)
    return TwoForThreeResult(
        Field(leaf_grid, "covector", lhs),
        Field(leaf_grid, "covector", rhs),
        Field(leaf_grid, "covector", lhs - rhs),
        Field(leaf_grid, "sym2", defect),
    )


# --- MOTS variation formula --------------------------------------------------------


@dataclass(frozen=True)
class VariationResult:
    theta_rate: Field          # d theta+ / ds at the leaf
    residual: Field            # theta_rate - (div Y - |Y|^2 + Q) phi,  Y = X - grad log phi
    cross_check: Field         # that form less the raw one (_variation_terms), algebraically zero


@derived
def chi_plus_field(ids):
    """chi+ = A + k, the null second fundamental form of every leaf, as [a, b] over M."""
    return geometry.symmetrize(_shape_form(ids)[1:, 1:]) + ids.k.data[1:, 1:]


@derived
def theta_plus_field(ids):
    """Expansion theta+ = tr chi+ of every leaf as one scalar field over M."""
    theta = _contract("ab...,ab...->...", ids.metric.ginv[1:, 1:], chi_plus_field(ids))
    return Field(ids.grid, "scalar", theta)


@derived
def _theta_rate(ids, theta):
    """d theta+ / ds over M."""
    return partial(theta.data, ids.grid, 0, ids.scheme)


@leaf_shared(lambda ids: ids.metric.data, lambda ids: ids.phi.data, lambda ids: ids.k.data)
def _variation_terms(ids, tau_idx):
    """div X - |X|^2, div Y - |Y|^2 and delta d phi + 2 d_X phi on the leaf at s node tau_idx."""
    g_tau, curv = leaf_curvature(ids, tau_idx)
    gam_tau = curv.christoffels
    scheme = ids.scheme
    phi = leaf_values(ids.phi.data, ids.grid, tau_idx)

    # X = tangential part of k(nu, .)# on the leaf
    k_nu = leaf_values(ids.k.data[0, 1:] / ids.phi.data, ids.grid, tau_idx)
    x_vec = g_tau.sharp(k_nu)
    dphi = partial_stack(phi, g_tau.grid, scheme)
    dlogphi = dphi / phi
    y_vec = x_vec - g_tau.sharp(dlogphi)

    div_x = geometry.divergence_vector(x_vec, g_tau, gam_tau, scheme)
    div_y = geometry.divergence_vector(y_vec, g_tau, gam_tau, scheme)
    x2 = g_tau.norm2_vector(x_vec)
    y2 = g_tau.norm2_vector(y_vec)
    hess_phi = geometry.cov_covector(dphi, g_tau.grid, gam_tau, scheme)
    delta_d_phi = -geometry.trace_sym2(hess_phi, g_tau)  # the Hodge Laplacian of phi
    d_x_phi = _contract("i...,i...->...", x_vec, dphi)
    return div_x - x2, div_y - y2, delta_d_phi + 2.0 * d_x_phi


def variation_residual(ids, tau):
    """MOTS stability form of d theta+/ds at leaf tau, two algebraic routes."""
    grid = ids.grid
    idx = leaf_index(grid, tau)
    g_tau, curv = leaf_curvature(ids, idx)
    leaf_grid = g_tau.grid

    rate = leaf_values(_theta_rate(ids, theta_plus_field(ids)), grid, idx)
    rho, j = constraints(ids)
    chi = leaf_values(chi_plus_field(ids), grid, idx)
    chi2 = _contract("ac...,bd...,ab...,cd...->...", g_tau.ginv, g_tau.ginv, chi, chi)
    q = 0.5 * curv.scal - (leaf_values(rho.data, grid, idx)
                           + leaf_values(j_normal(ids, j), grid, idx)) - 0.5 * chi2

    div_x_x2, div_y_y2, lap_dx_phi = _variation_terms(ids, idx)
    phi = leaf_values(ids.phi.data, grid, idx)
    rhs_simpl = (div_y_y2 + q) * phi
    rhs_raw = lap_dx_phi + (div_x_x2 + q) * phi

    return VariationResult(
        Field(leaf_grid, "scalar", rate),
        Field(leaf_grid, "scalar", rate - rhs_simpl),
        Field(leaf_grid, "scalar", rhs_simpl - rhs_raw),
    )


# --- aggregate report ------------------------------------------------------------------


def rigid_report(ids, taus=None):
    """Flat key -> number map of the rigidity residuals, global and per leaf."""
    grid = ids.grid
    if taus is None:
        count = grid.counts[0]
        picks = sorted({0, count // 2, count - 1})
        taus = [i * grid.spacing[0] for i in picks]
    report = {}
    res = parallel_residuals(ids)
    report["nabla_v_max"] = res["all"]
    report["nabla_v_s_max"] = res["s"]
    report["nabla_v_leaf_max"] = res["leaf"]
    dphi = partial_stack(ids.phi.data, grid, ids.scheme)
    report["addrigid_defect_max"] = float(np.max(np.abs(
        (dphi[1:] - ids.k.data[1:, 0]) / ids.phi.data)))
    lam = lambda_form(ids)
    lam2 = lambda_via_curvature(ids)
    report["lambda_max"] = lam.max_norm()
    report["lambda_route_gap_max"] = float(np.max(np.abs(lam.data - lam2.data)))
    d_phil, identity = closedness_residual(ids)
    report["d_phi_lambda_max"] = d_phil.max_norm()
    report["dlambda_identity_max"] = identity.max_norm()
    rho, j = constraints(ids)
    jn = j_normal(ids, j)
    report["marginal_defect_max"] = float(np.max(np.abs(rho.data + jn)))
    margin = dec_margin(ids, rho, j)
    report["dec_margin_min"] = float(np.min(margin.data))
    report["rho_max"] = float(np.max(np.abs(rho.data)))
    tft_maxima, var_maxima = [], []
    for tau in taus:
        idx = leaf_index(grid, tau)
        tag = f"leaf_{idx:03d}"
        report[f"{tag}_lambda_max"] = float(np.max(np.abs(leaf_values(lam.data[1:], grid, idx))))
        d_leaf, identity_leaf = closedness_residual(ids, tau)
        report[f"{tag}_d_phi_lambda_max"] = d_leaf.max_norm()
        report[f"{tag}_dlambda_identity_max"] = identity_leaf.max_norm()
        tft = two_for_three_residual(ids, tau)
        tft_maxima.append(tft.residual.max_norm())
        report[f"{tag}_two_for_three_max"] = tft_maxima[-1]
        report[f"{tag}_gdot_defect_max"] = tft.gdot_defect.max_norm()
        var = variation_residual(ids, tau)
        var_maxima.append(var.residual.max_norm())
        report[f"{tag}_variation_residual_max"] = var_maxima[-1]
        report[f"{tag}_variation_cross_check_max"] = var.cross_check.max_norm()
        report[f"{tag}_chi_plus_max"] = float(np.max(np.abs(
            leaf_values(chi_plus_field(ids), grid, idx))))
        report[f"{tag}_theta_plus_max"] = float(np.max(np.abs(
            leaf_values(theta_plus_field(ids).data, grid, idx))))
    report["two_for_three_max"] = max(tft_maxima)
    report["variation_residual_max"] = max(var_maxima)
    return report
