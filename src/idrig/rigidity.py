"""Rigidity structure checks: parallel candidate, leafwise identities, splits.

On rigid product data the section V = phi^{-1}(e0 + nu) is parallel for the
ambient connection.  The checks here quantify how far given data is from
that structure: the residual of nablabar V, the obstruction 1-form
lambda(X) = nabla_X k(nu, nu) - nabla_nu k(X, nu), its closedness relations
d(phi lambda) = 0 and d lambda + d log phi ^ lambda = 0, the two-for-three
identity tying j, lambda and the s-derivative of the leaf metric family, and
the MOTS variation formula in both its raw and simplified forms.

The Hodge and TT splits act on leaf fields over a *constant* flat leaf
metric and are implemented as exact Fourier-multiplier projections.
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
    leaf_null_geometry,
)
from .mesh import (
    DEFAULT_SCHEME,
    Field,
    MeshError,
    _contract,
    integrate,
    leaf_block,
    leaf_index,
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


def build_parallel_candidate(ids):
    """V = phi^{-1}(e0 + nu), the unique candidate lightlike parallel section."""
    inv_phi = 1.0 / ids.phi.data
    x = np.zeros((ids.grid.ndim,) + ids.grid.shape)
    x[0] = inv_phi**2
    return AmbientVector(ids.grid, inv_phi, x)


def parallel_residuals(ids):
    """Max norms of nablabar V for the candidate V, split by direction class.

    Returns dict with keys all/s/leaf; the leaf part is spectral-exact on
    band-limited data while the s part carries the finite-difference error.
    """
    per_dir = ambient_residual_norm(ids, build_parallel_candidate(ids))
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
    curv = ids.curvature()
    nk = geometry.cov_rank2(ids.k.data, ids.grid, curv.christoffels, ids.scheme)
    nu = ids.nu
    first = _contract("cab...,a...,b...->c...", nk, nu, nu)
    second = _contract("b...,bac...,c...->a...", nu, nk, nu)
    lam = first - second
    lam[0] = 0.0  # the s component mixes in lambda(nu) = 0
    return Field(ids.grid, "covector", lam)


def lambda_via_curvature(ids):
    """Independent route: contract the ambient curvature of e0 + nu with nu."""
    nu = ids.nu
    v = AmbientVector(ids.grid, np.ones(ids.grid.shape), nu)
    w = AmbientVector(ids.grid, np.zeros(ids.grid.shape), nu)
    rv = ambient_curvature(ids, v)
    paired = ambient_curvature_pairing(ids, rv, w)  # gbar(Rbar(d_c, d_d)V, nu)
    lam = _contract("cd...,d...->c...", paired, nu)
    lam[0] = 0.0
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
    div = geometry.div_sym2(tfield.data, leaf_metric, gamma, scheme)
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


def two_for_three_residual(ids, tau):
    """Residual of the identity j + lambda = -(1/2phi)(div - d tr)(d_s g_F)."""
    leaf = leaf_null_geometry(ids, tau)
    leaf_grid = leaf.g_tau.grid
    rho, j = constraints(ids)
    lam = lambda_form(ids)
    lhs = (j.data + lam.data)[1:, leaf.tau_idx]
    gdot_full = _leaf_metric_rate(ids)
    gdot = Field(leaf_grid, "sym2", geometry.symmetrize(gdot_full[:, :, leaf.tau_idx]))
    dd = leaf_div_minus_dtr(gdot, leaf.g_tau, leaf.curvature.christoffels, ids.scheme)
    rhs = -0.5 / leaf.phi * dd.data
    defect = gdot.data + 2.0 * leaf.phi * leaf.k_ff.data
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
    rhs_simplified: Field      # (div Y - |Y|^2 + Q) phi,  Y = X - grad log phi
    rhs_raw: Field             # delta d phi + 2 d_X phi + (div X - |X|^2 + Q) phi
    residual: Field            # theta_rate - rhs_simplified
    cross_check: Field         # rhs_simplified - rhs_raw, algebraically zero
    q_potential: Field         # Q = scal^F/2 - (rho + j(nu)) - |chi+|^2/2


@derived
def theta_plus_field(ids):
    """Expansion theta+ of every leaf as one scalar field over M."""
    chi = _shape_form(ids)[1:, 1:] + ids.k.data[1:, 1:]
    ginv_leaf = ids.metric.ginv[1:, 1:]
    return Field(ids.grid, "scalar", _contract("ab...,ab...->...", ginv_leaf, chi))


def variation_residual(ids, tau):
    """MOTS stability form of d theta+/ds at leaf tau, two algebraic routes."""
    leaf = leaf_null_geometry(ids, tau)
    idx = leaf.tau_idx
    leaf_grid = leaf.g_tau.grid
    scheme = ids.scheme

    theta = theta_plus_field(ids)
    rate = partial(theta.data, ids.grid, 0, scheme)[idx]

    gam_tau = leaf.curvature.christoffels
    rho, j = constraints(ids)
    jn = j_normal(ids, j)
    chi2 = _contract("ac...,bd...,ab...,cd...->...", leaf.g_tau.ginv, leaf.g_tau.ginv,
                      leaf.chi_plus.data, leaf.chi_plus.data)
    q = 0.5 * leaf.curvature.scal - (rho.data[idx] + jn[idx]) - 0.5 * chi2

    # X = tangential part of k(nu, .)# on the leaf
    k_nu = (ids.k.data[0, 1:] / ids.phi.data)[:, idx]
    x_vec = leaf.g_tau.sharp(k_nu)
    dphi = partial_stack(leaf.phi, leaf_grid, scheme)
    dlogphi = dphi / leaf.phi
    y_vec = x_vec - leaf.g_tau.sharp(dlogphi)

    div_x = geometry.divergence_vector(x_vec, leaf.g_tau, gam_tau, scheme)
    div_y = geometry.divergence_vector(y_vec, leaf.g_tau, gam_tau, scheme)
    x2 = leaf.g_tau.norm2_vector(x_vec)
    y2 = leaf.g_tau.norm2_vector(y_vec)
    lap_phi = geometry.hodge_laplacian(Field(leaf_grid, "scalar", leaf.phi),
                                       leaf.g_tau, gam_tau, scheme).data
    d_x_phi = _contract("i...,i...->...", x_vec, dphi)

    rhs_simpl = (div_y - y2 + q) * leaf.phi
    rhs_raw = lap_phi + 2.0 * d_x_phi + (div_x - x2 + q) * leaf.phi

    return VariationResult(
        Field(leaf_grid, "scalar", rate),
        Field(leaf_grid, "scalar", rhs_simpl),
        Field(leaf_grid, "scalar", rhs_raw),
        Field(leaf_grid, "scalar", rate - rhs_simpl),
        Field(leaf_grid, "scalar", rhs_simpl - rhs_raw),
        Field(leaf_grid, "scalar", q),
    )


# --- Fourier tools on constant flat leaf metrics --------------------------------------


def _check_constant_metric(gmat, m):
    gmat = np.asarray(gmat, dtype=float)
    if gmat.shape != (m, m) or not np.allclose(gmat, gmat.T):
        raise MeshError("leaf metric must be a constant symmetric matrix")
    if np.min(np.linalg.eigvalsh(gmat)) <= 0.0:
        raise MeshError("leaf metric must be positive definite")
    return gmat


def leaf_wavenumbers(leaf_grid):
    """Covector wavenumbers xi of the torus, shape (m,) + mode shape."""
    ks = [2.0 * np.pi * np.fft.fftfreq(c, d=h)
          for c, h in zip(leaf_grid.counts, leaf_grid.spacing)]
    mesh = np.meshgrid(*ks, indexing="ij")
    return np.stack(mesh)


def _fourier_symbols(leaf_grid, gmat):
    """Checked constant metric, g^{-1}, xi, xi^#, the zero-mode mask and |xi|^2.

    |xi|^2_{g^{-1}} is returned as 1 on the zero mode, so it can divide.
    """
    gmat = _check_constant_metric(gmat, leaf_grid.ndim)
    ginv = np.linalg.inv(gmat)
    xi = leaf_wavenumbers(leaf_grid)
    norm2 = np.einsum("ab,a...,b...->...", ginv, xi, xi)
    zero = norm2 <= 1e-14
    xi_up = np.einsum("ab,b...->a...", ginv, xi)
    return gmat, ginv, xi, xi_up, zero, np.where(zero, 1.0, norm2)


def spectral_gap(leaf_grid, gmat):
    """min over nonzero lattice modes of |xi|^2_{g^{-1}}; bounds the Hodge spectrum."""
    *_, zero, safe = _fourier_symbols(leaf_grid, gmat)
    return float(np.min(safe[~zero]))


@dataclass(frozen=True)
class HodgeSplit:
    exact: Field       # df
    harmonic: Field    # the constant (zero-mode) part
    coexact: Field     # delta beta, the divergence-free mean-free rest
    potential: Field   # f with df = exact, zero mean


def hodge_decompose(omega, gmat):
    """Hodge split of a leaf 1-form over a constant flat metric, by FFT.

    The three parts are mutually L2-orthogonal to machine precision and sum
    to the input exactly.
    """
    leaf_grid = omega.grid
    m = leaf_grid.ndim
    _, _, xi, xi_up, zero, safe = _fourier_symbols(leaf_grid, gmat)
    axes = tuple(range(-m, 0))
    what = np.fft.fftn(omega.data, axes=axes)
    fhat = -1j * _contract("a...,a...->...", xi_up, what) / safe
    fhat = np.where(zero, 0.0, fhat)
    exact_hat = 1j * xi * fhat

    harm = np.real(what[(slice(None),) + (0,) * m]) / np.prod(leaf_grid.counts)
    harmonic = np.zeros_like(omega.data)
    harmonic += harm.reshape((m,) + (1,) * m)

    exact = np.real(np.fft.ifftn(exact_hat, axes=axes))
    coexact = omega.data - exact - harmonic
    f = np.real(np.fft.ifftn(fhat, axes=axes))
    return HodgeSplit(
        Field(leaf_grid, "covector", exact),
        Field(leaf_grid, "covector", harmonic),
        Field(leaf_grid, "covector", coexact),
        Field(leaf_grid, "scalar", f),
    )


def div_part_identity_residual(w_covector, gmat, scheme=DEFAULT_SCHEME):
    """div(L_W g) - d tr(L_W g) + delta d W^flat on a constant flat leaf metric."""
    leaf_grid = w_covector.grid
    m = leaf_grid.ndim
    gmat = _check_constant_metric(gmat, m)
    gfield = geometry.MetricField(Field(leaf_grid, "sym2",
                                        np.broadcast_to(gmat.reshape((m, m) + (1,) * m),
                                                        (m, m) + leaf_grid.shape).copy()))
    gam = geometry.christoffels(gfield, scheme)
    w_vec = gfield.sharp(w_covector.data)
    lie = geometry.lie_metric(w_vec, gfield, gam, scheme)
    lhs = leaf_div_minus_dtr(Field(leaf_grid, "sym2", geometry.symmetrize(lie)),
                             gfield, gam, scheme)
    delta_d = geometry.codifferential(geometry.exterior_d(w_covector, scheme),
                                      gfield, gam, scheme)
    return Field(leaf_grid, "covector", lhs.data + delta_d.data)


@dataclass(frozen=True)
class TTSplit:
    c: float            # constant conformal factor, mean trace / (n-1)
    w: Field            # covector potential of the Lie part, zero mean
    h: Field            # gdot - c g - L_W g
    lie: Field          # L_W g
    div_h_max: float
    tr_h_max: float


def tt_split(gdot, gmat, scheme=DEFAULT_SCHEME):
    """Split gdot = c g + L_W g + h over a constant flat leaf metric.

    c is the metric-mean of the trace over n-1; W solves
    div(L_W g) = div(gdot - c g) through an exact Fourier multiplier with
    zero-mode gauge W = 0 (an error is raised if the source has a zero
    mode, which cannot happen for divergences).  For gdot tangent to the
    flat deformations the remainder h is transverse traceless pointwise.
    """
    leaf_grid = gdot.grid
    m = leaf_grid.ndim
    gmat, ginv, xi, xi_up, zero, safe = _fourier_symbols(leaf_grid, gmat)
    vol = float(np.prod(leaf_grid.lengths))
    tr = np.einsum("ab,ab...->...", ginv, gdot.data)
    c = float(integrate(tr, leaf_grid)) / (m * vol)

    source = gdot.data - c * gmat.reshape((m, m) + (1,) * m)
    # div(source)_j = g^{ab} d_a source_bj for the constant metric
    dsrc = partial_stack(source, leaf_grid, scheme)
    r = np.einsum("ab,abj...->j...", ginv, dsrc)

    axes = tuple(range(-m, 0))
    rhat = np.fft.fftn(r, axes=axes)
    zero_amp = float(np.max(np.abs(rhat[(slice(None),) + (0,) * m])))
    scale = 1.0 + float(np.max(np.abs(rhat)))
    if zero_amp > 1e-8 * scale:
        raise MeshError("tt_split source has a zero mode; not a divergence")

    # div(L_W g)_j = -(|xi|^2 W_j + xi_j xi* . W) in Fourier; invert by
    # Sherman-Morrison: W = -(R - xi (xi* . R) / (2|xi|^2)) / |xi|^2
    xis_r = _contract("a...,a...->...", xi_up, rhat)
    what = -(rhat - xi * (xis_r / (2.0 * safe))) / safe
    what[:, zero] = 0.0
    w = np.real(np.fft.ifftn(what, axes=axes))

    dw = partial_stack(w, leaf_grid, scheme)
    lie = dw + np.einsum("ab...->ba...", dw)
    h = source - lie
    h_field = Field(leaf_grid, "sym2", geometry.symmetrize(h))
    div_h = np.einsum("ab,abj...->j...", ginv, partial_stack(h, leaf_grid, scheme))
    tr_h = np.einsum("ab,ab...->...", ginv, h)
    return TTSplit(c, Field(leaf_grid, "covector", w), h_field,
                   Field(leaf_grid, "sym2", geometry.symmetrize(lie)),
                   float(np.max(np.abs(div_h))), float(np.max(np.abs(tr_h))))


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
        report[f"{tag}_lambda_max"] = float(np.max(np.abs(lam.data[1:, idx])))
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
        report[f"{tag}_chi_plus_max"] = leaf_null_geometry(ids, tau).chi_plus.max_norm()
        report[f"{tag}_theta_plus_max"] = float(np.max(np.abs(
            theta_plus_field(ids).data[idx])))
    report["two_for_three_max"] = max(tft_maxima)
    report["variation_residual_max"] = max(var_maxima)
    return report
