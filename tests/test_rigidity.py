import collections
import json
from pathlib import Path

import numpy as np
import pytest

from idrig import exprlang, geometry, rigidity
from idrig.mesh import Grid, Field, MeshError, full_grid, sample, leaf_index, leaf_values
from idrig.initial_data import (InitialDataSet, constraints, ambient_residual_norm,
                                dec_margin, leaf_curvature, null_section)
from idrig.rigidity import (rigid_recipe, parallel_residuals, lambda_form, lambda_via_curvature,
                            closedness_residual, two_for_three_residual,
                            variation_residual, chi_plus_field, theta_plus_field,
                            leaf_div_minus_dtr, rigid_report)
from idrig.scene import parse_scene, scene_initial_data
from helpers import SCHEME, grid3, leaf_arrays, leaf_null_values, same_bits, torus
from references import (codifferential, div_part_identity_residual, exterior_d,
                        field_difference, field_sum, hodge_decompose, l2_inner, l2_norm,
                        lie_metric, spectral_gap, tt_split)

ROOT = Path(__file__).resolve().parents[1]


def leafy_recipe(n_s=17, leaf=16, amp=0.1):
    return rigid_recipe(Grid.product(1.0, n_s, (leaf, leaf), (1.0, 1.0)),
                        f"exp({amp}*sin(2*pi*x1))", scheme=SCHEME)


def flat_torus_metric(leaf):
    data = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape).copy()
    return geometry.MetricField(Field(leaf, "sym2", data))


# --- the rigid recipe --------------------------------------------------------------


def test_flat_recipe_is_exactly_rigid():
    ids = rigid_recipe(grid3(17, 16), "1", scheme=SCHEME)
    res = parallel_residuals(ids)
    assert res["all"] == 0.0 and res["s"] == 0.0 and res["leaf"] == 0.0
    assert lambda_form(ids).max_norm() == 0.0
    d_phil, identity = closedness_residual(ids)
    assert d_phil.max_norm() == 0.0 and identity.max_norm() == 0.0
    rho, j = constraints(ids)
    assert rho.max_norm() == 0.0 and j.max_norm() == 0.0


def test_pure_s_profile_recipe():
    # phi = phi(s): vacuum data, candidate parallel up to the s-axis fd error
    ids = rigid_recipe(grid3(17, 16), "exp(s/10)", scheme=SCHEME)
    rho, j = constraints(ids)
    assert rho.max_norm() < 1e-15
    assert j.max_norm() < 1e-9
    res = parallel_residuals(ids)
    assert res["leaf"] == 0.0
    assert res["s"] < 1e-8
    assert lambda_form(ids).max_norm() == 0.0


def test_leafy_recipe_structural_floor():
    # the candidate's fd error inherits the gradient structure of k, so the
    # residual sits at round-off rather than at the stencil error
    ids = leafy_recipe()
    res = parallel_residuals(ids)
    assert res["all"] < 1e-11
    assert lambda_form(ids).max_norm() < 1e-13
    for tau in (0.0, 0.5, 1.0):
        d_leaf, id_leaf = closedness_residual(ids, tau)
        assert d_leaf.max_norm() < 1e-13
        assert id_leaf.max_norm() < 1e-13


def test_recipe_energy_closed_form():
    # rho = -sum_i d_i^2 w - 2 sum_i (d_i w)^2 with w = log phi, and the
    # data is marginal: |j|_g = |rho| pointwise
    grid = Grid.product(1.0, 17, (32, 32), (1.0, 1.0))
    ids = rigid_recipe(grid, "exp(0.3*sin(2*pi*x1))", scheme=SCHEME)
    rho, j = constraints(ids)
    env = grid.coord_env()
    lap_w = -0.3 * (2 * np.pi) ** 2 * np.sin(2 * np.pi * env["x1"])
    grad_w2 = (0.3 * 2 * np.pi * np.cos(2 * np.pi * env["x1"])) ** 2
    want = np.broadcast_to(-lap_w - 2.0 * grad_w2, grid.shape)
    assert rho.max_norm() > 10.0
    assert np.max(np.abs(rho.data - want)) < 1e-11
    jnorm = np.sqrt(ids.metric.norm2_covector(j.data))
    assert np.max(np.abs(jnorm - np.abs(rho.data))) < 1e-11


def test_broken_normal_coupling_prediction():
    # zeroing k(X, nu) breaks parallelism by exactly |d log phi| sqrt(2) / phi
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    base = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    kd = base.k.data.copy()
    kd[0, 1:] = 0.0
    kd[1:, 0] = 0.0
    broken = InitialDataSet(grid, base.phi, base.metric,
                            Field(grid, "sym2", kd), scheme=SCHEME)
    v = null_section(broken, 1)
    per_dir = ambient_residual_norm(broken, v)
    env = grid.coord_env()
    dlog = 0.1 * 2 * np.pi * np.cos(2 * np.pi * env["x1"])
    pred = np.abs(np.broadcast_to(dlog, grid.shape)) * np.sqrt(2.0) / broken.phi.data
    assert np.max(pred) > 0.5
    assert np.max(np.abs(per_dir[1] - pred)) < 1e-12
    assert np.max(per_dir[2]) == 0.0


# --- the obstruction 1-form --------------------------------------------------------


def test_lambda_matches_symbolic_oracle():
    # phi = e^{s/10}, k(nu,nu) perturbed by p = sin(2 pi x1)(1+s)/20; a symbolic
    # computation of nabla_X k(nu,nu) - nabla_nu k(X,nu) gives
    # lambda_1 = pi (s+1) cos(2 pi x1)/10, lambda_2 = 0
    grid = Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "exp(s/10)", np.eye(2),
        [["exp(s/10)/10 + 0.05*sin(2*pi*x1)*(1+s)*exp(s/5)", "0", "0"],
         ["0", "0", "0"], ["0", "0", "0"]], scheme=SCHEME)
    lam = lambda_form(ids)
    env = grid.coord_env()
    want = np.broadcast_to(np.pi * (env["s"] + 1) * np.cos(2 * np.pi * env["x1"]) / 10,
                           grid.shape)
    assert lam.max_norm() > 0.5
    assert np.max(np.abs(lam.data[1] - want)) < 1e-12
    assert np.max(np.abs(lam.data[2])) < 1e-15
    assert np.max(np.abs(lam.data[0])) == 0.0    # lambda(nu) = 0 by construction
    other = lambda_via_curvature(ids)
    assert np.max(np.abs(lam.data - other.data)) < 1e-12


def test_the_two_lambda_routes_agree_where_lambda_is_not_zero():
    # on every shipped scene lambda is 0, where a report of |lam + lam2| reads
    # the same as |lam - lam2|; here lambda reaches pi/5 and the sum would read twice that
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "exp(s/10)", np.eye(2),
        [["exp(s/10)/10 + 0.05*sin(2*pi*x1)*(1+s)*exp(s/5)", "0", "0"],
         ["0", "0", "0"], ["0", "0", "0"]], scheme=SCHEME)
    report = rigid_report(ids)
    assert report["lambda_max"] > 0.5
    assert report["lambda_route_gap_max"] < 1e-12


def test_closedness_holds_with_perturbed_normal_normal_component():
    # k(nu,nu) is unconstrained by the closedness statement: with leafy phi and
    # p = p(x2) the form lambda is order 0.1 yet d(phi lambda) vanishes leafwise
    grid = Grid.product(1.0, 33, (24, 24), (1.0, 1.0))
    base = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    env = grid.coord_env()
    p = 0.05 * np.cos(2 * np.pi * np.broadcast_to(env["x2"], grid.shape))
    kd = np.array(full_grid(base.k.data, grid))  # k of the recipe does not vary along s
    kd[0, 0] = kd[0, 0] + p * base.phi.data**2
    ids = InitialDataSet(grid, base.phi, base.metric,
                         Field(grid, "sym2", kd), scheme=SCHEME)
    lam = lambda_form(ids)
    assert lam.max_norm() > 0.1
    dlam = geometry.exterior_d(lam, SCHEME)
    assert np.max(np.abs(dlam.data[1, 2])) > 0.1   # d lambda alone does not vanish
    for tau in (0.0, 0.5, 1.0):
        d_leaf, id_leaf = closedness_residual(ids, tau)
        assert d_leaf.max_norm() < 1e-9
        assert id_leaf.max_norm() < 1e-9


def test_closedness_detects_non_gradient_normal_coupling():
    # k(X,nu) = d log phi(X) + s eta(X) with eta non-closed must be flagged
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    base = rigid_recipe(grid, "exp(0.05*sin(2*pi*x1))", scheme=SCHEME)
    env = grid.coord_env()
    eta = 0.1 * np.cos(2 * np.pi * np.broadcast_to(env["x2"], grid.shape))
    kd = np.array(full_grid(base.k.data, grid))  # k of the recipe does not vary along s
    kd[0, 1] = kd[1, 0] = kd[0, 1] + np.broadcast_to(env["s"], grid.shape) * eta
    ids = InitialDataSet(grid, base.phi, base.metric,
                         Field(grid, "sym2", kd), scheme=SCHEME)
    for tau in (0.25, 0.5, 0.75):
        d_leaf, id_leaf = closedness_residual(ids, tau)
        assert d_leaf.max_norm() > 0.1
        assert id_leaf.max_norm() > 0.1
    d_full, id_full = closedness_residual(ids)
    assert d_full.max_norm() > 0.1 and id_full.max_norm() > 0.1


# --- two for three -----------------------------------------------------------------


def test_two_for_three_flat_and_static():
    flat = rigid_recipe(grid3(17, 16), "1", scheme=SCHEME)
    r = two_for_three_residual(flat, 0.5)
    assert r.lhs.max_norm() == 0.0 and r.rhs.max_norm() == 0.0
    assert r.residual.max_norm() == 0.0 and r.gdot_defect.max_norm() == 0.0
    leafy = leafy_recipe()
    r2 = two_for_three_residual(leafy, 0.5)
    assert r2.residual.max_norm() < 1e-15
    assert r2.gdot_defect.max_norm() == 0.0


def test_two_for_three_on_expanding_family():
    # g_s = (1+0.2 s) delta with k chosen so chi+ = 0 and k(X,nu) = dlog phi(X);
    # j and lambda are each nonzero along s while their leaf parts cancel
    grid = Grid.product(1.0, 32, (16, 16), (1.0, 1.0))
    phi = exprlang.parse("exp(s/10)*(1 + 0.05*sin(2*pi*x1))")
    k = [[exprlang.Num(0.0)] * 3 for _ in range(3)]
    k[0][0] = exprlang.diff(phi, "s")
    k[0][1] = k[1][0] = exprlang.diff(phi, "x1")
    k[0][2] = k[2][0] = exprlang.diff(phi, "x2")
    k[1][1] = k[2][2] = exprlang.parse(
        "-0.2/(2*exp(s/10)*(1 + 0.05*sin(2*pi*x1)))")
    ids = InitialDataSet.product(grid, phi,
                                 [["1 + 0.2*s", "0"], ["0", "1 + 0.2*s"]],
                                 k, scheme=SCHEME)
    rho, j = constraints(ids)
    assert rho.max_norm() > 1.0                      # the data is not vacuum
    assert np.max(np.abs(j.data[0])) > 1.0
    r = two_for_three_residual(ids, 0.5)
    assert r.residual.max_norm() < 1e-12
    assert r.gdot_defect.max_norm() < 1e-12


# --- MOTS variation ----------------------------------------------------------------


def test_variation_flat_is_zero():
    flat = rigid_recipe(grid3(17, 16), "1", scheme=SCHEME)
    var = variation_residual(flat, 0.5)
    assert var.theta_rate.max_norm() == 0.0
    assert var.residual.max_norm() == 0.0
    assert var.cross_check.max_norm() == 0.0


@pytest.mark.parametrize("phi", ["exp(0.05*sin(2*pi*x1))", "exp(s/10)"])
def test_variation_identity_on_recipes(phi):
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    ids = rigid_recipe(grid, phi, scheme=SCHEME)
    var = variation_residual(ids, 0.5)
    assert var.cross_check.max_norm() < 1e-12
    assert var.residual.max_norm() < 1e-10


def test_variation_identity_needs_mots():
    # theta+ != 0 breaks the simplified stability form while the two algebraic
    # routes for the right side still agree
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "1 + 0.1*s^2", np.eye(2),
        [["0.2*s", "0", "0"], ["0", "0.1*sin(2*pi*x1)", "0"], ["0", "0", "0.1"]],
        scheme=SCHEME)
    assert theta_plus_field(ids).max_norm() > 0.1
    var = variation_residual(ids, 0.5)
    assert var.cross_check.max_norm() < 1e-12
    assert var.residual.max_norm() > 1e-3


def test_the_variation_differentiates_the_leaf_lapse_once(monkeypatch):
    # delta d phi is taken from the dphi the variation terms already hold
    ids = leafy_recipe()
    idx = leaf_index(ids.grid, 0.5)
    phi = leaf_values(ids.phi.data, ids.grid, idx)
    calls = []
    for module in (rigidity, geometry):
        def counted(data, *args, original=module.partial_stack, **kwargs):
            if np.shape(data) == phi.shape and np.array_equal(data, phi):
                calls.append(original)
            return original(data, *args, **kwargs)
        monkeypatch.setattr(module, "partial_stack", counted)
    rigidity._variation_terms(ids, idx)
    assert len(calls) == 1


def test_theta_plus_field_matches_leaf_geometry():
    # theta+ over M is the trace of each leaf's chi+ by that leaf's own metric
    ids = leafy_recipe()
    th = theta_plus_field(ids)
    for tau in (0.0, 0.5, 1.0):
        idx = leaf_index(ids.grid, tau)
        g_tau, _ = leaf_curvature(ids, idx)
        chi = leaf_values(chi_plus_field(ids), ids.grid, idx)
        theta = np.einsum("ab...,ab...->...", g_tau.ginv, chi)
        assert np.max(np.abs(full_grid(th.data, ids.grid)[idx] - theta)) < 1e-14


# --- flat-leaf decompositions -------------------------------------------------------


def random_band_limited_covector(leaf, rng, amp=0.3, modes=2):
    env = leaf.coord_env()
    data = np.zeros((leaf.ndim,) + leaf.shape)
    for c in range(leaf.ndim):
        for kx in range(-modes, modes + 1):
            for ky in range(-modes, modes + 1):
                a = rng.uniform(-amp, amp)
                ph = rng.uniform(0, 2 * np.pi)
                data[c] += a * np.cos(2 * np.pi * (kx * env["x1"] + ky * env["x2"]) + ph)
    return Field(leaf, "covector", data)


def test_hodge_decompose_pure_cases():
    leaf = torus((16, 16), (1.0, 1.0))
    f = sample(leaf, "sin(2*pi*x1)*cos(2*pi*x2)", kind="scalar")
    df = exterior_d(f, SCHEME)
    split = hodge_decompose(df, np.eye(2))
    assert split.harmonic.max_norm() < 1e-15
    assert split.coexact.max_norm() < 1e-13
    assert field_difference(split.exact, df).max_norm() < 1e-13
    mean_free = f.data - f.data.mean()
    assert np.max(np.abs(split.potential.data - mean_free)) < 1e-13

    const = Field(leaf, "covector", np.stack([1.5 * np.ones(leaf.shape),
                                              -0.7 * np.ones(leaf.shape)]))
    split_c = hodge_decompose(const, np.eye(2))
    assert split_c.exact.max_norm() == 0.0
    assert split_c.coexact.max_norm() == 0.0
    assert field_difference(split_c.harmonic, const).max_norm() == 0.0


def test_hodge_decompose_random():
    leaf = torus((16, 16), (1.0, 1.0))
    rng = np.random.default_rng(5)
    omega = random_band_limited_covector(leaf, rng)
    split = hodge_decompose(omega, np.eye(2))
    recon = field_sum(split.exact, split.harmonic, split.coexact)
    assert field_difference(recon, omega).max_norm() < 1e-12
    ginv = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape)
    assert abs(l2_inner(split.exact, split.coexact, ginv)) < 1e-12
    assert abs(l2_inner(split.exact, split.harmonic, ginv)) < 1e-12
    assert abs(l2_inner(split.coexact, split.harmonic, ginv)) < 1e-12
    dpot = exterior_d(split.potential, SCHEME)
    assert field_difference(dpot, split.exact).max_norm() < 1e-12
    g = flat_torus_metric(leaf)
    gam = geometry.christoffels(g, SCHEME)
    assert codifferential(split.coexact, g, gam, SCHEME).max_norm() < 1e-12


def test_div_part_identity():
    leaf = torus((16, 16), (1.0, 1.0))
    const = Field(leaf, "covector", np.stack([0.4 * np.ones(leaf.shape),
                                              1.1 * np.ones(leaf.shape)]))
    assert div_part_identity_residual(const, np.eye(2), SCHEME).max_norm() == 0.0
    f = sample(leaf, "sin(2*pi*x1)*cos(2*pi*x2)", kind="scalar")
    grad = exterior_d(f, SCHEME)
    assert div_part_identity_residual(grad, np.eye(2), SCHEME).max_norm() < 1e-10
    rng = np.random.default_rng(11)
    omega = random_band_limited_covector(leaf, rng)
    assert div_part_identity_residual(omega, np.eye(2), SCHEME).max_norm() < 1e-11


def test_tt_split_pure_cases():
    leaf = torus((16, 16), (1.0, 1.0))
    g = flat_torus_metric(leaf)
    gam = geometry.christoffels(g, SCHEME)

    conformal = Field(leaf, "sym2",
                      np.broadcast_to((0.7 * np.eye(2)).reshape(2, 2, 1, 1),
                                      (2, 2) + leaf.shape).copy())
    s1 = tt_split(conformal, np.eye(2), SCHEME)
    assert s1.c == pytest.approx(0.7, abs=1e-14)
    assert s1.w.max_norm() == 0.0 and s1.h.max_norm() < 1e-14

    rng = np.random.default_rng(13)
    omega = random_band_limited_covector(leaf, rng)
    lie = lie_metric(g.sharp(omega.data), g, gam, SCHEME)
    lie_f = Field(leaf, "sym2", 0.5 * (lie + np.swapaxes(lie, 0, 1)))
    s2 = tt_split(lie_f, np.eye(2), SCHEME)
    assert abs(s2.c) < 1e-14
    assert s2.h.max_norm() < 1e-12
    assert field_difference(s2.lie, lie_f).max_norm() < 1e-12

    tf = np.zeros((2, 2) + leaf.shape)
    tf[0, 0], tf[1, 1] = 0.3, -0.3
    tf[0, 1] = tf[1, 0] = 0.2
    s3 = tt_split(Field(leaf, "sym2", tf), np.eye(2), SCHEME)
    assert abs(s3.c) == 0.0 and s3.w.max_norm() == 0.0
    assert np.max(np.abs(s3.h.data - tf)) == 0.0


def test_tt_split_tangent_inputs():
    # inputs tangent to the flat deformation space: constant sym2 + Lie parts
    leaf = Grid.product(1.0, 9, (24, 24), (1.0, 1.0)).leaf()
    g = flat_torus_metric(leaf)
    gam = geometry.christoffels(g, SCHEME)
    rng = np.random.default_rng(42)
    for _ in range(5):
        const = rng.uniform(-1, 1, (2, 2))
        const = const + const.T
        w = random_band_limited_covector(leaf, rng)
        lie = lie_metric(g.sharp(w.data), g, gam, SCHEME)
        gdot = Field(leaf, "sym2", 0.5 * (lie + np.swapaxes(lie, 0, 1))
                     + np.broadcast_to(const.reshape(2, 2, 1, 1),
                                       (2, 2) + leaf.shape))
        split = tt_split(gdot, np.eye(2), SCHEME)
        assert split.tr_h_max < 1e-12
        assert split.div_h_max < 1e-10
        recon = split.h.data + split.c * g.data + split.lie.data
        assert np.max(np.abs(recon - gdot.data)) < 1e-13


def test_j_equation_kernel_and_spectral_gap():
    leaf = torus((16, 16), (1.0, 1.0))
    g = flat_torus_metric(leaf)
    # constant trace-free tensors and multiples of g solve the leaf j-equation
    tf = np.zeros((2, 2) + leaf.shape)
    tf[0, 0], tf[1, 1] = 0.3, -0.3
    tf[0, 1] = tf[1, 0] = 0.2
    gam = geometry.christoffels(g, SCHEME)
    assert leaf_div_minus_dtr(Field(leaf, "sym2", tf), g, gam, SCHEME).max_norm() == 0.0
    cg = Field(leaf, "sym2", 0.7 * g.data)
    assert leaf_div_minus_dtr(cg, g, gam, SCHEME).max_norm() == 0.0

    assert spectral_gap(leaf, np.eye(2)) == pytest.approx(4 * np.pi**2, rel=1e-13)
    wide = torus((16, 16), (1.0, 2.0))
    assert spectral_gap(wide, np.eye(2)) == pytest.approx(np.pi**2, rel=1e-13)

    # Rayleigh bound: ||delta d beta|| >= gap ||beta|| for mean-free co-exact beta
    rng = np.random.default_rng(17)
    omega = random_band_limited_covector(leaf, rng)
    beta = hodge_decompose(omega, np.eye(2)).coexact
    lap = codifferential(geometry.exterior_d(beta, SCHEME), g, gam, SCHEME)
    ginv = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape)
    assert l2_norm(beta, ginv) > 1e-3
    assert l2_norm(lap, ginv) >= spectral_gap(leaf, np.eye(2)) * l2_norm(beta, ginv) * (1 - 1e-10)


def test_decomposition_input_validation():
    leaf = torus((16, 16), (1.0, 1.0))
    omega = Field(leaf, "covector", np.zeros((2,) + leaf.shape))
    with pytest.raises(MeshError):
        hodge_decompose(omega, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(MeshError):
        spectral_gap(leaf, np.eye(3))


# --- aggregate report ---------------------------------------------------------------


def test_rigid_report_contents():
    ids = leafy_recipe(17, 16)
    rep = rigid_report(ids, taus=(0.0, 0.5, 1.0))
    json.dumps(rep)   # plain floats only
    res = parallel_residuals(ids)
    assert rep["nabla_v_max"] == res["all"]
    assert rep["nabla_v_s_max"] == res["s"]
    assert rep["nabla_v_leaf_max"] == res["leaf"]
    assert rep["lambda_max"] == lambda_form(ids).max_norm()
    rho, j = constraints(ids)
    assert rep["rho_max"] == float(np.max(np.abs(rho.data)))
    assert rep["dec_margin_min"] == float(np.min(dec_margin(ids, rho, j).data))
    for tag in ("leaf_000", "leaf_008", "leaf_016"):
        for name in ("lambda", "d_phi_lambda", "dlambda_identity", "two_for_three",
                     "gdot_defect", "variation_residual", "variation_cross_check",
                     "chi_plus", "theta_plus"):
            assert f"{tag}_{name}_max" in rep
    assert rep["two_for_three_max"] == max(rep[f"leaf_{i:03d}_two_for_three_max"]
                                           for i in (0, 8, 16))
    # rigid data: every defect entry is tiny
    assert rep["nabla_v_max"] < 1e-11
    assert rep["marginal_defect_max"] < 1e-8
    assert rep["two_for_three_max"] < 1e-12


# data set -> the results a rigidity report stores per leaf_shared builder: one
# per distinct s node its inputs are read at over the report's three leaves
SHARED_PARTS = {
    # nothing varies along s
    "scenes/recipe.scene": {"leaf_curvature": 1, "_leaf_rate_terms": 1, "_variation_terms": 1},
    # the leaf metric varies along s, so nothing is shared
    "tests/golden/svary_metric.scene": {
        "leaf_curvature": 3, "_leaf_rate_terms": 3, "_variation_terms": 3},
    # k varies along s over a metric and lapse that do not
    "tests/golden/svary_k.scene": {
        "leaf_curvature": 1, "_leaf_rate_terms": 1, "_variation_terms": 3},
    # the leaf metric does not vary along s, so its rate along s is exactly 0
    "tests/golden/offdiag.scene": {
        "leaf_curvature": 1, "_leaf_rate_terms": 1, "_variation_terms": 1},
    # the lapse, and with it g_ss, varies along s
    "tests/golden/allaxes.scene": {
        "leaf_curvature": 3, "_leaf_rate_terms": 3, "_variation_terms": 3},
    # k(nu, .), which X is made of, varies along s
    "svary_k_nu": {"leaf_curvature": 1, "_leaf_rate_terms": 1, "_variation_terms": 3},
    # the lapse varies along s over a metric that does not (the constructor does not
    # tie g_ss to phi)
    "svary_phi": {"leaf_curvature": 1, "_leaf_rate_terms": 1, "_variation_terms": 3},
}


def _sharing_data(name, tmp_path):
    """A function that builds a fresh data set of the named case."""
    if name == "svary_phi":
        def build():
            base = rigid_recipe(grid3(11, 16), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
            phi = sample(base.grid, "(1 + 0.1*sin(2*pi*x1))*(1 + 0.1*s)")
            return InitialDataSet(base.grid, phi, base.metric, base.k, base.scheme)
        return build
    path = ROOT / name
    if name == "svary_k_nu":
        path = tmp_path / "svary_k_nu.scene"
        path.write_text((ROOT / "tests/golden/svary_k.scene").read_text().replace(
            "k_0_1 = 0.2*pi*cos(2*pi*x1)", "k_0_1 = 0.2*pi*cos(2*pi*x1)*(1 + 0.5*s)"))
    scene = parse_scene(path)
    return lambda: scene_initial_data(scene)


@pytest.mark.parametrize("name", sorted(SHARED_PARTS))
def test_leaves_share_only_results_whose_input_slices_match(name, tmp_path, monkeypatch):
    build = _sharing_data(name, tmp_path)
    ids = build()
    built = []
    curvature = geometry.curvature

    def counted(metric, scheme):
        built.append(metric.grid)
        return curvature(metric, scheme)

    monkeypatch.setattr(geometry, "curvature", counted)
    rigid_report(ids)
    monkeypatch.undo()
    parts = collections.Counter(key[0].__name__ for key in ids._derived
                                if isinstance(key, tuple) and key[0].__name__ in SHARED_PARTS[name])
    assert parts == SHARED_PARTS[name]
    assert built.count(ids.grid.leaf()) == parts["leaf_curvature"]
    # each leaf's results equal those of a data set that computes that leaf alone, bit for bit
    count = ids.grid.counts[0]
    for idx in sorted({0, count // 2, count - 1}):
        tau = idx * ids.grid.spacing[0]
        alone = build()
        for check in (leaf_null_values, two_for_three_residual, variation_residual):
            got, want = leaf_arrays(check(ids, tau)), leaf_arrays(check(alone, tau))
            assert sorted(got) == sorted(want) and len(want) >= 3, check.__name__
            for path, array in want.items():
                assert got[path].shape == array.shape, (check.__name__, idx, path)
                assert same_bits(got[path], array), (check.__name__, idx, path)
