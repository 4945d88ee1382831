"""Acceptance gate: one test per advertised numerical guarantee.

Each criterion asserts its stated tolerance on the grids named in the README;
run with `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion.  Where a residual sits at round-off on every resolution, the order
fit is skipped (an order measured on noise is meaningless) and the round-off
level itself is asserted.
"""
import warnings
from pathlib import Path

import numpy as np
import pytest

from idrig import exprlang, geometry
from idrig import killing_dev as kdm
from idrig.mesh import Grid, Field, Scheme, full_grid, partial
from idrig.initial_data import InitialDataSet, constraints, ambient_derivative
from idrig.mesh import partial_stack
from idrig.rigidity import (rigid_recipe, build_parallel_candidate,
                            parallel_residuals, lambda_form, closedness_residual,
                            two_for_three_residual, variation_residual)
from idrig.scene import parse_scene, scene_initial_data

from helpers import CORPUS, SCHEME, sample_expr, order_passes, torus
from references import (ambient_pairing, div_part_identity_residual, hodge_decompose, l2_inner,
                        l2_norm, lie_metric, parallel_transport, spectral_gap, tt_split)

SCENES = Path(__file__).resolve().parents[1] / "scenes"

# the three lapse profiles used by the construction criteria: leaf-and-s
# mixed, s-only (vacuum), and s-polynomial (exact for the fd4 stencil)
PROFILES = (
    "exp(0.1*s^2)*(1 + 0.05*sin(2*pi*x1) + 0.04*cos(2*pi*x2))",
    "exp(s/10)",
    "1 + 0.2*s + 0.1*s^2 + 0.05*sin(2*pi*x1)*cos(2*pi*x2)",
)
LEVELS = (16, 32, 64)
HS = tuple(1.0 / (n - 1) for n in LEVELS)


def recipe_at(phi, n_s, leaf=16):
    grid = Grid.product(1.0, n_s, (leaf, leaf), (1.0, 1.0))
    return rigid_recipe(grid, phi, scheme=SCHEME)


def band_limited_covector(leaf, rng, amp=0.3, modes=2):
    env = leaf.coord_env()
    data = np.zeros((leaf.ndim,) + leaf.shape)
    for c in range(leaf.ndim):
        for kx in range(-modes, modes + 1):
            for ky in range(-modes, modes + 1):
                a = rng.uniform(-amp, amp)
                ph = rng.uniform(0, 2 * np.pi)
                data[c] += a * np.cos(2 * np.pi * (kx * env["x1"] + ky * env["x2"]) + ph)
    return Field(leaf, "covector", data)


def flat_torus_metric(leaf):
    data = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape).copy()
    return geometry.MetricField(Field(leaf, "sym2", data))


def quiet_build_kd(ids, section=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return kdm.build_kd(ids, section)


def test_criterion_01_constraint_exactness():
    # flat vacuum: both densities vanish; k = g on flat 3-data: rho = 3, j = 0
    flat = scene_initial_data(parse_scene(SCENES / "flat.scene"))
    rho, j = constraints(flat)
    assert rho.max_norm() < 1e-12
    assert j.max_norm() < 1e-12
    const = scene_initial_data(parse_scene(SCENES / "constant_k.scene"))
    rho, j = constraints(const)
    assert np.max(np.abs(rho.data - 3.0)) < 1e-12
    assert j.max_norm() < 1e-12


def test_criterion_02_ambient_connection_metricity():
    # d_c gbar(V,W) = gbar(D_c V, W) + gbar(V, D_c W) for 5 random section
    # pairs at N = 32; fields polynomial in s so the fd direction is exact
    grid = Grid.product(1.0, 32, (32, 32), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "(1+0.2*s)*(1+0.1*sin(2*pi*x1))", np.eye(2),
        [["0.1*s", "0", "0"], ["0", "0.05*cos(2*pi*x2)", "0"], ["0", "0", "0"]],
        scheme=SCHEME)
    rng = np.random.default_rng(20260814)
    env = grid.coord_env()

    def random_section():
        def scalar():
            c = rng.uniform(-1, 1, 4)
            s_part = c[0] + c[1] * np.broadcast_to(env["s"], grid.shape)
            leaf = (1 + 0.3 * c[2] * np.sin(2 * np.pi * env["x1"])
                    + 0.3 * c[3] * np.cos(2 * np.pi * env["x2"]))
            return (s_part * np.broadcast_to(leaf, grid.shape)).copy()
        from idrig.initial_data import AmbientVector
        return AmbientVector(grid, scalar(), np.stack([scalar() for _ in range(3)]))

    for _ in range(5):
        v, w = random_section(), random_section()
        lhs = partial_stack(ambient_pairing(ids, v, w), grid, SCHEME)
        dav, dxv = ambient_derivative(ids, v)
        daw, dxw = ambient_derivative(ids, w)
        lhs -= (-dav * w.a + np.einsum("ab...,ca...,b...->c...",
                                       ids.metric.data, dxv, w.x))
        lhs -= (-v.a * daw + np.einsum("ab...,a...,cb...->c...",
                                       ids.metric.data, v.x, dxw))
        assert np.max(np.abs(lhs)) < 1e-10


def test_criterion_03_parallel_field_construction():
    # the recipe's candidate section: exact in leaf directions (spectral),
    # s-direction residual decays at >= 3.5 under {16, 32, 64} refinement
    for phi in PROFILES:
        s_errs, leaf_errs = [], []
        for n_s in LEVELS:
            res = parallel_residuals(recipe_at(phi, n_s))
            s_errs.append(res["s"])
            leaf_errs.append(res["leaf"])
        assert max(leaf_errs) < 1e-10, phi
        assert order_passes(HS, s_errs, 3.5), (phi, s_errs)


def test_criterion_04_lambda_and_closedness():
    # lambda under the same order/floor regime; d(phi lambda) and the
    # d lambda + d log phi ^ lambda identity vanish leafwise at round-off
    for phi in PROFILES:
        lams = []
        for n_s in LEVELS:
            ids = recipe_at(phi, n_s)
            lams.append(lambda_form(ids).max_norm())
            for tau in (0.0, 0.5, 1.0):
                d_leaf, id_leaf = closedness_residual(ids, tau)
                assert d_leaf.max_norm() < 1e-10, (phi, n_s, tau)
                assert id_leaf.max_norm() < 1e-10, (phi, n_s, tau)
        assert order_passes(HS, lams, 3.5), (phi, lams)
    # negative control: perturbing k(nu,nu) makes lambda order 0.1 while the
    # identity residual stays below 1e-9
    grid = Grid.product(1.0, 33, (24, 24), (1.0, 1.0))
    base = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    env = grid.coord_env()
    p = 0.05 * np.cos(2 * np.pi * np.broadcast_to(env["x2"], grid.shape))
    kd = np.array(full_grid(base.k.data, grid))  # k of the recipe does not vary along s
    kd[0, 0] = kd[0, 0] + p * base.phi.data**2
    ids = InitialDataSet(grid, base.phi, base.metric,
                         Field(grid, "sym2", kd), scheme=SCHEME)
    assert lambda_form(ids).max_norm() > 0.1
    for tau in (0.0, 0.5, 1.0):
        assert closedness_residual(ids, tau)[1].max_norm() < 1e-9


def test_criterion_05_two_for_three():
    # uniformly expanding leaf family: the identity's two fd-error legs share
    # one gradient structure and cancel to round-off on every resolution, so
    # the floor branch applies; the rigid recipe is exact
    errs = []
    for n_s in LEVELS:
        phi = exprlang.parse("exp(s/10)*(1 + 0.05*sin(2*pi*x1))")
        k = [[exprlang.Num(0.0)] * 3 for _ in range(3)]
        k[0][0] = exprlang.diff(phi, "s")
        k[0][1] = k[1][0] = exprlang.diff(phi, "x1")
        k[0][2] = k[2][0] = exprlang.diff(phi, "x2")
        k[1][1] = k[2][2] = exprlang.parse(
            "-0.2/(2*exp(s/10)*(1 + 0.05*sin(2*pi*x1)))")
        ids = InitialDataSet.product(
            Grid.product(1.0, n_s, (16, 16), (1.0, 1.0)), phi,
            [["1 + 0.2*s", "0"], ["0", "1 + 0.2*s"]], k, scheme=SCHEME)
        rho, _ = constraints(ids)
        assert rho.max_norm() > 1.0          # the family is not vacuum
        errs.append(two_for_three_residual(ids, 0.5).residual.max_norm())
    assert order_passes(HS, errs, 1.9), errs
    recipe = recipe_at("exp(0.1*sin(2*pi*x1))", 17)
    assert two_for_three_residual(recipe, 0.5).residual.max_norm() < 1e-10


def test_criterion_06_variation_formula_cross_check():
    # simplified vs unsimplified right-hand side on three data sets,
    # including one far from the marginal case
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    cases = [
        rigid_recipe(grid, "exp(0.05*sin(2*pi*x1))", scheme=SCHEME),
        rigid_recipe(grid, "exp(s/10)", scheme=SCHEME),
        InitialDataSet.product(
            grid, "1 + 0.1*s^2", np.eye(2),
            [["0.2*s", "0", "0"], ["0", "0.1*sin(2*pi*x1)", "0"],
             ["0", "0", "0.1"]], scheme=SCHEME),
    ]
    for ids in cases:
        var = variation_residual(ids, 0.5)
        assert var.cross_check.max_norm() < 1e-9
    assert variation_residual(cases[0], 0.5).residual.max_norm() < 1e-10
    assert variation_residual(cases[2], 0.5).residual.max_norm() > 1e-3


def test_criterion_07_hodge_tt_pipeline():
    leaf = torus((16, 16), (1.0, 1.0))
    g = flat_torus_metric(leaf)
    gam = geometry.christoffels(g, SCHEME)
    ginv = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape)
    rng = np.random.default_rng(20260814)
    for _ in range(5):
        omega = band_limited_covector(leaf, rng)
        split = hodge_decompose(omega, np.eye(2))
        recon = split.exact + split.harmonic + split.coexact
        assert (recon - omega).max_norm() < 1e-12
        for a, b in ((split.exact, split.coexact),
                     (split.exact, split.harmonic),
                     (split.coexact, split.harmonic)):
            assert abs(l2_inner(a, b, ginv)) < 1e-12
        assert div_part_identity_residual(omega, np.eye(2), SCHEME).max_norm() < 1e-11
    for _ in range(5):
        const = rng.uniform(-1, 1, (2, 2))
        const = const + const.T
        w = band_limited_covector(leaf, rng)
        lie = lie_metric(g.sharp(w.data), g, gam, SCHEME)
        gdot = Field(leaf, "sym2", 0.5 * (lie + np.swapaxes(lie, 0, 1))
                     + np.broadcast_to(const.reshape(2, 2, 1, 1),
                                       (2, 2) + leaf.shape))
        split = tt_split(gdot, np.eye(2), SCHEME)
        assert split.tr_h_max < 1e-10
        assert split.div_h_max < 1e-10
    # discrete spectrum bound: || delta d beta || >= gap || beta || on
    # co-exact beta, so delta beta harmonic forces delta beta = 0
    gap = spectral_gap(leaf, np.eye(2))
    assert gap == pytest.approx(4 * np.pi**2, rel=1e-13)
    beta = hodge_decompose(band_limited_covector(leaf, rng), np.eye(2)).coexact
    lap = geometry.codifferential(geometry.exterior_d(beta, SCHEME), g, gam, SCHEME)
    assert l2_norm(lap, ginv) >= gap * l2_norm(beta, ginv) * (1 - 1e-10)


def test_criterion_08_development_einstein_pattern():
    # leaf-dependent recipe: frame table matches the (rho, -sigma rho, rho)
    # pattern and scal vanishes, within 1e-8 x (1 + curvature scale)
    ids = scene_initial_data(parse_scene(SCENES / "recipe.scene"))
    kd = quiet_build_kd(ids)
    table = kdm.kd_einstein(kd)
    res = dict(kdm.kd_pattern_residuals(kd))
    res.pop("sigma")
    rho, _ = constraints(ids)
    tol = 1e-8 * (1 + rho.max_norm())
    for key, value in res.items():
        assert value < tol, (key, value)
    assert np.max(np.abs(table.scal)) < tol
    # energy-condition transfer where the data satisfies it: the s-only
    # member is vacuum, the sampled margin is exactly zero
    vac = scene_initial_data(parse_scene(SCENES / "vacuum_kd.scene"))
    kdv = quiet_build_kd(vac)
    tv = kdm.kd_einstein(kdv)
    assert np.max(np.abs(tv.ein)) == 0.0
    assert kdm.kd_dec_check(kdv).minimum >= -1e-8
    # and the scan detects violation where the data itself violates it
    assert kdm.kd_dec_check(kd).minimum < -1.0


def test_criterion_09_ppwave_einstein_formula():
    profiles = ("sin(2*pi*x1)",
                "2 + 0.3*sin(2*pi*x1)*cos(2*pi*x2)",
                "(1+0.5*s)*(2 + 0.2*sin(2*pi*x1)) + s^2")
    for f in profiles:
        spec = kdm.ppwave(Grid.product(1.0, 21, (24, 24), (1.0, 1.0)), f, SCHEME)
        rep = kdm.ppwave_einstein_check(spec)
        assert rep.formula_residual_max < 1e-10, f
        assert rep.parallel_kv_max < 1e-11, f
        assert rep.off_component_max < 1e-10, f
        assert rep.scal_max < 1e-10, f


def test_criterion_10_roundtrip_uniqueness():
    # induce data on {v = 0} from a positive profile, rebuild the development,
    # compare the two Einstein frame tables
    spec = kdm.ppwave(Grid.product(1.0, 21, (24, 24), (1.0, 1.0)),
                      "2 + 0.3*sin(2*pi*x1)*cos(2*pi*x2)", SCHEME)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gaps = kdm.kd_roundtrip(spec, "0")
    assert gaps["frame_table_gap_max"] < 1e-8
    assert gaps["einstein_gap_max"] < 1e-8
    assert gaps["metric_gap_max"] < 1e-8


def test_criterion_11_transport_conservation():
    ids = recipe_at("exp(0.1*sin(2*pi*x1))", 17)
    v = build_parallel_candidate(ids)
    a, x = full_grid(v.a, ids.grid), full_grid(v.x, ids.grid)
    loop = [(3, 2, 2), (3, 10, 2), (3, 10, 10), (3, 2, 10), (3, 2, 2)]
    i0 = loop[0]
    res = parallel_transport(ids, a[i0], x[(slice(None),) + i0], loop)
    assert res.length == pytest.approx(2.0)
    assert res.drift / res.length < 1e-8
    assert abs(res.a_end - a[i0]) < 1e-8
    assert np.max(np.abs(res.x_end - x[(slice(None),) + i0])) < 1e-8
    assert res.norm_start == pytest.approx(res.norm_end, abs=1e-8)


def test_criterion_12_derivative_oracle_orders():
    # every derivative operator against symbolic differentiation on the fixed
    # 10-expression corpus: fd2/fd4 at nominal order, spectral at round-off
    for src in CORPUS:
        ast = exprlang.parse(src)
        ds, dx = exprlang.diff(ast, "s"), exprlang.diff(ast, "x1")
        for scheme, want in (("fd2", 1.9), ("fd4", 3.8)):
            errs = []
            for n_s in (17, 33, 65):
                g = Grid.product(1.0, n_s, (16,), (1.0,))
                got = partial(sample_expr(g, ast), g, 0, Scheme(scheme, "spectral"))
                errs.append(float(np.max(np.abs(got - sample_expr(g, ds)))))
            assert order_passes([1 / 16, 1 / 32, 1 / 64], errs, want), (src, scheme)
        g = Grid.product(1.0, 9, (32,), (1.0,))
        got = partial(sample_expr(g, ast), g, 1, SCHEME)
        assert np.max(np.abs(got - sample_expr(g, dx))) < 1e-11, src
    # periodic fd variants at their nominal orders on a band-limited profile
    ast = exprlang.parse("sin(2*pi*x1) + 0.3*cos(4*pi*x1)")
    d = exprlang.diff(ast, "x1")
    for scheme, want in (("fd2", 1.9), ("fd4", 3.8)):
        errs = []
        for n in (16, 32, 64):
            g = Grid.product(1.0, 9, (n,), (1.0,))
            got = partial(sample_expr(g, ast), g, 1, Scheme("fd4", scheme))
            errs.append(float(np.max(np.abs(got - sample_expr(g, d)))))
        assert order_passes([1 / 16, 1 / 32, 1 / 64], errs, want)
