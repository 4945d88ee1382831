import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from idrig import exprlang, geometry, killing_dev
from idrig.mesh import DataError, Grid, Field, MeshError
from idrig.initial_data import (AmbientVector, InitialDataSet, ambient_residual_norm,
                                constraints)
from idrig.rigidity import build_parallel_candidate, rigid_recipe
from idrig.killing_dev import (dead_v_partials, lorentz_signature_defect,
                               build_kd, kd_einstein, kd_pattern_residuals,
                               kd_dec_check, causal_direction_set, ppwave,
                               ppwave_einstein_check, induce_from_ppwave,
                               restricted_killing_section, kd_roundtrip,
                               dump_frame_table_csv, ppwave_metric,
                               spacetime_christoffels, spacetime_curvature)
from helpers import (SCHEME, constant_along, dense_frame_dec_minimum, grid3, pattern_grid,
                     pattern_metric)


# --- spacetime calculus -------------------------------------------------------------


def test_dead_v_partials_shape():
    grid = grid3(9, 8)
    out = dead_v_partials(np.ones(grid.shape), grid, SCHEME)
    assert out.shape == (4,) + grid.shape
    assert np.max(np.abs(out[0])) == 0.0
    assert np.max(np.abs(out[1:])) == 0.0


def test_spacetime_christoffels_are_those_of_the_curvature_pass():
    spec = ppwave(grid3(9, 8), "1 + 0.3*sin(2*pi*x1)*cos(2*pi*x2) + 0.2*s^2", SCHEME)
    gbar = ppwave_metric(spec)
    ginv, gamma = spacetime_christoffels(gbar, spec.grid, SCHEME)
    curv = spacetime_curvature(gbar, spec.grid, SCHEME)
    assert np.max(np.abs(gamma)) > 0.1
    assert np.array_equal(gamma, curv.gamma)
    assert np.array_equal(ginv, curv.ginv)


def _warped_wave_metric():
    """A wave with a warped leaf block, so det gbar and Gamma^a_ab vary.

    Waves and developments have constant det gbar, so on them the trace terms
    of Ricci vanish and would go unchecked.
    """
    spec = ppwave(grid3(9, 8), "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)", SCHEME)
    gbar = ppwave_metric(spec)
    gbar[2, 2] = np.exp(0.2 * gbar[1, 1] + 0.1 * spec.grid.coord_env()["s"])
    return gbar, spec.grid


def test_spacetime_ricci_matches_the_contracted_riemann_tensor():
    gbar, grid = _warped_wave_metric()
    ginv, gamma = spacetime_christoffels(gbar, grid, SCHEME)
    assert np.max(np.abs(np.einsum("aab...->b...", gamma))) > 0.01
    riem_up = geometry.riemann_from(gamma, dead_v_partials(gamma, grid, SCHEME))
    reference = np.einsum("abad...->bd...", riem_up)
    ricci = spacetime_curvature(gbar, grid, SCHEME).ricci
    scale = np.max(np.abs(reference))
    assert scale > 0.1
    assert np.max(np.abs(ricci - reference)) < 1e-12 * scale


def test_spacetime_curvature_builds_no_riemann_tensor(monkeypatch):
    gbar, grid = _warped_wave_metric()
    expected = spacetime_curvature(gbar, grid, SCHEME)

    def forbidden(*args):
        raise AssertionError("spacetime_curvature built a Riemann tensor")

    ranks = []

    def recording(data, grid, scheme):
        ranks.append(np.ndim(data) - grid.ndim)
        return dead_v_partials(data, grid, scheme)

    monkeypatch.setattr(geometry, "riemann_from", forbidden)
    monkeypatch.setattr(killing_dev, "dead_v_partials", recording)
    curv = spacetime_curvature(gbar, grid, SCHEME)
    assert np.array_equal(curv.einstein, expected.einstein)
    assert sorted(ranks) == [1, 2]     # the trace of Gamma and the metric, never Gamma


def test_lorentz_signature_defect():
    grid = grid3(9, 8)
    mink = np.zeros((4, 4) + grid.shape)
    mink[0, 0] = -1.0
    mink[1, 1] = mink[2, 2] = mink[3, 3] = 1.0
    assert lorentz_signature_defect(mink) == 0
    eucl = np.zeros((4, 4) + grid.shape)
    for i in range(4):
        eucl[i, i] = 1.0
    assert lorentz_signature_defect(eucl) == int(np.prod(grid.shape))


def dense_signature_defect(gbar):
    eigs = np.linalg.eigvalsh(np.moveaxis(gbar, (0, 1), (-2, -1)))
    return int(np.count_nonzero(np.sum(eigs < 0.0, axis=-1) != 1))


def test_lorentz_signature_defect_counts_block_by_block_as_the_dense_count():
    grid = grid3(9, 8)
    wave = ppwave_metric(ppwave(grid, "1 + 0.5*sin(2*pi*x1)", SCHEME))
    recipe = build_kd(rigid_recipe(grid3(17, 16), "exp(s/10)", scheme=SCHEME)).gbar
    # the wave with the leaf direction x2 turned timelike at half the nodes: a
    # second negative eigenvalue in a 1x1 block
    two = wave.copy()
    two[3, 3] = np.where(np.arange(grid.shape[0])[:, None, None] % 2 == 0, -1.0, 1.0)
    assert len(geometry.metric_blocks(wave)) == 3
    assert lorentz_signature_defect(wave) == dense_signature_defect(wave) == 0
    assert lorentz_signature_defect(recipe) == dense_signature_defect(recipe) == 0
    bad = lorentz_signature_defect(two)
    assert bad == dense_signature_defect(two) == 5 * 8 * 8  # the even s nodes


@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_distinct_node_signature_count_equals_the_per_node_count(ndim):
    gbar = pattern_metric(pattern_grid(ndim), "gbar")
    gbar[2, 2, 3::4] = -0.5  # a second negative direction on two s slices
    for axes in ((), (0,), tuple(range(1, ndim)), tuple(range(ndim))):
        const = constant_along(gbar, axes)
        cut = geometry._block_matrices(const, (0, 1)).shape[:-2]
        assert all(cut[axis] == 1 for axis in axes), axes
        assert lorentz_signature_defect(const) == dense_signature_defect(const), axes
    assert lorentz_signature_defect(gbar) == 2 * 8 ** (ndim - 1)


def test_a_non_lorentzian_slice_along_constant_axes_counts_every_node():
    # a wave whose profile depends on s alone, so every block is constant along
    # the leaves; at one s node the leaf direction x2 turns timelike
    grid = grid3(9, 8)
    wave = ppwave_metric(ppwave(grid, "1 + 0.5*s^2", SCHEME))
    wave[3, 3, 4] = -1.0
    assert geometry._block_matrices(wave, (3,)).shape == (9, 1, 1, 1, 1)
    assert lorentz_signature_defect(wave) == dense_signature_defect(wave) == 8 * 8


# --- developments of rigid data -----------------------------------------------------


def test_flat_development_is_minkowski():
    kd = build_kd(rigid_recipe(grid3(17, 16), "1", scheme=SCHEME))
    curv = kd.curvature()
    assert np.max(np.abs(curv.einstein)) == 0.0
    assert np.max(np.abs(curv.scal)) == 0.0
    table = kd_einstein(kd)
    assert table.orthonormality_defect < 1e-14
    assert table.labels == ("e0", "e1", "e2", "nu")


def test_vacuum_development_is_exactly_ricci_flat():
    # phi = phi(s): the only connection coefficient is along s and the
    # curvature cancels identically, not just to stencil accuracy
    kd = build_kd(rigid_recipe(grid3(17, 16), "exp(s/10)", scheme=SCHEME))
    assert np.max(np.abs(kd.curvature().einstein)) == 0.0
    res = kd_pattern_residuals(kd)
    assert res["off_pattern_max"] < 1e-15
    assert res["leaf_block_max"] == 0.0
    assert res["scal_max"] == 0.0
    dec = kd_dec_check(kd)
    assert dec.minimum >= -1e-8 * (1.0 + dec.scale)


def test_development_einstein_pattern_on_leafy_recipe():
    ids = rigid_recipe(grid3(17, 16), "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    kd = build_kd(ids)
    rho, _ = constraints(ids)
    assert rho.max_norm() > 1.0
    res = kd_pattern_residuals(kd)
    scale = 1.0 + rho.max_norm()
    assert res["off_pattern_max"] < 1e-8 * scale
    assert res["leaf_block_max"] < 1e-12
    assert res["marginal_chain_max"] < 1e-12
    assert res["scal_max"] < 1e-11
    assert res["orthonormality_defect"] < 1e-14


def test_dec_scan_localizes_energy_violation():
    ids = rigid_recipe(grid3(17, 16), "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    rho, _ = constraints(ids)
    kd = build_kd(ids)
    dec = kd_dec_check(kd)
    assert dec.minimum < -1.0
    assert dec.minimum < -1e-8 * (1.0 + dec.scale)
    rho_argmin = np.unravel_index(int(np.argmin(rho.data)), rho.data.shape)
    assert dec.node == tuple(int(i) for i in rho_argmin)
    assert dec.coords[0] == 0.0 and dec.coords[1] == pytest.approx(0.75)


def test_build_kd_validation_and_warnings():
    flat = rigid_recipe(grid3(9, 8), "1", scheme=SCHEME)
    grid = flat.grid
    bad_a = AmbientVector(grid, np.zeros(grid.shape), np.zeros((3,) + grid.shape))
    with pytest.raises(MeshError):
        build_kd(flat, bad_a)

    # a = 1, X = 0: not lightlike, and the assembled metric is degenerate
    no_x = AmbientVector(grid, np.ones(grid.shape), np.zeros((3,) + grid.shape))
    with pytest.warns(UserWarning, match="not lightlike"):
        with pytest.raises(MeshError, match="Lorentzian"):
            build_kd(flat, no_x)

    # lightlike but stretched spatially: warns, still builds
    x = np.zeros((3,) + grid.shape)
    x[0] = 2.0
    stretched = AmbientVector(grid, 2.0 * np.ones(grid.shape), x)
    kd = build_kd(flat, stretched)
    assert np.max(np.abs(kd.curvature().einstein)) == 0.0

    # the default section on non-rigid data is not parallel
    loose = InitialDataSet.product(grid, "exp(0.1*sin(2*pi*x1))", np.eye(2),
                                   [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    with pytest.warns(UserWarning, match="not parallel"):
        build_kd(loose)


def test_build_kd_stores_the_section_maxima():
    loose = InitialDataSet.product(grid3(9, 8), "exp(0.1*sin(2*pi*x1))", np.eye(2),
                                   [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kd = build_kd(loose)
    section = build_parallel_candidate(loose)
    lightlike = np.max(np.abs(-section.a**2 + loose.metric.norm2_vector(section.x)))
    assert kd.lightlike_max == float(lightlike)
    assert kd.parallel_max == float(np.max(ambient_residual_norm(loose, section)))
    assert kd.parallel_max > 1e-3


# --- causal direction sampling ------------------------------------------------------


def test_causal_direction_set():
    assert np.array_equal(causal_direction_set(1), np.array([[1.0], [-1.0]]))
    for m in (2, 3, 4, 5):
        dirs = causal_direction_set(m, 48)
        assert dirs.shape == (48 if m > 1 else 2, m)
        assert np.all(np.isfinite(dirs))
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12
        assert np.array_equal(dirs, causal_direction_set(m, 48))
    with pytest.raises(MeshError):
        causal_direction_set(0)


def test_causal_direction_set_matches_scipy_quantile():
    ndtri = pytest.importorskip("scipy.special").ndtri
    for m in (4, 5):
        for count in (16, 64, 256, 4096):
            root = 2.0
            for _ in range(64):
                root = (1.0 + root) ** (1.0 / (m + 1))
            lattice = (0.5 + np.outer(np.arange(1, count + 1), root ** -np.arange(1, m + 1))) % 1.0
            want = ndtri(lattice)
            want /= np.linalg.norm(want, axis=1, keepdims=True)
            assert np.max(np.abs(causal_direction_set(m, count) - want)) < 1e-14, (m, count)


def test_a_4d_development_runs_without_scipy():
    # 4 spatial frame directions take the normal-quantile route of the direction set
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.modules['scipy'] = None; from idrig import cli; "
            "sys.exit(cli.main(['killing-dev', 'tests/golden/recipe4d.scene']))")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert (out.returncode, out.stderr) == (1, "")
    assert json.loads(out.stdout)["residuals"]["dec_margin_min"] < 0.0


def random_frame_table(rng, grid, ties):
    """A random symmetric frame table on `grid` with exact 0.0 and -0.0 entries;
    with `ties` its values are drawn from a few halves, so minima repeat."""
    shape = (grid.ndim + 1,) * 2 + grid.shape
    if ties:
        table = 0.5 * rng.integers(-2, 3, shape).astype(float)
    else:
        table = rng.standard_normal(shape)
        table[rng.random(shape) < 0.1] = 0.0
    table[rng.random(shape) < 0.1] = -0.0
    upper = np.triu(np.ones(shape[:2], dtype=bool)).reshape(shape[:2] + (1,) * grid.ndim)
    return np.where(upper, table, table.swapaxes(0, 1))


@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_distinct_node_dec_scan_equals_the_whole_grid_scan(ndim, monkeypatch):
    grid = pattern_grid(ndim)
    rng = np.random.default_rng(ndim)
    scanned = []  # the shape of each table the scan ran on
    first_slices = killing_dev._first_slices

    def recording(data, axes):
        table = first_slices(data, axes)
        scanned.append(table.shape)
        return table

    monkeypatch.setattr(killing_dev, "_first_slices", recording)
    every = tuple(range(ndim))
    cases = [(constant_along(random_frame_table(rng, grid, ties), axes), axes)
             for axes in (tuple(a for a in every if mask >> a & 1) for mask in range(2 ** ndim))
             for ties in (False, True)]
    # the all-zero tables of a vacuum development, in both signs
    cases += [(np.full((ndim + 1, ndim + 1) + grid.shape, zero), every) for zero in (0.0, -0.0)]
    for table, axes in cases:
        assert np.array_equal(table, table.swapaxes(0, 1))
        got = killing_dev.frame_dec_minimum(table, grid, count=16)
        want = dense_frame_dec_minimum(table, grid, count=16)
        assert float.hex(got.minimum) == float.hex(want.minimum), axes
        assert (got.node, got.pair, got.coords) == (want.node, want.pair, want.coords), axes
        assert float.hex(got.scale) == float.hex(want.scale)
        assert got.direction_count == want.direction_count
        # every constant axis is cut to one node, except the last axis of a table
        # constant along all of them
        kept = [axis for axis in every if scanned[-1][2 + axis] > 1]
        assert kept == ([ndim - 1] if axes == every else
                        [axis for axis in every if axis not in axes]), axes


# --- the plane-wave family ----------------------------------------------------------


WAVE_PROFILES = [
    "sin(2*pi*x1)",
    "2 + 0.3*sin(2*pi*x1)*cos(2*pi*x2)",
    "(1+0.5*s)*(2 + 0.2*sin(2*pi*x1)) + s^2",
]


@pytest.mark.parametrize("profile", WAVE_PROFILES)
def test_wave_einstein_closed_form(profile):
    spec = ppwave(grid3(17, 16), profile, scheme=SCHEME)
    rep = ppwave_einstein_check(spec)
    assert rep.formula_residual_max < 1e-10
    assert rep.off_component_max == 0.0
    assert rep.scal_max == 0.0
    assert rep.parallel_kv_max == 0.0
    # leaf laplacian of each profile changes sign
    assert rep.dec_margin_min < -1e-8 * (1.0 + np.max(np.abs(rep.expected_ss)))


def test_wave_einstein_sign_convention():
    grid = grid3(17, 16)
    rep = ppwave_einstein_check(ppwave(grid, "sin(2*pi*x1)", scheme=SCHEME))
    env = grid.coord_env()
    want = 2 * np.pi**2 * np.broadcast_to(np.sin(2 * np.pi * env["x1"]), grid.shape)
    assert np.max(np.abs(rep.einstein[1, 1] - want)) < 1e-10


def test_wave_with_pure_s_profile_is_vacuum():
    rep = ppwave_einstein_check(ppwave(grid3(17, 16), "2 + 0.5*s + 0.3*s^2",
                                       scheme=SCHEME))
    assert np.max(np.abs(rep.einstein)) == 0.0
    assert rep.dec_margin_min >= -1e-8 * (1.0 + np.max(np.abs(rep.expected_ss)))


def test_wave_profile_validation():
    grid = grid3(9, 8)
    with pytest.raises(MeshError, match="periodic"):
        ppwave(grid, "1 + x1", scheme=SCHEME)
    with pytest.raises(MeshError):
        ppwave(grid.leaf(), "1", scheme=SCHEME)


# --- data induction and the round trip ----------------------------------------------


def test_induced_data_closed_form():
    # on the graph v = 0: phi = sqrt(f), k_ss = -f_s/(2 sqrt f),
    # k_si = -f_i/(2 sqrt f), leaf block zero
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    spec = ppwave(grid, "2 + 0.2*sin(2*pi*x1) + 0.3*s", scheme=SCHEME)
    ids = induce_from_ppwave(spec)
    env = grid.coord_env()
    f = np.broadcast_to(exprlang.evaluate(spec.f, env), grid.shape)
    f_s = np.broadcast_to(exprlang.evaluate(exprlang.diff(spec.f, "s"), env), grid.shape)
    f_1 = np.broadcast_to(exprlang.evaluate(exprlang.diff(spec.f, "x1"), env), grid.shape)
    assert np.max(np.abs(ids.phi.data - np.sqrt(f))) == 0.0
    assert np.max(np.abs(ids.k.data[0, 0] + f_s / (2 * np.sqrt(f)))) < 1e-7
    assert np.max(np.abs(ids.k.data[0, 1] + f_1 / (2 * np.sqrt(f)))) < 1e-12
    assert np.max(np.abs(ids.k.data[0, 2])) == 0.0
    assert np.max(np.abs(ids.k.data[1:, 1:])) == 0.0


def test_induced_data_marginality():
    # induced data satisfies j = rho nu^flat: dominant energy is marginal
    # in modulus, with the outgoing direction opposite nu
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    spec = ppwave(grid, "1 + 0.2*sin(2*pi*x1)", scheme=SCHEME)
    ids = induce_from_ppwave(spec)
    rho, j = constraints(ids)
    assert rho.max_norm() > 1.0
    nu_flat = ids.metric.flat(ids.nu)
    assert np.max(np.abs(j.data - rho.data * nu_flat)) < 1e-8
    jnorm = np.sqrt(ids.metric.norm2_covector(j.data))
    assert np.max(np.abs(jnorm - np.abs(rho.data))) < 1e-8


def test_induced_data_is_built_once_per_graph():
    spec = ppwave(grid3(9, 8), "2 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    ids = induce_from_ppwave(spec, "0.1*s^2")
    assert induce_from_ppwave(spec, "0.1*s^2") is ids
    assert induce_from_ppwave(spec, exprlang.parse("0.1*s^2")) is ids
    assert induce_from_ppwave(spec) is not ids


def test_wave_and_development_store_derived_values_read_only():
    spec = ppwave(grid3(9, 8), "2 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    rep = ppwave_einstein_check(spec)
    assert ppwave_einstein_check(spec) is rep
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kd = build_kd(rigid_recipe(grid3(9, 8), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME))
    curv = kd.curvature()
    table = kd_einstein(kd)
    assert kd.curvature() is curv
    assert kd_einstein(kd) is table
    for array in (rep.einstein, rep.expected_ss, curv.gamma, curv.einstein, curv.scal,
                  table.frame, table.ein):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # another spec of the same profile checks its own wave
    assert ppwave_einstein_check(ppwave(spec.grid, spec.f, SCHEME)) is not rep


def test_induce_validation():
    grid = grid3(9, 8)
    spec = ppwave(grid, "2 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    with pytest.raises(DataError, match="depend on s only"):
        induce_from_ppwave(spec, w="0.1*sin(2*pi*x1)")
    with pytest.raises(DataError, match="spacelike"):
        induce_from_ppwave(spec, w="2*s")      # f - 2 w' = f - 4 < 0


def test_restricted_killing_section_is_parallel():
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    spec = ppwave(grid, "2 + 0.2*sin(2*pi*x1) + 0.3*s", scheme=SCHEME)
    ids = induce_from_ppwave(spec)
    section = restricted_killing_section(ids)
    assert np.max(np.abs(section.a - 1.0 / ids.phi.data)) == 0.0
    assert np.max(np.abs(section.x[0] + 1.0 / ids.phi.data**2)) < 1e-15
    from idrig.initial_data import ambient_residual_norm
    assert np.max(ambient_residual_norm(ids, section)) < 1e-6


@pytest.mark.parametrize("w", ["0", "0.1*s^2"])
def test_roundtrip_reproduces_shifted_wave(w):
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    spec = ppwave(grid, "2 + 0.2*sin(2*pi*x1) + 0.3*s", scheme=SCHEME)
    gaps = kd_roundtrip(spec, w=w)
    assert gaps["metric_gap_max"] < 1e-14
    assert gaps["einstein_gap_max"] < 5e-12
    assert gaps["frame_table_gap_max"] < 5e-12
    assert gaps["kd_formula_residual_max"] < 5e-12
    assert gaps["kd_off_component_max"] < 5e-12
    assert gaps["scal_max"] < 5e-12


def test_roundtrip_pure_s_wave_is_exact():
    grid = Grid.product(1.0, 21, (24, 24), (1.0, 1.0))
    spec = ppwave(grid, "2 + 0.3*s", scheme=SCHEME)
    gaps = kd_roundtrip(spec, w="0.05*s^2")
    assert gaps["metric_gap_max"] < 1e-15
    assert gaps["einstein_gap_max"] == 0.0
    assert gaps["frame_table_gap_max"] == 0.0
    assert gaps["scal_max"] == 0.0


# --- frame table emission -----------------------------------------------------------


def test_dump_frame_table_csv(tmp_path):
    grid = grid3(9, 8)
    kd = build_kd(rigid_recipe(grid, "1", scheme=SCHEME))
    table = kd_einstein(kd)
    path = tmp_path / "frame_table.csv"
    dump_frame_table_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x1", "x2", "comp", "value"]
    assert len(rows) == 1 + int(np.prod(grid.shape)) * 16
    assert rows[1][3] == "ein_e0_e0"
    assert all(float(r[4]) == 0.0 for r in rows[1:17])
