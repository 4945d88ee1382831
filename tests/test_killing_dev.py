import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from idrig import exprlang, geometry, killing_dev
from idrig.mesh import DataError, Grid, MeshError, full_grid
from idrig.initial_data import (AmbientVector, InitialDataSet, ambient_residual_norm,
                                constraints, null_section)
from idrig.rigidity import rigid_recipe
from idrig.killing_dev import (Spacetime, dead_v_partials, lorentz_signature_defect,
                               build_kd, kd_einstein, kd_pattern_residuals,
                               kd_dec_check, causal_direction_set, ppwave,
                               ppwave_einstein_check, induce_from_ppwave, kd_roundtrip,
                               dump_frame_table_csv, wave_ein_ss, wave_spacetime,
                               spacetime_christoffels, spacetime_curvature)
from idrig.scene import parse_scene, scene_ppwave
from helpers import (SCHEME, constant_along, dense_frame_dec_minimum, grid3, pattern_grid,
                     pattern_metric, reduced_along)
from references import unparse


def rigid_kd(ids):
    """The development of `ids` along the rigid data's section phi^{-1}(e0 + nu)."""
    return build_kd(ids, null_section(ids, 1))


# --- spacetime calculus -------------------------------------------------------------


def test_dead_v_partials_shape():
    grid = grid3(9, 8)
    out = dead_v_partials(np.ones(grid.shape), grid, SCHEME)
    assert out.shape == (4,) + grid.shape
    assert np.max(np.abs(out[0])) == 0.0
    assert np.max(np.abs(out[1:])) == 0.0


def test_spacetime_christoffels_are_those_of_the_curvature_pass():
    spec = ppwave(grid3(9, 8), "1 + 0.3*sin(2*pi*x1)*cos(2*pi*x2) + 0.2*s^2", SCHEME)
    gbar = wave_spacetime(spec).gbar
    ginv, gamma = spacetime_christoffels(Spacetime(spec.grid, gbar, SCHEME))
    curv = spacetime_curvature(Spacetime(spec.grid, gbar, SCHEME))
    assert np.max(np.abs(gamma)) > 0.1
    assert np.array_equal(gamma, curv.gamma)
    assert np.array_equal(ginv, curv.ginv)


def _warped_wave_metric():
    """A wave with a warped leaf block, so det gbar and Gamma^a_ab vary.

    Waves and developments have constant det gbar, so on them the trace terms
    of Ricci vanish and would go unchecked.
    """
    spec = ppwave(grid3(9, 8), "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)", SCHEME)
    gbar = np.array(full_grid(wave_spacetime(spec).gbar, spec.grid))  # gbar_22 varies along s too
    gbar[2, 2] = np.exp(0.2 * gbar[1, 1] + 0.1 * spec.grid.coord_env()["s"])
    return gbar, spec.grid


def test_spacetime_ricci_matches_the_contracted_riemann_tensor():
    gbar, grid = _warped_wave_metric()
    ginv, gamma = spacetime_christoffels(Spacetime(grid, gbar, SCHEME))
    assert np.max(np.abs(np.einsum("aab...->b...", gamma))) > 0.01
    riem_up = geometry.riemann_from(gamma, dead_v_partials(gamma, grid, SCHEME))
    reference = np.einsum("abad...->bd...", riem_up)
    ricci = spacetime_curvature(Spacetime(grid, gbar, SCHEME)).ricci
    scale = np.max(np.abs(reference))
    assert scale > 0.1
    assert np.max(np.abs(ricci - reference)) < 1e-12 * scale


def test_spacetime_curvature_builds_no_riemann_tensor(monkeypatch):
    gbar, grid = _warped_wave_metric()
    expected = spacetime_curvature(Spacetime(grid, gbar, SCHEME))

    def forbidden(*args):
        raise AssertionError("spacetime_curvature built a Riemann tensor")

    ranks = []

    def recording(data, grid, scheme):
        ranks.append(np.ndim(data) - grid.ndim)
        return dead_v_partials(data, grid, scheme)

    monkeypatch.setattr(geometry, "riemann_from", forbidden)
    monkeypatch.setattr(killing_dev, "dead_v_partials", recording)
    curv = spacetime_curvature(Spacetime(grid, gbar, SCHEME))
    assert np.array_equal(curv.einstein, expected.einstein)
    assert sorted(ranks) == [1, 2]     # the trace of Gamma and the metric, never Gamma


def test_lorentz_signature_defect():
    grid = grid3(9, 8)
    mink = np.zeros((4, 4) + grid.shape)
    mink[0, 0] = -1.0
    mink[1, 1] = mink[2, 2] = mink[3, 3] = 1.0
    assert lorentz_signature_defect(mink, grid) == 0
    eucl = np.zeros((4, 4) + grid.shape)
    for i in range(4):
        eucl[i, i] = 1.0
    assert lorentz_signature_defect(eucl, grid) == int(np.prod(grid.shape))
    # one node of the constant metric stands for every node of the grid
    assert lorentz_signature_defect(eucl[..., :1, :1, :1], grid) == int(np.prod(grid.shape))


def dense_signature_defect(gbar):
    eigs = np.linalg.eigvalsh(np.moveaxis(gbar, (0, 1), (-2, -1)))
    return int(np.count_nonzero(np.sum(eigs < 0.0, axis=-1) != 1))


def test_lorentz_signature_defect_counts_block_by_block_as_the_dense_count():
    grid = grid3(9, 8)
    wave = wave_spacetime(ppwave(grid, "1 + 0.5*sin(2*pi*x1)", SCHEME)).gbar
    recipe = rigid_kd(rigid_recipe(grid3(17, 16), "exp(s/10)", scheme=SCHEME)).spacetime.gbar
    # the wave with the leaf direction x2 turned timelike at half the nodes: a
    # second negative eigenvalue, on an axis uncoupled from the others
    two = np.array(full_grid(wave, grid))
    two[3, 3] = np.where(np.arange(grid.shape[0])[:, None, None] % 2 == 0, -1.0, 1.0)
    assert geometry._node_matrices(wave).shape == (1, 8, 1, 4, 4)  # the profile varies along x1
    full = lambda gbar: np.broadcast_to(gbar, gbar.shape[:2] + grid.shape)
    assert lorentz_signature_defect(wave, grid) == dense_signature_defect(full(wave)) == 0
    recipe_grid = grid3(17, 16)
    assert lorentz_signature_defect(recipe, recipe_grid) == dense_signature_defect(
        np.broadcast_to(recipe, recipe.shape[:2] + recipe_grid.shape)) == 0
    bad = lorentz_signature_defect(two, grid)
    assert bad == dense_signature_defect(full(two)) == 5 * 8 * 8  # the even s nodes


@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_distinct_node_signature_count_equals_the_per_node_count(ndim):
    gbar = pattern_metric(pattern_grid(ndim), "gbar")
    gbar[2, 2, 3::4] = -0.5  # a second negative direction on two s slices
    grid = pattern_grid(ndim)
    for axes in ((), (0,), tuple(range(1, ndim)), tuple(range(ndim))):
        reduced = reduced_along(gbar, axes)
        cut = geometry._node_matrices(reduced).shape[:-2]
        assert all(cut[axis] == 1 for axis in axes), axes
        assert lorentz_signature_defect(reduced, grid) == dense_signature_defect(
            constant_along(gbar, axes)), axes
    assert lorentz_signature_defect(gbar, grid) == 2 * 8 ** (ndim - 1)


def test_a_scaled_lorentzian_metric_counts_no_node():
    # a congruence keeps the signature; each matrix is scaled before eigvalsh, so
    # entries near 1e300 do not round the small eigenvalue of the {v, s} block to 0
    grid = grid3(9, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the section of this coarse grid is not parallel
        gbar = rigid_kd(rigid_recipe(grid, "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME)).spacetime.gbar
    assert dense_signature_defect(np.broadcast_to(gbar, gbar.shape[:2] + grid.shape)) == 0
    c = 1e150
    assert lorentz_signature_defect(c * c * gbar, grid) == 0
    # the development of the lapse c phi: gbar_ss = c^2 phi^2, gbar_vs = 1, leaves unchanged
    huge_lapse = gbar.copy()
    huge_lapse[1, 1] *= c * c
    assert lorentz_signature_defect(huge_lapse, grid) == 0


def test_a_non_lorentzian_slice_along_constant_axes_counts_every_node():
    # a wave whose profile depends on s alone, so the metric is constant along
    # the leaves; at one s node the leaf direction x2 turns timelike
    grid = grid3(9, 8)
    wave = wave_spacetime(ppwave(grid, "1 + 0.5*s^2", SCHEME)).gbar.copy()
    wave[3, 3, 4] = -1.0
    assert geometry._node_matrices(wave).shape == (9, 1, 1, 4, 4)
    dense = np.broadcast_to(wave, wave.shape[:2] + grid.shape)
    assert lorentz_signature_defect(wave, grid) == dense_signature_defect(dense) == 8 * 8


# --- developments of rigid data -----------------------------------------------------


def test_flat_development_is_minkowski():
    kd = rigid_kd(rigid_recipe(grid3(17, 16), "1", scheme=SCHEME))
    curv = spacetime_curvature(kd.spacetime)
    assert np.max(np.abs(curv.einstein)) == 0.0
    assert np.max(np.abs(curv.scal)) == 0.0
    table = kd_einstein(kd)
    assert table.orthonormality_defect < 1e-14
    assert table.labels == ("e0", "e1", "e2", "nu")


def test_vacuum_development_is_exactly_ricci_flat():
    # phi = phi(s): the only connection coefficient is along s and the
    # curvature cancels identically, not just to stencil accuracy
    kd = rigid_kd(rigid_recipe(grid3(17, 16), "exp(s/10)", scheme=SCHEME))
    assert np.max(np.abs(spacetime_curvature(kd.spacetime).einstein)) == 0.0
    res = kd_pattern_residuals(kd)
    assert res["off_pattern_max"] < 1e-15
    assert res["leaf_block_max"] == 0.0
    assert res["scal_max"] == 0.0
    dec = kd_dec_check(kd)
    assert dec.minimum >= -1e-8 * (1.0 + dec.scale)


def test_development_einstein_pattern_on_leafy_recipe():
    ids = rigid_recipe(grid3(17, 16), "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    kd = rigid_kd(ids)
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
    kd = rigid_kd(ids)
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
    assert np.max(np.abs(spacetime_curvature(kd.spacetime).einstein)) == 0.0

    # the rigid data's section on non-rigid data is not parallel
    loose = InitialDataSet.product(grid, "exp(0.1*sin(2*pi*x1))", np.eye(2),
                                   [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    with pytest.warns(UserWarning, match="not parallel"):
        rigid_kd(loose)


def test_build_kd_stores_the_section_maxima():
    loose = InitialDataSet.product(grid3(9, 8), "exp(0.1*sin(2*pi*x1))", np.eye(2),
                                   [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kd = rigid_kd(loose)
    section = null_section(loose, 1)
    lightlike = np.max(np.abs(-section.a**2 + loose.metric.norm2_vector(section.x)))
    assert kd.lightlike_max == float(lightlike)
    assert kd.parallel_max == float(np.max(ambient_residual_norm(loose, section)))
    assert kd.parallel_max > 1e-3


# --- causal direction sampling ------------------------------------------------------


def test_causal_direction_set():
    for m in (2, 3, 4, 5):
        dirs = causal_direction_set(m, 48)
        assert dirs.shape == (48, m)
        assert np.all(np.isfinite(dirs))
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12
        assert np.array_equal(dirs, causal_direction_set(m, 48))
    for m in (0, 1):
        with pytest.raises(MeshError):
            causal_direction_set(m)


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
def test_distinct_node_dec_scan_equals_the_whole_grid_scan(ndim):
    # a table of length 1 along some axes scans its own nodes and finds the whole
    # grid's first minimum bit for bit; one of length 1 along every axis, where
    # einsum would sum in another order, too
    grid = pattern_grid(ndim)
    rng = np.random.default_rng(ndim)
    every = tuple(range(ndim))
    cases = [(random_frame_table(rng, grid, ties), axes)
             for axes in (tuple(a for a in every if mask >> a & 1) for mask in range(2 ** ndim))
             for ties in (False, True)]
    # the all-zero tables of a vacuum development, in both signs
    cases += [(np.full((ndim + 1, ndim + 1) + grid.shape, zero), every) for zero in (0.0, -0.0)]
    for table, axes in cases:
        assert np.array_equal(table, table.swapaxes(0, 1))
        got = killing_dev.frame_dec_minimum(reduced_along(table, axes), grid, count=16)
        want = dense_frame_dec_minimum(constant_along(table, axes), grid, count=16)
        assert float.hex(got.minimum) == float.hex(want.minimum), axes
        assert (got.node, got.pair, got.coords) == (want.node, want.pair, want.coords), axes
        assert float.hex(got.scale) == float.hex(want.scale)
        assert got.direction_count == want.direction_count


# (_BATCH_VALUES, _SCAN_VALUES) that cut the scan into single pairs, runs of three d',
# single rays d and batches of three rays d, given the ray count and the nodes scanned
CHUNK_BUDGETS = {
    "pair": lambda rays, nodes: (1, 1),
    "three_pairs": lambda rays, nodes: (1, 3 * nodes),
    "ray": lambda rays, nodes: (1, rays * nodes),
    "three_rays": lambda rays, nodes: (3 * rays * nodes + nodes, rays * nodes),
}


@pytest.mark.parametrize("chunk", sorted(CHUNK_BUDGETS))
@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_chunked_dec_scan_equals_the_one_pair_loop(monkeypatch, ndim, chunk):
    # chunk boundaries between pairs, runs of d' and rays d keep the first minimum, its node
    # and its pair: tables with ties, zero tables in both signs, and tables of length 1
    # along every axis, which the scan spreads along the last
    grid = pattern_grid(ndim)
    rng = np.random.default_rng(100 + ndim)
    every = tuple(range(ndim))
    cases = [(random_frame_table(rng, grid, ties=True), axes)
             for axes in ((), (0,), every[1:], every)]
    cases += [(random_frame_table(rng, grid, ties=False), every)]
    cases += [(np.full((ndim + 1, ndim + 1) + grid.shape, zero), axes)
              for zero in (0.0, -0.0) for axes in ((), every)]
    for count in (16, 5):
        rays = len(causal_direction_set(ndim, count))
        for table, axes in cases:
            reduced = reduced_along(table, axes)
            nodes = reduced[0, 0].size if reduced[0, 0].size > 1 else grid.counts[-1]
            batch, scan = CHUNK_BUDGETS[chunk](rays, nodes)
            monkeypatch.setattr(killing_dev, "_BATCH_VALUES", batch)
            monkeypatch.setattr(killing_dev, "_SCAN_VALUES", scan)
            got = killing_dev.frame_dec_minimum(reduced, grid, count=count)
            want = dense_frame_dec_minimum(constant_along(table, axes), grid, count=count)
            assert float.hex(got.minimum) == float.hex(want.minimum), (count, axes)
            assert (got.node, got.pair, got.coords) == (want.node, want.pair, want.coords), axes
            assert float.hex(got.scale) == float.hex(want.scale)


@pytest.mark.parametrize("count,axes,scan", [(1024, (0,), None), (1024, (0,), 2**13),
                                             (64, (0, 2), None)])
def test_dec_scan_memory_stays_within_one_chunk(monkeypatch, count, axes, scan):
    # at 1024 directions one ray's values over 64 nodes are 512 KB, cut into runs of
    # _SCAN_VALUES; at 64 over 8 nodes they are 4 KB, batched up to _BATCH_VALUES.  The
    # scan holds one chunk at a time, beside the table and the ray set
    if scan is not None:
        monkeypatch.setattr(killing_dev, "_SCAN_VALUES", scan)
    grid = pattern_grid(3)
    table = reduced_along(random_frame_table(np.random.default_rng(7), grid, ties=False), axes)
    chunk = killing_dev._SCAN_VALUES if count > 64 else killing_dev._BATCH_VALUES
    tracemalloc.start()
    try:
        report = killing_dev.frame_dec_minimum(table, grid, count=count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.direction_count == count
    rays = count * (grid.ndim + 1) * 8
    bookkeeping = 8192
    assert peak <= 8 * chunk + table.nbytes + rays + bookkeeping, peak


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
    assert rep["formula_residual_max"] < 1e-10
    assert rep["off_component_max"] == 0.0
    assert rep["scal_max"] == 0.0
    assert rep["parallel_kv_max"] == 0.0
    # leaf laplacian of each profile changes sign
    assert rep["dec_margin_min"] < -1e-8 * (1.0 + np.max(np.abs(wave_ein_ss(spec))))


def test_wave_einstein_sign_convention():
    grid = grid3(17, 16)
    st = wave_spacetime(ppwave(grid, "sin(2*pi*x1)", scheme=SCHEME))
    env = grid.coord_env()
    want = 2 * np.pi**2 * np.broadcast_to(np.sin(2 * np.pi * env["x1"]), grid.shape)
    assert np.max(np.abs(spacetime_curvature(st).einstein[1, 1] - want)) < 1e-10


def test_wave_with_pure_s_profile_is_vacuum():
    spec = ppwave(grid3(17, 16), "2 + 0.5*s + 0.3*s^2", scheme=SCHEME)
    assert np.max(np.abs(spacetime_curvature(wave_spacetime(spec)).einstein)) == 0.0
    assert ppwave_einstein_check(spec)["dec_margin_min"] >= -1e-8 * (
        1.0 + np.max(np.abs(wave_ein_ss(spec))))


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
    wave = wave_spacetime(spec)
    wave_curv = spacetime_curvature(wave)
    ein_ss = wave_ein_ss(spec)
    assert wave_spacetime(spec) is wave
    assert spacetime_curvature(wave) is wave_curv
    assert wave_ein_ss(spec) is ein_ss
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kd = rigid_kd(rigid_recipe(grid3(9, 8), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME))
    curv = spacetime_curvature(kd.spacetime)
    table = kd_einstein(kd)
    assert spacetime_curvature(kd.spacetime) is curv
    assert kd_einstein(kd) is table
    for array in (wave.gbar, wave_curv.einstein, ein_ss, curv.gamma, curv.einstein, curv.scal,
                  table.frame, table.ein):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # another spec of the same profile builds its own wave
    assert wave_spacetime(ppwave(spec.grid, spec.f, SCHEME)) is not wave
    # a development is not changed after construction
    with pytest.raises(AttributeError):
        kd.lightlike_max = 0.0


def test_induce_validation():
    grid = grid3(9, 8)
    spec = ppwave(grid, "2 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    with pytest.raises(DataError, match="depend on s only"):
        induce_from_ppwave(spec, w="0.1*sin(2*pi*x1)")
    with pytest.raises(DataError, match="spacelike"):
        induce_from_ppwave(spec, w="2*s")      # f - 2 w' = f - 4 < 0


@pytest.mark.parametrize("name", ["roundtrip", "wave"])
def test_graph_profile_evaluates_as_its_parsed_text(name):
    # the profile f - 2 w' is composed from the ASTs; its value at every node is that of
    # the text the two ASTs render to, parsed again
    scene = parse_scene(Path(__file__).resolve().parents[1] / "scenes" / f"{name}.scene")
    spec = scene_ppwave(scene)
    env = spec.grid.coord_env()
    graphs = [scene.hypersurface or exprlang.Num(0.0)] + [
        exprlang.parse(w) for w in ("0.05*s^2", "0.1*sin(2*pi*s) + s/3")]
    for w in graphs:
        dw = exprlang.diff(w, "s")
        text = f"({unparse(spec.f)}) - 2*({unparse(dw)})"
        got = killing_dev.grid_values(spec.grid, killing_dev.graph_profile(spec, dw), env)
        want = killing_dev.grid_values(spec.grid, exprlang.parse(text), env)
        assert got.tobytes() == want.tobytes(), text


def test_graph_profile_keeps_a_negative_base_under_its_power():
    # a text round trip reads (0-2)^(s+x1), folded to the literal -2, as -(2^(s+x1));
    # the profile is not real on a grid, so the spec is built unchecked
    spec = killing_dev.PpWaveSpec(grid3(9, 8), exprlang.parse("1 + (0-2)^(s+x1)"), SCHEME)
    profile = killing_dev.graph_profile(spec, exprlang.parse("0.5"))
    assert exprlang.evaluate(profile, {"s": 2.0, "x1": 0.0}) == 4.0


def test_the_wave_section_is_parallel_on_induced_data():
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    spec = ppwave(grid, "2 + 0.2*sin(2*pi*x1) + 0.3*s", scheme=SCHEME)
    ids = induce_from_ppwave(spec)
    section = null_section(ids, -1)
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
    kd = rigid_kd(rigid_recipe(grid, "1", scheme=SCHEME))
    table = kd_einstein(kd)
    path = tmp_path / "frame_table.csv"
    dump_frame_table_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x1", "x2", "comp", "value"]
    assert len(rows) == 1 + int(np.prod(grid.shape)) * 16
    assert rows[1][3] == "ein_e0_e0"
    assert all(float(r[4]) == 0.0 for r in rows[1:17])
