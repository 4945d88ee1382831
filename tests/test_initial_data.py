import numpy as np
import pytest

from idrig.mesh import Grid, Field, MeshError, full_grid, sample, partial_stack
from idrig import geometry
from idrig.initial_data import (InitialDataSet, AmbientVector, constraints,
                                dec_margin, j_normal,
                                ambient_derivative,
                                ambient_residual_norm,
                                ambient_curvature, ambient_curvature_pairing,
                                leaf_null_geometry)
from idrig.rigidity import (rigid_recipe, build_parallel_candidate, lambda_form,
                            theta_plus_field)
from helpers import SCHEME, grid3
from references import ambient_pairing, from_normal_components, parallel_transport


def flat_data(grid):
    n = grid.ndim
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    zero = [["0"] * n for _ in range(n)]
    return InitialDataSet.product(grid, "1", np.eye(n - 1), zero, scheme=SCHEME)


# --- derived fields are computed once --------------------------------------------


def test_derived_fields_are_stored_read_only():
    ids = rigid_recipe(grid3(9, 8), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    for fn in (constraints, lambda_form, theta_plus_field):
        assert fn(ids) is fn(ids)
    assert ids.curvature() is ids.curvature()
    # one leaf record per s node: a repeated tau and a tau that rounds to the same node
    leaf = leaf_null_geometry(ids, 0.5)
    assert leaf_null_geometry(ids, 0.5) is leaf
    assert leaf_null_geometry(ids, 0.5 + 0.3 * ids.grid.spacing[0]) is leaf
    assert leaf_null_geometry(ids, 0.25) is not leaf
    assert np.array_equal(leaf.curvature.christoffels,
                          geometry.christoffels(leaf.g_tau, ids.scheme))
    rho, j = constraints(ids)
    for array in (rho.data, j.data, lambda_form(ids).data, theta_plus_field(ids).data,
                  ids.curvature().christoffels, leaf.g_tau.ginv, leaf.curvature.christoffels,
                  leaf.curvature.scal, leaf.phi, leaf.k_ff.data, leaf.chi_plus.data,
                  leaf.theta_plus.data):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    # another data set builds its own fields
    other = rigid_recipe(grid3(9, 8), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    assert constraints(other) is not constraints(ids)
    assert np.array_equal(constraints(other)[0].data, rho.data)


# --- assembly and validation ---------------------------------------------------


def test_product_assembly():
    grid = grid3(9, 8)
    ids = InitialDataSet.product(grid, "exp(s/10)", np.eye(2),
                                 [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    assert np.max(np.abs(ids.metric.data[0, 0] - np.exp(grid.axis_coords(0) / 10)[:, None, None]**2)) < 1e-15
    assert np.all(ids.metric.data[1, 1] == 1.0) and np.all(ids.metric.data[0, 1] == 0.0)
    assert np.max(np.abs(ids.nu[0] * ids.phi.data - 1.0)) < 1e-16
    nu_flat = ids.metric.flat(ids.nu)   # nu^flat = phi ds
    assert np.max(np.abs(nu_flat[0] - ids.phi.data)) < 1e-15 and np.all(nu_flat[1:] == 0.0)


def test_validation_errors():
    grid = grid3(9, 8)
    torus = grid.leaf()
    zero = [["0"] * 3 for _ in range(3)]
    with pytest.raises(MeshError):
        InitialDataSet.product(torus, "1", np.eye(1), [["0"] * 2] * 2, scheme=SCHEME)
    with pytest.raises(MeshError):
        InitialDataSet.product(grid, "s - 1/2", np.eye(2), zero, scheme=SCHEME)
    g = np.zeros((3, 3) + grid.shape)
    g[0, 0] = 1.0
    g[1, 1] = g[2, 2] = 1.0
    g[0, 1] = g[1, 0] = 0.1
    with pytest.raises(MeshError):
        InitialDataSet(grid, sample(grid, "1"),
                       geometry.MetricField(Field(grid, "sym2", g)),
                       sample(grid, zero, kind="sym2"), scheme=SCHEME)


def test_from_normal_components():
    grid = grid3(9, 8)
    ids = from_normal_components(
        grid, "1 + 0.2*s", np.eye(2), "0.3*s", ["sin(2*pi*x1)", "0"],
        [["s", "0"], ["0", "0.1"]], scheme=SCHEME)
    env = grid.coord_env()
    phi = np.broadcast_to(1 + 0.2 * env["s"], grid.shape)
    assert np.max(np.abs(ids.k.data[0, 0] - phi**2 * np.broadcast_to(0.3 * env["s"], grid.shape))) < 1e-14
    assert np.max(np.abs(ids.k.data[0, 1] - phi * np.broadcast_to(np.sin(2 * np.pi * env["x1"]), grid.shape))) < 1e-14
    assert np.array_equal(ids.k.data[0, 1], ids.k.data[1, 0])
    assert np.max(np.abs(ids.k.data[2, 2] - 0.1)) == 0.0


# --- constraint maps -------------------------------------------------------------


def test_flat_data_is_vacuum():
    ids = flat_data(grid3(9, 16))
    rho, j = constraints(ids)
    assert rho.max_norm() == 0.0
    assert j.max_norm() == 0.0


def test_umbilic_k_equals_g():
    # k = g: rho = (tr k)^2/2 - |k|^2/2 = (9 - 3)/2 = 3, j = 0
    grid = grid3(9, 16)
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    ids = InitialDataSet.product(grid, "1", np.eye(2), eye, scheme=SCHEME)
    rho, j = constraints(ids)
    assert np.max(np.abs(rho.data - 3.0)) == 0.0
    assert j.max_norm() == 0.0
    margin = dec_margin(ids)
    assert np.min(margin.data) >= -1e-8 * (1.0 + np.max(np.abs(rho.data)))
    assert np.min(margin.data) == 3.0


def test_scaled_umbilic_on_warped_metric():
    # g = phi(s)^2 ds^2 + delta is flat; k = 0.2 g gives rho = 0.12 exactly
    grid = grid3(17, 16)
    phi = sample(grid, "exp(s/10)")
    g = np.zeros((3, 3) + grid.shape)
    g[0, 0] = phi.data**2
    g[1, 1] = g[2, 2] = 1.0
    ids = InitialDataSet(grid, phi, geometry.MetricField(Field(grid, "sym2", g)),
                         Field(grid, "sym2", 0.2 * g), scheme=SCHEME)
    rho, j = constraints(ids)
    assert np.max(np.abs(rho.data - 0.12)) < 1e-12
    assert j.max_norm() < 1e-12


# frozen values of a symbolic computation of (rho, j) for the data below,
# at node indices of Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
SYMBOLIC_NODES = [
    ((0, 0, 0), -0.0025, (0.031415926535897934, -0.005, 0.0)),
    ((8, 3, 11), 3.3374374512986034, (-0.0542116501823921, 0.3411872661206359, 0.0)),
    ((16, 8, 4), -0.0010845054162278158, (-0.1, 0.6398671614372069, 0.0)),
    ((24, 13, 7), -4.022249317688964, (-0.16223783596216323, -0.47849879205300794, 0.0)),
    ((32, 5, 15), 3.332431955914443, (-0.21016782299030212, 0.2228038644832194, 0.0)),
]


def test_constraints_match_symbolic_oracle():
    grid = Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "exp(s/10)*(1 + 0.1*sin(2*pi*x1))", np.eye(2),
        [["sin(s)*cos(2*pi*x1)/10", "0.05*cos(2*pi*x2)", "0"],
         ["0.05*cos(2*pi*x2)", "0.1*s^2", "0"],
         ["0", "0", "0.1*sin(2*pi*x1)*sin(2*pi*x2)"]], scheme=SCHEME)
    rho, j = constraints(ids)
    for idx, rho_want, j_want in SYMBOLIC_NODES:
        assert rho.data[idx] == pytest.approx(rho_want, abs=2e-7)
        for c in range(3):
            assert j.data[(c,) + idx] == pytest.approx(j_want[c], abs=2e-7)


def test_recipe_data_is_marginal_but_violates_dec():
    # nonconstant leaf profiles force rho < 0 somewhere, with |j|_g = |rho|
    ids = rigid_recipe(grid3(17, 16), "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    rho, j = constraints(ids)
    assert np.min(rho.data) < -1.0
    margin = dec_margin(ids, rho, j)
    assert np.max(margin.data) < 1e-8       # never strictly dominant
    assert np.min(margin.data) < -1.0       # and violated where rho < 0
    assert np.min(margin.data) < -1e-8 * (1.0 + np.max(np.abs(rho.data)))
    jnorm = np.sqrt(ids.metric.norm2_covector(j.data))
    assert np.max(np.abs(jnorm - np.abs(rho.data))) < 1e-8


def test_j_normal_projection():
    grid = grid3(9, 8)
    ids = flat_data(grid)
    j = Field(grid, "covector", np.stack([2.0 * np.ones(grid.shape),
                                          np.zeros(grid.shape),
                                          np.zeros(grid.shape)]))
    assert np.max(np.abs(j_normal(ids, j) - 2.0)) == 0.0


# --- ambient connection -----------------------------------------------------------


def test_ambient_pairing_signature():
    grid = grid3(9, 8)
    ids = flat_data(grid)
    e0 = AmbientVector(grid, np.ones(grid.shape), np.zeros((3,) + grid.shape))
    assert np.all(ambient_pairing(ids, e0, e0) == -1.0)
    ex = AmbientVector(grid, np.zeros(grid.shape),
                       np.stack([np.ones(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)]))
    assert np.all(ambient_pairing(ids, ex, ex) == 1.0)
    assert np.all(ambient_pairing(ids, e0, ex) == 0.0)


def test_flat_constant_section_is_parallel():
    grid = grid3(9, 8)
    ids = flat_data(grid)
    v = AmbientVector(grid, 0.7 * np.ones(grid.shape),
                      np.stack([0.1 * np.ones(grid.shape),
                                -0.3 * np.ones(grid.shape),
                                0.2 * np.ones(grid.shape)]))
    da, dx = ambient_derivative(ids, v)
    assert np.max(np.abs(da)) < 1e-13
    assert np.max(np.abs(dx)) < 1e-13
    assert np.max(ambient_residual_norm(ids, v)) < 1e-13
    y = np.stack([np.ones(grid.shape), np.zeros(grid.shape), np.zeros(grid.shape)])
    # nablabar_Y V is the contraction of D_c V with Y^c
    nv_a = np.einsum("c...,c...->...", y, da)
    nv_x = np.einsum("c...,cb...->b...", y, dx)
    assert abs(nv_a).max() < 1e-13 and np.abs(nv_x).max() < 1e-13
    cv = ambient_curvature(ids, v)
    assert np.max(np.abs(cv.a)) == 0.0 and np.max(np.abs(cv.x)) == 0.0


def test_metricity_of_ambient_connection():
    # d_c gbar(V, W) = gbar(D_c V, W) + gbar(V, D_c W) for random sections;
    # total s-degree of every product stays <= 4 so fd4 stencils are exact
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
        return AmbientVector(grid, scalar(), np.stack([scalar() for _ in range(3)]))

    for _ in range(5):
        v, w = random_section(), random_section()
        gvw = ambient_pairing(ids, v, w)
        lhs = partial_stack(gvw, grid, SCHEME)
        dav, dxv = ambient_derivative(ids, v)
        daw, dxw = ambient_derivative(ids, w)
        lhs -= (-dav * w.a + np.einsum("ab...,ca...,b...->c...", ids.metric.data, dxv, w.x))
        lhs -= (-v.a * daw + np.einsum("ab...,a...,cb...->c...", ids.metric.data, v.x, dxw))
        assert np.max(np.abs(lhs)) < 1e-10


def test_parallel_section_sub_identities():
    # a parallel (a, X) satisfies da(Y) = k(Y, -X) and nabla_Y(-X) = a k(Y,.)#
    grid = Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
    ids = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    v = build_parallel_candidate(ids)
    u = -v.x
    da = partial_stack(v.a, grid, SCHEME)
    assert np.max(np.abs(da - np.einsum("cb...,b...->c...", ids.k.data, u))) < 1e-11
    curv = ids.curvature()
    nu_cov = geometry.cov_vector(u, grid, curv.christoffels, SCHEME)
    k_sharp = np.einsum("be...,ce...->cb...", ids.metric.ginv, ids.k.data)
    assert np.max(np.abs(nu_cov - v.a * k_sharp)) < 1e-11


def test_ambient_curvature_annihilates_parallel_section():
    grid = Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
    ids = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    v = build_parallel_candidate(ids)
    cv = ambient_curvature(ids, v)
    assert np.max(np.abs(cv.a)) < 1e-9
    assert np.max(np.abs(cv.x)) < 1e-9


def test_ambient_curvature_matches_gauss_codazzi():
    # independent assembly of Rbar(.,.)V from the data curvature and k
    grid = Grid.product(1.0, 25, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "exp(s/10)*(1+0.1*sin(2*pi*x1))", np.eye(2),
        [["0.1*s^2", "0.05*cos(2*pi*x2)", "0"],
         ["0.05*cos(2*pi*x2)", "0.1*sin(2*pi*x1)", "0"],
         ["0", "0", "0.05*s"]], scheme=SCHEME)
    rng = np.random.default_rng(7)
    env = grid.coord_env()

    def scalar():
        c = rng.uniform(-1, 1, 4)
        s_part = c[0] + c[1] * np.broadcast_to(env["s"], grid.shape)
        leaf = (1 + 0.3 * c[2] * np.sin(2 * np.pi * env["x1"])
                + 0.3 * c[3] * np.cos(2 * np.pi * env["x2"]))
        return (s_part * np.broadcast_to(leaf, grid.shape)).copy()

    v = AmbientVector(grid, scalar(), np.stack([scalar() for _ in range(3)]))
    comm = ambient_curvature(ids, v)

    bundle = ids.curvature()
    nk = geometry.cov_rank2(ids.k.data, grid, bundle.christoffels, SCHEME)
    kz = np.einsum("db...,b...->d...", ids.k.data, v.x)
    nkz = np.einsum("cdb...,b...->cd...", nk, v.x)
    a_gc = nkz - np.einsum("cd...->dc...", nkz)
    r_up = geometry.riemann_from(bundle.christoffels,
                                 partial_stack(bundle.christoffels, grid, SCHEME))
    x_gc = np.einsum("bzcd...,z...->cdb...", r_up, v.x)
    k_sharp = np.einsum("be...,ce...->cb...", ids.metric.ginv, ids.k.data)
    x_gc = x_gc + np.einsum("d...,cb...->cdb...", kz, k_sharp) \
        - np.einsum("c...,db...->cdb...", kz, k_sharp)
    nk_sharp = np.einsum("be...,cde...->cdb...", ids.metric.ginv, nk)
    x_gc = x_gc + v.a * (nk_sharp - np.einsum("cdb...->dcb...", nk_sharp))

    assert np.max(np.abs(comm.a)) > 0.1     # the comparison is nontrivial
    assert np.max(np.abs(comm.a - a_gc)) < 1e-11
    assert np.max(np.abs(comm.x - x_gc)) < 1e-7
    # pairing contracts the tangent part with the metric
    w = AmbientVector(grid, scalar(), np.stack([scalar() for _ in range(3)]))
    pairing = ambient_curvature_pairing(ids, comm, w)
    direct = -comm.a * w.a + np.einsum("ab...,cda...,b...->cd...",
                                       ids.metric.data, comm.x, w.x)
    assert np.max(np.abs(pairing - direct)) == 0.0


# --- leaf null geometry ------------------------------------------------------------


def test_leaf_null_geometry_flat():
    ld = leaf_null_geometry(flat_data(grid3(9, 8)), 0.5)
    assert ld.chi_plus.max_norm() == 0.0
    assert ld.theta_plus.max_norm() == 0.0
    assert ld.shape_operator.max_norm() == 0.0


def test_leaf_null_geometry_umbilic():
    grid = grid3(9, 8)
    ids = InitialDataSet.product(grid, "1", np.eye(2),
                                 [["0.3", "0", "0"], ["0", "0.3", "0"], ["0", "0", "0.3"]],
                                 scheme=SCHEME)
    ld = leaf_null_geometry(ids, 0.25)
    assert np.max(np.abs(ld.theta_plus.data - 0.6)) == 0.0
    assert ld.shape_operator.max_norm() == 0.0


def test_theta_plus_on_expanding_family():
    # g_s = (1+eps s)^2 delta, k = 0: theta+ = (n-1) eps/((1+eps s) phi)
    eps = 0.3
    grid = Grid.product(1.0, 21, (16, 16), (1.0, 1.0))
    ids = InitialDataSet.product(
        grid, "1 + 0.2*s^2",
        [[f"(1+{eps}*s)^2", "0"], ["0", f"(1+{eps}*s)^2"]],
        [["0"] * 3 for _ in range(3)], scheme=SCHEME)
    for tau in (0.0, 0.5, 1.0):
        ld = leaf_null_geometry(ids, tau)
        want = 2 * eps / ((1 + eps * tau) * (1 + 0.2 * tau**2))
        assert np.max(np.abs(ld.theta_plus.data - want)) < 1e-12


# --- parallel transport ------------------------------------------------------------


def test_transport_flat_is_exact():
    ids = flat_data(grid3(17, 16))
    v0 = np.array([0.1, 0.2, -0.4])
    res = parallel_transport(ids, 0.3, v0, [(2, 3, 4), (9, 8, 2), (14, 3, 13)])
    assert res.a_end == 0.3
    assert np.array_equal(res.x_end, v0)
    assert res.drift == 0.0


def test_transport_on_an_open_path_lands_on_the_parallel_section():
    # a closed loop returns to its start whatever the sign of the connection term;
    # an open path must end on the parallel section at its last node
    grid = grid3(17, 16)
    ids = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    assert ids.curvature().christoffels.shape[3:] == (1, 16, 1)  # interpolated as stored
    v = build_parallel_candidate(ids)
    a, x = full_grid(v.a, grid), full_grid(v.x, grid)
    path = [(3, 2, 2), (3, 10, 2), (3, 10, 10)]
    res = parallel_transport(ids, a[path[0]], x[(slice(None),) + path[0]], path)
    assert res.length == pytest.approx(1.0)
    assert abs(res.a_end - a[path[-1]]) < 1e-5
    assert np.max(np.abs(res.x_end - x[(slice(None),) + path[-1]])) < 1e-5


def test_transport_rigid_loop_holonomy():
    grid = grid3(17, 16)
    ids = rigid_recipe(grid, "exp(0.1*sin(2*pi*x1))", scheme=SCHEME)
    v = build_parallel_candidate(ids)
    a, x = full_grid(v.a, grid), full_grid(v.x, grid)
    loop = [(3, 2, 2), (3, 10, 2), (3, 10, 10), (3, 2, 10), (3, 2, 2)]
    i0 = loop[0]
    res = parallel_transport(ids, a[i0], x[(slice(None),) + i0], loop)
    assert res.length == pytest.approx(2.0)
    assert res.steps > 0
    assert res.drift < 1e-12
    assert abs(res.a_end - a[i0]) < 1e-12
    assert np.max(np.abs(res.x_end - x[(slice(None),) + i0])) < 1e-12
    assert res.norm_start == pytest.approx(res.norm_end, abs=1e-12)


def test_transport_path_validation():
    ids = flat_data(grid3(9, 8))
    with pytest.raises(MeshError):
        parallel_transport(ids, 1.0, np.zeros(3), [])
    with pytest.raises(MeshError):
        parallel_transport(ids, 1.0, np.zeros(3), [(2, 3, 4), (40, 0, 0)])
    with pytest.raises(MeshError):
        parallel_transport(ids, 1.0, np.zeros(3), [(2, 3)])
    res = parallel_transport(ids, 1.0, np.zeros(3), [(2, 3, 4)])
    assert res.length == 0.0 and res.a_end == 1.0
