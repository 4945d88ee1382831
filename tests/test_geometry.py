import warnings

import numpy as np
import pytest
import sympy as sp

from idrig.mesh import (DataError, Grid, Field, MeshError, partial, partial_stack, sample,
                        _contract, _live, _spectral_axis)
from idrig import geometry
from idrig.killing_dev import dead_v_partials, ppwave, spacetime_christoffels, wave_spacetime
from idrig.rigidity import rigid_recipe
from helpers import (SCHEME, constant_along, dense_christoffels_from, dense_riemann_from,
                     grid3, pattern_grid, pattern_metric, reduced_along, same_bits, torus)
from references import (codifferential, exterior_d, hodge_laplacian, integrate, lie_metric,
                        sqrt_det)


CURVED_TORUS = [["exp(0.2*sin(2*pi*x1))", "0.05*sin(2*pi*x2)"],
                ["0.05*sin(2*pi*x2)", "1 + 0.1*cos(2*pi*x2)"]]


def torus_metric(n=24):
    grid = torus((n, n), (1.0, 1.0))
    return grid, geometry.MetricField(sample(grid, CURVED_TORUS, kind="sym2"))


def riemann_up(m):
    """R^a_bcd of a metric field, assembled as geometry.curvature does."""
    gam = geometry.christoffels(m, SCHEME)
    return geometry.riemann_from(gam, partial_stack(gam, m.grid, SCHEME))


def test_metric_field_rejects_indefinite():
    grid = torus((8, 8), (1.0, 1.0))
    with pytest.raises(DataError, match=r"^metric is not positive definite \(min eigenvalue -1\)$"):
        geometry.MetricField(sample(grid, [["1", "0"], ["0", "-1"]], kind="sym2"))
    with pytest.raises(DataError, match=r"^metric is not positive definite \(min eigenvalue 0\)$"):
        geometry.MetricField(sample(grid, [["1", "0"], ["0", "sin(pi*x1)^2"]], kind="sym2"))
    with pytest.raises(MeshError):
        geometry.MetricField(sample(grid, "1", kind="scalar"))


def test_metric_field_names_the_least_eigenvalue_of_an_indefinite_block():
    # a 2x2 block {0, 2} with eigenvalues 1 +- 2 beside a positive 1x1 block
    grid = Grid.product(1.0, 9, (8, 8), (1.0, 1.0))
    with pytest.raises(DataError, match=r"^metric is not positive definite \(min eigenvalue -1\)$"):
        geometry.MetricField(sample(grid, [["1", "0", "2"], ["0", "1", "0"], ["2", "0", "1"]],
                                    kind="sym2"))


PATTERNS = ("diagonal", "dense", "permuted", "gbar")


def dense_inverse(g):
    return np.moveaxis(np.linalg.inv(np.moveaxis(g, (0, 1), (-2, -1))), (-2, -1), (0, 1))


@pytest.mark.parametrize("ndim", (2, 3, 4))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_block_inverse_matches_the_dense_inverse(ndim, pattern):
    g = pattern_metric(pattern_grid(ndim), pattern)
    got, want = geometry.inverse(g), dense_inverse(g)
    assert same_bits(got, want)


def test_block_inverse_blocks_follow_the_zero_pattern():
    # the division route takes exactly the metrics whose off-diagonal components are all 0
    grid = pattern_grid(4)
    assert geometry._is_diagonal(pattern_metric(grid, "diagonal"))
    for pattern in ("dense", "permuted", "gbar"):
        assert not geometry._is_diagonal(pattern_metric(grid, pattern)), pattern
    chain = np.zeros((4, 4, 2))
    chain[[0, 1, 2, 3], [0, 1, 2, 3]] = 1.0
    chain[0, 2, 0] = chain[2, 0, 0] = chain[2, 3, 1] = chain[3, 2, 1] = 0.5
    assert not geometry._is_diagonal(chain)


def test_a_signed_zero_off_the_diagonal_is_diagonal_and_nan_is_not():
    g = pattern_metric(pattern_grid(3), "diagonal")
    g[0, 1] = g[1, 0] = -0.0
    assert geometry._is_diagonal(g)
    assert same_bits(geometry.inverse(g), dense_inverse(g))
    g[0, 1, 2, 3, 4] = g[1, 0, 2, 3, 4] = np.nan  # LAPACK then sees the NaN node
    assert not geometry._is_diagonal(g)
    got = geometry.inverse(g)
    assert not np.isfinite(got[..., 2, 3, 4]).any()
    assert same_bits(np.delete(got, 2, axis=2), np.delete(dense_inverse(g), 2, axis=2))


def test_block_inverse_raises_on_a_singular_block():
    g = pattern_metric(pattern_grid(3), "permuted")
    one = g.copy()
    one[1, 1, 2, 3, 4] = 0.0  # row and column 1 all zero at one node
    two = g.copy()
    two[np.ix_((0, 2), (0, 2), (2,), (3,), (4,))] = 1.0  # rows 0 and 2 equal at one node
    diagonal = pattern_metric(pattern_grid(3), "diagonal")
    diagonal[1, 1, 2, 3, 4] = 0.0  # a zero on the division route
    for singular in (one, two, diagonal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division-by-zero warning and inf
            with pytest.raises(np.linalg.LinAlgError):
                geometry.inverse(singular)


def per_node_inverse(g):
    """Each node's matrix inverted alone by LAPACK."""
    want = np.zeros(g.shape)
    for node in np.ndindex(*g.shape[2:]):
        want[(Ellipsis,) + node] = np.linalg.inv(g[(Ellipsis,) + node])
    return want


def constancies(ndim):
    """Grid axes to hold constant: none, the first, the others, all."""
    return ((), (0,), tuple(range(1, ndim)), tuple(range(ndim)))


@pytest.mark.parametrize("ndim", (2, 3, 4))
@pytest.mark.parametrize("pattern", PATTERNS)
def test_distinct_node_inverse_equals_per_node_lapack(ndim, pattern):
    # a metric of length 1 along some axes is inverted at its own nodes, and that
    # is the per-node inverse of the whole grid, bit for bit but for zero signs
    g = pattern_metric(pattern_grid(ndim), pattern)[(slice(None),) * 2 + (slice(0, 3),) * ndim]
    for axes in constancies(ndim):
        reduced = reduced_along(g, axes)
        got = geometry.inverse(reduced)
        assert got.shape == reduced.shape, axes  # LAPACK sees one slice
        want = per_node_inverse(constant_along(g, axes))
        assert same_bits(np.broadcast_to(got, want.shape), want), axes


@pytest.mark.parametrize("ndim", (2, 3, 4))
@pytest.mark.parametrize("pattern", ("diagonal", "dense", "permuted"))
def test_distinct_node_sqrt_det_equals_the_full_cholesky_product(ndim, pattern):
    grid = pattern_grid(ndim)
    for axes in constancies(ndim):
        g = constant_along(pattern_metric(grid, pattern), axes)
        chol = np.linalg.cholesky(np.moveaxis(g, (0, 1), (-2, -1)))
        want = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
        got = sqrt_det(geometry.MetricField(Field(grid, "sym2", g)))
        assert got.shape == grid.shape and got.tobytes() == want.tobytes(), axes
        reduced = reduced_along(pattern_metric(grid, pattern), axes)
        got = sqrt_det(geometry.MetricField(Field(grid, "sym2", reduced)))
        assert got.shape == reduced.shape[2:], axes
        assert np.broadcast_to(got, grid.shape).tobytes() == want.tobytes(), axes


def test_distinct_nodes_tell_negative_from_positive_zero():
    # a constant metric but for the sign of g_01 = 0 along x1; LAPACK's
    # eigenvalues of this matrix depend on that sign
    grid = pattern_grid(3)
    g = np.array([[1.0, 0.0, 0.1], [0.0, 1.1, 0.2], [0.1, 0.2, 1.2]])[..., None, None, None]
    g = np.ascontiguousarray(np.broadcast_to(g, (3, 3) + grid.shape))
    g[0, 1, :, 1::2] = g[1, 0, :, 1::2] = -0.0
    per_node = np.moveaxis(g, (0, 1), (-2, -1))
    eigs = np.linalg.eigvalsh(per_node)
    assert eigs[0, 0, 0].tobytes() != eigs[0, 1, 0].tobytes()
    reduced = np.ascontiguousarray(g[:, :, :1, :, :1])  # s and x2 are length 1, x1 is not
    cut = geometry._node_matrices(reduced)
    assert cut.shape == (1, 8, 1, 3, 3)
    assert np.broadcast_to(np.linalg.eigvalsh(cut), eigs.shape).tobytes() == eigs.tobytes()
    assert same_bits(np.broadcast_to(geometry.inverse(reduced), g.shape), per_node_inverse(g))
    assert same_bits(geometry.inverse(g), per_node_inverse(g))
    chol = np.linalg.cholesky(per_node)
    want = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    got = sqrt_det(geometry.MetricField(Field(grid, "sym2", g)))
    assert got.tobytes() == want.tobytes()


def test_a_singular_node_on_a_constant_axis_still_raises():
    g = reduced_along(pattern_metric(pattern_grid(3), "permuted"), (1,))
    g[np.ix_((0, 2), (0, 2), (4,))] = 1.0  # rows 0 and 2 equal at the nodes s = 4, every x1
    assert geometry._node_matrices(g).shape[1] == 1
    with pytest.raises(np.linalg.LinAlgError):
        geometry.inverse(g)
    with pytest.raises(DataError, match="not positive definite"):
        geometry.MetricField(Field(pattern_grid(3), "sym2", g))


@pytest.mark.parametrize("index", ((1, 1), (0, 2)))
def test_block_inverse_leaves_a_nan_node_non_finite(index):
    g = pattern_metric(pattern_grid(3), "permuted")
    g[index + (2, 3, 4)] = np.nan
    got = geometry.inverse(g)
    assert not np.all(np.isfinite(got[..., 2, 3, 4]))
    assert np.isfinite(got[..., 3, 3, 4]).all()


@pytest.mark.parametrize("ndim", (2, 3, 4))
@pytest.mark.parametrize("pattern", ("diagonal", "dense", "permuted"))
def test_sqrt_det_equals_the_full_cholesky_product(ndim, pattern):
    grid = pattern_grid(ndim)
    g = pattern_metric(grid, pattern)
    chol = np.linalg.cholesky(np.moveaxis(g, (0, 1), (-2, -1)))
    want = np.prod(np.diagonal(chol, axis1=-2, axis2=-1), axis=-1)
    got = sqrt_det(geometry.MetricField(Field(grid, "sym2", g)))
    assert np.array_equal(got, want)
    # and it is the volume density sqrt(det g)
    det = np.linalg.det(np.moveaxis(g, (0, 1), (-2, -1)))
    assert np.max(np.abs(got - np.sqrt(det)) / np.sqrt(det)) < 1e-13


def test_flat_curvature_is_bitwise_zero():
    grid = Grid.product(1.0, 9, (16, 16), (1.0, 1.0))
    m = geometry.MetricField(
        sample(grid, [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], kind="sym2"))
    cb = geometry.curvature(m, SCHEME)
    assert np.max(np.abs(cb.christoffels)) == 0.0
    assert np.max(np.abs(riemann_up(m))) == 0.0
    assert np.max(np.abs(cb.ricci)) == 0.0
    assert np.max(np.abs(cb.scal)) == 0.0


def test_warped_interval_metric_is_flat():
    # diag(e^{2s}, 1, 1) is a reparametrized product: Gamma^s_ss = 1, curvature 0
    grid = Grid.product(1.0, 17, (16, 16), (1.0, 1.0))
    m = geometry.MetricField(
        sample(grid, [["exp(2*s)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               kind="sym2"))
    cb = geometry.curvature(m, SCHEME)
    assert np.max(np.abs(cb.christoffels[0, 0, 0] - 1.0)) < 1e-4
    rest = cb.christoffels.copy()
    rest[0, 0, 0] = 0.0
    assert np.max(np.abs(rest)) == 0.0
    assert np.max(np.abs(riemann_up(m))) == 0.0

    fine = Grid.product(1.0, 33, (16, 16), (1.0, 1.0))
    mf = geometry.MetricField(
        sample(fine, [["exp(2*s)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
               kind="sym2"))
    cbf = geometry.curvature(mf, SCHEME)
    assert np.max(np.abs(cbf.christoffels[0, 0, 0] - 1.0)) < 1e-5


def test_metric_compatibility():
    grid, m = torus_metric()
    gam = geometry.christoffels(m, SCHEME)
    ng = geometry.cov_rank2(m.data, grid, gam, SCHEME)
    assert np.max(np.abs(ng)) < 1e-12


def test_riemann_symmetries_and_first_bianchi():
    grid, m = torus_metric()
    R = np.einsum("ae...,ebcd...->abcd...", m.data, riemann_up(m))
    scale = np.max(np.abs(R))
    assert scale > 1e-3        # the metric really is curved
    assert np.max(np.abs(R + np.einsum("abcd...->bacd...", R))) < 1e-11
    assert np.max(np.abs(R + np.einsum("abcd...->abdc...", R))) < 1e-11
    assert np.max(np.abs(R - np.einsum("abcd...->cdab...", R))) < 1e-11
    bianchi = R + np.einsum("acdb...->abcd...", R) + np.einsum("adbc...->abcd...", R)
    assert np.max(np.abs(bianchi)) < 1e-11


def test_ricci_against_symbolic():
    x, y = sp.symbols("x1 x2")
    G = sp.Matrix([[sp.exp(sp.Rational(1, 5) * sp.sin(2 * sp.pi * x)),
                    sp.Rational(1, 20) * sp.sin(2 * sp.pi * y)],
                   [sp.Rational(1, 20) * sp.sin(2 * sp.pi * y),
                    1 + sp.Rational(1, 10) * sp.cos(2 * sp.pi * y)]])
    Ginv = G.inv()
    co = [x, y]

    def gamma(a, b, c):
        return sum(Ginv[a, e] * (sp.diff(G[e, b], co[c]) + sp.diff(G[e, c], co[b])
                                 - sp.diff(G[b, c], co[e])) for e in range(2)) / 2

    ric = sp.zeros(2, 2)
    for b in range(2):
        for d in range(2):
            expr = 0
            for a in range(2):
                expr += sp.diff(gamma(a, b, d), co[a]) - sp.diff(gamma(a, a, d), co[b])
                for e in range(2):
                    expr += gamma(a, a, e) * gamma(e, b, d) - gamma(a, b, e) * gamma(e, a, d)
            ric[b, d] = expr
    fric = sp.lambdify((x, y), ric, "numpy")

    grid, m = torus_metric()
    cb = geometry.curvature(m, SCHEME)
    X, Y = np.meshgrid(grid.axis_coords(0), grid.axis_coords(1), indexing="ij")
    exact = np.array(fric(X, Y))
    assert np.max(np.abs(exact)) > 0.1
    assert np.max(np.abs(cb.ricci - exact)) < 1e-12


def test_ricci_from_matches_the_contracted_riemann_tensor():
    grid, m = torus_metric()
    gam = geometry.christoffels(m, SCHEME)
    dgam = partial_stack(gam, grid, SCHEME)
    reference = np.einsum("abad...->bd...", geometry.riemann_from(gam, dgam))
    ric = geometry.ricci_from(gam, np.einsum("aabd...->bd...", dgam),
                              partial_stack(np.einsum("aab...->b...", gam), grid, SCHEME))
    scale = np.max(np.abs(reference))
    assert scale > 0.1
    assert np.max(np.abs(ric - reference)) < 1e-12 * scale


def test_d_squared_is_zero():
    grid = Grid.product(1.0, 17, (16, 16), (1.0, 1.0))
    f = sample(grid, "exp(s/2)*sin(2*pi*x1) + 0.2*cos(2*pi*x2)*s^2", kind="scalar")
    assert exterior_d(exterior_d(f, SCHEME), SCHEME).max_norm() < 1e-11
    w = sample(grid, ["s*sin(2*pi*x2)", "cos(2*pi*x1)", "exp(s/3)"], kind="covector")
    assert exterior_d(exterior_d(w, SCHEME), SCHEME).max_norm() < 1e-11


def test_codifferential_is_adjoint_on_torus():
    grid, m = torus_metric(32)
    gam = geometry.christoffels(m, SCHEME)
    f = sample(grid, "sin(2*pi*x1) + 0.3*cos(2*pi*x2)", kind="scalar")
    w = sample(grid, ["cos(2*pi*x2)", "0.5*sin(2*pi*x1)"], kind="covector")
    df = exterior_d(f, SCHEME)
    dw = codifferential(w, m, gam, SCHEME)
    lhs = integrate(np.einsum("ab...,a...,b...->...", m.ginv, df.data, w.data)
                    * sqrt_det(m), grid)
    rhs = integrate(f.data * dw.data * sqrt_det(m), grid)
    assert abs(lhs - rhs) < 1e-14

    area = sample(grid, "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)", kind="scalar").data
    bdata = np.zeros((2, 2) + grid.shape)
    bdata[0, 1] = area
    bdata[1, 0] = -area
    b = Field(grid, "form2", bdata)
    dwf = geometry.exterior_d(w, SCHEME)
    db = codifferential(b, m, gam, SCHEME)
    lhs2 = integrate(0.5 * np.einsum("ac...,bd...,ab...,cd...->...",
                                     m.ginv, m.ginv, dwf.data, b.data)
                     * sqrt_det(m), grid)
    rhs2 = integrate(np.einsum("ab...,a...,b...->...", m.ginv, w.data, db.data)
                     * sqrt_det(m), grid)
    assert abs(lhs2 - rhs2) < 1e-14


def test_laplace_beltrami_flat_and_div_grad():
    grid = torus((32, 32), (1.0, 1.0))
    flat = geometry.MetricField(sample(grid, [["1", "0"], ["0", "1"]], kind="sym2"))
    gam0 = geometry.christoffels(flat, SCHEME)
    f = sample(grid, "sin(2*pi*x1)", kind="scalar").data
    env = grid.coord_env()
    want = -4 * np.pi**2 * np.broadcast_to(np.sin(2 * np.pi * env["x1"]), grid.shape)
    # the Laplace-Beltrami operator div grad f is minus the Hodge Laplacian
    lb0 = -hodge_laplacian(Field(grid, "scalar", f), flat, gam0, SCHEME).data
    assert np.max(np.abs(lb0 - want)) < 1e-10

    _, m = torus_metric(32)
    gam = geometry.christoffels(m, SCHEME)
    f2 = sample(m.grid, "sin(2*pi*x1)*cos(2*pi*x2)", kind="scalar").data
    lb = -hodge_laplacian(Field(m.grid, "scalar", f2), m, gam, SCHEME).data
    grad = m.sharp(partial_stack(f2, m.grid, SCHEME))
    dg = geometry.divergence_vector(grad, m, gam, SCHEME)
    assert np.max(np.abs(lb - dg)) < 1e-11


def test_lie_metric_of_killing_rotation():
    # translations are Killing fields of the flat torus
    grid = torus((16, 16), (1.0, 1.0))
    flat = geometry.MetricField(sample(grid, [["1", "0"], ["0", "1"]], kind="sym2"))
    gam = geometry.christoffels(flat, SCHEME)
    # lie_metric reads vector components; sampling them as a covector gives the same array
    w = sample(grid, ["1", "2"], kind="covector")
    lie = lie_metric(w.data, flat, gam, SCHEME)
    assert np.max(np.abs(lie)) == 0.0
    # a non-Killing field has nonzero deformation matching 2 sym(nabla W)
    w2 = sample(grid, ["sin(2*pi*x1)", "0"], kind="covector")
    lie2 = lie_metric(w2.data, flat, gam, SCHEME)
    env = grid.coord_env()
    want = 4 * np.pi * np.broadcast_to(np.cos(2 * np.pi * env["x1"]), grid.shape)
    assert np.max(np.abs(lie2[0, 0] - want)) < 1e-11
    assert np.max(np.abs(lie2[1, 1])) < 1e-12


def test_trace_and_div_sym2():
    grid, m = torus_metric()
    gam = geometry.christoffels(m, SCHEME)
    tr = geometry.trace_sym2(m.data, m)
    assert np.max(np.abs(tr - 2.0)) < 1e-13
    # div of the metric itself vanishes by compatibility
    dv = geometry.div_sym2(geometry.cov_rank2(m.data, grid, gam, SCHEME), m)
    assert np.max(np.abs(dv)) < 1e-12


# --- array layout and kernel forms ------------------------------------------------


def test_tensor_arrays_are_c_contiguous_float64():
    # a strided view (grid axes outermost in memory) makes every einsum that reads it
    # several times slower, and einsum outputs inherit the layout of their inputs
    grid, m = torus_metric(8)
    ids = rigid_recipe(grid3(9, 8), "1 + 0.1*sin(2*pi*x1)", scheme=SCHEME)
    spec = ppwave(grid3(9, 8), "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)", SCHEME)
    ginv_st, gamma_st = spacetime_christoffels(wave_spacetime(spec))
    spectral = partial(m.data, grid, 1, SCHEME)
    # derivatives are scattered into one fresh array, not a view of a stack or a buffer
    owners = {"spectral partial": spectral,
              "partial_stack": partial_stack(ids.metric.data[1:, 1:], ids.grid, SCHEME),
              "dead_v_partials": dead_v_partials(wave_spacetime(spec).gbar, spec.grid, SCHEME),
              "_contract": _contract("ab...,b...->a...", m.ginv, m.data[0]),
              # written component by component into one fresh array
              "inverse, dense": geometry.inverse(m.data),
              "inverse, diagonal": ids.metric.ginv,
              "inverse, development metric": ginv_st}
    arrays = {"MetricField.ginv": m.ginv,
              "ids.curvature().christoffels": ids.curvature().christoffels,
              "spacetime gamma": gamma_st, **owners}
    for name, arr in arrays.items():
        assert arr.dtype == np.float64, name
        assert arr.flags.c_contiguous, name
    for name, arr in owners.items():
        assert arr.base is None, name  # holds no complex FFT buffer or gathered copy alive


def test_christoffels_from_matches_the_three_contraction_form():
    rng = np.random.default_rng(7)
    n, grid_shape = 3, (5, 6, 4)
    ginv = rng.standard_normal((n, n) + grid_shape)  # neither symmetric nor a metric
    dg = rng.standard_normal((n, n, n) + grid_shape)
    want = (np.einsum("ad...,bdc...->abc...", ginv, dg)
            + np.einsum("ad...,cdb...->abc...", ginv, dg)
            - np.einsum("ad...,dbc...->abc...", ginv, dg)) * 0.5
    got = geometry.christoffels_from(ginv, dg)
    assert got.flags.c_contiguous
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def christoffel_cases(ndim):
    """(ginv, dg) pairs: the metric patterns, then a dg with no symmetry and one with -0.0."""
    grid = pattern_grid(ndim)
    cases = {}
    for pattern in PATTERNS:
        g = pattern_metric(grid, pattern)
        dg = (dead_v_partials(g, grid, SCHEME) if pattern == "gbar"
              else partial_stack(g, grid, SCHEME))
        cases[pattern] = (geometry.inverse(g), dg)
    rng = np.random.default_rng(ndim)
    ginv = geometry.inverse(pattern_metric(grid, "dense"))
    n = ndim
    dg = rng.standard_normal((n, n, n) + grid.shape)
    dg[rng.random((n, n, n)) < 0.6] = 0.0  # no symmetry in any index pair
    cases["non-symmetric"] = (ginv, dg)
    signed = dg.copy()
    signed[rng.random(signed.shape) < 0.3] = -0.0   # inside live slices
    signed[rng.random((n, n, n)) < 0.3] = -0.0      # whole slices, which count as dead
    cases["negative zeros"] = (ginv, signed)
    return cases


@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_live_lowering_equals_the_dense_lowering_bit_for_bit(ndim):
    for name, (ginv, dg) in christoffel_cases(ndim).items():
        got, want = geometry.christoffels_from(ginv, dg), dense_christoffels_from(ginv, dg)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name  # the sign of zero included


def riemann_cases(ndim):
    """(gamma, dgamma) pairs: Christoffels of three metric patterns with their
    partials, then a dgamma that is not the stack of gamma, then -0.0 entries,
    then a gamma whose products for gg[0, 1, 0, 0] cancel (see cancelling_gamma)."""
    grid = pattern_grid(ndim)
    cases = {}
    for pattern in ("diagonal", "gbar", "dense"):
        g = pattern_metric(grid, pattern)
        stack = dead_v_partials if pattern == "gbar" else partial_stack
        gamma = geometry.christoffels_from(geometry.inverse(g), stack(g, grid, SCHEME))
        cases[pattern] = (gamma, stack(gamma, grid, SCHEME))
    gamma, dgamma = cases["diagonal"]
    rng = np.random.default_rng(20 + ndim)
    other = rng.standard_normal(dgamma.shape)
    other[rng.random(dgamma.shape[:4]) < 0.7] = 0.0  # live where gamma's stack is dead
    cases["other dgamma"] = (gamma, other)
    signed_gamma, signed = gamma.copy(), other.copy()
    for arr, rank in ((signed_gamma, 3), (signed, 4)):
        arr[rng.random(arr.shape) < 0.3] = -0.0  # inside live slices
        arr[rng.random(arr.shape[:rank]) < 0.3] = -0.0  # whole slices, which count as dead
    cases["negative zeros"] = (signed_gamma, signed)
    dead = other.copy()
    dead[0, 0, 0, 1] = 0.0  # dgamma[c, a, d, b] of R^0_100; dgamma[d, a, c, b] is the same
    cases["cancelling products"] = (cancelling_gamma(rng, gamma.shape), dead)
    return cases


def cancelling_gamma(rng, shape):
    """A sparse random gamma whose products for gg[0, 1, 0, 0] = Gamma^0_0e Gamma^e_01 cancel.

    Gamma^0_00 = x, Gamma^0_01 = y and Gamma^1_01 = -x give x y + y (-x) =
    exactly 0 at every node, from two live products.  So riemann_from's gg
    mask, derived from gamma's, calls a component live that is 0.
    """
    gamma = rng.standard_normal(shape)
    gamma[rng.random(shape[:3]) < 0.5] = 0.0
    gamma[0, 0] = 0.0
    gamma[0, 0, 0], gamma[0, 0, 1] = rng.standard_normal((2,) + shape[3:])
    gamma[1, 0, 1] = -gamma[0, 0, 0]
    live = _live(gamma, 3)
    assert np.einsum("ace,edb->abcd", live, live)[0, 1, 0, 0]
    assert not _contract("ace...,edb...->abcd...", gamma, gamma)[0, 1, 0, 0].any()
    return gamma


@pytest.mark.parametrize("ndim", (2, 3, 4))
def test_live_riemann_equals_the_dense_riemann_bit_for_bit(ndim):
    for name, (gamma, dgamma) in riemann_cases(ndim).items():
        got, want = geometry.riemann_from(gamma, dgamma), dense_riemann_from(gamma, dgamma)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name  # the sign of zero included


def test_riemann_from_one_product_equals_the_two_product_form():
    rng = np.random.default_rng(11)
    n, grid_shape = 4, (3, 5, 4, 2)
    gamma = rng.standard_normal((n, n, n) + grid_shape)
    dgamma = rng.standard_normal((n, n, n, n) + grid_shape)
    want = np.einsum("cadb...->abcd...", dgamma).copy()
    want -= np.einsum("dacb...->abcd...", dgamma)
    want += np.einsum("ace...,edb...->abcd...", gamma, gamma)
    want -= np.einsum("ade...,ecb...->abcd...", gamma, gamma)
    assert np.array_equal(geometry.riemann_from(gamma, dgamma), want)


def test_spectral_axis_equals_the_textbook_formula():
    rng = np.random.default_rng(3)
    for shape, axis in (((3, 3, 10, 16), 3), ((4, 12, 8), 1), ((16,), 0)):
        x = rng.standard_normal(shape)
        count, h = shape[axis], 1.0 / shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(count, d=h)
        k[count // 2] = 0.0
        bshape = [1] * x.ndim
        bshape[axis] = count
        want = np.real(np.fft.ifft(1j * k.reshape(bshape) * np.fft.fft(x, axis=axis),
                                   axis=axis))
        assert np.array_equal(_spectral_axis(x, axis, count, h), want)
