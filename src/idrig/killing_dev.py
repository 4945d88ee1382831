"""Lorentzian development of initial data along a lightlike section.

Given data (g, k) carrying a transversal section V = u e0 + X of the
ambient bundle, the development is the stationary metric

    gbar = X^flat (x) dv + dv (x) X^flat + g

on R x M in coordinates (v, s, x^i), with dv the translation direction.
The metric is v-independent by construction, so every v-derivative is
identically zero.  Only the Christoffels, Ricci and Einstein tensors are
assembled, on the M grid with one extra analytic index (index 0 = v
throughout this module).

The module also carries the closed-form plane-wave family

    gbar = -ds (x) dv - dv (x) ds + f ds^2 + delta_ij dx^i dx^j

whose Einstein tensor is (1/2)(Delta_leaf f) ds (x) ds, as an end-to-end
cross-check: data induced on a graph v = w(s) develops back into the wave
with profile f - 2 w'.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import exprlang, geometry
from .initial_data import (AmbientVector, InitialDataSet, _stored, ambient_residual_norm,
                           constraints, derived)
from .mesh import (DEFAULT_SCHEME, DataError, Field, Grid, MeshError, _contract, _partials,
                   dump_csv, full_grid, grid_values, partial, partial_stack, updated)
from .rigidity import build_parallel_candidate

# --- v-independent spacetime calculus -------------------------------------------


def dead_v_partials(data, grid, scheme=DEFAULT_SCHEME):
    """Spacetime coordinate derivatives: zero along v, grid partials on M."""
    return _partials(data, grid, range(grid.ndim), scheme, zero_axes=1)


def lorentz_signature_defect(gbar, grid):
    """Number of nodes of `grid` whose metric does not have exactly one negative eigenvalue.

    Each matrix of the metric's own grid shape is scaled to D g D, with
    D = 1/sqrt(max_j |g_ij|) on each row that is not all 0, before eigvalsh: the
    congruence keeps the signs of the eigenvalues (Sylvester), and entries near
    1e300 no longer round a small eigenvalue to 0.
    """
    g = geometry._node_matrices(gbar)
    row_max = np.max(np.abs(g), axis=-1)
    d = 1.0 / np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    negatives = np.sum(np.linalg.eigvalsh(d[..., :, None] * g * d[..., None, :]) < 0.0, axis=-1)
    return int(np.count_nonzero(full_grid(negatives != 1, grid)))


@dataclass(frozen=True)
class SpacetimeCurvature:
    """Curvature of a v-independent Lorentzian metric over the M grid."""

    gamma: np.ndarray     # Gammabar^A_BC, index 0 = v
    ricci: np.ndarray
    scal: np.ndarray
    einstein: np.ndarray
    ginv: np.ndarray


def spacetime_christoffels(gbar, grid, scheme=DEFAULT_SCHEME):
    """Inverse metric and Christoffels Gammabar^A_BC of a v-independent metric."""
    ginv = geometry.inverse(gbar)
    return ginv, geometry.christoffels_from(ginv, dead_v_partials(gbar, grid, scheme))


def spacetime_curvature(gbar, grid, scheme=DEFAULT_SCHEME, connection=None):
    """Curvature of `gbar`; `connection` is its (ginv, gamma) where the caller holds them."""
    ginv, gamma = (spacetime_christoffels(gbar, grid, scheme) if connection is None
                   else connection)
    div_gamma = sum(partial(gamma[i + 1], grid, i, scheme) for i in range(grid.ndim))
    d_trace = dead_v_partials(np.einsum("aab...->b...", gamma), grid, scheme)
    ricci = geometry.ricci_from(gamma, div_gamma, d_trace)
    scal = _contract("bd...,bd...->...", ginv, ricci)
    einstein = ricci - 0.5 * scal * gbar
    return SpacetimeCurvature(gamma, ricci, scal, einstein, ginv)


# --- the development --------------------------------------------------------------


class KillingDevelopment:
    """Development metric of a data set along a transversal null section."""

    def __init__(self, ids, section, gbar, scheme=DEFAULT_SCHEME):
        self.ids = ids
        self.grid = ids.grid
        self.section = section
        self.gbar = gbar
        self.scheme = scheme
        self._derived = {}

    @derived
    def curvature(self):
        return spacetime_curvature(self.gbar, self.grid, self.scheme)


def build_kd(ids, section=None):
    """Assemble the development of `ids` along `section` (default: phi^{-1}(e0+nu)).

    The section must be transversal (positive e0 coefficient) or the
    build fails; near-lightlike and near-parallel are checked against
    1e-8 and only warned about, since finite differences leave residue
    even on exact data.  The assembled coordinate metric must have
    Lorentzian signature at every node.
    """
    if section is None:
        section = build_parallel_candidate(ids)
    if np.min(section.a) <= 0.0:
        raise MeshError("section is not transversal: e0 coefficient <= 0 at a node")
    g = ids.metric
    lightlike = float(np.max(np.abs(-section.a**2 + g.norm2_vector(section.x))))
    scale = 1.0 + float(np.max(section.a**2 + g.norm2_vector(section.x)))
    if lightlike > 1e-8 * scale:
        warnings.warn("development section is not lightlike; "
                      f"max |gbar(V,V)| = {lightlike:.3e}")
    par = float(np.max(ambient_residual_norm(ids, section)))
    if par > 1e-8:
        warnings.warn(f"development section is not parallel; max residual {par:.3e}")

    n = ids.grid.ndim
    x_flat = g.flat(section.x)
    gbar = np.zeros((n + 1, n + 1) + np.broadcast_shapes(x_flat.shape[1:], g.data.shape[2:]))
    gbar[0, 1:] = x_flat
    gbar[1:, 0] = x_flat
    gbar[1:, 1:] = g.data
    bad = lorentz_signature_defect(gbar, ids.grid)
    if bad:
        raise MeshError(f"development metric is not Lorentzian at {bad} nodes")
    kd = KillingDevelopment(ids, section, gbar, ids.scheme)
    kd.lightlike_max = lightlike    # max |gbar(V, V)| of the section
    kd.parallel_max = par           # max residual of nablabar V
    return kd


# --- orthonormal frame and the Einstein table --------------------------------------


@dataclass(frozen=True)
class FrameEinstein:
    """Einstein tensor components in an orthonormal frame (e0, e1.., nu)."""

    grid: Grid
    labels: tuple
    frame: np.ndarray     # frame[A] = spacetime components of frame vector A
    ein: np.ndarray       # Ein(E_A, E_B)
    scal: np.ndarray
    orthonormality_defect: float


def _gram_schmidt_spatial(g):
    """Orthonormalize the M coordinate vectors under g, s direction first."""
    n = g.grid.ndim
    frame = np.zeros((n,) + g.data.shape[1:])
    for a in range(n):
        y = np.zeros((n,) + g.data.shape[2:])
        y[a] = 1.0
        for b in range(a):
            proj = _contract("cd...,c...,d...->...", g.data, frame[b], y)
            y = updated(np.subtract, y, proj * frame[b])
        nrm2 = g.norm2_vector(y)
        if float(np.min(nrm2)) <= 0.0:
            raise MeshError("degenerate metric in frame construction")
        frame[a] = y / np.sqrt(nrm2)
    return frame


@derived
def kd_einstein(kd):
    """Einstein tensor components in the frame (e0, e1..e_{n-1}, nu).

    e0 is the future unit normal of the v = const slices, the spatial
    frame comes from Gram-Schmidt over the coordinate vectors with the
    s direction last (so the final spatial leg is the leaf normal nu).
    """
    ids = kd.ids
    n = ids.grid.ndim
    g = ids.metric
    u_vec = -kd.section.x                      # U = -X, tangential part
    u_norm2 = g.norm2_vector(u_vec)
    if float(np.min(u_norm2)) <= 0.0:
        raise MeshError("section has vanishing tangential part; no slice normal")
    u_norm = np.sqrt(u_norm2)

    spatial = _gram_schmidt_spatial(g)          # rows: nu-hat, leaf legs
    frame = np.zeros((n + 1, n + 1) + np.broadcast_shapes(u_norm.shape, spatial.shape[2:]))
    frame[0, 0] = 1.0 / u_norm                  # e0 = (d_v + U)/|U|
    frame[0, 1:] = u_vec / u_norm
    for i in range(1, n):                       # leaf legs e1..e_{n-1}
        frame[i, 1:] = spatial[i]
    frame[n, 1:] = spatial[0]                   # nu last

    gram = _contract("Ai...,ij...,Bj...->AB...", frame, kd.gbar, frame)
    eta = np.diag([-1.0] + [1.0] * n).reshape((n + 1, n + 1) + (1,) * ids.grid.ndim)
    defect = float(np.max(np.abs(gram - eta)))

    curv = kd.curvature()
    ein = _contract("Ai...,ij...,Bj...->AB...", frame, curv.einstein, frame)
    labels = ("e0",) + tuple(f"e{i}" for i in range(1, n)) + ("nu",)
    return FrameEinstein(ids.grid, labels, frame, ein, curv.scal, defect)


def kd_pattern_residuals(kd):
    """Deviation of the frame Einstein table from the rho-rank-one pattern.

    On data whose section is parallel the only nonzero entries are
    Ein(e0,e0) = Ein(nu,nu) = rho and Ein(e0,nu) = -sigma rho, where
    sigma is the s orientation of the section's tangential direction.
    Reports the off-pattern maximum, the leaf-leaf block maximum, the
    scalar curvature maximum and the marginal chain Ein(e0, e0 + sigma nu).
    """
    table = kd_einstein(kd)
    rho = constraints(kd.ids)[0]
    n = kd.grid.ndim
    sigma = -1.0 if float(np.mean(-full_grid(kd.section.x[0], kd.grid))) > 0.0 else 1.0
    pattern = np.zeros((n + 1, n + 1))
    pattern[0, 0] = 1.0
    pattern[n, n] = 1.0
    pattern[0, n] = pattern[n, 0] = -sigma
    expected = pattern.reshape((n + 1, n + 1) + (1,) * n) * rho.data
    off = table.ein - expected
    chain = table.ein[0, 0] + sigma * table.ein[0, n]
    return {
        "off_pattern_max": float(np.max(np.abs(off))),
        "leaf_block_max": float(np.max(np.abs(table.ein[1:n, 1:n]))),
        "marginal_chain_max": float(np.max(np.abs(chain))),
        "scal_max": float(np.max(np.abs(table.scal))),
        "orthonormality_defect": table.orthonormality_defect,
        "sigma": sigma,
    }


# --- energy condition sampling ------------------------------------------------------


def causal_direction_set(m, count=64):
    """Deterministic quasi-uniform unit vectors in R^m, m >= 2 (M has dimension 2 to 4).

    m = 2 gives equally spaced angles, m = 3 the golden-angle spiral on the
    sphere; higher m maps a Kronecker lattice through the normal quantile and
    normalizes.
    """
    if m < 2:
        raise MeshError("direction set needs at least two spatial dimensions")
    if m == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if m == 3:
        idx = np.arange(count) + 0.5
        z = 1.0 - 2.0 * idx / count
        r = np.sqrt(np.maximum(1.0 - z**2, 0.0))
        ang = math.pi * (1.0 + math.sqrt(5.0)) * idx
        return np.stack([r * np.cos(ang), r * np.sin(ang), z], axis=1)
    root = 2.0
    for _ in range(64):
        root = (1.0 + root) ** (1.0 / (m + 1))
    alphas = root ** -np.arange(1, m + 1)
    # start at i = 1: the origin of the lattice maps to the zero vector
    lattice = (0.5 + np.outer(np.arange(1, count + 1), alphas)) % 1.0
    quantile = statistics.NormalDist().inv_cdf
    pts = np.array([[quantile(p) for p in row] for row in lattice.tolist()])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass(frozen=True)
class DecReport:
    """Minimum of Ein over sampled pairs of future-causal frame vectors."""

    minimum: float
    node: tuple
    pair: tuple
    coords: tuple
    direction_count: int
    scale: float


# the energy scan's chunks: rays d are batched while a chunk stays within 2^13 values
# (64 KB), and a ray's values are cut into runs of d' only past 2^16 (512 KB).  Batches
# up to 2^16 raised the benchmark's peak RSS by 0.15-0.2 MB; runs of 2^13 made tables
# of 3000 to 4000 nodes up to 1.5x slower than one ray a step
_BATCH_VALUES = 2**13
_SCAN_VALUES = 2**16


def _chunk_minimum(rays, contracted):
    """The first minimum in C order of rays[q] . contracted[p] over a chunk, and its index
    (p, q, *node); the chunk's values are freed on return."""
    vals = np.einsum("qA,pA...->pq...", rays, contracted)
    flat = int(np.argmin(vals))
    return float(vals.flat[flat]), [int(i) for i in np.unravel_index(flat, vals.shape)]


def frame_dec_minimum(ein_frame, grid, count=64):
    """Scan Ein(e0+d, e0+d') over null directions d from the sampled set.

    The scan runs over the table's own grid shape, length 1 along every axis
    it does not vary on.  Values repeat along those axes, so the first minimum
    there, with index 0 on them, is the first minimum of the whole grid, bit
    for bit.  A table of length 1 along every axis is spread along the last:
    on a one-node grid einsum sums the frame index in another order, which can
    move the last bit.

    Still count^2 pairs (d, d') at every node, evaluated in chunks: several
    rays d against every d' while that fits in `_BATCH_VALUES` values, one d
    against every d' up to `_SCAN_VALUES`, else one d against runs of d' of at
    most `_SCAN_VALUES` (or one pair's nodes, where those are more).
    Each value is einsum's sum over the frame index in order, as a one-pair
    loop gives it.  A chunk's argmin is taken in C order (d, d', node), the
    chunks run in that order, and a later chunk wins only on a strict `<`, so
    the minimum, its node and its pair are the loop's first ones.
    """
    n = ein_frame.shape[0] - 1
    rays = np.insert(causal_direction_set(n, count), 0, 1.0, axis=1)  # e0 + d
    table = (ein_frame if math.prod(ein_frame.shape[2:]) > 1
             else np.repeat(ein_frame, grid.counts[-1], axis=-1))
    nodes = math.prod(table.shape[2:])
    step_p = max(1, _BATCH_VALUES // (len(rays) * nodes))
    step_q = min(len(rays), max(1, _SCAN_VALUES // nodes))
    best = math.inf
    best_node = None
    best_pair = None
    for p in range(0, len(rays), step_p):
        contracted = np.einsum("pA,AB...->pB...", rays[p:p + step_p], table)
        for q in range(0, len(rays), step_q):
            value, (dp, dq, *node) = _chunk_minimum(rays[q:q + step_q], contracted)
            if value < best:
                best, best_pair, best_node = value, (p + dp, q + dq), tuple(node)
    coords = tuple(float(grid.axis_coords(i)[best_node[i]]) for i in range(grid.ndim))
    scale = float(np.max(np.abs(table)))
    return DecReport(best, best_node, best_pair, coords, rays.shape[0], scale)


def kd_dec_check(kd, count=64):
    """Dominant-energy scan of the development's Einstein tensor.

    Ein is bilinear, and every future-causal vector is a nonnegative
    combination of future null rays, so Ein(X, Y) >= 0 on the causal cone
    holds iff it holds on pairs of null rays.  The minimum over the sampled
    pairs is an estimate of that minimum, not a certificate: it never lies
    below it and can overstate it (4D margins at 64 directions read 5-7%
    shallower than the exact inner minimum over 4096 directions).  A
    negative value is a violation, witnessed at the reported node and pair.
    """
    return frame_dec_minimum(kd_einstein(kd).ein, kd.grid, count)


# --- plane-wave family --------------------------------------------------------------


@dataclass(frozen=True)
class PpWaveSpec:
    """Wave profile f(s, x) on a product grid; leaves carry the identity metric."""

    grid: Grid
    f: object
    scheme: object = DEFAULT_SCHEME
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def ppwave(grid, f, scheme=DEFAULT_SCHEME):
    """Validate a profile expression and wrap it as a wave family member."""
    if grid.periodic[0]:
        raise MeshError("wave profile needs a product grid with an s axis")
    ast = exprlang.parse(f) if isinstance(f, str) else f
    lengths = dict(zip(grid.names[1:], grid.lengths[1:]))
    report = exprlang.lint_periodicity(ast, lengths)
    if report:
        raise DataError(f"wave profile is not periodic on the leaves: {report}")
    return PpWaveSpec(grid, ast, scheme)


def ppwave_metric(spec):
    """Coordinate components of -ds dv - dv ds + f ds^2 + delta."""
    grid = spec.grid
    n = grid.ndim
    f_vals = grid_values(grid, spec.f)
    gbar = np.zeros((n + 1, n + 1) + f_vals.shape)
    gbar[0, 1] = gbar[1, 0] = -1.0
    gbar[1, 1] = f_vals
    for i in range(2, n + 1):
        gbar[i, i] = 1.0
    return gbar


@derived
def wave_connection(spec):
    """The wave's metric, its inverse and Christoffels (gbar, ginv, gamma), built once per spec."""
    gbar = ppwave_metric(spec)
    return (gbar,) + spacetime_christoffels(gbar, spec.grid, spec.scheme)


def leaf_laplacian_exact(spec):
    """Geometric leaf Laplacian -sum_i d^2 f / dx_i^2 from symbolic derivatives."""
    grid = spec.grid
    env = grid.coord_env()
    total = 0.0
    for i in range(1, grid.ndim):
        second = exprlang.diff(exprlang.diff(spec.f, f"x{i}"), f"x{i}")
        total = total - grid_values(grid, second, env)
    return total


@dataclass(frozen=True)
class PpWaveReport:
    """Residuals of the wave metric against its closed-form curvature."""

    formula_residual_max: float
    off_component_max: float
    scal_max: float
    parallel_kv_max: float
    dec_margin_min: float
    einstein: np.ndarray
    expected_ss: np.ndarray


@derived
def ppwave_einstein_check(spec):
    """Einstein tensor of the wave versus (1/2)(Delta_leaf f) ds (x) ds.

    Also checks that the translation direction d_v is parallel (all
    Gammabar^A_{Bv} vanish) and that scalar curvature is zero.  The
    energy condition margin is the minimum of the ss component: the
    Einstein tensor is a multiple of ds (x) ds, so the condition holds
    exactly when that coefficient is nonnegative, i.e. when the profile's
    geometric leaf Laplacian is nonnegative.
    """
    grid = spec.grid
    gbar, ginv, gamma = wave_connection(spec)
    curv = spacetime_curvature(gbar, grid, spec.scheme, (ginv, gamma))
    expected_ss = 0.5 * leaf_laplacian_exact(spec)
    ein = curv.einstein
    off = ein.copy()
    off[1, 1] = 0.0
    return PpWaveReport(
        formula_residual_max=float(np.max(np.abs(ein[1, 1] - expected_ss))),
        off_component_max=float(np.max(np.abs(off))),
        scal_max=float(np.max(np.abs(curv.scal))),
        parallel_kv_max=float(np.max(np.abs(curv.gamma[:, :, 0]))),
        dec_margin_min=float(np.min(ein[1, 1])),
        einstein=ein,
        expected_ss=expected_ss,
    )


# --- hypersurface data induction ----------------------------------------------------


def graph_profile(spec, dw):
    """Profile f - 2 w' of the wave that the graph v = w(s) develops into."""
    return exprlang._sub(spec.f, exprlang._mul(exprlang._num(2.0), dw))


def induce_from_ppwave(spec, w="0"):
    """Initial data induced on the graph v = w(s) inside the wave.

    The graph must be independent of the leaf coordinates so the induced
    metric keeps product form; it is spacelike iff f - 2 w' > 0, and then
    the induced lapse is phi = sqrt(f - 2 w') with identity leaf metric.
    The second fundamental form is computed numerically from the wave
    connection and the future unit normal of the graph.  The data set is
    built on the first call for a graph and returned again by later calls.
    """
    w_ast = exprlang.parse(w) if isinstance(w, str) else w

    def build():
        grid = spec.grid
        n = grid.ndim
        extra = exprlang.variables_of(w_ast) - {"s"}
        if extra:
            raise DataError("graph must depend on s only to induce product data "
                            f"(found {sorted(extra)})")
        env = grid.coord_env()
        dw = exprlang.diff(w_ast, "s")
        phi2 = grid_values(grid, graph_profile(spec, dw), env)
        if float(np.min(phi2)) <= 0.0:
            raise DataError("graph is not spacelike: f - 2 dw/ds <= 0 at a node")
        phi = Field(grid, "scalar", np.sqrt(phi2))

        gbar, ginv, gamma = wave_connection(spec)
        dw_vals = grid_values(grid, dw, env)

        # future unit normal from the conormal dv - w' ds
        conormal = np.zeros((n + 1,) + dw_vals.shape)
        conormal[0] = 1.0
        conormal[1] = -dw_vals
        normal = _contract("AB...,B...->A...", ginv, conormal)
        e0 = -normal / phi.data
        e0_v = _contract("A...,A...->...", gbar[0], e0)
        if float(np.max(e0_v)) >= 0.0:
            raise DataError("graph normal is not future directed")

        tangents = np.zeros((n, n + 1) + dw_vals.shape)
        tangents[0, 0] = dw_vals
        tangents[0, 1] = 1.0
        for i in range(1, n):
            tangents[i, i + 1] = 1.0

        de0 = partial_stack(e0, grid, spec.scheme)
        cov = de0 + _contract("BCD...,aC...,D...->aB...", gamma, tangents, e0)
        k = _contract("BD...,bD...,aB...->ab...", gbar, tangents, cov)
        asym = float(np.max(np.abs(k - np.einsum("ab...->ba...", k))))
        if asym > 1e-6 * (1.0 + float(np.max(np.abs(k)))):
            warnings.warn(f"induced second fundamental form asymmetry {asym:.3e}")
        return InitialDataSet.product(grid, phi, np.eye(n - 1),
                                      Field(grid, "sym2", geometry.symmetrize(k)), spec.scheme)
    return _stored(spec, (induce_from_ppwave, w_ast), build)


def restricted_killing_section(ids):
    """Restriction of the wave's translation direction to induced data.

    Decomposing d_v along the graph gives u = 1/phi and tangential part
    -phi^{-2} d_s regardless of the graph function, so this is the
    parallel section the induced data develops along.
    """
    inv_phi = 1.0 / ids.phi.data
    x = np.zeros((ids.grid.ndim,) + inv_phi.shape)
    x[0] = -(inv_phi**2)
    return AmbientVector(ids.grid, inv_phi, x)


def kd_roundtrip(spec, w="0"):
    """Induce data on a graph, develop it, compare against the shifted wave.

    The development of the induced data equals the wave with profile
    f - 2 w' in translated coordinates, so the metric and Einstein
    tensors must match componentwise; for w' = 0 that wave is the spec's own.
    The shifted profile is not linted again: w reads s alone (induce_from_ppwave
    rejects any other graph), so it is periodic on the leaves whenever f is.
    """
    ids = induce_from_ppwave(spec, w)
    section = restricted_killing_section(ids)
    kd = build_kd(ids, section)

    w_ast = exprlang.parse(w) if isinstance(w, str) else w
    dw = exprlang.diff(w_ast, "s")
    shifted = (spec if dw == exprlang.Num(0.0)
               else PpWaveSpec(spec.grid, graph_profile(spec, dw), spec.scheme))
    expected = wave_connection(shifted)[0]
    wave_report = ppwave_einstein_check(shifted)
    kd_ein = kd.curvature().einstein
    off = kd_ein.copy()
    off[1, 1] = 0.0
    table = kd_einstein(kd)
    wave_frame = _contract("Ai...,ij...,Bj...->AB...", table.frame,
                            wave_report.einstein, table.frame)
    return {
        "metric_gap_max": float(np.max(np.abs(kd.gbar - expected))),
        "einstein_gap_max": float(np.max(np.abs(kd_ein - wave_report.einstein))),
        "frame_table_gap_max": float(np.max(np.abs(table.ein - wave_frame))),
        "kd_formula_residual_max": float(np.max(np.abs(
            kd_ein[1, 1] - wave_report.expected_ss))),
        "kd_off_component_max": float(np.max(np.abs(off))),
        "scal_max": float(np.max(np.abs(kd.curvature().scal))),
    }


# --- report emission ----------------------------------------------------------------


def dump_frame_table_csv(table, path):
    """Write the frame Einstein table as CSV, one row per node and entry."""
    columns = [(f"ein_{la}_{lb}", table.ein[a, b])
               for a, la in enumerate(table.labels) for b, lb in enumerate(table.labels)]
    dump_csv(table.grid, columns, path)
