"""Test-side references: claims of the paper that tier-1 checks but no idrig command runs.

- Quadrature and L2 inner products on a torus (`integrate`, `l2_inner`,
  `l2_norm`), the Lie derivative of a metric (`lie_metric`) and the ambient
  fiber pairing (`ambient_pairing`).
- The Hodge and TT splits, which act on leaf fields over a *constant* flat
  leaf metric and are implemented as exact Fourier-multiplier projections,
  and the divergence-part identity they rest on.
- Discrete parallel transport of an ambient section along a polyline.
- Assembling k from its normal components (`from_normal_components`).

They build on the package's own operators; nothing in src/ imports this module.
"""
from dataclasses import dataclass

import numpy as np

from idrig import geometry
from idrig.initial_data import InitialDataSet, _k_mixed, _lapse
from idrig.mesh import (DEFAULT_SCHEME, Field, MeshError, _contract, components, full_grid,
                        partial_stack, sample)
from idrig.rigidity import leaf_div_minus_dtr

# --- quadrature, inner products, Lie derivative, ambient pairing -------------------


def integrate(values, grid):
    """Rectangle rule integral over a fully periodic grid (exact for trig polys)."""
    if not all(grid.periodic):
        raise MeshError("integrate expects a torus grid")
    cell = float(np.prod(grid.spacing))
    axes = tuple(range(-grid.ndim, 0))
    values = np.ascontiguousarray(full_grid(values, grid), dtype=float)
    return np.sum(values, axis=axes) * cell


_FORM_WEIGHT = {"scalar": 1.0, "covector": 1.0, "form2": 0.5}


def pointwise_inner(a, b, ginv):
    """Pointwise metric inner product of two same-kind covariant fields.

    p-forms carry the 1/p! weight so that the codifferential is the exact
    L2 adjoint of the exterior derivative.
    """
    if a.kind != b.kind:
        raise MeshError("inner product needs matching kinds")
    rank = a.rank
    if rank == 0:
        return a.data * b.data
    ginv = np.asarray(ginv, dtype=float)
    if rank == 1:
        raised = _contract("ab...,b...->a...", ginv, b.data)
        out = _contract("a...,a...->...", a.data, raised)
    elif rank == 2:
        raised = _contract("ac...,bd...,cd...->ab...", ginv, ginv, b.data)
        out = _contract("ab...,ab...->...", a.data, raised)
    else:
        raise MeshError(f"no inner product for rank {rank}")
    return out * _FORM_WEIGHT.get(a.kind, 1.0)


def l2_inner(a, b, ginv):
    """L2 inner product of two torus fields; ginv constant matrix or field data."""
    return float(integrate(pointwise_inner(a, b, ginv), a.grid))


def l2_norm(a, ginv):
    return float(np.sqrt(max(l2_inner(a, a, ginv), 0.0)))


def lie_metric(xdata, metric, gamma, scheme=DEFAULT_SCHEME):
    """(L_X g)_ab = nabla_a X_b + nabla_b X_a."""
    w = metric.flat(xdata)
    nw = geometry.cov_covector(w, metric.grid, gamma, scheme)
    return nw + np.einsum("ab...->ba...", nw)


def ambient_pairing(ids, v, w):
    """gbar(V, W) = -a a' + g(X, X') of two ambient sections."""
    return -v.a * w.a + _contract("ab...,a...,b...->...", ids.metric.data, v.x, w.x)


def from_normal_components(grid, phi, leaf_metric, k_nn, k_nf, k_ff, scheme=DEFAULT_SCHEME):
    """Initial data whose k is assembled from k(nu,nu), the leaf covector k(nu, .) and k|_FF."""
    phi_f = _lapse(grid, phi)
    n = grid.ndim
    value = lambda entry: entry if isinstance(entry, np.ndarray) else sample(grid, entry).data
    knf = [phi_f.data * value(k_nf[i]) for i in range(n - 1)]
    rows = [[phi_f.data**2 * value(k_nn)] + knf] + [
        [knf[i]] + [value(k_ff[i][j]) for j in range(n - 1)] for i in range(n - 1)]
    k = components([entry for row in rows for entry in row], (n, n))
    return InitialDataSet.product(grid, phi_f, leaf_metric, Field(grid, "sym2", k), scheme)


# --- Fourier tools on constant flat leaf metrics ------------------------------------


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
    data = full_grid(omega.data, leaf_grid)
    what = np.fft.fftn(data, axes=axes)
    fhat = -1j * _contract("a...,a...->...", xi_up, what) / safe
    fhat = np.where(zero, 0.0, fhat)
    exact_hat = 1j * xi * fhat

    harm = np.real(what[(slice(None),) + (0,) * m]) / np.prod(leaf_grid.counts)
    harmonic = np.zeros(data.shape)
    harmonic += harm.reshape((m,) + (1,) * m)

    exact = np.real(np.fft.ifftn(exact_hat, axes=axes))
    coexact = data - exact - harmonic
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
    gfield = geometry.MetricField(Field(leaf_grid, "sym2", gmat.reshape((m, m) + (1,) * m)))
    gam = geometry.christoffels(gfield, scheme)
    w_vec = gfield.sharp(w_covector.data)
    lie = lie_metric(w_vec, gfield, gam, scheme)
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
    data = full_grid(gdot.data, leaf_grid)
    tr = np.einsum("ab,ab...->...", ginv, data)
    c = float(integrate(tr, leaf_grid)) / (m * vol)

    source = data - c * gmat.reshape((m, m) + (1,) * m)
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


# --- parallel transport ----------------------------------------------------------------


@dataclass(frozen=True)
class TransportResult:
    a_end: float                # e0 coefficient of the transported vector
    x_end: np.ndarray           # tangent components at the final node
    norm_start: float           # gbar(V, V) at the first node
    norm_end: float
    drift: float                # |gbar(V,V) end - start|
    length: float               # coordinate length of the polyline
    steps: int


def _lagrange_weights(offsets, t):
    w = np.ones(len(offsets))
    for i, oi in enumerate(offsets):
        for oj in offsets:
            if oj != oi:
                w[i] *= (t - oj) / (oi - oj)
    return w


class _StencilInterpolator:
    """Tensor-product Lagrange interpolation of stacked component arrays."""

    degree = 6

    def __init__(self, arrays, grid):
        self.grid = grid
        self.data = np.concatenate([full_grid(a, grid).reshape((-1,) + grid.shape)
                                    for a in arrays])
        self.sizes = [int(np.prod(a.shape[: a.ndim - grid.ndim], dtype=int)) for a in arrays]

    def __call__(self, point):
        grid = self.grid
        npts = self.degree + 1
        idx_lists, weight_lists = [], []
        for axis in range(grid.ndim):
            u = point[axis] / grid.spacing[axis]
            base = int(np.floor(u)) - self.degree // 2
            if not grid.periodic[axis]:  # the stencil stays inside the interval
                base = min(max(base, 0), grid.counts[axis] - npts)
            offs = np.arange(base, base + npts)
            weight_lists.append(_lagrange_weights(offs, u))
            idx_lists.append(offs % grid.counts[axis])
        block = self.data
        for axis in range(grid.ndim):
            block = np.take(block, idx_lists[axis], axis=1 + axis)
        w = weight_lists[0]
        for wl in weight_lists[1:]:
            w = np.multiply.outer(w, wl)
        flat = np.tensordot(block, w, axes=(tuple(range(1, grid.ndim + 1)),
                                            tuple(range(grid.ndim))))
        return np.split(flat, np.cumsum(self.sizes)[:-1])


def parallel_transport(ids, v0_a, v0_x, path):
    """Transport (v0_a, v0_x) along a polyline of grid node indices.

    path is a sequence of node index tuples; consecutive nodes are joined by
    straight coordinate segments.  Integration is RK4 with step halving until
    the endpoint state changes by less than 1e-10, in at most 65536 steps a
    segment; connection coefficients are interpolated with tensor-product
    Lagrange polynomials of degree 6.
    """
    grid = ids.grid
    n = grid.ndim
    if len(path) == 0:
        raise MeshError("transport path is empty")
    for idx in path:
        if len(idx) != n or not all(0 <= idx[i] < grid.counts[i] for i in range(n)):
            raise MeshError(f"path node {tuple(idx)} outside the grid")
    curv = ids.curvature()
    interp = _StencilInterpolator([curv.christoffels, ids.k.data, _k_mixed(ids)], grid)

    def rhs(point, state, direction):
        gam_f, k_f, km_f = interp(point)
        gam = gam_f.reshape(n, n, n)
        kk = k_f.reshape(n, n)
        km = km_f.reshape(n, n)
        a, x = state[0], state[1:]
        ky_x = direction @ kk @ x
        da = -ky_x
        dx = -(a * (direction @ km) + np.einsum("bce,c,e->b", gam, direction, x))
        return np.concatenate(([da], dx))

    def run_segment(p0, p1, state, nsteps):
        direction = p1 - p0
        dt = 1.0 / nsteps
        y = state.copy()
        for istep in range(nsteps):
            t = istep * dt
            pt = lambda tt: p0 + (t + tt) * direction
            k1 = rhs(pt(0.0), y, direction)
            k2 = rhs(pt(0.5 * dt), y + 0.5 * dt * k1, direction)
            k3 = rhs(pt(0.5 * dt), y + 0.5 * dt * k2, direction)
            k4 = rhs(pt(dt), y + dt * k3, direction)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return y

    nodes = [np.array([grid.spacing[i] * idx[i] for i in range(n)]) for idx in path]
    state = np.concatenate(([float(v0_a)], np.asarray(v0_x, dtype=float)))
    total_len = 0.0
    total_steps = 0
    for p0, p1 in zip(nodes[:-1], nodes[1:]):
        seg_len = float(np.linalg.norm(p1 - p0))
        if seg_len == 0.0:
            continue
        total_len += seg_len
        nsteps = 8
        coarse = run_segment(p0, p1, state, nsteps)
        while True:
            fine = run_segment(p0, p1, state, 2 * nsteps)
            if np.max(np.abs(fine - coarse)) < 1e-10:
                state = fine
                total_steps += 2 * nsteps
                break
            if 2 * nsteps > 65536:
                raise MeshError("parallel transport step size underflow")
            coarse = fine
            nsteps *= 2

    def norm_at(idx, a, x):
        g_node = full_grid(ids.metric.data, grid)[(slice(None), slice(None)) + tuple(idx)]
        return float(-a * a + x @ g_node @ x)

    norm0 = norm_at(path[0], float(v0_a), np.asarray(v0_x, dtype=float))
    norm1 = norm_at(path[-1], state[0], state[1:])
    return TransportResult(
        float(state[0]), state[1:].copy(), norm0, norm1,
        abs(norm1 - norm0), total_len, total_steps)
