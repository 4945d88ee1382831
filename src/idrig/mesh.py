"""Uniform grids on [0, l] x T^(n-1), fields, derivatives, contractions, CSV dumps.

The s axis carries both interval endpoints (N_s nodes, spacing l/(N_s - 1));
leaf axes are periodic with the right endpoint identified (N_i nodes, spacing
L_i/N_i).  Field data is stored with component axes first and grid axes last,
so contractions broadcast over the grid.  Christoffels, spectral partials and
partial stacks come out C-contiguous, and metric inverses are written component
by component into one fresh C-contiguous array: a contraction runs several times
slower on a strided view (say a moveaxis of np.linalg.inv's output), and
einsum's output inherits that layout, so one view slows everything downstream.

Derivative schemes: "fd2" and "fd4" work on every axis (one-sided stencils of
matching order at s = 0 and s = l), "spectral" works on periodic axes only.
The default pairing is fd4 along s and spectral along the leaves.

Structural zeros: a component slice that is exactly 0.0 at every node (NaN and
inf count as nonzero) is never handed to a kernel.  `partial` and
`partial_stack` differentiate only the other components, in one batch, and
leave these +0.0: equal in value to what every scheme gives, not always in
bits (fd2 gives -0.0 on a component that holds -0.0 entries); a stack is
written axis by axis into one preallocated array.

Grid shapes: an array's grid axes are each either the axis's full node count
or 1, where the data does not vary along that axis, and numpy broadcasting
carries that through every elementwise step and every `_contract`.  `sample`
keeps the length-1 axes of a scene expression (`1 + 0.1*sin(2*pi*x1)` on an
(s, x1, x2) grid has grid shape (1, N1, 1)); a `Field` holds any shape that
broadcasts to its full one.  A derivative along a length-1 axis, s or a leaf
axis, is +0.0 at the data's own shape under every scheme, with no kernel call:
every stencil's weights sum to 0 and a constant trigonometric polynomial has
derivative 0, so +0.0 is the exact value; the kernels would leave round-off.
Derived results keep the reduced shape, and per-leaf slices (`leaf_values`,
`leaf_block`) keep their length-1 axes.  Arrays reach the full grid only at
the edges: a report's maxima and argmins need no expansion, and `full_grid`
serves the CSV dump, the signature count and the section's mean orientation.

`_contract`, which every multi-operand pointwise contraction goes through,
multiplies only the products with no all-zero factor slice.  It sums each
output component over its summed labels in ascending order, outermost first,
factors left to right, into a fresh C-contiguous array.  With
component axes C-ordered and grid axes innermost, as every caller passes them,
that is np.einsum's order, so the result is einsum's bit for bit: a skipped
product is exactly zero and cannot change a float sum.  (Where another factor
is inf or NaN, einsum's product is NaN; the skipped one is not.)

Which slices are zero is found by a scan (`_live`) of each operand where it
is used; no mask outlives the call.  An array carries its constant axes at
length 1, so a scan reads only the nodes the data varies on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import exprlang


class MeshError(ValueError):
    pass


class DataError(MeshError):
    """Input data that violates a precondition of the checks, not a numerical breakdown."""


# --- grids -------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid; axis 0 may be the non-periodic s axis."""

    names: tuple
    counts: tuple
    lengths: tuple
    periodic: tuple

    def __post_init__(self):
        if not (1 <= self.ndim <= 4):
            raise MeshError(f"grid dimension {self.ndim} outside 1..4")
        for name, count, length, per in zip(self.names, self.counts, self.lengths,
                                            self.periodic):
            if count < 8:
                raise MeshError(f"axis {name} has {count} < 8 nodes")
            if per and count % 2 != 0:
                raise MeshError(f"periodic axis {name} needs an even node count")
            if not np.isfinite(length):
                raise MeshError(f"axis {name} has non-finite length {length}")
            if not length > 0:
                raise MeshError(f"axis {name} has nonpositive length {length}")

    @staticmethod
    def product(ell, n_s, leaf_counts, leaf_lengths):
        """Grid for [0, ell] x T^(n-1) with torus circumferences leaf_lengths."""
        leaf_counts = tuple(int(c) for c in leaf_counts)
        leaf_lengths = tuple(float(length) for length in leaf_lengths)
        if len(leaf_counts) != len(leaf_lengths):
            raise MeshError("leaf counts and lengths differ in length")
        n = 1 + len(leaf_counts)
        if not (2 <= n <= 4):
            raise MeshError(f"total dimension {n} outside 2..4")
        names = ("s",) + tuple(f"x{i}" for i in range(1, n))
        return Grid(names, (int(n_s),) + leaf_counts, (float(ell),) + leaf_lengths,
                    (False,) + (True,) * (n - 1))

    @property
    def ndim(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    @cached_property
    def spacing(self):
        return tuple(
            length / (count if per else count - 1)
            for length, count, per in zip(self.lengths, self.counts, self.periodic)
        )

    def axis_coords(self, i):
        h = self.spacing[i]
        return np.arange(self.counts[i]) * h

    def coord_env(self):
        """Sparse broadcastable coordinate arrays keyed by axis name."""
        axes = [self.axis_coords(i) for i in range(self.ndim)]
        mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        return dict(zip(self.names, mesh))

    def leaf(self):
        """The leaf torus of a product grid."""
        if self.periodic[0]:
            raise MeshError("grid has no s axis")
        return Grid(self.names[1:], self.counts[1:], self.lengths[1:], self.periodic[1:])

    @property
    def ell(self):
        if self.periodic[0]:
            raise MeshError("grid has no s axis")
        return self.lengths[0]


# --- derivative schemes --------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """Derivative scheme per axis class: s in {fd2, fd4}, leaf adds spectral."""

    s: str = "fd4"
    leaf: str = "spectral"

    def __post_init__(self):
        if self.s not in ("fd2", "fd4"):
            raise MeshError(f"s scheme {self.s!r} not in fd2, fd4")
        if self.leaf not in ("fd2", "fd4", "spectral"):
            raise MeshError(f"leaf scheme {self.leaf!r} not in fd2, fd4, spectral")

    def for_axis(self, grid, i):
        return self.leaf if grid.periodic[i] else self.s


DEFAULT_SCHEME = Scheme()


@lru_cache(maxsize=64)
def _wavenumbers(count, spacing):
    k = 2.0 * np.pi * np.fft.fftfreq(count, d=spacing)
    if count % 2 == 0:
        k[count // 2] = 0.0  # drop the unpaired Nyquist mode from first derivatives
    return 1j * k


def _spectral_axis(data, axis, count, spacing):
    shape = [1] * data.ndim
    shape[axis] = count
    fk = np.fft.fft(data, axis=axis)
    fk *= _wavenumbers(count, spacing).reshape(shape)
    return np.fft.ifft(fk, axis=axis).real  # a strided view: the caller's scatter writes it out


def _fd4_periodic(data, axis, h):
    r = lambda k: np.roll(data, k, axis=axis)
    return (r(2) - 8.0 * r(1) + 8.0 * r(-1) - r(-2)) / (12.0 * h)


def _fd2_periodic(data, axis, h):
    return (np.roll(data, -1, axis=axis) - np.roll(data, 1, axis=axis)) / (2.0 * h)


# the one-sided fd4 rows at nodes 0, 1, -2 and -1: the five nodes each reads, and their weights
_FD4_EDGE_NODES = np.array([[0, 1, 2, 3, 4]] * 2 + [[-1, -2, -3, -4, -5]] * 2)
_FD4_EDGE_WEIGHTS = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0],
                              [3.0, 10.0, -18.0, 6.0, -1.0], [25.0, -48.0, 36.0, -16.0, 3.0]])


def _fd4_interval(data, axis, h):
    d = np.swapaxes(data, axis, 0)
    out = np.empty_like(d)
    out[2:-2] = (d[:-4] - 8.0 * d[1:-3] + 8.0 * d[3:-1] - d[4:]) / (12.0 * h)
    # a - b*x equals a + (-b)*x and 1.0*x equals x, so the terms added left to right
    # give each row's written-out formula bit for bit
    terms = _FD4_EDGE_WEIGHTS.reshape((4, 5) + (1,) * (d.ndim - 1)) * d[_FD4_EDGE_NODES]
    edges = terms[:, 0] + terms[:, 1]
    for k in range(2, 5):
        edges += terms[:, k]
    out[[0, 1, -2, -1]] = edges / (12.0 * h)
    return np.swapaxes(out, 0, axis)


def _derivative(data, grid, axis, scheme):
    """The scheme's kernel along grid axis `axis`; `data` has the grid axes last."""
    arr_axis = data.ndim - grid.ndim + axis
    h = grid.spacing[axis]
    method = scheme.for_axis(grid, axis)
    if method == "spectral":
        if not grid.periodic[axis]:
            raise MeshError("spectral derivative requires a periodic axis")
        return _spectral_axis(data, arr_axis, grid.counts[axis], h)
    if grid.periodic[axis]:
        if method == "fd4":
            return _fd4_periodic(data, arr_axis, h)
        return _fd2_periodic(data, arr_axis, h)
    if method == "fd4":
        return _fd4_interval(data, arr_axis, h)
    return np.gradient(data, h, axis=arr_axis, edge_order=2)


def _live(data, rank):
    """Mask over the `rank` leading axes: True where that component slice is nonzero somewhere."""
    return np.logical_or.reduce(data, axis=tuple(range(rank, np.ndim(data))))


def _partials(data, grid, axes, scheme, zero_axes=0):
    """The stack of `zero_axes` derivatives that are 0, then those along `axes`.

    An int `axes` gives that one derivative, unstacked, at the data's shape.
    Zero components and axes of length 1 skip the kernel and stay +0.0.
    """
    stacked = not isinstance(axes, int)
    axes = tuple(axes) if stacked else (axes,)
    rank = np.ndim(data) - grid.ndim
    live = _live(data, rank).reshape(-1)
    shape = np.shape(data)[rank:]
    nonzero = np.asarray(data, dtype=float).reshape((-1,) + shape)[live]
    lead = (zero_axes + len(axes),) if stacked else ()
    out = np.zeros(lead + np.shape(data))
    stack = out.reshape((zero_axes + len(axes), len(live)) + shape)[zero_axes:]
    for k, axis in enumerate(axes):
        if shape[axis] > 1:
            stack[k, live] = _derivative(nonzero, grid, axis, scheme)
    return out


@lru_cache(maxsize=None)
def _labels(subscripts):
    """Component labels of each operand, of the output, and the summed ones ascending."""
    ins, out = subscripts.replace("...", "").split("->")
    ins = tuple(ins.split(","))
    return ins, out, "".join(sorted(set("".join(ins)) - set(out)))


_PLANS = {}  # a run meets about a hundred subscripts and zero patterns


def _plan(subscripts, masks):
    """Output component shape and, per output component, its live products.

    Products run over the summed labels ascending, outermost first.  Every
    factor index ends in Ellipsis, so it selects a view.
    """
    ins, out, summed = _labels(subscripts)
    loop = out + summed
    size = {}
    for labels, mask in zip(ins, masks):
        size.update(zip(labels, mask.shape))
    dims = [size[c] for c in loop]
    index = dict(zip(loop, np.indices(dims).reshape(len(loop), math.prod(dims))))
    live = np.ones(math.prod(dims), dtype=bool)
    for labels, mask in zip(ins, masks):
        live &= mask[tuple(index[c] for c in labels)]
    index = {c: column[live].tolist() for c, column in index.items()}
    ends = [Ellipsis] * int(live.sum())
    products = {}  # output component index -> factor indices of each product
    for target, *factors in zip(zip(*(index[c] for c in out), ends),
                                *(zip(*(index[c] for c in labels), ends) for labels in ins)):
        products.setdefault(target, []).append(factors)
    return tuple(size[c] for c in out), list(products.items())


def _contract(subscripts, *operands):
    """np.einsum(subscripts, *operands) over the products with no structural-zero factor.

    Subscripts give the component labels of each operand, then "..." for the
    grid axes.  A plan is built once per subscripts and operand zero masks, so
    it serves every grid, layout and dtype.  The result spans the union of the
    operands' grid shapes; spread over the grid, it is einsum's on dense copies
    bit for bit when each operand's component axes are C-ordered and its grid
    axes innermost.
    """
    ops = [np.asarray(op) for op in operands]
    ins = _labels(subscripts)[0]
    masks = [_live(op, len(labels)) for labels, op in zip(ins, ops)]
    key = (subscripts,) + tuple((mask.shape, mask.tobytes()) for mask in masks)
    if key not in _PLANS:
        _PLANS[key] = _plan(subscripts, masks)
    shape, products = _PLANS[key]
    grid = np.broadcast_shapes(*(op.shape[len(labels):] for labels, op in zip(ins, ops)))
    dtype = np.result_type(*ops)
    result = np.zeros(shape + grid, dtype=dtype)
    term = np.empty(grid, dtype=dtype)
    # einsum rounds the real and imaginary parts of a complex product separately
    multiply = np.multiply if dtype.kind != "c" else (
        lambda x, y, out: np.einsum("...,...->...", x, y, out=out))
    first, second, *tail = ops
    for target, factors in products:
        acc = result[target]
        for a, b, *more in factors:
            multiply(first[a], second[b], out=term)
            for op, idx in zip(tail, more):
                multiply(term, op[idx], out=term)
            acc += term
    return result


def partial(data, grid, axis, scheme=DEFAULT_SCHEME):
    """d(data)/d(coordinate of grid axis `axis`), componentwise.

    `data` has the grid axes last; leading axes are tensor components.
    """
    return _partials(data, grid, axis, scheme)


def partial_stack(data, grid, scheme=DEFAULT_SCHEME):
    """All coordinate derivatives, stacked along a new leading axis."""
    return _partials(data, grid, range(grid.ndim), scheme)


def full_grid(data, grid):
    """A read-only view of `data` spread over every node of `grid` (its last axes)."""
    return np.broadcast_to(data, np.shape(data)[:np.ndim(data) - grid.ndim] + grid.shape)


def updated(ufunc, target, value):
    """ufunc(target, value), in place when `target` spans value's shape; the same bits."""
    spans = np.broadcast_shapes(target.shape, np.shape(value)) == target.shape
    return ufunc(target, value, out=target if spans else None)


# --- fields --------------------------------------------------------------------

# kind -> (component rank, symmetric, antisymmetric)
FIELD_KINDS = {
    "scalar": (0, False, False),
    "vector": (1, False, False),
    "covector": (1, False, False),
    "sym2": (2, True, False),
    "gen2": (2, False, False),
    "form2": (2, False, True),
    "cov3": (3, False, False),
}


def fits(shape, full):
    """Whether `shape` has the axes of `full`, each of full's size or 1."""
    return len(shape) == len(full) and all(size in (1, count) for size, count in zip(shape, full))


def _ensure_finite(data, what):
    if not np.all(np.isfinite(data)):
        raise MeshError(f"{what} contains NaN or Inf")


@dataclass(frozen=True)
class Field:
    """Tensor component data over a grid; component axes first, grid axes last."""

    grid: Grid
    kind: str
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise MeshError(f"unknown field kind {self.kind!r}")
        rank, sym, asym = FIELD_KINDS[self.kind]
        n = self.grid.ndim
        want = (n,) * rank + self.grid.shape
        data = np.asarray(self.data, dtype=float)
        if not fits(data.shape, want):
            raise MeshError(f"{self.kind} field shape {data.shape}, expected {want}")
        _ensure_finite(data, f"{self.kind} field")
        if sym or asym:
            t = np.swapaxes(data, 0, 1)
            mirror = t if sym else -t
            scale = 1.0 + np.max(np.abs(data))
            if np.max(np.abs(data - mirror)) > 1e-12 * scale:
                word = "symmetric" if sym else "antisymmetric"
                raise MeshError(f"{self.kind} field is not {word}")
        object.__setattr__(self, "data", data)

    @property
    def rank(self):
        return FIELD_KINDS[self.kind][0]

    def max_norm(self):
        return float(np.max(np.abs(self.data)))

    def __add__(self, other):
        self._check_compat(other)
        return Field(self.grid, self.kind, self.data + other.data)

    def __sub__(self, other):
        self._check_compat(other)
        return Field(self.grid, self.kind, self.data - other.data)

    def __neg__(self):
        return Field(self.grid, self.kind, -self.data)

    def _check_compat(self, other):
        if self.grid != other.grid or self.kind != other.kind:
            raise MeshError("field mismatch in arithmetic")


def grid_values(grid, expr, env=None):
    """A fresh float array of an expression over `grid`, of length 1 along axes it does not read."""
    values = exprlang.evaluate(expr, grid.coord_env() if env is None else env)
    return np.array(values, dtype=float, ndmin=grid.ndim)


def components(values, shape):
    """A fresh float array [*shape, *grid] of `values` in C order, over their union grid shape."""
    values = np.broadcast_arrays(*(np.asarray(value, dtype=float) for value in values))
    return np.stack(values).reshape(tuple(shape) + values[0].shape)


def sample(grid, source, kind="scalar"):
    """Sample an expression (string, AST, or nested sequence of them).

    For tensor kinds, `source` is a nested sequence matching the component
    shape, e.g. [["phi^2", "0"], ["0", "1"]] for a sym2 field on a 2d grid.
    """
    shape = (grid.ndim,) * FIELD_KINDS[kind][0]
    env = grid.coord_env()

    def entry(idx):
        expr = source
        for i in idx:
            try:
                expr = expr[i]
            except (IndexError, KeyError, TypeError):
                raise MeshError(f"{kind} source needs a full {'x'.join(map(str, shape))} nest")
        return grid_values(grid, exprlang.parse(expr) if isinstance(expr, str) else expr, env)

    return Field(grid, kind, components([entry(idx) for idx in np.ndindex(*shape)], shape))


def leaf_index(grid, tau):
    """Nearest s-axis node index for leaf coordinate tau."""
    h = grid.spacing[0]
    idx = int(round(float(tau) / h))
    if not (0 <= idx < grid.counts[0]):
        raise MeshError(f"leaf coordinate {tau} outside [0, {grid.ell}]")
    return idx


def leaf_node(data, grid, tau_idx):
    """The s node leaf_values reads `data` at: `tau_idx`, or 0 if data has length 1 along s."""
    return tau_idx if np.shape(data)[np.ndim(data) - grid.ndim] > 1 else 0


def leaf_values(data, grid, tau_idx):
    """All components of product-grid data at s node `tau_idx`, fresh, of length 1 along
    each leaf axis the data does not vary on."""
    lead = np.ndim(data) - grid.ndim
    return np.array(data[(slice(None),) * lead + (leaf_node(data, grid, tau_idx),)])


def leaf_block(field, tau_idx):
    """Leaf-tangential component block at one s node, as a leaf-grid field of the slice's shape."""
    block = leaf_values(field.data[(slice(1, None),) * field.rank], field.grid, tau_idx)
    return Field(field.grid.leaf(), field.kind, block)


# --- CSV dump --------------------------------------------------------------------


def dump_csv(grid, columns, path):
    """Write labelled grid arrays as CSV: one row per node and column.

    `columns` is a list of (label, array that broadcasts to grid.shape).  Rows hold the grid
    coordinates, the label and the value with 17 significant digits; nodes
    run row-major and the columns cycle fastest.
    """
    axes = [grid.axis_coords(i) for i in range(grid.ndim)]
    columns = [(label, full_grid(values, grid)) for label, values in columns]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(grid.names) + ["comp", "value"])
        for node in np.ndindex(*grid.shape):
            coords = [format(axes[i][node[i]], ".17g") for i in range(grid.ndim)]
            for label, values in columns:
                writer.writerow(coords + [label, format(values[node], ".17g")])


def dump_field_csv(field, path):
    """Write a field with dump_csv, labelling components "comp" or "comp_<i>_<j>"."""
    if field.rank == 0:
        columns = [("comp", field.data)]
    else:
        columns = [("comp_" + "_".join(str(i) for i in cidx), field.data[cidx])
                   for cidx in np.ndindex(*(field.grid.ndim,) * field.rank)]
    dump_csv(field.grid, columns, path)


# --- convergence helper -----------------------------------------------------------


def fit_order(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0.0):
        raise MeshError("fit_order needs positive errors")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
