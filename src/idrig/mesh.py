"""Uniform grids on [0, l] x T^(n-1), fields, derivatives, quadrature.

The s axis carries both interval endpoints (N_s nodes, spacing l/(N_s - 1));
leaf axes are periodic with the right endpoint identified (N_i nodes, spacing
L_i/N_i).  Field data is stored with component axes first and grid axes last,
so contractions broadcast over the grid.  Christoffels, spectral partials and
partial stacks come out C-contiguous, and metric inverses are written block by
block into one fresh C-contiguous array: a contraction runs several times
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

Constant axes: every shipped scene is constant along some grid axis (the
recipe along s and x2, a vacuum development along both leaf axes), which
pointwise algebra keeps bit for bit.  On grids of at least _DISTINCT_MIN_NODES
nodes the kernel sees one slice along every grid axis but the derivative one
on which all live components are constant (_constant_axes, comparing through
.view(np.uint64), so -0.0 and +0.0 never match), and its result is broadcast
back.  Every kernel treats each line on its own (the stencils are elementwise
along the other axes, pocketfft transforms every line by itself), so that is
the derivative bit for bit.  On smaller grids the comparison costs more than
the kernel work it saves.

`_contract`, which every multi-operand pointwise contraction goes through,
multiplies only the products with no all-zero factor slice.  It sums each
output component over its summed labels in ascending order, outermost first,
factors left to right, into a fresh C-contiguous array.  With
component axes C-ordered and grid axes innermost, as every caller passes them,
that is np.einsum's order, so the result is einsum's bit for bit: a skipped
product is exactly zero and cannot change a float sum.  (Where another factor
is inf or NaN, einsum's product is NaN; the skipped one is not.)

Which slices are zero is found by a scan (`_live`), at most once for an
array nobody can write.  `_contract` results and metric inverses come back
read-only with a recorded mask: the output components that have a live
product, and one scan of the inverse.  So do the partial stacks that only
feed a kernel (the dg of geometry.christoffels, the dgamma of
geometry.curvature, killing_dev.dead_v_partials): their mask per axis and
component comes from one reduce over each distinct derivative, so it is
exact where a live component has a derivative that is 0 at every node.
`partial` and `partial_stack` stay writeable, because callers subtract into
their results.  The lowered Christoffels inside
geometry.christoffels_from record the exact mask as they are written, one
check per written component, so a component whose terms cancel to 0 stays
dead.  A read-only owner with no record (a value initial_data stores) is
read once, then recorded.  Read-only keeps a record true while its array
lives; the record goes with the array.  A view that is an integer index
owner[j] of a recorded read-only owner (such as the gamma[i + 1] that
killing_dev.spacetime_curvature differentiates) is served the slice of the
owner's record.  Writeable arrays and other views are read on every call.
A recorded mask may call an exactly-0 slice live; that only adds exact-0
products, which einsum multiplies too, so the bits stay einsum's.
"""

from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

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

    @staticmethod
    def torus(counts, lengths):
        """Periodic grid with axes x1, x2, ..."""
        counts = tuple(int(c) for c in counts)
        lengths = tuple(float(length) for length in lengths)
        names = tuple(f"x{i}" for i in range(1, len(counts) + 1))
        return Grid(names, counts, lengths, (True,) * len(counts))

    @property
    def ndim(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    @property
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


def _fd4_interval(data, axis, h):
    d = np.moveaxis(data, axis, 0)
    out = np.empty_like(d)
    out[2:-2] = (d[:-4] - 8.0 * d[1:-3] + 8.0 * d[3:-1] - d[4:]) / (12.0 * h)
    out[0] = (-25.0 * d[0] + 48.0 * d[1] - 36.0 * d[2] + 16.0 * d[3] - 3.0 * d[4]) / (12.0 * h)
    out[1] = (-3.0 * d[0] - 10.0 * d[1] + 18.0 * d[2] - 6.0 * d[3] + d[4]) / (12.0 * h)
    out[-2] = (3.0 * d[-1] + 10.0 * d[-2] - 18.0 * d[-3] + 6.0 * d[-4] - d[-5]) / (12.0 * h)
    out[-1] = (25.0 * d[-1] - 48.0 * d[-2] + 36.0 * d[-3] - 16.0 * d[-4] + 3.0 * d[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


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


_MASKS = {}  # id of a frozen array -> (weak reference to the array, its component mask)


def _known(arr, mask):
    """Freeze `arr`, which owns its data, and record `mask` of its leading axes for _live.

    `mask` may only err towards True.  Returns `arr`.
    """
    arr.flags.writeable = False
    key = id(arr)

    def forget(ref):  # a later array with the same id has a record of its own
        if _MASKS.get(key, (None,))[0] is ref:
            del _MASKS[key]

    _MASKS[key] = (weakref.ref(arr, forget), mask)
    return arr


def _recorded(data):
    """The recorded mask of read-only `data`, or mask[j] of its owner's if it is owner[j].

    A view qualifies only if it is exactly owner[j] for an integer j: the
    owner's dtype, shape and strides past the leading axis, and an offset of j
    leading strides.  None when there is no such record.
    """
    owner = data.base
    if owner is None:
        ref, mask = _MASKS.get(id(data), (None, None))
        return mask if ref is not None and ref() is data else None
    if (not isinstance(owner, np.ndarray) or owner.flags.writeable or data.dtype != owner.dtype
            or data.shape != owner.shape[1:] or data.strides != owner.strides[1:]):
        return None
    ref, mask = _MASKS.get(id(owner), (None, None))
    if ref is None or ref() is not owner or mask.ndim < 1:
        return None
    j, rest = divmod(data.ctypes.data - owner.ctypes.data, owner.strides[0] or 1)
    return mask[j] if rest == 0 and 0 <= j < owner.shape[0] else None


def _live(data, rank):
    """Mask over the `rank` leading axes: True where that component slice is nonzero somewhere.

    A read-only owner is read at most once; its recorded mask is served,
    reduced to `rank`.  An integer index owner[j] of a recorded read-only
    owner is served the slice mask[j] of its record.  Anything writeable, and
    any other view, is read in full.
    """
    frozen = isinstance(data, np.ndarray) and not data.flags.writeable
    if frozen:
        mask = _recorded(data)
        if mask is not None and mask.ndim >= rank:
            return mask if mask.ndim == rank else np.logical_or.reduce(
                mask, axis=tuple(range(rank, mask.ndim)))
    mask = np.logical_or.reduce(data, axis=tuple(range(rank, np.ndim(data))))
    if frozen and data.base is None:
        _known(data, mask)
    return mask


# Below this many grid nodes looking for a constant axis costs more than it
# saves: ungated, the comparison takes 2.2 ms of a 0.054 s small2d benchmark
# pass (105 comparisons on 16 x 32 nodes) and the pass runs 2.6-3.5% slower.
_DISTINCT_MIN_NODES = 4096


def _constant_axes(data, lead):
    """The axes past the `lead` leading ones along which `data` is constant bit for bit.

    Compared as uint64, so -0.0 and +0.0 differ.  Each axis found is cut to
    its first slice before the next one is tested.
    """
    bits = data.view(np.uint64)
    axes = []
    for axis in range(lead, bits.ndim):
        first = (slice(None),) * axis + (slice(0, 1),)
        if (bits == bits[first]).all():
            axes.append(axis)
            bits = bits[first]
    return axes


def _first_slices(data, axes):
    """The view of `data` that keeps only the first slice, of length 1, along each of `axes`."""
    return data[tuple(slice(0, 1) if axis in axes else slice(None) for axis in range(data.ndim))]


def _partials_into(out, data, grid, axes, scheme, mask=None):
    """Fill out[k] with the derivative along axes[k]; zero components skip the kernel.

    On grids of at least _DISTINCT_MIN_NODES nodes the kernel sees one slice along
    every other grid axis on which the live components are constant.  A given
    `mask` (out's leading axes) is filled with where out is nonzero somewhere.
    """
    live = _live(data, np.ndim(data) - grid.ndim).reshape(-1)
    flat = np.asarray(data, dtype=float).reshape((-1,) + grid.shape)
    nonzero = flat[live]
    constant = _constant_axes(nonzero, 1) if flat[0].size >= _DISTINCT_MIN_NODES else []
    stack = out.reshape((len(axes),) + flat.shape)
    written = None if mask is None else mask.reshape(stack.shape[:2])
    for k, (axis, axis_out) in enumerate(zip(axes, stack)):
        cut = _first_slices(nonzero, [c for c in constant if c != 1 + axis])
        derivative = _derivative(cut, grid, axis, scheme)  # the assignment broadcasts it
        axis_out[live] = derivative
        if written is not None:
            written[k, live] = np.logical_or.reduce(derivative, axis=tuple(range(1, flat.ndim)))
    return out


def _recorded_stack(data, grid, scheme, zero_axes=0):
    """partial_stack after `zero_axes` derivatives that are 0, read-only, with its exact
    (axis, component) mask recorded (see _known)."""
    out = np.zeros((zero_axes + grid.ndim,) + np.shape(data))
    mask = np.zeros(out.shape[:out.ndim - grid.ndim], dtype=bool)
    _partials_into(out[zero_axes:], data, grid, range(grid.ndim), scheme, mask[zero_axes:])
    return _known(out, mask)


@lru_cache(maxsize=None)
def _labels(subscripts):
    """Component labels of each operand, of the output, and the summed ones ascending."""
    ins, out = subscripts.replace("...", "").split("->")
    ins = tuple(ins.split(","))
    return ins, out, "".join(sorted(set("".join(ins)) - set(out)))


_PLANS = {}  # a run meets about a hundred subscripts and zero patterns


def _plan(subscripts, masks):
    """Output component shape, per output component its live products, and the output mask.

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
    shape = tuple(size[c] for c in out)
    live_out = np.zeros(shape, dtype=bool)  # the components with a live product
    for target in products:
        live_out[target] = True
    return shape, list(products.items()), live_out


def _contract(subscripts, *operands):
    """np.einsum(subscripts, *operands) over the products with no structural-zero factor.

    Subscripts give the component labels of each operand, then "..." for the
    grid axes.  A plan is built once per subscripts and operand zero masks, so
    it serves every grid, layout and dtype.  The result is einsum's bit for bit
    when each operand's component axes are C-ordered, its grid axes innermost,
    and each summed label sits in an operand that varies along the grid.  It is
    read-only and carries the plan's output mask (see _known).
    """
    ops = [np.asarray(op) for op in operands]
    ins = _labels(subscripts)[0]
    masks = [_live(op, len(labels)) for labels, op in zip(ins, ops)]
    key = (subscripts,) + tuple((mask.shape, mask.tobytes()) for mask in masks)
    if key not in _PLANS:
        _PLANS[key] = _plan(subscripts, masks)
    shape, products, live = _PLANS[key]
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
    return _known(result, live)


def partial(data, grid, axis, scheme=DEFAULT_SCHEME):
    """d(data)/d(coordinate of grid axis `axis`), componentwise.

    `data` has the grid axes last; leading axes are tensor components.
    """
    out = np.zeros(np.shape(data))
    _partials_into(out[None], data, grid, (axis,), scheme)
    return out


def partial_stack(data, grid, scheme=DEFAULT_SCHEME):
    """All coordinate derivatives, stacked along a new leading axis."""
    out = np.zeros((grid.ndim,) + np.shape(data))
    return _partials_into(out, data, grid, range(grid.ndim), scheme)


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
        if data.shape != want:
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


def sample(grid, source, kind="scalar"):
    """Sample an expression (string, AST, or nested sequence of them).

    For tensor kinds, `source` is a nested sequence matching the component
    shape, e.g. [["phi^2", "0"], ["0", "1"]] for a sym2 field on a 2d grid.
    """
    rank = FIELD_KINDS[kind][0]
    env = grid.coord_env()

    def one(expr_like):
        expr = exprlang.parse(expr_like) if isinstance(expr_like, str) else expr_like
        vals = exprlang.evaluate(expr, env)
        return np.broadcast_to(np.asarray(vals, dtype=float), grid.shape).copy()

    if rank == 0:
        return Field(grid, kind, one(source))
    n = grid.ndim
    comp = np.empty((n,) * rank + grid.shape)
    for idx in np.ndindex(*(n,) * rank):
        entry = source
        for i in idx:
            try:
                entry = entry[i]
            except (IndexError, KeyError, TypeError):
                raise MeshError(
                    f"{kind} source needs a full {'x'.join([str(n)] * rank)} nest")
        comp[idx] = one(entry)
    return Field(grid, kind, comp)


def leaf_index(grid, tau):
    """Nearest s-axis node index for leaf coordinate tau."""
    h = grid.spacing[0]
    idx = int(round(float(tau) / h))
    if not (0 <= idx < grid.counts[0]):
        raise MeshError(f"leaf coordinate {tau} outside [0, {grid.ell}]")
    return idx


def leaf_values(field, tau_idx):
    """Slice all components of a product-grid field at one s node."""
    return field.data[(slice(None),) * field.rank + (tau_idx,)]


def leaf_block(field, tau_idx):
    """Leaf-tangential component block at one s node, as a leaf-grid field."""
    block = leaf_values(field, tau_idx)[(slice(1, None),) * field.rank]
    return Field(field.grid.leaf(), field.kind, block)


# --- quadrature and inner products ----------------------------------------------


def integrate(values, grid):
    """Rectangle rule integral over a fully periodic grid (exact for trig polys)."""
    if not all(grid.periodic):
        raise MeshError("integrate expects a torus grid")
    cell = float(np.prod(grid.spacing))
    axes = tuple(range(-grid.ndim, 0))
    return np.sum(np.asarray(values, dtype=float), axis=axes) * cell


def integrate_leaf(values, leaf_grid, density=None):
    """Integral of scalar leaf values against an optional volume density."""
    vals = np.asarray(values, dtype=float)
    if density is not None:
        vals = vals * np.asarray(density, dtype=float)
    return float(integrate(vals, leaf_grid))


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


def l2_inner(a, b, ginv, density=None):
    """L2 inner product of two leaf fields; ginv constant matrix or field data."""
    grid = a.grid
    vals = pointwise_inner(a, b, ginv)
    if density is None:
        return float(integrate(vals, grid))
    return integrate_leaf(vals, grid, density)


def l2_norm(a, ginv, density=None):
    return float(np.sqrt(max(l2_inner(a, a, ginv, density), 0.0)))


# --- CSV dump --------------------------------------------------------------------


def dump_csv(grid, columns, path):
    """Write labelled grid arrays as CSV: one row per node and column.

    `columns` is a list of (label, array of grid.shape).  Rows hold the grid
    coordinates, the label and the value with 17 significant digits; nodes
    run row-major and the columns cycle fastest.
    """
    axes = [grid.axis_coords(i) for i in range(grid.ndim)]
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
