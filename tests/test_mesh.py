import csv
import importlib
import itertools
import math
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from idrig import exprlang, geometry, mesh
from idrig.killing_dev import (build_kd, dead_v_partials, kd_dec_check, kd_einstein,
                               kd_pattern_residuals, kd_roundtrip, ppwave, ppwave_einstein_check)
from idrig.mesh import (Grid, Scheme, Field, MeshError, partial, partial_stack,
                        sample, leaf_index, leaf_values, leaf_block,
                        dump_field_csv, fit_order, DEFAULT_SCHEME)
from idrig.initial_data import InitialDataSet, constraints, leaf_curvature, null_section
from idrig.rigidity import (rigid_recipe, rigid_report, two_for_three_residual,
                            variation_residual)
from idrig.scene import parse_scene, scene_initial_data
from helpers import (CORPUS, SCHEME, sample_expr, order_passes, measured_order, grid3, same_bits,
                     fd4_interval_reference, leaf_arrays, leaf_null_values)
from references import (field_difference, field_sum, hodge_decompose, hodge_laplacian,
                        integrate, l2_inner, l2_norm, lie_metric, tt_split)


# --- grid construction and validation ------------------------------------------


def test_product_grid_layout():
    g = Grid.product(2.0, 17, (8, 12), (1.0, 3.0))
    assert g.names == ("s", "x1", "x2")
    assert g.periodic == (False, True, True)
    assert g.spacing == (2.0 / 16, 1.0 / 8, 3.0 / 12)
    assert g.ell == 2.0
    assert g.axis_coords(0)[0] == 0.0 and g.axis_coords(0)[-1] == pytest.approx(2.0)
    # torus coordinates exclude the wrap-around node
    assert g.axis_coords(1)[-1] == pytest.approx(1.0 - 1.0 / 8)
    leaf = g.leaf()
    assert leaf.names == ("x1", "x2") and all(leaf.periodic)


def test_spacing_is_computed_once_and_leaves_equality_and_hashing_alone():
    g = Grid.product(2.0, 17, (8, 12), (1.0, 3.0))
    fresh = Grid.product(2.0, 17, (8, 12), (1.0, 3.0))
    assert g.spacing is g.spacing
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert {g: 1}[fresh] == 1
    assert g != Grid.product(2.0, 17, (8, 12), (1.0, 4.0))


def test_grid_validation():
    with pytest.raises(MeshError):
        Grid.product(1.0, 7, (8,), (1.0,))          # too few s nodes
    with pytest.raises(MeshError):
        Grid.product(1.0, 9, (9,), (1.0,))          # odd periodic count
    with pytest.raises(MeshError):
        Grid.product(1.0, 9, (8, 8, 8, 8), (1.0,) * 4)   # dimension > 4
    with pytest.raises(MeshError):
        Grid.product(1.0, 9, (8, 6), (1.0, 1.0))    # mixed: 6 < 8 nodes
    with pytest.raises(MeshError):
        Grid.product(1.0, 9, (8, 8), (1.0,))        # counts/lengths mismatch
    with pytest.raises(MeshError):
        Grid.product(-1.0, 9, (8,), (1.0,))


def test_scheme_validation():
    with pytest.raises(MeshError):
        Scheme("fd3", "spectral")
    with pytest.raises(MeshError):
        Scheme("fd4", "chebyshev")
    assert Scheme("fd2", "fd4").for_axis(Grid.product(1.0, 9, (8,), (1.0,)), 1) == "fd4"


# --- derivative operators ---------------------------------------------------------


@pytest.mark.parametrize("scheme,want", [("fd2", 1.9), ("fd4", 3.8)])
def test_interval_derivative_orders(scheme, want):
    for src in CORPUS:
        ast = exprlang.parse(src)
        d = exprlang.diff(ast, "s")
        errs = []
        for n_s in (17, 33, 65):
            g = Grid.product(1.0, n_s, (16,), (1.0,))
            f = sample_expr(g, ast)
            got = partial(f, g, 0, Scheme(scheme, "spectral"))
            errs.append(float(np.max(np.abs(got - sample_expr(g, d)))))
        assert order_passes([1 / 16, 1 / 32, 1 / 64], errs, want), (src, errs)


def test_fd4_interval_equals_the_written_out_formula_bit_for_bit():
    # random shapes, axes and memory layouts, with signed zeros among the values
    rng = np.random.default_rng(23)
    for _ in range(1000):
        shape = [int(size) for size in rng.integers(1, 6, rng.integers(1, 5))]
        axis = int(rng.integers(len(shape)))
        shape[axis] = int(rng.integers(8, 20))
        data = rng.standard_normal(shape) * 10.0 ** float(rng.integers(-6, 6))
        data[rng.random(shape) < 0.1] = 0.0
        data[rng.random(shape) < 0.1] = -0.0
        if rng.random() < 0.5:
            data = np.asfortranarray(data)
        h = float(rng.uniform(0.01, 1.0))
        got = mesh._fd4_interval(data, axis, h)
        want = fd4_interval_reference(data, axis, h)
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_spectral_derivative_is_exact_on_band_limited():
    for src in CORPUS:
        ast = exprlang.parse(src)
        d = exprlang.diff(ast, "x1")
        g = Grid.product(1.0, 9, (32,), (1.0,))
        got = partial(sample_expr(g, ast), g, 1, SCHEME)
        assert np.max(np.abs(got - sample_expr(g, d))) < 1e-11, src


def test_periodic_fd_orders():
    ast = exprlang.parse("sin(2*pi*x1) + 0.3*cos(4*pi*x1)")
    d = exprlang.diff(ast, "x1")
    for scheme, want in (("fd2", 1.9), ("fd4", 3.8)):
        errs = []
        for n in (16, 32, 64):
            g = Grid.product(1.0, 9, (n,), (1.0,))
            got = partial(sample_expr(g, ast), g, 1, Scheme("fd4", scheme))
            errs.append(float(np.max(np.abs(got - sample_expr(g, d)))))
        assert order_passes([1 / 16, 1 / 32, 1 / 64], errs, want)


def test_nyquist_mode_derivative_is_zeroed():
    g = Grid.product(1.0, 9, (16,), (1.0,))
    x = g.axis_coords(1)
    nyquist = np.cos(2 * np.pi * 8 * x)     # alternating +-1 on 16 nodes
    f = np.broadcast_to(nyquist, g.shape).copy()
    got = partial(f, g, 1, SCHEME)
    assert np.max(np.abs(got)) == 0.0


def test_partial_stack_shape_and_content():
    g = grid3(9, 16)
    f = sample_expr(g, "s^2 + sin(2*pi*x1)*cos(2*pi*x2)")
    st = partial_stack(f, g, SCHEME)
    assert st.shape == (3,) + g.shape
    for ax in range(3):
        assert np.allclose(st[ax], partial(f, g, ax, SCHEME))


def _component_cases(grid, rng):
    """Random tensors with zero components, an all-zero tensor, a scalar, a strided slice,
    then tensors with bitwise-equal components and pairs that are almost equal."""
    sparse = rng.standard_normal((3, 3) + grid.shape)
    sparse[0, 1] = sparse[1, 0] = sparse[2, 2] = 0.0
    sym2 = rng.standard_normal((3, 3) + grid.shape)
    sym2 = sym2 + np.swapaxes(sym2, 0, 1)
    gamma = rng.standard_normal((3, 3, 3) + grid.shape)
    gamma = gamma + np.swapaxes(gamma, 1, 2)
    gamma[0, 1, 2] = gamma[0, 2, 1] = 0.0
    diagonal = np.zeros((3, 3) + grid.shape)
    diagonal[0, 0] = diagonal[1, 1] = diagonal[2, 2] = rng.standard_normal(grid.shape)
    signed = rng.standard_normal((2,) + grid.shape)
    signed[0, 3, 5] = 0.0  # a run of zeros, where fd2 passes the sign of a zero on
    signed[1] = signed[0]
    signed[1, 3, 5, 7] = -0.0  # equal in value, not in bits
    one_node = np.stack([signed[0], signed[0]])
    one_node[1][2, 7, 11] += 1.0
    return {"sparse": sparse, "all zero": np.zeros((2, 2) + grid.shape),
            "scalar": rng.standard_normal(grid.shape), "strided": sparse[1:, ::2],
            "symmetric": sym2, "symmetric in the last two": gamma,
            "equal diagonal": diagonal, "signed zero": signed, "one node apart": one_node}


@pytest.mark.parametrize("s_scheme", ["fd2", "fd4"])
@pytest.mark.parametrize("leaf_scheme", ["fd2", "fd4", "spectral"])
def test_partials_equal_each_component_differentiated_alone(s_scheme, leaf_scheme):
    # skipping zero components must not move a single bit: the kernel gives exactly 0 on them
    g, scheme = grid3(), Scheme(s_scheme, leaf_scheme)
    for name, data in _component_cases(g, np.random.default_rng(5)).items():
        stack = partial_stack(data, g, scheme)
        assert stack.shape == (3,) + data.shape, name
        for axis in range(3):
            got = partial(data, g, axis, scheme)
            for idx in np.ndindex(data.shape[:-3]):
                alone = mesh._derivative(data[idx], g, axis, scheme)
                assert got[idx].tobytes() == alone.tobytes(), (name, axis, idx)
                assert stack[(axis,) + idx].tobytes() == alone.tobytes(), (name, axis, idx)


def test_derivative_kernels_never_see_a_zero_component(monkeypatch):
    seen = []

    def recording(kernel):
        def record(data, *args):
            seen.append(data.copy())
            return kernel(data, *args)
        return record

    for name in ("_spectral_axis", "_fd4_interval"):
        monkeypatch.setattr(mesh, name, recording(getattr(mesh, name)))
    g = grid3()
    for data in _component_cases(g, np.random.default_rng(6)).values():
        partial_stack(data, g, SCHEME)
        partial(data, g, 0, SCHEME)
    rigid_report(rigid_recipe(g, "1 + 0.1*sin(2*pi*x1)*cos(2*pi*x2)", scheme=SCHEME))
    assert len(seen) > 20
    for batch in seen:  # one line per component handed to a kernel, and at least one
        assert len(batch) and np.any(batch, axis=tuple(range(1, batch.ndim))).all()


# a small and a larger grid per dimension: one derivative path serves every size
SHAPE_GRIDS = {2: (Grid.product(1.0, 16, (32,), (1.0,)), Grid.product(1.0, 64, (64,), (1.0,))),
               3: (grid3(9, 8), Grid.product(1.0, 16, (16, 16), (1.0, 1.0))),
               4: (Grid.product(1.0, 8, (8, 8, 8), (1.0, 1.0, 1.0)),)}


def _length_one_along(rng, grid, axes):
    """Three components of length 1 along the grid axes `axes`; unless that is every axis,
    the third one holds a line of zeros."""
    small = tuple(1 if axis in axes else count for axis, count in enumerate(grid.shape))
    values = rng.standard_normal((3,) + small)
    values[(2,) + (0,) * grid.ndim] = 0.0 if len(axes) < grid.ndim else 1.0
    return values


def _roundoff_bound(data, grid, axis):
    """The recorded bound on a dense kernel's value along an axis `data` is constant on:
    4 eps max|data| / h.  On the SHAPE_GRIDS cases the value reached 1.9 eps max|data| / h
    under fd4, 1.5 under fd2, and 0 spectrally (every count there is 2^a 3^b)."""
    return 4 * np.finfo(float).eps * np.abs(data).max() / grid.spacing[axis]


def _exact_zero(derivative, data):
    """+0.0 at every node, no sign bit, at the data's own shape."""
    return (derivative.shape == data.shape and not derivative.any()
            and not np.signbit(derivative).any())


@pytest.mark.parametrize("ndim", sorted(SHAPE_GRIDS))
@pytest.mark.parametrize("s_scheme", ["fd2", "fd4"])
@pytest.mark.parametrize("leaf_scheme", ["fd2", "fd4", "spectral"])
def test_partials_of_data_constant_along_axes_equal_the_full_grid_kernel(ndim, s_scheme,
                                                                         leaf_scheme):
    # data of length 1 along some axes has the derivatives of its dense copy: along an
    # axis it varies on, the kernel's bit for bit spread over the grid; along a length-1
    # axis, +0.0 at the data's shape, where the dense kernel leaves only round-off
    scheme = Scheme(s_scheme, leaf_scheme)
    rng = np.random.default_rng(ndim)
    for g in SHAPE_GRIDS[ndim]:
        for count in range(ndim + 1):
            for axes in itertools.combinations(range(ndim), count):
                data = _length_one_along(rng, g, axes)
                dense = np.array(mesh.full_grid(data, g))
                stack = partial_stack(data, g, scheme)
                for axis in range(ndim):  # the derivative axis of length 1 included
                    full = mesh._derivative(dense, g, axis, scheme)
                    got = partial(data, g, axis, scheme)
                    for one in (got, stack[axis]):
                        if axis in axes:
                            assert _exact_zero(one, data), (axes, axis)
                        else:
                            spread = np.broadcast_to(one, full.shape)
                            assert spread.tobytes() == full.tobytes(), (axes, axis)
                    if axis in axes:
                        assert np.abs(full).max() <= _roundoff_bound(data, g, axis), (axes, axis)


def _recording_kernel(monkeypatch):
    """Replace the derivative kernel by one that records (axis, data shape) of each call."""
    calls = []
    kernel = mesh._derivative

    def recording(data, grid, axis, scheme):
        calls.append((axis, data.shape))
        return kernel(data, grid, axis, scheme)

    monkeypatch.setattr(mesh, "_derivative", recording)
    return calls


def test_the_kernel_sees_the_data_at_its_own_shape_and_no_length_one_axis(monkeypatch):
    # one path on every grid and scheme: the kernel is never called along an axis the
    # data has length 1 on, and otherwise gets the data's own shape, spread nowhere
    calls = _recording_kernel(monkeypatch)
    rng = np.random.default_rng(7)
    for ndim, grids in SHAPE_GRIDS.items():
        schemes = (DEFAULT_SCHEME, Scheme(leaf="fd4"), Scheme("fd2", "fd2"))
        for g, scheme in itertools.product(grids, schemes):
            for count in range(ndim + 1):
                for axes in itertools.combinations(range(ndim), count):
                    data = rng.standard_normal((2,) + tuple(
                        1 if axis in axes else size for axis, size in enumerate(g.shape)))
                    calls.clear()
                    partial_stack(data, g, scheme)
                    want = [(axis, data.shape) for axis in range(ndim) if axis not in axes]
                    assert calls == want, (g.shape, scheme, axes)


@pytest.mark.parametrize("count", [10, 14, 20])
def test_a_spectral_derivative_along_a_length_one_axis_is_exact_zero(count, monkeypatch):
    # on counts with a prime factor of 5 or more the spectral kernel leaves round-off
    # on a constant line, and fd2 or fd4 leave round-off on any count; under every
    # scheme, data of length 1 along s or a leaf axis gets +0.0 and never reaches the
    # kernel, and the dense kernel stays within its recorded round-off bound
    eps = np.finfo(float).eps
    g = Grid.product(1.0, 9, (count, 8), (1.0, 1.0))
    rng = np.random.default_rng(count)
    schemes = (DEFAULT_SCHEME, Scheme("fd2", "fd2"), Scheme("fd4", "fd4"))
    calls = _recording_kernel(monkeypatch)
    for scheme, axis in itertools.product(schemes, range(g.ndim)):
        data = rng.standard_normal((3,) + tuple(
            1 if a == axis else size for a, size in enumerate(g.shape)))
        calls.clear()
        stack = partial_stack(data, g, scheme)
        assert _exact_zero(stack[axis], data) and _exact_zero(partial(data, g, axis, scheme), data)
        assert axis not in [a for a, _ in calls], (scheme, axis)
    monkeypatch.undo()
    leaf_axes = [(grid, axis) for grids in SHAPE_GRIDS.values() for grid in grids
                 for axis in range(grid.ndim)]
    for (grid, axis), scheme in itertools.product([(g, 0), (g, 1)] + leaf_axes, schemes):
        small = tuple(1 if a == axis else size for a, size in enumerate(grid.shape))
        for scale in (1e-8, 1.0, 1e8):
            line = rng.standard_normal((2,) + small) * scale
            dense = np.array(mesh.full_grid(line, grid))
            roundoff = np.abs(mesh._derivative(dense, grid, axis, scheme)).max()
            if scheme.for_axis(grid, axis) != "spectral":
                assert roundoff <= _roundoff_bound(line, grid, axis), (grid.shape, axis, scale)
            elif grid is g:  # the dense spectral kernel's round-off, recorded
                k_max = np.abs(mesh._wavenumbers(count, g.spacing[axis])).max()
                assert roundoff <= 64 * eps * np.abs(line).max() * k_max, scale
            else:  # every leaf count in SHAPE_GRIDS is 2^a 3^b: exactly 0
                assert roundoff == 0.0, (grid.shape, axis, scale)


# --- pointwise contractions -------------------------------------------------------

# every subscripts string and module that calls the contraction kernel, in src/ and in the
# test-side references, so that a new call site is covered without editing these tests
SOURCES = {f"idrig.{path.stem}": path.read_text()
           for path in Path(mesh.__file__).parent.glob("*.py")}
SOURCES["references"] = (Path(__file__).parent / "references.py").read_text()
CONTRACTED = sorted({subscripts for text in SOURCES.values()
                     for subscripts in re.findall(r'_contract\(\s*"([^"]+)"', text)})
KERNEL_USERS = [importlib.import_module(name) for name, text in SOURCES.items()
                if "_contract(" in text]


def test_contraction_call_sites_are_found():
    calls = sum(len(re.findall(r"(?<!def )_contract\(", text)) for text in SOURCES.values())
    literal = sum(len(re.findall(r'_contract\(\s*"([^"]+)"', text)) for text in SOURCES.values())
    assert calls >= 53 and literal == calls  # every call passes a subscripts string found here
    assert mesh in KERNEL_USERS and len(KERNEL_USERS) >= 5
    assert {"ad...,dbc...->abc...", "a...,a...->...", "ab...,ab...->..."} <= set(CONTRACTED)


@pytest.mark.parametrize("subscripts", CONTRACTED)
def test_contract_equals_einsum_bit_for_bit(subscripts):
    rng = np.random.default_rng(zlib.crc32(subscripts.encode()))
    ranks = [len(labels) for labels in subscripts.split("->")[0].replace("...", "").split(",")]
    for n, grid in ((3, (4, 5, 6)), (4, (3, 8))):
        dense = [rng.standard_normal((n,) * rank + grid) for rank in ranks]
        sparse = [op.copy() for op in dense]
        for op, rank in zip(sparse, ranks):
            op[rng.random((n,) * rank) < 0.7] = 0.0   # about 70% of the component slices
        cases = {
            "dense": dense,
            "sparse": sparse,
            "all-zero operand": [np.zeros_like(dense[0])] + sparse[1:],
            "zero-stride operand": sparse[:-1] + [np.broadcast_to(
                dense[-1][(Ellipsis,) + (slice(0, 1),) * len(grid)], dense[-1].shape)],
            # where two operands have one rank, both are the same writeable array
            "same writeable operand passed twice": [sparse[ranks.index(r)] for r in ranks],
        }
        for name, ops in cases.items():
            want = np.einsum(subscripts, *ops)
            got = mesh._contract(subscripts, *ops)
            assert got.dtype == want.dtype and got.flags.c_contiguous, (name, n)
            # equal bit for bit, up to the sign of zero
            assert np.array_equal(got + 0.0, want + 0.0), (name, n)


@pytest.mark.parametrize("subscripts", CONTRACTED)
def test_contract_on_length_one_grid_axes_equals_einsum_on_dense_copies(subscripts):
    # operands of length 1 along random grid axes give a result over the union of
    # their grid shapes that, spread over the grid, is einsum's on dense contiguous
    # copies bit for bit (einsum itself sums in another order on stride-0 operands)
    rng = np.random.default_rng(zlib.crc32(subscripts.encode()) + 1)
    ranks = [len(labels) for labels in subscripts.split("->")[0].replace("...", "").split(",")]
    for n, grid in ((3, (4, 5, 6)), (4, (3, 8))):
        for trial in range(6):
            ops = []
            for rank in ranks:  # the first trial has every grid axis of length 1
                shape = tuple(count if trial and rng.random() < 0.5 else 1 for count in grid)
                op = rng.standard_normal((n,) * rank + shape)
                op[rng.random((n,) * rank) < 0.5] = 0.0
                ops.append(op)
            dense = [np.ascontiguousarray(np.broadcast_to(op, op.shape[:rank] + grid))
                     for op, rank in zip(ops, ranks)]
            want = np.einsum(subscripts, *dense)
            got = mesh._contract(subscripts, *ops)
            union = np.broadcast_shapes(*(op.shape[rank:] for op, rank in zip(ops, ranks)))
            assert got.shape == want.shape[:want.ndim - len(grid)] + union, trial
            assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes(), (n, trial)


def recorded_builds(monkeypatch):
    """Record the subscripts of every contraction plan built; returns the list."""
    builds, build = [], mesh._plan

    def recording_build(subscripts, masks):
        builds.append(subscripts)
        return build(subscripts, masks)

    monkeypatch.setattr(mesh, "_plan", recording_build)
    return builds


def test_one_plan_serves_every_grid(monkeypatch):
    monkeypatch.setattr(mesh, "_PLANS", {})
    builds = recorded_builds(monkeypatch)
    rng = np.random.default_rng(3)
    ginv = rng.standard_normal((3, 3, 1, 1))
    ginv[0, 1] = ginv[1, 0] = ginv[1, 2] = ginv[2, 1] = 0.0  # a block pattern
    for grid in ((6, 8), (10, 4)):
        vec = rng.standard_normal((3,) + grid)
        vec[1] = 0.0
        # the same zero masks on a stored and on a zero-stride grid operand
        for metric in (ginv * np.ones(grid), np.broadcast_to(ginv, (3, 3) + grid)):
            got = mesh._contract("ab...,b...->a...", metric, vec)
            assert np.array_equal(got, np.einsum("ab...,b...->a...", metric, vec)), grid
    assert builds == ["ab...,b...->a..."]


# on 9 x 8 nodes the developments carry finite-difference residue that build_kd warns about
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_contractions_never_read_an_all_zero_slice(monkeypatch):
    calls, served = [], []
    contract = mesh._contract

    class ServedPlans(dict):  # records the plan each call multiplies by
        def __getitem__(self, key):
            served.append(super().__getitem__(key))
            return served[-1]

    def checked(subscripts, *ops):
        calls.append(subscripts)
        got = contract(subscripts, *ops)
        for _, products in served.pop()[1]:
            for factors in products:
                for op, idx in zip(ops, factors):
                    assert np.any(np.asarray(op)[idx]), (subscripts, idx)
        assert np.array_equal(got, np.einsum(subscripts, *ops)), subscripts
        return got

    monkeypatch.setattr(mesh, "_PLANS", ServedPlans())
    builds = recorded_builds(monkeypatch)
    for module in KERNEL_USERS:
        monkeypatch.setattr(module, "_contract", checked)

    def one_pass():  # fresh data sets each time, so nothing comes from a derived store
        g = grid3(9, 8)
        leaf = g.leaf()
        ppwave_einstein_check(ppwave(g, "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)", SCHEME))
        kd_roundtrip(ppwave(g, "2 + 0.2*sin(2*pi*x1) + 0.3*s", SCHEME), "0.05*s^2")
        recipe = rigid_recipe(g, "1 + 0.1*sin(2*pi*x1)*cos(2*pi*x2)", scheme=SCHEME)
        rigid_report(recipe)
        kd_dec_check(build_kd(recipe, null_section(recipe, 1)))
        metric = geometry.MetricField(sample(leaf, [["1 + 0.1*sin(2*pi*x1)", "0"],
                                                    ["0", "1"]], kind="sym2"))
        gamma = geometry.christoffels(metric, SCHEME)
        one_form = sample(leaf, ["sin(2*pi*x2)", "cos(2*pi*x1)"], kind="covector")
        hodge_laplacian(one_form, metric, gamma, SCHEME)
        hodge_laplacian(geometry.exterior_d(one_form, SCHEME), metric, gamma, SCHEME)
        hodge_decompose(one_form, np.eye(2))
        flat = geometry.MetricField(Field(leaf, "sym2", np.eye(2)[..., None, None]
                                          * np.ones(leaf.shape)))
        lie = lie_metric(flat.sharp(one_form.data), flat,
                                  geometry.christoffels(flat, SCHEME), SCHEME)
        tt_split(Field(leaf, "sym2", geometry.symmetrize(lie)), np.eye(2), SCHEME)

    one_pass()
    assert len(builds) > 20 and len(calls) > len(builds)
    assert sorted(set(calls)) == CONTRACTED  # every call site is reached
    builds.clear()
    calls.clear()
    one_pass()  # the same zero masks again: every plan is reused
    assert len(calls) > 20 and builds == []


# --- structural zeros found by a scan ------------------------------------------------


def test_the_inverse_is_read_only():
    rng = np.random.default_rng(5)
    metric = np.eye(3)[..., None, None] + 0.1 * rng.random((3, 3, 4, 5))
    metric = metric + np.swapaxes(metric, 0, 1)
    diagonal = np.eye(3)[..., None, None] * (1.0 + rng.random((4, 5)))
    for out in (geometry.inverse(metric), geometry.inverse(diagonal)):
        assert not out.flags.writeable and out.base is None
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 0.0


def test_a_writeable_operand_is_scanned_on_every_call():
    rng = np.random.default_rng(8)
    subscripts = "ab...,b...->a..."
    metric = rng.standard_normal((3, 3, 4, 5))
    vec = rng.standard_normal((3, 4, 5))
    vec[1] = 0.0
    assert np.array_equal(mesh._contract(subscripts, metric, vec),
                          np.einsum(subscripts, metric, vec))
    vec[1] = rng.standard_normal((4, 5))  # a dead component comes alive in place
    vec[2] = 0.0
    assert np.array_equal(mesh._contract(subscripts, metric, vec),
                          np.einsum(subscripts, metric, vec))


def test_the_lowered_christoffels_carry_their_exact_mask(monkeypatch):
    rng = np.random.default_rng(12)
    n, shape = 3, (5, 4)
    ginv = np.eye(n)[..., None, None] + 0.1 * rng.standard_normal((n, n) + shape)
    dg = rng.standard_normal((n, n, n) + shape)
    dg[rng.random((n, n, n)) < 0.5] = 0.0
    dg[1, 0, 1] = rng.standard_normal(shape)
    dg[0, 1, 1] = 2.0 * dg[1, 0, 1]  # Gamma_011 = 0.5*((x + x) - 2x) cancels to exactly 0
    lowered = []

    def capture(subscripts, ginv, low):
        lowered.append(low)
        return mesh._contract(subscripts, ginv, low)

    monkeypatch.setattr(geometry, "_contract", capture)
    geometry.christoffels_from(ginv, dg)
    (low,) = lowered
    assert not np.any(low[0, 1, 1])
    assert not mesh._live(low, 3)[0, 1, 1]  # a live triple that cancels is dead to the scan


def test_kernel_only_partial_stacks_leave_dead_derivatives_exactly_zero():
    g = grid3()
    # g_11 depends on x1 alone, so its x2 derivative is exactly 0 though g_11 is live
    metric = geometry.MetricField(sample(g, [
        ["1 + 0.1*s^2", "0", "0"], ["0", "1 + 0.1*sin(2*pi*x1)", "0"],
        ["0", "0", "1 + 0.2*cos(2*pi*x2)*(1 + 0.1*s)"]], kind="sym2"))
    dg = dead_v_partials(metric.data, g, SCHEME)
    assert dg.base is None and dg.flags.c_contiguous
    live = mesh._live(dg, 3)
    assert not np.any(dg[0]) and not live[0].any()  # nothing depends on v
    assert live[2, 1, 1] and not np.any(dg[3, 1, 1])  # d_x1 g_11 is live, d_x2 g_11 is 0
    assert np.array_equal(dg[1:], partial_stack(metric.data, g, SCHEME))
    # the public derivatives stay writeable, for callers that subtract into them
    for out in (partial(metric.data, g, 1, SCHEME), partial_stack(metric.data, g, SCHEME)):
        assert out.flags.writeable


# --- fields --------------------------------------------------------------------


def test_field_validation():
    g = Grid.product(1.0, 9, (8,), (1.0,))
    with pytest.raises(MeshError):
        Field(g, "spinor", np.zeros(g.shape))
    with pytest.raises(MeshError):
        Field(g, "covector", np.zeros(g.shape))     # missing component axis
    bad = np.zeros((2, 2) + g.shape)
    bad[0, 1] = 1.0
    with pytest.raises(MeshError):
        Field(g, "sym2", bad)
    with pytest.raises(MeshError):
        Field(g, "form2", np.ones((2, 2) + g.shape))
    nan = np.zeros(g.shape)
    nan[0, 0] = np.nan
    with pytest.raises(MeshError):
        Field(g, "scalar", nan)


def test_a_field_holds_any_shape_that_broadcasts_to_its_grid():
    g = Grid.product(1.0, 9, (8,), (1.0,))
    for kind, shape in (("scalar", (1, 1)), ("scalar", (9, 1)), ("scalar", (1, 8)),
                        ("gen2", (2, 2, 1, 8))):
        assert Field(g, kind, np.ones(shape)).data.shape == shape
    for kind, shape in (("scalar", (8,)), ("scalar", (3, 8)), ("scalar", (9, 8, 1)),
                        ("gen2", (2, 2, 9, 2)), ("gen2", (2, 9, 8))):
        with pytest.raises(MeshError, match="field shape"):
            Field(g, kind, np.ones(shape))


def test_sample_keeps_the_length_one_axes_of_an_expression_in_a_fresh_array():
    g = grid3(9, 8)
    env = g.coord_env()
    x1 = mesh.grid_values(g, exprlang.parse("x1"), env)
    assert x1.shape == (1, 8, 1) and not np.shares_memory(x1, env["x1"])
    assert x1.flags.writeable and np.array_equal(x1, env["x1"])
    # the coordinates are built once per grid and read-only; each call gets its own dict
    env.clear()
    again = g.coord_env()
    assert all(again[name] is g.coord_env()[name] for name in g.names)
    assert not any(coords.flags.writeable for coords in again.values())
    env = again
    assert sample(g, "2").data.shape == (1, 1, 1)
    assert sample(g, "s*x1").data.shape == (9, 8, 1)
    f = sample(g, [["s", "0", "0"], ["0", "1", "0"], ["0", "0", "x2"]], kind="sym2")
    assert f.data.shape == (3, 3, 9, 1, 8)  # the union of the entries' shapes
    assert np.array_equal(f.data[2, 2], np.broadcast_to(env["x2"], (9, 1, 8)))


def test_field_arithmetic():
    g = Grid.product(1.0, 9, (8,), (1.0,))
    a = Field(g, "scalar", np.ones(g.shape))
    b = Field(g, "scalar", 2 * np.ones(g.shape))
    assert field_sum(a, b).max_norm() == 3.0
    assert field_sum(a, b, b).data.min() == 5.0
    assert field_difference(a, b).data.min() == -1.0
    for other in (Field(g, "covector", np.ones((2,) + g.shape)),
                  Field(Grid.product(1.0, 9, (10,), (1.0,)), "scalar", np.ones((9, 10)))):
        with pytest.raises(MeshError):
            field_sum(a, other)
        with pytest.raises(MeshError):
            field_difference(a, other)


def test_sample_nested_tensor():
    g = grid3(9, 8)
    f = sample(g, [["s", "0", "0"], ["0", "1", "0"], ["0", "0", "x1*0+2"]], kind="sym2")
    assert f.kind == "sym2"
    assert np.allclose(f.data[0, 0], np.broadcast_to(g.coord_env()["s"], g.shape))
    assert np.all(f.data[2, 2] == 2.0)
    with pytest.raises(MeshError):
        sample(g, [["s"]], kind="sym2")


def test_leaf_slicing():
    g = grid3(9, 8)
    assert leaf_index(g, 0.0) == 0
    assert leaf_index(g, 1.0) == 8
    assert leaf_index(g, 0.5) == 4
    with pytest.raises(MeshError):
        leaf_index(g, 2.0)
    f = sample(g, "s + x1", kind="scalar")
    vals = leaf_values(f.data, g, 4)
    assert vals.shape == (8, 1)  # the slice keeps its length-1 axis x2
    dense = np.array(mesh.full_grid(f.data, g))[4]
    assert np.array(mesh.full_grid(vals, g.leaf())).tobytes() == dense.tobytes()
    assert not np.shares_memory(vals, f.data)
    t = sample(g, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]], kind="sym2")
    blk = leaf_block(t, 4)
    assert blk.grid.ndim == 2 and blk.data.shape == (2, 2, 1, 1)
    assert blk.data[0, 0].max() == 2.0 and blk.data[1, 1].max() == 3.0


def _dense_copy(ids):
    """The initial data set of `ids` with every array spread over the grid, contiguous."""
    dense = lambda field: Field(field.grid, field.kind, np.ascontiguousarray(
        mesh.full_grid(field.data, field.grid)))
    return InitialDataSet(ids.grid, dense(ids.phi), geometry.MetricField(dense(ids.metric.field)),
                          dense(ids.k), ids.scheme)


@pytest.mark.parametrize("grid", [Grid.product(1.0, 16, (32,), (1.0,)), grid3(9, 8),
                                  Grid.product(1.0, 8, (8, 8, 8), (1.0, 1.0, 1.0))],
                         ids=lambda grid: f"{grid.ndim}d")
def test_per_leaf_results_on_reduced_data_equal_those_on_dense_copies(grid):
    # the recipes vary along x1, and the second along s too; their leaf slices keep
    # length 1 along the other axes.  Where the lapse varies along s, each leaf result
    # spread over the leaf has the dense copy's bits.  Where it does not, a derivative
    # along s is exactly 0 on the reduced data and the dense kernel's round-off on the
    # dense copy, and the results differ by no more than that round-off
    leaf = grid.leaf()
    for phi in ("1 + 0.1*sin(2*pi*x1)", "(1 + 0.1*s^2)*(1 + 0.1*sin(2*pi*x1))"):
        ids = rigid_recipe(grid, phi, scheme=SCHEME)
        dense = _dense_copy(ids)
        constant = [field.data for field in (ids.phi, ids.metric.field, ids.k)
                    if field.data.shape[-grid.ndim] == 1]  # inputs that are constant along s
        roundoff = max((np.abs(partial(mesh.full_grid(data, grid), grid, 0, SCHEME)).max()
                        for data in constant), default=0.0)
        assert (roundoff > 0) == (ids.phi.data.shape[0] == 1), phi
        for tau in (0.0, 0.5):
            for check in (leaf_null_values, two_for_three_residual, variation_residual):
                got, want = leaf_arrays(check(ids, tau)), leaf_arrays(check(dense, tau))
                assert sorted(got) == sorted(want) and len(got) >= 3, check.__name__
                for path, array in want.items():
                    spread = np.broadcast_to(got[path], array.shape)
                    assert (same_bits(spread, array) if roundoff == 0
                            else np.abs(spread - array).max() <= roundoff), (phi, tau, path)
        # the leaf metric slice keeps length 1 along every leaf axis but x1 (none in 2D)
        assert leaf_curvature(ids, 0)[0].field.data.shape[2:] == (
            (leaf.shape[0],) + (1,) * (leaf.ndim - 1))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_data_constant_along_s_keeps_length_one_along_s_through_every_stage(monkeypatch):
    # the shipped recipe does not vary along s: the stored Christoffels and Ricci, rho
    # and j, and the development's Einstein table keep length 1 along s, and no
    # derivative kernel runs along s in its rigidity and development reports
    names = []  # the coordinate name of each kernel call's axis, on the grid or a leaf
    kernel = mesh._derivative

    def recording(data, grid, axis, scheme):
        names.append(grid.names[axis])
        return kernel(data, grid, axis, scheme)

    monkeypatch.setattr(mesh, "_derivative", recording)
    ids = scene_initial_data(parse_scene(Path(__file__).resolve().parent.parent
                                         / "scenes" / "recipe.scene"))
    rigid_report(ids)
    curv = ids.curvature()
    rho, j = constraints(ids)
    kd = build_kd(ids, null_section(ids, 1))
    kd_pattern_residuals(kd)
    kd_dec_check(kd)
    stored = {"christoffels": (curv.christoffels, 3), "ricci": (curv.ricci, 2),
              "rho": (rho.data, 0), "j": (j.data, 1), "einstein table": (kd_einstein(kd).ein, 2)}
    for name, (array, rank) in stored.items():
        assert array.shape[rank] == 1, name
    assert "x1" in names and "s" not in names


# --- quadrature ------------------------------------------------------------------


def test_integrate_exact_on_trig_polynomials():
    leaf = grid3(9, 16).leaf()
    env = leaf.coord_env()
    vals = np.broadcast_to(1.0 + np.sin(2 * np.pi * env["x1"]) * np.cos(4 * np.pi * env["x2"]),
                           leaf.shape)
    assert integrate(vals, leaf) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(MeshError):
        integrate(np.ones(grid3(9, 8).shape), grid3(9, 8))


def test_l2_inner_fourier_orthogonality():
    leaf = grid3(9, 16).leaf()
    env = leaf.coord_env()
    ginv = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape)
    f1 = Field(leaf, "scalar", np.broadcast_to(np.sin(2 * np.pi * env["x1"]), leaf.shape).copy())
    f2 = Field(leaf, "scalar", np.broadcast_to(np.cos(2 * np.pi * env["x1"]), leaf.shape).copy())
    assert l2_inner(f1, f2, ginv) == pytest.approx(0.0, abs=1e-15)
    assert l2_inner(f1, f1, ginv) == pytest.approx(0.5, abs=1e-14)
    assert l2_norm(f1, ginv) == pytest.approx(math.sqrt(0.5), abs=1e-14)


def test_form2_inner_counts_each_plane_once():
    leaf = grid3(9, 8).leaf()
    ginv = np.broadcast_to(np.eye(2).reshape(2, 2, 1, 1), (2, 2) + leaf.shape)
    data = np.zeros((2, 2) + leaf.shape)
    data[0, 1] = 1.0
    data[1, 0] = -1.0
    w = Field(leaf, "form2", data)
    # |dx1 ^ dx2|^2 = 1, not 2
    assert l2_inner(w, w, ginv) == pytest.approx(1.0, abs=1e-14)


# --- csv and order fitting --------------------------------------------------------


def test_dump_field_csv_round_trip(tmp_path):
    g = Grid.product(1.0, 9, (8,), (1.0,))
    f = sample(g, ["s", "x1"], kind="covector")
    path = tmp_path / "field.csv"
    dump_field_csv(f, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["s", "x1", "comp", "value"]
    assert len(rows) == 1 + 9 * 8 * 2
    # components cycle fastest; values reproduce the field bit-exactly
    assert rows[1][2] == "comp_0" and rows[2][2] == "comp_1"
    got = np.array([float(r[3]) for r in rows[1:]]).reshape(9, 8, 2)
    assert np.array_equal(np.moveaxis(got, -1, 0), f.data)


def test_fit_order_recovers_slope():
    hs = [0.1, 0.05, 0.025]
    errs = [2.0 * h**3.7 for h in hs]
    assert fit_order(hs, errs) == pytest.approx(3.7, abs=1e-12)
    with pytest.raises(MeshError):
        fit_order(hs, [1.0, 0.0, 1.0])


def test_measured_order_floor():
    order, hit = measured_order([0.1, 0.05], [1e-15, 9e-14])
    assert hit and order is None
