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
from idrig.killing_dev import (build_kd, dead_v_partials, kd_dec_check, kd_roundtrip, ppwave,
                               ppwave_einstein_check)
from idrig.mesh import (Grid, Scheme, Field, MeshError, partial, partial_stack,
                        sample, leaf_index, leaf_values, leaf_block,
                        integrate, integrate_leaf, l2_inner, l2_norm,
                        dump_field_csv, fit_order, DEFAULT_SCHEME)
from idrig.rigidity import hodge_decompose, rigid_recipe, rigid_report, tt_split
from helpers import CORPUS, SCHEME, sample_expr, order_passes, measured_order, grid3


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
    assert math.prod(g.shape) >= mesh._DISTINCT_MIN_NODES  # the constant-axis search runs
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
    for batch in seen:  # one line per component handed to a kernel
        assert np.any(batch, axis=tuple(range(1, batch.ndim))).all()


# grids of exactly _DISTINCT_MIN_NODES nodes, where the constant-axis search runs
GATE_GRIDS = {2: Grid.product(1.0, 64, (64,), (1.0,)),
              3: Grid.product(1.0, 16, (16, 16), (1.0, 1.0)),
              4: Grid.product(1.0, 8, (8, 8, 8), (1.0, 1.0, 1.0))}


def _constant_along(rng, grid, axes):
    """Three components constant along the grid axes `axes`.  Unless that is every axis,
    in the third one a line of +0.0 turns to -0.0 at one node of the first of `axes`,
    equal in value, not in bits (the third component would be all zero otherwise)."""
    small = tuple(1 if axis in axes else count for axis, count in enumerate(grid.shape))
    values = rng.standard_normal((3,) + small)
    values[(2,) + (0,) * grid.ndim] = 0.0 if len(axes) < grid.ndim else 1.0
    data = np.broadcast_to(values, (3,) + grid.shape).copy()
    if 0 < len(axes) < grid.ndim:
        node = [0] * grid.ndim
        node[axes[0]] = 3
        data[(2,) + tuple(node)] = -0.0
    return data


@pytest.mark.parametrize("ndim", sorted(GATE_GRIDS))
@pytest.mark.parametrize("s_scheme", ["fd2", "fd4"])
@pytest.mark.parametrize("leaf_scheme", ["fd2", "fd4", "spectral"])
def test_partials_of_data_constant_along_axes_equal_the_full_grid_kernel(ndim, s_scheme,
                                                                         leaf_scheme):
    # the kernel sees one slice along every constant axis but the derivative axis, and
    # its result broadcast back is the derivative of the full array bit for bit
    g, scheme = GATE_GRIDS[ndim], Scheme(s_scheme, leaf_scheme)
    rng = np.random.default_rng(ndim)
    for count in range(ndim + 1):
        for axes in itertools.combinations(range(ndim), count):
            data = _constant_along(rng, g, axes)
            stack = partial_stack(data, g, scheme)
            for axis in range(ndim):  # constant along the derivative axis itself included
                full = mesh._derivative(data, g, axis, scheme).tobytes()
                assert partial(data, g, axis, scheme).tobytes() == full, (axes, axis)
                assert stack[axis].tobytes() == full, (axes, axis)


def test_only_grids_at_the_gate_hand_the_kernel_length_one_axes(monkeypatch):
    shapes = []
    kernel = mesh._derivative

    def recording(data, *args):
        shapes.append(data.shape)
        return kernel(data, *args)

    monkeypatch.setattr(mesh, "_derivative", recording)
    rng = np.random.default_rng(7)
    for g, cut in ((GATE_GRIDS[3], True), (grid3(9, 8), False)):
        assert (math.prod(g.shape) >= mesh._DISTINCT_MIN_NODES) == cut
        data = np.broadcast_to(rng.standard_normal((2,) + g.shape[:2] + (1,)),
                               (2,) + g.shape).copy()  # constant along x2
        shapes.clear()
        partial_stack(data, g, SCHEME)
        x2 = (1,) if cut else g.shape[2:]
        assert shapes == [(2,) + g.shape[:2] + x2] * 2 + [(2,) + g.shape], g.shape


# --- pointwise contractions -------------------------------------------------------

# every subscripts string and module that calls the contraction kernel, so that a new
# call site is covered without editing these tests
SOURCES = {path.stem: path.read_text() for path in Path(mesh.__file__).parent.glob("*.py")}
CONTRACTED = sorted({subscripts for text in SOURCES.values()
                     for subscripts in re.findall(r'_contract\(\s*"([^"]+)"', text)})
KERNEL_USERS = [importlib.import_module(f"idrig.{name}") for name, text in SOURCES.items()
                if "_contract(" in text]


def test_contraction_call_sites_are_found():
    calls = sum(len(re.findall(r"(?<!def )_contract\(", text)) for text in SOURCES.values())
    literal = sum(len(re.findall(r'_contract\(\s*"([^"]+)"', text)) for text in SOURCES.values())
    assert calls >= 56 and literal == calls  # every call passes a subscripts string found here
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
            "complex": [op + 1j * rng.standard_normal(op.shape) for op in sparse],
            "real times complex": sparse[:1] + [op - 2j * op for op in dense[1:]],
            # where two operands have one rank, both are the same writeable array
            "same writeable operand passed twice": [sparse[ranks.index(r)] for r in ranks],
        }
        for name, ops in cases.items():
            want = np.einsum(subscripts, *ops)
            got = mesh._contract(subscripts, *ops)
            assert got.dtype == want.dtype and got.flags.c_contiguous, (name, n)
            # equal bit for bit, up to the sign of zero
            assert np.array_equal(got + 0.0, want + 0.0), (name, n)


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

    def exact(live):  # every mask served or scanned is the operand's own
        def checked_live(data, rank):
            mask = live(data, rank)
            fresh = np.logical_or.reduce(np.asarray(data), axis=tuple(range(rank, np.ndim(data))))
            assert np.shape(mask) == fresh.shape and np.array_equal(mask, fresh)
            masks.append(mask)
            return mask
        return checked_live

    masks = []
    monkeypatch.setattr(mesh, "_live", exact(mesh._live))
    monkeypatch.setattr(geometry, "_live", exact(geometry._live))

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
        kd_dec_check(build_kd(recipe))
        metric = geometry.MetricField(sample(leaf, [["1 + 0.1*sin(2*pi*x1)", "0"],
                                                    ["0", "1"]], kind="sym2"))
        gamma = geometry.christoffels(metric, SCHEME)
        one_form = sample(leaf, ["sin(2*pi*x2)", "cos(2*pi*x1)"], kind="covector")
        geometry.hodge_laplacian(one_form, metric, gamma, SCHEME)
        geometry.hodge_laplacian(geometry.exterior_d(one_form, SCHEME), metric, gamma, SCHEME)
        hodge_decompose(one_form, np.eye(2))
        flat = geometry.MetricField(Field(leaf, "sym2", np.eye(2)[..., None, None]
                                          * np.ones(leaf.shape)))
        lie = geometry.lie_metric(flat.sharp(one_form.data), flat,
                                  geometry.christoffels(flat, SCHEME), SCHEME)
        tt_split(Field(leaf, "sym2", geometry.symmetrize(lie)), np.eye(2), SCHEME)

    one_pass()
    assert len(builds) > 20 and len(calls) > len(builds)
    assert sorted(set(calls)) == CONTRACTED  # every call site is reached
    builds.clear()
    calls.clear()
    one_pass()  # the same zero masks again: every plan is reused
    assert len(calls) > 20 and builds == []
    assert len(masks) > len(calls)


# --- recorded component masks ------------------------------------------------------


def test_contraction_and_inverse_outputs_are_read_only():
    rng = np.random.default_rng(5)
    metric = np.eye(3)[..., None, None] + 0.1 * rng.random((3, 3, 4, 5))
    metric = metric + np.swapaxes(metric, 0, 1)
    for out in (mesh._contract("ab...,b...->a...", metric, rng.random((3, 4, 5))),
                geometry.inverse(metric)):
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


def test_a_record_is_never_served_to_a_later_array_with_the_same_id():
    rng = np.random.default_rng(9)
    vec = rng.standard_normal((3, 4, 5))
    vec[1] = 0.0
    out = mesh._contract("ab...,b...->a...", np.eye(3)[..., None, None] * np.ones((4, 5)), vec)
    assert np.array_equal(mesh._live(out, 1), [True, False, True])  # served from the record
    freed = id(out)
    del out
    assert freed not in mesh._MASKS  # the record went with its array
    later = []
    while len(later) < 1000 and (not later or id(later[-1]) != freed):
        later.append(np.ones((3, 4, 5)))
    assert id(later[-1]) == freed  # the address was handed out again
    later[-1].flags.writeable = False
    assert np.array_equal(mesh._live(later[-1], 1), [True, True, True])


def test_a_superset_mask_keeps_einsums_bits():
    rng = np.random.default_rng(10)
    subscripts = "ac...,bd...,cd...->ab..."
    ginv = rng.standard_normal((3, 3, 4, 5))
    ginv[0, 2] = ginv[2, 0] = 0.0
    form = rng.standard_normal((3, 3, 4, 5))
    form[1] = 0.0
    want = np.einsum(subscripts, ginv, ginv, form)
    # records that call every component live, so every product is multiplied
    ginv_all = mesh._known(ginv.copy(), np.ones((3, 3), dtype=bool))
    form_all = mesh._known(form.copy(), np.ones((3, 3), dtype=bool))
    assert mesh._live(form_all, 1).all()
    got = mesh._contract(subscripts, ginv_all, ginv_all, form_all)
    assert got.tobytes() == mesh._contract(subscripts, ginv, ginv, form).tobytes()
    assert np.array_equal(got, want)


def fresh_scan(data, rank):
    return np.logical_or.reduce(np.asarray(data), axis=tuple(range(rank, np.ndim(data))))


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
    assert not low.flags.writeable and low.base is None
    assert not np.any(low[0, 1, 1])
    recorded = mesh._live(low, 3)
    assert not recorded[0, 1, 1]  # a live triple that cancels stays dead
    assert np.array_equal(recorded, fresh_scan(low, 3))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_kernel_only_partial_stacks_are_read_only_with_their_exact_mask(monkeypatch):
    g = grid3()
    # g_11 depends on x1 alone, so its x2 derivative is exactly 0 though g_11 is live
    metric = geometry.MetricField(sample(g, [
        ["1 + 0.1*s^2", "0", "0"], ["0", "1 + 0.1*sin(2*pi*x1)", "0"],
        ["0", "0", "1 + 0.2*cos(2*pi*x2)*(1 + 0.1*s)"]], kind="sym2"))
    stacks = []

    def capture(name, stack_arg):
        kernel = getattr(geometry, name)

        def captured(*args):
            stacks.append((name, args[stack_arg]))
            return kernel(*args)
        monkeypatch.setattr(geometry, name, captured)

    capture("christoffels_from", 1)
    capture("riemann_from", 1)
    capture("ricci_from", 2)
    geometry.curvature(metric, SCHEME)
    spec = ppwave(g, "1 + 0.2*sin(2*pi*x1)", SCHEME)
    kd_roundtrip(spec, "0.05*s^2")
    names = {name for name, _ in stacks}
    assert names == {"christoffels_from", "riemann_from", "ricci_from"}
    dg = dead_v_partials(metric.data, g, SCHEME)
    for name, stack in stacks + [("dead_v_partials", dg)]:
        rank = stack.ndim - g.ndim
        assert not stack.flags.writeable and stack.base is None, name
        recorded = mesh._recorded(stack)
        assert recorded is not None and mesh._live(stack, rank) is recorded, name
        assert np.array_equal(recorded, fresh_scan(stack, rank)), name
    recorded = mesh._recorded(dg)
    assert not recorded[0].any()  # nothing depends on v
    assert recorded[2, 1, 1] and not recorded[3, 1, 1]  # d_x1 g_11 is live, d_x2 g_11 is 0
    # the public derivatives stay writeable, for callers that subtract into them
    for out in (partial(metric.data, g, 1, SCHEME), partial_stack(metric.data, g, SCHEME)):
        assert out.flags.writeable and mesh._recorded(out) is None


def recorded_owner(rng, mask=None):
    """A read-only array with dead component slices, recorded with `mask` (default: a scan)."""
    data = rng.standard_normal((3, 3, 4, 5))
    data[0, 1] = data[2] = 0.0
    data[1, 2] = -0.0
    return mesh._known(data, fresh_scan(data, 2) if mask is None else mask)


def test_an_integer_index_of_a_recorded_owner_is_served_its_slice_of_the_record():
    rng = np.random.default_rng(13)
    owner = recorded_owner(rng)
    for i in range(3):
        for rank in (0, 1):
            assert np.array_equal(mesh._live(owner[i], rank), fresh_scan(owner[i], rank))
    # served, not scanned: a record that calls every component live reaches the view
    loose = recorded_owner(rng, np.ones((3, 3), dtype=bool))
    assert mesh._live(loose[2], 1).all()
    assert loose[2].base is loose and id(loose[2]) not in mesh._MASKS  # no record for views


def test_other_views_and_writeable_arrays_are_scanned():
    rng = np.random.default_rng(14)
    loose = recorded_owner(rng, np.ones((3, 3), dtype=bool))
    for view in (loose[::2], loose[:, 1], loose[0, 1:], loose[1, :, ::2],
                 np.swapaxes(loose[1], 0, 1), loose[1, 2], loose[1][None]):
        rank = min(view.ndim - 2, 1)
        assert np.array_equal(mesh._live(view, rank), fresh_scan(view, rank))
    thawed = recorded_owner(rng)
    thawed.flags.writeable = True  # its record no longer holds
    thawed[2, 1] = 1.0
    frozen_view = thawed[2]
    frozen_view.flags.writeable = False
    assert np.array_equal(mesh._live(frozen_view, 1), [False, True, False])
    writeable = np.array(loose)
    view = writeable[2]
    assert not mesh._live(view, 1).any()
    view[1] = 1.0  # written through the view between two calls
    assert np.array_equal(mesh._live(view, 1), [False, True, False])
    frozen_view = writeable[0]
    frozen_view.flags.writeable = False  # read-only, but its owner is not
    assert np.array_equal(mesh._live(frozen_view, 1), [True, False, True])
    writeable[0, 1] = 1.0
    assert mesh._live(frozen_view, 1).all()


# --- fields --------------------------------------------------------------------


def test_field_validation():
    g = Grid.product(1.0, 9, (8,), (1.0,))
    with pytest.raises(MeshError):
        Field(g, "spinor", np.zeros(g.shape))
    with pytest.raises(MeshError):
        Field(g, "vector", np.zeros(g.shape))       # missing component axis
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


def test_field_arithmetic():
    g = Grid.product(1.0, 9, (8,), (1.0,))
    a = Field(g, "scalar", np.ones(g.shape))
    b = Field(g, "scalar", 2 * np.ones(g.shape))
    assert (a + b).max_norm() == 3.0
    assert (a - b).max_norm() == 1.0
    assert (-b).data.min() == -2.0


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
    vals = leaf_values(f, 4)
    assert vals.shape == g.leaf().shape
    t = sample(g, [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]], kind="sym2")
    blk = leaf_block(t, 4)
    assert blk.grid.ndim == 2 and blk.data.shape == (2, 2, 8, 8)
    assert blk.data[0, 0].max() == 2.0 and blk.data[1, 1].max() == 3.0


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
