import itertools

import numpy as np
import pytest
from conftest import same_bits

from runtumble import interp
from runtumble.grid import DistributionField, GridSpec, build_grid, occupied_box, total_mass
from runtumble.interp import (_BLOCK, axis_shift, interp_point, shift_spatial, stack_on_box,
                              velocity_offset_stack)
from runtumble.transport import SeparableData, exact_free_solution, free_block, transport_step


def make_grid(dim=1, L=4.0, nx=64, nv=8, dt=0.01):
    return build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv, dt=dt))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_axis_shift_integer_is_exact_roll():
    rng = np.random.default_rng(0)
    a = rng.random((16, 8))
    dx = 0.25
    for m in (-3, 1, 5):
        assert np.array_equal(axis_shift(a, m * dx, dx), np.roll(a, m, axis=0))


def test_axis_shift_cubic_accuracy_on_smooth_data():
    # fourth-order accuracy of the unlimited cubic on a smooth periodic profile
    errs = []
    for n in (32, 64, 128):
        x = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        dx = x[1] - x[0]
        disp = 0.4 * dx
        got = axis_shift(np.sin(x), disp, dx, limit=False)
        errs.append(np.abs(got - np.sin(x - disp)).max())
    assert errs[2] < errs[1] < errs[0]
    assert errs[1] / errs[2] > 8.0  # >= 4th order would give 16


def test_axis_shift_limiter_preserves_range():
    rng = np.random.default_rng(1)
    a = rng.random(64)
    out = axis_shift(a, 0.3, 1.0)
    assert out.min() >= a.min() - 1e-15
    assert out.max() <= a.max() + 1e-15


def _reference_axis_shift(a, disp, dx, axis=0, limit=True):
    """The unblocked shift, frozen as a reference: a wrap-padded gather, the
    cubic summed left to right from fresh temporaries, then np.clip."""
    s = disp / dx
    m = int(np.floor(s))
    u = 1.0 - (s - m)
    if s == m:
        return np.roll(a, m, axis=axis)
    n = a.shape[axis]
    P = np.take(a, np.mod(np.arange(n + 3) - (m + 2), n), axis=axis)
    below, base, upper, above = (np.take(P, np.arange(j, j + n), axis=axis) for j in range(4))
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -u * (u + 1.0) * (u - 2.0) / 2.0
    w2 = u * (u + 1.0) * (u - 1.0) / 6.0
    out = wm1 * below + w0 * base + w1 * upper + w2 * above
    if limit:
        out = np.clip(out, np.minimum(base, upper), np.maximum(base, upper))
    return out


def _shift_inputs():
    rng = np.random.default_rng(4)
    shapes = [(37,), (24, 19), (9, 10, 11), (5, 12, 12), (3, 8, 8, 8),
              (7, 100, 96)]  # the last covers several blocks and a partial one
    for shape in shapes:
        a = rng.random(shape)
        # a corner of zeros of either sign, where the limiter's ties must
        # give the signed zeros that np.clip gives
        corner = tuple(slice(0, 6) for _ in shape)
        a[corner] = np.where(rng.random(a[corner].shape) < 0.5, 0.0, -0.0)
        yield a
    yield rng.random((12, 7, 9)).T  # not contiguous


@pytest.mark.parametrize("limit", [True, False])
def test_axis_shift_bit_identical_to_unblocked_formula(limit):
    dx = 0.5
    for a in _shift_inputs():
        for axis in range(a.ndim):
            # whole cells, also beyond the axis length, and zero
            for cells in (0.3, -0.3, 2.7, -3.45, 2.0, -1.0, 0.0, 41.0, -13.0):
                disp = cells * dx
                ref = _reference_axis_shift(a, disp, dx, axis=axis, limit=limit)
                before = a.copy()
                assert same_bits(axis_shift(a, disp, dx, axis=axis, limit=limit), ref)
                o = np.empty_like(ref)
                assert axis_shift(a, disp, dx, axis=axis, limit=limit, out=o) is o
                assert same_bits(o, ref)
                assert same_bits(a, before)
                # out is the input: each block is gathered before it is written
                aliased = a.copy()
                assert axis_shift(aliased, disp, dx, axis=axis, limit=limit,
                                  out=aliased) is aliased
                assert same_bits(aliased, ref)
                # out is another view of the input's memory
                aliased = a.copy()
                view = aliased[...]
                assert axis_shift(view, disp, dx, axis=axis, limit=limit, out=aliased) is aliased
                assert same_bits(aliased, ref)
                # a strided out that does not share memory with the input
                o = np.empty(ref.shape[::-1]).T
                assert axis_shift(a, disp, dx, axis=axis, limit=limit, out=o) is o
                assert same_bits(o, ref)


def _row_inputs():
    rng = np.random.default_rng(6)
    # node-first 2-D and 3-D stacks; (11, 64, 64) crosses a block boundary
    # (8 rows of 4096 a block) and (3, 40, 30, 30) has rows larger than _BLOCK
    for shape in ((11, 64, 64), (6, 9, 10, 11), (3, 40, 30, 30), (5, 37)):
        a = rng.random(shape)
        corner = tuple(slice(0, 6) for _ in shape)
        a[corner] = np.where(rng.random(a[corner].shape) < 0.5, 0.0, -0.0)
        yield a


@pytest.mark.parametrize("limit", [True, False])
def test_axis_shift_per_row_matches_row_by_row_formula(limit):
    assert _BLOCK // (64 * 64) < 11 and 40 * 30 * 30 > _BLOCK
    dx = 0.5
    # runs of one integer part, whole cells and zeros among fractional rows
    cells = np.array([0.3, 0.4, 0.45, -0.3, -0.2, 2.0, 0.0, 2.7, -3.45, 41.0, 0.31, -0.0, -1.0])
    for a in _row_inputs():
        R = a.shape[0]
        fan = np.repeat(np.arange(R), 3)[:2 * R]  # each source row read by up to three rows
        maps = [None, fan, np.arange(R)[::-1], np.zeros(R, dtype=int)]
        for axis in range(1, a.ndim):
            for rows in maps:
                src = np.arange(R) if rows is None else rows
                disp = dx * np.resize(cells, len(src))
                ref = np.stack([_reference_axis_shift(a[j], disp[i], dx, axis=axis - 1, limit=limit)
                                for i, j in enumerate(src)])
                before = a.copy()
                got = axis_shift(a, disp, dx, axis=axis, limit=limit, rows=rows)
                assert same_bits(got, ref)
                assert same_bits(a, before)
                o = np.empty(ref.shape[::-1]).T  # strided, not sharing memory with a
                assert axis_shift(a, disp, dx, axis=axis, limit=limit, rows=rows, out=o) is o
                assert same_bits(o, ref)
            # the identity map in place
            disp = dx * np.resize(cells, R)
            ref = axis_shift(a, disp, dx, axis=axis, limit=limit)
            aliased = a.copy()
            assert axis_shift(aliased, disp, dx, axis=axis, limit=limit, rows=np.arange(R),
                              out=aliased) is aliased
            assert same_bits(aliased, ref)
    with pytest.raises(ValueError):
        axis_shift(a, np.zeros(len(a)), dx, axis=0)
    with pytest.raises(ValueError):
        axis_shift(a, np.zeros(2), dx, axis=1, rows=np.zeros(3, dtype=int))
    with pytest.raises(ValueError):  # rows would be read after they are written
        axis_shift(a, np.zeros(len(a)), dx, axis=1, rows=np.zeros(len(a), dtype=int), out=a)


def _cold(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the shift-plan tables emptied first, so that
    every plan it uses is built anew."""
    interp._row_plan.cache_clear()
    interp._stack_plan.cache_clear()
    return fn(*args, **kwargs)


def test_cached_shift_plans_give_the_cold_bits():
    # a shift whose plan comes from the table has the bits of one that builds
    # it: per-row with and without rows=, in place, and the scalar form
    dx = 0.5
    cells = np.array([0.3, 0.4, -0.3, 2.0, 0.0, 2.7, -3.45, 41.0, -1.0])
    for a in _row_inputs():
        R = a.shape[0]
        fan = np.repeat(np.arange(R), 3)[:2 * R]
        for axis in range(1, a.ndim):
            for rows in (None, fan):
                disp = dx * np.resize(cells, R if rows is None else len(rows))
                cold = _cold(axis_shift, a, disp, dx, axis=axis, rows=rows)
                hits = interp._row_plan.cache_info().hits
                assert same_bits(axis_shift(a, disp, dx, axis=axis, rows=rows), cold)
                assert interp._row_plan.cache_info().hits > hits
            disp = dx * np.resize(cells, R)
            cold = a.copy()
            _cold(axis_shift, cold, disp, dx, axis=axis, rows=np.arange(R), out=cold)
            warm = a.copy()
            axis_shift(warm, disp, dx, axis=axis, rows=np.arange(R), out=warm)
            assert same_bits(warm, cold)
            for c in (0.3, -3.45, 2.0):
                cold = _cold(axis_shift, a[0], c * dx, dx, axis=axis - 1)
                assert same_bits(axis_shift(a[0], c * dx, dx, axis=axis - 1), cold)
                warm = a[0].copy()
                assert same_bits(axis_shift(warm, c * dx, dx, axis=axis - 1, out=warm), cold)


@pytest.mark.parametrize("dim, L, nx, nv", [(2, 16.0, 64, 16), (3, 12.0, 8, 4)])
def test_cached_stack_plans_give_the_cold_bits(dim, L, nx, nv):
    grid = build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv))
    rng = np.random.default_rng(dim)
    spatial = rng.random(grid.x_shape)
    nodes = rng.random((grid.n_vnodes,) + grid.x_shape)
    vn, dx, whole = grid.vnodes, grid.dx, (slice(None),) * dim
    for factor in (0.01, -1.0):
        # a spatial field's stack takes its rows from the stack-plan table,
        # a node-first stack (row j shifted by node j) its shifts' plans from
        # the row-plan table
        for table, stack, args in (
                (interp._stack_plan, stack_on_box, (spatial, vn, factor, dx, whole)),
                (interp._row_plan, velocity_offset_stack, (nodes, vn, factor, dx))):
            cold = _cold(stack, *args)
            hits = table.cache_info().hits
            warm = stack(*args)
            assert same_bits(warm, cold) and table.cache_info().hits > hits
        cold = nodes.copy()
        _cold(velocity_offset_stack, cold, grid.vnodes, factor, grid.dx, out=cold)
        warm = nodes.copy()
        velocity_offset_stack(warm, grid.vnodes, factor, grid.dx, out=warm)
        assert same_bits(warm, cold)


def test_shift_plan_tables_stay_within_their_bound():
    grid = make_grid(dim=2, nx=16, nv=4)
    a = np.random.default_rng(8).random(grid.x_shape)
    whole = (slice(None),) * 2
    interp._stack_plan.cache_clear()
    for i in range(3 * interp._PLANS):
        stack_on_box(a, grid.vnodes, 0.01 * (i + 1), grid.dx, whole)
        stack_on_box(a[:4 + i % 9], grid.vnodes, 0.01 * (i + 1), grid.dx, whole)
    for table in (interp._row_plan, interp._stack_plan):
        info = table.cache_info()
        assert info.maxsize == interp._PLANS and info.currsize <= interp._PLANS
    assert interp._row_plan.cache_info().currsize == interp._PLANS
    # one stack plan: it depends on the nodes only
    assert interp._stack_plan.cache_info().currsize == 1


def test_shift_spatial_two_axes():
    grid = make_grid(dim=2, nx=32)
    X, Y = grid.x_mesh()
    a = np.exp(-(X**2 + Y**2))
    disp = (3 * grid.dx, -2 * grid.dx)
    got = shift_spatial(a, disp, grid.dx)
    assert np.array_equal(got, np.roll(a, (3, -2), axis=(0, 1)))


def test_velocity_offset_stack_matches_per_node_shifts():
    # the stack of a spatial field (stack_on_box) shares the shifts of common
    # velocity prefixes, yet each node gets exactly the axis shifts of
    # shift_spatial, in the same order. build_grid lists the masked nodes in
    # C order of the lattice, which is the order of the stack plan's rows
    # after the last axis, so row j is node j with no gather after it; on
    # ball and shell lattices in d = 1, 2 and 3
    rng = np.random.default_rng(2)
    for dim, nx, nv, shape, r_min in ((2, 16, 4, "ball", 0.0), (3, 8, 4, "ball", 0.0),
                                      (1, 16, 8, "ball", 0.0), (1, 16, 8, "shell", 0.5),
                                      (2, 16, 8, "shell", 0.5), (3, 8, 8, "shell", 0.5)):
        grid = build_grid(GridSpec(dim=dim, box_half_length=4.0, nx=nx, nv=nv,
                                   velocity_shape=shape, r_min=r_min))
        vn = grid.vnodes
        # each row's coordinates, read back through its parent rows
        rows = np.zeros((1, 0))
        plan = interp._stack_plan(np.ascontiguousarray(vn, dtype=np.float64).tobytes(), *vn.shape)
        for comps, parent in plan:
            rows = np.column_stack([rows[parent], comps])
        assert same_bits(rows, vn), (dim, shape)
        a = rng.random(grid.x_shape)
        for factor in (0.173, -1.0):
            out = stack_on_box(a, vn, factor, grid.dx, (slice(None),) * dim)
            assert out.shape == (grid.n_vnodes,) + grid.x_shape
            for j in range(grid.n_vnodes):
                ref = shift_spatial(a, factor * vn[j], grid.dx)
                assert same_bits(out[j], ref), (dim, shape, factor, j)


def test_velocity_offset_stack_per_node_input():
    rng = np.random.default_rng(3)
    for dim, nx, nv in ((2, 16, 4), (1, 16, 4)):
        grid = make_grid(dim=dim, nx=nx, nv=nv)
        a = rng.random((grid.n_vnodes,) + grid.x_shape)
        before = a.copy()
        out = velocity_offset_stack(a, grid.vnodes, 0.31, grid.dx)
        assert np.array_equal(a, before)  # the input is not shifted in place
        for j in range(grid.n_vnodes):
            ref = shift_spatial(a[j], 0.31 * grid.vnodes[j], grid.dx)
            assert np.array_equal(out[j], ref)
    with pytest.raises(ValueError):
        velocity_offset_stack(rng.random((16, 3)), grid.vnodes, 0.1, grid.dx)


@pytest.mark.parametrize("dim, L, nx, nv", [(2, 16.0, 64, 16), (3, 12.0, 32, 4)])
def test_velocity_offset_stack_on_preset_lattices(dim, L, nx, nv):
    # the 2-D preset's K = 208 nodes fan one spatial row out over two axes;
    # the 3-D preset shifts 32 nodes along three
    grid = build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv))
    rng = np.random.default_rng(dim)
    spatial = rng.random(grid.x_shape)
    spatial.reshape(-1)[:64] = np.where(rng.random(64) < 0.5, 0.0, -0.0)
    nodes = rng.random((grid.n_vnodes,) + grid.x_shape)
    nodes.reshape(-1)[::97] = -0.0
    for factor in (0.01, 0.025, -1.0, 1.0):
        for values in (spatial, nodes):
            if values is spatial:
                out = stack_on_box(values, grid.vnodes, factor, grid.dx, (slice(None),) * dim)
            else:
                out = velocity_offset_stack(values, grid.vnodes, factor, grid.dx)
            for j in range(grid.n_vnodes):
                row = values if values.ndim == dim else values[j]
                assert same_bits(out[j], shift_spatial(row, factor * grid.vnodes[j], grid.dx))


@pytest.mark.parametrize("dim, nx", [(1, 32), (2, 16), (3, 8)])
def test_velocity_offset_stack_stays_within_the_input_range(dim, nx):
    # the limiter keeps each axis shift within its stencil's two bracketing
    # values, so no row of an offset stack leaves [min, max] of its input:
    # the stack-free bound of the scattering guard rests on this
    grid = make_grid(dim=dim, nx=nx, nv=4)
    rng = np.random.default_rng(10 + dim)
    for trial in range(4):
        values = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=grid.x_shape)
        values -= rng.random() * values.max()  # signed, of either sign on the whole
        if trial == 3:  # a spike: the unlimited cubic overshoots next to it
            values = np.zeros(grid.x_shape)
            values.reshape(-1)[rng.integers(values.size)] = -3.0
        lo, hi = values.min(), values.max()
        # fractional and whole-cell displacements, of either sign
        for factor in (0.173, -0.61, 1.3, grid.dx / grid.hv * 2.0, -grid.dx / grid.hv * 4.0):
            stack = stack_on_box(values, grid.vnodes, factor, grid.dx, (slice(None),) * dim)
            assert stack.min() >= lo and stack.max() <= hi, (trial, factor)
            nodes = velocity_offset_stack(stack, grid.vnodes, -factor, grid.dx)
            assert nodes.min() >= lo and nodes.max() <= hi, (trial, factor)


def test_interp_point_exact_at_nodes_and_smooth_accuracy():
    grid = make_grid(dim=1, nx=128, L=np.pi)
    vals = np.sin(grid.x)
    # node evaluation is exact
    assert interp_point(vals, grid.x[0], grid.dx, [grid.x[17]]) == pytest.approx(
        vals[17], abs=1e-14)
    # off-node evaluation is cubic-accurate
    pts = np.linspace(-2.0, 2.0, 57)[:, None]
    got = interp_point(vals, grid.x[0], grid.dx, pts, limit=False)
    assert np.abs(got - np.sin(pts[:, 0])).max() < 1e-5


# ---------------------------------------------------------------------------
# free transport
# ---------------------------------------------------------------------------

def test_exact_free_solution_needs_no_center_or_one_entry_per_axis():
    # () is the origin, as the zero tuple of grid.dim entries is; a center
    # with fewer or more entries than grid.dim is rejected before sampling
    grid = make_grid(dim=3, nx=8, nv=4)
    origin = exact_free_solution(SeparableData(kind="cube"), grid, 0.5)
    zeros = exact_free_solution(SeparableData(kind="cube", center=(0.0,) * 3), grid, 0.5)
    assert same_bits(origin.nodes, zeros.nodes)
    for center in ((1.0,), (1.0, 0.0), (0.0, 0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="center has"):
            exact_free_solution(SeparableData(kind="cube", center=center), grid, 0.5)


def _free_product(f0, grid, t):
    """The closed-form data sampled on the whole grid: the product of the
    per-axis profiles at every position, in axis order, times the
    amplitude last (the formula before sampling kept to the support box)."""
    d, K, nx = grid.dim, grid.n_vnodes, grid.spec.nx
    L = grid.spec.box_half_length
    center = f0.center if f0.center else (0.0,) * d
    g = np.ones((K,) + (1,) * d)
    for a in range(d):
        comps, col = np.unique(grid.vnodes[:, a], return_inverse=True)
        xa = np.mod(grid.x - t * comps[:, None] - center[a] + L, 2.0 * L) - L
        if f0.kind == "gaussian":
            profile = np.exp(-(xa**2) / (2.0 * f0.width**2))
        else:
            profile = (np.abs(xa) <= f0.width).astype(float)
        g = g * profile[col].reshape((K,) + (1,) * a + (nx,) + (1,) * (d - a - 1))
    g *= f0.amplitude
    return g


@pytest.mark.parametrize("dim, nx, nv", [(1, 64, 8), (2, 32, 8), (3, 16, 4)])
def test_free_data_sampled_on_their_box_have_the_whole_grid_bits(dim, nx, nv):
    # exact_free_solution is the whole-grid product bit for bit, with
    # occupied_box(nodes) as its box; free_block's block is that product on
    # a box of more than one cell or the whole grid, outside which it is
    # +0.0. Widths below one cell (0.3 dx: one cell or none), supports
    # that wrap the periodic edge, amplitude 0 and late times included
    grid = make_grid(dim=dim, nx=nx, nv=nv)
    L, dx, whole = grid.spec.box_half_length, grid.dx, (slice(None),) * dim
    boxes = set()
    for kind, width, center, amplitude, t in itertools.product(
            ("cube", "gaussian"), (0.3 * dx, 0.1, 1.0), (0.0, L - 0.2 * dx), (0.0, 0.7),
            (0.0, 0.02, 0.5, 3.0, 10.0)):
        f0 = SeparableData(amplitude=amplitude, width=width, kind=kind, center=(center,) * dim)
        case = (kind, width, center, amplitude, t)
        expect = _free_product(f0, grid, t)
        f = exact_free_solution(f0, grid, t)
        assert same_bits(f.nodes, expect) and f.t == t, case
        assert f.box == occupied_box(f.nodes), case
        box, block = free_block(f0, grid, t)
        assert same_bits(block, expect[(slice(None),) + box]), case
        outside = expect.copy()
        outside[(slice(None),) + box] = 0.0
        assert same_bits(outside, np.zeros_like(expect)), case
        cells = np.zeros(grid.x_shape)[box].size
        assert box == whole or 1 < cells <= 0.25 * grid.spec.nx**dim, case
        boxes.add((box == whole, f.box == whole))
    # compact blocks and fields, whole-grid ones, and compact blocks with no
    # nonzero value (amplitude 0), whose fields take the whole grid
    assert boxes == {(True, True), (False, False), (False, True)}


def test_exact_free_solution_matches_direct_sampling():
    grid = make_grid(dim=2, nx=16, nv=4)
    f0 = SeparableData(amplitude=0.7, width=0.8, kind="gaussian", center=(0.5, -0.25))
    t = 0.37
    f = exact_free_solution(f0, grid, t)
    X, Y = grid.x_mesh()
    L = grid.spec.box_half_length
    for j in (0, grid.n_vnodes // 2, grid.n_vnodes - 1):
        v = grid.vnodes[j]
        xa = np.mod(X - t * v[0] - 0.5 + L, 2 * L) - L
        ya = np.mod(Y - t * v[1] + 0.25 + L, 2 * L) - L
        ref = 0.7 * np.exp(-(xa**2 + ya**2) / (2 * 0.8**2))
        vidx = tuple(ax[j] for ax in grid.vindex)
        assert np.allclose(f.values[(slice(None), slice(None)) + vidx], ref, atol=1e-13)


def test_transport_step_exact_at_alignment_time():
    grid = make_grid(dim=1, nx=64, nv=8, dt=0.01)
    f0 = SeparableData(amplitude=1.0, width=0.5, kind="cube")
    f = exact_free_solution(f0, grid, 0.0)
    t = grid.alignment_time(1)
    stepped = transport_step(f, t)
    exact = exact_free_solution(f0, grid, t)
    assert np.allclose(stepped.values, exact.values, atol=1e-13)


def test_transport_step_conserves_mass_and_positivity():
    grid = make_grid(dim=2, nx=32, nv=8, dt=0.01)
    f = exact_free_solution(SeparableData(width=0.7), grid, 0.0)
    m0 = total_mass(f)
    for _ in range(20):
        f = transport_step(f, grid.spec.dt)
    assert f.values.min() >= 0.0
    assert abs(total_mass(f) - m0) / m0 < 1e-12


def test_transport_step_converges_to_free_solution():
    f0 = SeparableData(width=0.5)
    t_end = 0.5
    errs = []
    for nx in (64, 128):
        grid = make_grid(dim=1, nx=nx, nv=8)
        f = exact_free_solution(f0, grid, 0.0)
        n = 25
        for _ in range(n):
            f = transport_step(f, t_end / n)
        exact = exact_free_solution(f0, grid, t_end)
        errs.append(np.abs(f.values - exact.values).max())
    # the range limiter is first order at extrema, so the observed rate sits
    # between first and fourth order
    assert errs[1] < 0.7 * errs[0]
    assert errs[1] < 6e-3


def test_transport_step_rejects_bad_dt():
    # a NaN or infinite step is a ValueError that names dt, not a failed
    # integer conversion or an overflow inside the shift
    grid = make_grid(dim=1, nx=16, nv=4)
    f = exact_free_solution(SeparableData(), grid, 0.0)
    for dt in (-0.1, 0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="dt"):
            transport_step(f, dt)


def test_velocity_offset_stack_and_transport_step_write_into_out():
    # a node-first stack written into `out`, the input itself included, and
    # a transport step in place are bit-identical to the fresh array; not in
    # place, the input is left as it is
    rng = np.random.default_rng(4)
    for dim, nx, nv in ((1, 32, 8), (2, 16, 8), (3, 8, 4)):
        grid = make_grid(dim=dim, nx=nx, nv=nv, dt=0.013)
        nodes = rng.random((grid.n_vnodes,) + grid.x_shape)
        for factor in (0.173, -0.5, 2 * grid.dx / grid.hv):  # the last: whole cells
            fresh = velocity_offset_stack(nodes, grid.vnodes, factor, grid.dx)
            out = np.empty_like(nodes)
            assert velocity_offset_stack(nodes, grid.vnodes, factor, grid.dx, out=out) is out
            inplace = nodes.copy()
            velocity_offset_stack(inplace, grid.vnodes, factor, grid.dx, out=inplace)
            assert same_bits(out, fresh) and same_bits(inplace, fresh)

        f = DistributionField(grid, nodes, t=0.5)
        before = nodes.copy()
        fresh = transport_step(f, grid.spec.dt)
        assert same_bits(f.nodes, before) and not np.shares_memory(fresh.nodes, f.nodes)
        g = DistributionField(grid, nodes.copy(), t=0.5)
        stepped = transport_step(g, grid.spec.dt, in_place=True)
        assert stepped is g and g.t == fresh.t and g.box == fresh.box
        assert same_bits(g.nodes, fresh.nodes)
    with pytest.raises(ValueError, match="node-first"):
        velocity_offset_stack(rng.random(grid.x_shape), grid.vnodes, 0.1, grid.dx)
