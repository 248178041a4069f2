"""The box paths against frozen copies of the full-array formulas.

transport_step, density, scattering_apply and the mixed norms work only on
the box that f carries (DistributionField.box), which is f's occupied box
(grid.occupied_box) when f is made with none; these tests compare them bit
for bit (int64 views) with the sweeps over the whole array that they
replace, check that every writer's result is +0.0 outside the box it
carries, and check the box arithmetic (grid.grow_box, interp.stack_on_box)
that they build on. The transport step flushes a tail below a relative
floor (transport.FLOOR), and its frozen full sweep takes the same floor.
"""

import math

import numpy as np
import pytest
from conftest import same_bits

from runtumble import interp, transport
from runtumble.fields import solve_field
from runtumble.grid import (BOX_SHARE, DistributionField, GridSpec, SpatialField,
                            boundary_shell_mass, build_grid, density, field_from_compact,
                            field_mass, grow_box, occupied_box, support_box, total_mass)
from runtumble.interp import (stack_on_box, stack_reach, stack_spread, velocity_offset_stack,
                              written_box)
from runtumble.kernels import KernelSpec, scattering_apply
from runtumble.norms import NormSpec, compact_mixed_norm, mixed_norm, spatial_norm
from runtumble.simulate import Simulation
from runtumble.transport import SeparableData, exact_free_solution, slab_sums, transport_step

INF = math.inf
SUBNORMAL = 5e-324  # the smallest positive double: hv^d times it underflows to 0
NORM_PAIRS = ((1, 1), (1.5, 1), (2, 1.5), (9 / 5, 9 / 7), (INF, 1), (3, INF), (INF, INF))
# a kernel with a v'-part and one without; at SCATTER_DT both clear the
# stack-free positivity bound on every _states case, so scattering runs on f's box
SCATTER_KERNELS = (KernelSpec(family="hyp3", coefficient=0.5),
                   KernelSpec(family="hyp2", coefficient=0.5))
SCATTER_DT = 0.02


def _full_slab_sums(nodes):
    """slab_sums over the whole array: NumPy's sums of the whole planes of
    the position axes after the first, added in order along the first."""
    planes = nodes.sum(axis=tuple(range(2, nodes.ndim)))
    total = np.zeros(len(nodes))
    for i in range(planes.shape[1]):
        total += planes[:, i]
    return total


def _full_transport(nodes, grid, dt, floor=None):
    """transport_step as a sweep over the whole array, with the floor
    `floor` (transport.FLOOR when None): +0.0 at every position outside the
    bounding box of the positions whose node sum exceeds floor times the
    largest node sum over K, before the rescale."""
    floor = transport.FLOOR if floor is None else floor
    before = _full_slab_sums(nodes)
    out = velocity_offset_stack(nodes, grid.vnodes, dt, grid.dx)
    np.clip(out, 0.0, None, out=out)
    total = out.sum(axis=0)
    kept = np.zeros(grid.x_shape, dtype=bool)
    kept[support_box(total > floor * total.max() / len(out))] = True
    out[:, ~kept] = 0.0
    after = _full_slab_sums(out)
    scale = np.where(after > 0.0, before / np.where(after > 0.0, after, 1.0), 1.0)
    out *= scale.reshape((-1,) + (1,) * grid.dim)
    return out


def _full_mixed_norm(nodes, grid, p, q):
    """compact_mixed_norm as a sweep over the whole array."""
    a = np.abs(nodes)
    if q == INF:
        inner = a.max(axis=0)
    else:
        a **= q
        inner = (grid.hv ** grid.dim * np.sum(a, axis=0)) ** (1.0 / q)
    return spatial_norm(inner, grid, p)


def _grid(dim):
    nx = {1: 64, 2: 32, 3: 16}[dim]
    return build_grid(GridSpec(dim=dim, box_half_length=0.375 * nx, nx=nx, nv=4, dt=0.3))


def _states(grid):
    """Node arrays: compact support, support touching the periodic edge on
    axis 0 (a full-axis fallback there), full support, the empty state,
    compact support with subnormal values in one node, a few cells away,
    one cell whose node values differ from one another, a box that is part
    of the grid but holds more than a quarter of it, a box whose growth by
    a transport step's reach is the whole grid, and a box one cell thick
    along axis 0."""
    rng = np.random.default_rng(grid.dim)
    shape = (grid.n_vnodes,) + grid.x_shape
    nx = grid.spec.nx
    states = {}
    compact = np.zeros(shape)
    cube = (slice(None),) + (slice(nx // 2 - 2, nx // 2 + 1),) * grid.dim
    compact[cube] = rng.random(compact[cube].shape)
    states["compact"] = compact
    edge = np.zeros(shape)
    cube = (slice(None), slice(0, 3)) + (slice(nx // 2 - 2, nx // 2 + 1),) * (grid.dim - 1)
    edge[cube] = rng.random(edge[cube].shape)
    states["edge"] = edge
    states["full"] = rng.random(shape)
    states["empty"] = np.zeros(shape)
    subnormal = compact.copy()
    cells = (-1,) + (slice(nx // 2 + 5, nx // 2 + 7),) * grid.dim
    subnormal[cells] = SUBNORMAL
    states["subnormal"] = subnormal
    one_cell = np.zeros(shape)
    one_cell[(slice(None),) + (nx // 2 + 1,) * grid.dim] = rng.random(grid.n_vnodes)
    states["one_cell"] = one_cell
    large = np.zeros(shape)
    cube = (slice(None),) + (slice(2, 2 + 3 * nx // 4),) * grid.dim
    large[cube] = rng.random(large[cube].shape)
    states["large"] = large
    # one cell in from the periodic edge, so that growing by 2 or more
    # crosses it on every axis
    grown_whole = np.zeros(shape)
    cube = (slice(None),) + (slice(1, 4),) * grid.dim
    grown_whole[cube] = rng.random(grown_whole[cube].shape)
    states["grown_whole"] = grown_whole
    thin = np.zeros(shape)
    cube = (slice(None), slice(nx // 2, nx // 2 + 1)) + (slice(nx // 2 - 2, nx // 2 + 1),) * (grid.dim - 1)
    thin[cube] = rng.random(thin[cube].shape)
    states["thin"] = thin
    return states


def test_support_box_grows_and_falls_back_to_full_axes():
    mask = np.zeros((16, 16, 16), dtype=bool)
    mask[5:8, 6, 7:9] = True
    shape = mask.shape
    assert support_box(mask) == (slice(5, 8), slice(6, 7), slice(7, 9))
    assert grow_box(support_box(mask), 3, shape) == (slice(2, 11), slice(3, 10), slice(4, 12))
    # crossing the periodic edge, reaching it on one side, covering exactly
    # [0, n) (slice(None), like a crossing), a wrapping support, no support
    assert grow_box(support_box(mask), 6, shape) == (slice(None), slice(0, 13), slice(1, 15))
    assert grow_box(support_box(mask), 7, shape)[2] == slice(None)
    mask[15, 6, 7] = True
    assert support_box(mask)[0] == slice(5, 16)
    assert grow_box(support_box(mask), 1, shape)[0] == slice(None)
    assert grow_box(support_box(np.zeros(8, dtype=bool)), 1, (8,)) == (slice(None),)
    # a support from the first cell to the last is the whole grid, with no margin
    full = np.zeros((8, 4), dtype=bool)
    full[0, 0] = full[7, 3] = True
    assert support_box(full) == (slice(None), slice(None))
    full[7, 3] = False
    assert support_box(full) == (slice(0, 1), slice(0, 1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_transport_box_path_bit_identical_to_full_sweep(dim):
    grid = _grid(dim)
    dt = grid.spec.dt
    for name, nodes in _states(grid).items():
        expect = _full_transport(nodes, grid, dt)
        f = DistributionField(grid, nodes.copy())
        assert same_bits(transport_step(f, dt).nodes, expect), name
        assert same_bits(f.nodes, nodes), name
        assert same_bits(transport_step(f, dt, in_place=True).nodes, expect), name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slab_sums_give_the_whole_array_bits_on_every_box(dim):
    # on f's occupied box, on its support box (one cell, or one cell thick
    # along axis 0, on some states), on boxes with a length-1 axis and on
    # grown ones, slab_sums gives the bits of the whole-array rule
    grid = _grid(dim)
    whole = (slice(None),) * dim
    nx = grid.spec.nx
    states = _states(grid)
    rng = np.random.default_rng(10 + dim)
    for a in range(dim):
        for lo, hi in ((0, 1), (nx - 1, nx), (nx // 2, nx // 2 + 1), (3, 9)):
            box = tuple(slice(lo, hi) if b == a else slice(5, 8) for b in range(dim))
            nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
            inside = (slice(None),) + box
            nodes[inside] = rng.random(nodes[inside].shape)
            states[f"axis{a}_{lo}_{hi}"] = nodes
    for name, nodes in states.items():
        expect = _full_slab_sums(nodes)
        assert same_bits(slab_sums(nodes, whole), expect), name
        support = support_box(np.any(nodes, axis=0))
        for box in (occupied_box(nodes), support, grow_box(support, 2, grid.x_shape)):
            assert same_bits(slab_sums(nodes, box), expect), (name, box)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_whole_cell_rows_keep_the_written_box(dim):
    # a stack on a box whose rows shift by whole cells, all of them or
    # some, into a new array and in place: each axis is read on the reach
    # and written on the spread, and a whole-cell row in place is rolled
    # into its own cells of the written box
    grid = _grid(dim)
    dx, vn = grid.dx, grid.vnodes
    aligned = grid.alignment_time()
    mixed = aligned / 3.0  # +-1/3 of a cell for the inner components, +-1 for the outer
    assert np.any(np.abs(mixed * vn / dx) == 1.0) and np.any(np.abs(mixed * vn / dx) < 1.0)
    for name, nodes in _states(grid).items():
        box = occupied_box(nodes)
        for factor in (aligned, -aligned, 2.0 * aligned, mixed, -mixed):
            expect = velocity_offset_stack(nodes, vn, factor, dx)
            assert same_bits(velocity_offset_stack(nodes, vn, factor, dx, box=box),
                             expect), (name, factor)
            in_place = nodes.copy()
            assert velocity_offset_stack(in_place, vn, factor, dx, out=in_place,
                                         box=box) is in_place
            assert same_bits(in_place, expect), (name, factor)
            written = grow_box(box, stack_spread(vn, factor, dx), grid.x_shape)
            assert written_box(box, vn, factor, dx, grid.x_shape) == written
            assert _zero_outside_box(DistributionField(grid, expect, box=written))
        f = DistributionField(grid, nodes.copy())
        assert same_bits(transport_step(f, aligned).nodes,
                         _full_transport(nodes, grid, aligned)), name
        assert same_bits(transport_step(f, aligned, in_place=True).nodes,
                         _full_transport(nodes, grid, aligned)), name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixed_norm_box_path_bit_identical_to_full_sweep(dim):
    grid = _grid(dim)
    for name, nodes in _states(grid).items():
        for p, q in NORM_PAIRS:
            got = compact_mixed_norm(nodes, grid, p, q)
            assert same_bits(got, _full_mixed_norm(nodes, grid, p, q)), (name, p, q)


def test_box_comes_from_f_not_from_its_density(monkeypatch):
    # hv^d * 5e-324 is 0, so the subnormal cells carry no density; a box
    # taken from rho would leave them unmoved, while the full sweep moves
    # them (a whole-cell shift is an exact roll). With no floor they
    # survive the step; the floor flushes them and the rescale keeps each
    # slab's mass
    monkeypatch.setattr(transport, "FLOOR", 0.0)
    grid = build_grid(GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.3))
    nodes = _states(grid)["subnormal"]
    rho = density(DistributionField(grid, nodes)).values
    lone = np.any(nodes, axis=0) & (rho == 0.0)
    assert lone.sum() == 8 and field_mass(density(DistributionField(
        grid, np.where(lone, nodes, 0.0)))) == 0.0
    dt = grid.alignment_time()
    expect = _full_transport(nodes, grid, dt)
    rho_box = (slice(None),) + grow_box(support_box(rho != 0.0),
                                        stack_reach(grid.vnodes, dt, grid.dx), grid.x_shape)
    outside = np.ones(expect.shape, dtype=bool)
    outside[rho_box] = False
    assert np.any(expect[outside] == SUBNORMAL)
    f = DistributionField(grid, nodes)
    assert same_bits(transport_step(f, dt).nodes, expect)
    monkeypatch.undo()
    floored = transport_step(f, dt)
    assert same_bits(floored.nodes, _full_transport(nodes, grid, dt))
    assert not np.any(floored.nodes == SUBNORMAL) and not np.any(floored.nodes[outside])
    assert floored.box == occupied_box(expect - np.where(expect == SUBNORMAL, expect, 0.0))
    np.testing.assert_allclose(slab_sums(floored.nodes, floored.box), slab_sums(nodes, f.box),
                               rtol=1e-14, atol=0.0)


def _random_masks(rng):
    """Masks of every kind of axis: empty, one cell, a run inside the grid,
    one wrapping round the periodic edge, and one covering it exactly."""
    yield "empty", np.zeros((12, 9), dtype=bool)
    one = np.zeros((12, 9, 5), dtype=bool)
    one[3, 8, 0] = True
    yield "one_cell", one
    whole = np.zeros((8, 10), dtype=bool)
    whole[0, 4] = whole[7, 5] = True
    yield "whole_axis", whole
    wrap = np.zeros((16, 7), dtype=bool)
    wrap[[0, 1, 14, 15], 3] = True
    yield "wrapping", wrap
    for i in range(40):
        shape = tuple(rng.integers(1, 20, size=rng.integers(1, 4)))
        yield f"random{i}", rng.random(shape) < rng.choice([0.002, 0.02, 0.2])


def test_grow_box_is_support_box_with_more_margin():
    rng = np.random.default_rng(21)
    for name, mask in _random_masks(rng):
        for m in (0, 1, 3):
            for c in (0, 1, 2, 5, 30):
                box = support_box(mask)
                assert grow_box(box, m + c, mask.shape) == grow_box(
                    grow_box(box, m, mask.shape), c, mask.shape), (name, m, c)


def test_stack_on_box_is_the_whole_stack_on_the_box():
    # a whole box gives the whole stack, a new array; a partial one the
    # whole stack's part on the box, also where its growth wraps on an axis
    for dim, nx in ((1, 64), (2, 32), (3, 16)):
        grid = _grid(dim)
        rng = np.random.default_rng(dim)
        values = rng.random(grid.x_shape)
        for factor in (0.7, -1.3, 2.0):
            full = stack_on_box(values, grid.vnodes, factor, grid.dx, (slice(None),) * dim)
            assert full.shape == (grid.n_vnodes,) + grid.x_shape and full.base is None
            for box in (tuple(slice(nx // 2 - 2, nx // 2 + 1) for _ in range(dim)),
                        (slice(0, 3),) + (slice(5, 9),) * (dim - 1)):
                got = stack_on_box(values, grid.vnodes, factor, grid.dx, box)
                assert same_bits(got, full[(slice(None),) + box]), (dim, factor, box)


def test_states_cover_a_whole_grown_box_and_a_thin_box():
    # the two cases the per-axis regions of a transport step single out
    for dim in (2, 3):
        grid = _grid(dim)
        whole = (slice(None),) * dim
        states = _states(grid)
        reach = stack_reach(grid.vnodes, grid.spec.dt, grid.dx)
        box = occupied_box(states["grown_whole"])
        assert box != whole and grow_box(box, reach, grid.x_shape) == whole
        box = occupied_box(states["thin"])
        assert box != whole and box[0] == slice(grid.spec.nx // 2, grid.spec.nx // 2 + 1)


def _shift_shapes(monkeypatch):
    """Record (input shape, output shape) of every interp.axis_shift call."""
    calls, axis_shift = [], interp.axis_shift

    def recorded(a, *args, **kwargs):
        out = axis_shift(a, *args, **kwargs)
        calls.append((a.shape, out.shape))
        return out

    monkeypatch.setattr(interp, "axis_shift", recorded)
    return calls


def test_each_axis_is_shifted_only_on_the_box_it_reaches(monkeypatch):
    # a transport step shifts axis a reading f's box grown by the reach
    # along axis a and writing it grown by the spread along axes 0..a; a
    # stack on a box reads the box grown by its reach, cuts each axis to
    # the box as it shifts it, and returns a box-shaped array
    grid = _grid(3)
    nx, K, dt = grid.spec.nx, grid.n_vnodes, grid.spec.dt
    nodes = _states(grid)["compact"]
    f = DistributionField(grid, nodes)
    assert f.box == (slice(nx // 2 - 2, nx // 2 + 1),) * 3
    b = 3
    r = b + 2 * stack_reach(grid.vnodes, dt, grid.dx)
    w = b + 2 * stack_spread(grid.vnodes, dt, grid.dx)
    assert w < r
    calls = _shift_shapes(monkeypatch)
    moved = transport_step(f, dt)
    assert calls == [((K, r, b, b), (K, w, b, b)), ((K, w, r, b), (K, w, w, b)),
                     ((K, w, w, r), (K, w, w, w))]
    assert moved.box == (slice(nx // 2 - 2 - (w - b) // 2, nx // 2 + 1 + (w - b) // 2),) * 3
    assert same_bits(moved.nodes, _full_transport(nodes, grid, dt))

    values = np.random.default_rng(3).random(grid.x_shape)
    factor = 0.7
    g = b + 2 * stack_reach(grid.vnodes, factor, grid.dx)
    calls.clear()
    stack = stack_on_box(values, grid.vnodes, factor, grid.dx, f.box)
    rows = [len(np.unique(grid.vnodes[:, :a + 1], axis=0)) for a in range(3)]
    assert calls == [((1, g, g, g), (rows[0], b, g, g)), ((rows[0], b, g, g), (rows[1], b, b, g)),
                     ((rows[1], b, b, g), (rows[2], b, b, b))]
    assert stack.shape == (K, b, b, b) and stack.flags.c_contiguous
    full = stack_on_box(values, grid.vnodes, factor, grid.dx, (slice(None),) * 3)
    assert same_bits(stack, full[(slice(None),) + f.box])


def test_occupied_box_rule():
    # a box of more than one cell and at most BOX_SHARE of the grid, else
    # the whole grid: on one cell, on a larger box, and on an empty state
    grid = _grid(2)
    whole = (slice(None),) * 2
    states = _states(grid)
    assert occupied_box(states["compact"]) == (slice(14, 17),) * 2
    for name in ("one_cell", "large", "full", "empty"):
        assert occupied_box(states[name]) == whole, name
    nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
    nodes[:, 4:20, 4:20] = 1.0  # exactly a quarter of the 32² cells
    assert 16 * 16 == BOX_SHARE * 32 * 32
    assert occupied_box(nodes) == (slice(4, 20),) * 2
    nodes[:, 20, 4] = 1.0
    assert occupied_box(nodes) == whole


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_carries_the_occupied_box(dim):
    # a field made without a box carries occupied_box(f.nodes); density(f),
    # summed on that box or only on another box outside which f is zero,
    # gives the whole-grid bits and keeps the box it summed on
    grid = _grid(dim)
    for name, nodes in _states(grid).items():
        f = DistributionField(grid, nodes)
        rho = density(f)
        assert f.box == occupied_box(nodes), name
        assert same_bits(rho.values, grid.hv ** dim * nodes.sum(axis=0)), name
        for margin in (0, 1, 3):
            part = grow_box(support_box(np.any(nodes, axis=0)), margin, grid.x_shape)
            if part == (slice(None),) * dim or nodes[0][part].size < 2:
                continue
            on_part = DistributionField(grid, nodes, box=part)
            assert same_bits(density(on_part).values, rho.values), name
            assert on_part.box == part, name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_and_the_masses_write_nothing_to_f(dim):
    # density(f), total_mass(f) and boundary_shell_mass(f) read f: its nodes
    # (bit for bit), its box and its time are as they were, with f's
    # occupied box and with that box grown by 2
    grid = _grid(dim)
    for name, nodes in _states(grid).items():
        occupied = occupied_box(nodes)
        for box in (occupied, grow_box(occupied, 2, grid.x_shape)):
            for read in (density, total_mass, boundary_shell_mass):
                before = nodes.copy()
                f = DistributionField(grid, nodes, t=0.5, box=box)
                read(f)
                assert f.nodes is nodes and same_bits(nodes, before), (name, read.__name__)
                assert f.box == box and f.t == 0.5, (name, read.__name__)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fields_are_made_with_their_occupied_box(dim):
    # every way of making a field without a box gives it occupied_box(nodes)
    grid = _grid(dim)
    for name, nodes in _states(grid).items():
        for f in (DistributionField(grid, nodes),
                  field_from_compact(grid, np.moveaxis(nodes, 0, -1))):
            assert f.box == occupied_box(f.nodes) and same_bits(f.nodes, nodes), name
    # a cube's support is a box of part of the grid; a Gaussian's is the whole grid
    for f0, t, partial in ((SeparableData(width=1.0, kind="cube"), 0.0, True),
                           (SeparableData(width=1.0, kind="cube"), 2.0, True),
                           (SeparableData(width=1.0), 0.0, False)):
        f = exact_free_solution(f0, grid, t)
        assert f.box == occupied_box(f.nodes), (f0.kind, t)
        assert (f.box != (slice(None),) * dim) == partial, (f0.kind, t)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_in_place_writers_return_their_input_with_the_written_box_and_time(dim):
    # in place, transport_step and scattering_apply write f's own array and
    # return f, with the box and the time of the new field that the same
    # call not in place returns
    grid = _grid(dim)
    dt = grid.spec.dt
    for name, nodes in _states(grid).items():
        rho, fields = _scatter_fields(grid, nodes)
        f = DistributionField(grid, nodes, t=0.5)
        calls = [lambda g, **kw: transport_step(g, dt, **kw)]
        calls += [lambda g, spec=spec, **kw: scattering_apply(g, spec, fields, SCATTER_DT,
                                                              rho=rho, **kw)
                  for spec in SCATTER_KERNELS]
        for i, call in enumerate(calls):
            new = call(f)
            g = DistributionField(grid, nodes.copy(), t=0.5)
            array = g.nodes
            assert call(g, in_place=True) is g and g.nodes is array, (name, i)
            assert g.box == new.box and g.t == new.t and same_bits(g.nodes, new.nodes), (name, i)
            assert new is not f and same_bits(f.nodes, nodes), (name, i)


def _scatter_fields(grid, nodes):
    """density(f) and the beta = 1 fields that both SCATTER_KERNELS read."""
    rho = density(DistributionField(grid, nodes))
    return rho, solve_field(rho, want=("S", "grad", "hess"))


def _zero_outside_box(f):
    """True when f's nodes are +0.0 outside the box that f carries."""
    outside = np.ones(f.grid.x_shape, dtype=bool)
    outside[f.box] = False
    rest = f.nodes[:, outside]
    return same_bits(rest, np.zeros_like(rest))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_writers_carry_a_box_outside_which_f_is_zero(dim):
    # transport_step and scattering_apply (into a new array or in place)
    # return fields that are +0.0 outside the box they carry: for a
    # transport step, f's occupied box grown by the spread of the shift
    # narrowed to the floor box; for scattering, f's occupied box itself.
    # Each is the result's occupied box, and density keeps it
    grid = _grid(dim)
    dt = grid.spec.dt
    for name, nodes in _states(grid).items():
        occupied = occupied_box(nodes)
        written = grow_box(occupied, stack_spread(grid.vnodes, dt, grid.dx), grid.x_shape)
        expect = _full_transport(nodes, grid, dt)
        assert _zero_outside_box(DistributionField(grid, expect, box=written)), name
        boxes = [occupied_box(expect)] * 2
        boxes += [occupied] * (2 * len(SCATTER_KERNELS))
        f = DistributionField(grid, nodes)
        results = [transport_step(f, dt),
                   transport_step(DistributionField(grid, nodes.copy()), dt,
                                  in_place=True)]
        rho, fields = _scatter_fields(grid, nodes)
        for spec in SCATTER_KERNELS:
            in_place = DistributionField(grid, nodes.copy())
            results += [scattering_apply(f, spec, fields, SCATTER_DT, rho=rho),
                        scattering_apply(in_place, spec, fields, SCATTER_DT, rho=rho,
                                         in_place=True)]
        for i, (g, box) in enumerate(zip(results, boxes)):
            assert g.box == box == occupied_box(g.nodes) and _zero_outside_box(g), (name, i)
            density(g)
            assert g.box == box, (name, i)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_a_field_made_without_a_box_gives_the_bits_of_one_with_a_wider_box(dim):
    # a field made without a box carries f's occupied box, and gives the
    # bits that a field made with a wider box gives; density keeps each box
    grid = _grid(dim)
    dt = grid.spec.dt
    for name, nodes in _states(grid).items():
        occupied = occupied_box(nodes)
        rho, fields = _scatter_fields(grid, nodes)
        box = grow_box(occupied, 2, grid.x_shape)

        def bare():
            return DistributionField(grid, nodes)

        def known():
            return DistributionField(grid, nodes, box=box)

        assert bare().box == occupied, name
        assert same_bits(transport_step(bare(), dt).nodes,
                         transport_step(known(), dt).nodes), name
        f, g = bare(), known()
        assert same_bits(density(f).values, density(g).values), name
        assert f.box == occupied and g.box == box, name
        for spec in SCATTER_KERNELS:
            assert same_bits(scattering_apply(bare(), spec, fields, SCATTER_DT, rho=rho).nodes,
                             scattering_apply(known(), spec, fields, SCATTER_DT,
                                              rho=rho).nodes), (name, spec.family)
        for p, q in NORM_PAIRS:
            spec = NormSpec(p=p, q=q)
            assert same_bits(mixed_norm(bare(), spec), mixed_norm(known(), spec)), (name, p, q)


def _preset(family, dim, beta, nodes=None):
    """A run on the grid, kernel and cube data of an acceptance preset:
    2-D hyp2 (64², K = 208), 3-D hyp3 and hyp1 (32³, K = 32; beta = 0 for
    hyp1), started from `nodes` when given."""
    if dim == 2:
        spec = GridSpec(dim=2, box_half_length=16.0, nx=64, nv=16, dt=0.02)
    else:
        spec = GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.05 if beta else 0.02)
    grid = build_grid(spec)
    f0 = (SeparableData(amplitude=0.5, width=1.0, kind="cube") if nodes is None
          else DistributionField(grid, nodes))
    return Simulation(grid, f0, KernelSpec(family=family, coefficient=0.3), beta=beta)


def _full_step(sim, floor):
    """Simulation.step as whole-array sweeps: the two transport half-steps
    are _full_transport with `floor`, and the density a whole-array node sum."""
    grid, dt = sim.grid, sim.grid.spec.dt
    nodes = _full_transport(sim.f.nodes, grid, dt / 2.0, floor)
    rho = SpatialField(grid, nodes.sum(axis=0) * grid.hv ** grid.dim)
    fields = sim._solve_fields_for(rho)
    f = scattering_apply(DistributionField(grid, nodes), sim.kernel, fields, dt, rho=rho)
    return _full_transport(f.nodes, grid, dt / 2.0, floor)


@pytest.mark.parametrize("family, dim, beta", [("hyp2", 2, 1), ("hyp3", 3, 1), ("hyp1", 3, 0)])
def test_no_floor_gives_the_unfloored_full_sweep(family, dim, beta, monkeypatch):
    # with FLOOR = 0, a half-step and a whole step on the box paths give
    # the bits of the sweeps of the whole array that flush nothing
    monkeypatch.setattr(transport, "FLOOR", 0.0)
    sim = _preset(family, dim, beta)
    half = sim.grid.spec.dt / 2.0
    for _ in range(3):
        got = transport_step(sim.f, half)
        assert same_bits(got.nodes, _full_transport(sim.f.nodes, sim.grid, half, floor=0.0))
        expect = _full_step(sim, floor=0.0)
        sim.step()
        assert same_bits(sim.f.nodes, expect)


def test_flushed_values_are_below_the_floor():
    # every value that a half-step sets to +0.0 is at most FLOOR times the
    # largest value of the shifted state, on the test states and along a
    # 2-D hyp2 preset run, whose shifts leave a tail a cell further out
    # each half-step
    grid = _grid(2)
    cases = [(grid, nodes) for nodes in _states(grid).values()]
    sim = _preset("hyp2", 2, 1)
    for _ in range(6):
        cases.append((sim.grid, sim.f.nodes))
        sim.step()
    flushed_any = False
    for grid, nodes in cases:
        dt = grid.spec.dt / 2.0
        shifted = velocity_offset_stack(nodes, grid.vnodes, dt, grid.dx)
        flushed = (shifted != 0.0) & (transport_step(DistributionField(grid, nodes), dt).nodes
                                      == 0.0)
        if np.any(flushed):
            flushed_any = True
            assert shifted[flushed].max() <= transport.FLOOR * shifted.max()
    assert flushed_any


def test_the_floor_is_relative_to_the_largest_node_sum_over_k():
    # a position whose node sum is twice FLOOR * (the largest node sum) / K
    # keeps its value and one whose sum is half of it is flushed; whole-cell
    # shifts (1 or 3 cells) move both exactly, and the middle of the block
    # keeps a node sum of K
    grid = _grid(1)
    K = grid.n_vnodes
    nodes = np.zeros((K,) + grid.x_shape)
    nodes[:, 28:36] = 1.0
    nodes[0, 50] = 2.0 * transport.FLOOR
    nodes[0, 10] = 0.5 * transport.FLOOR
    dt = grid.alignment_time()
    shifted = velocity_offset_stack(nodes, grid.vnodes, dt, grid.dx)
    got = transport_step(DistributionField(grid, nodes), dt).nodes
    assert np.all(got[shifted == 2.0 * transport.FLOOR] > 0.0)
    assert np.all(got[shifted == 0.5 * transport.FLOOR] == 0.0)
    assert np.count_nonzero(shifted == 0.5 * transport.FLOOR) == 1


def test_a_blob_far_below_the_other_survives_the_floor(monkeypatch):
    # the floor is relative to the largest node sum, so a second blob 1e-10
    # times as large as the first keeps its values, well above the floor,
    # and its mass over 20 steps, inside the box that f carries
    grid = _preset("hyp2", 2, 1).grid
    big, small = (exact_free_solution(SeparableData(amplitude=a, width=1.0, kind="cube",
                                                    center=(c, 0.0)), grid, 0.0).nodes
                  for a, c in ((0.5, -3.0), (0.5e-10, 3.0)))
    right = grid.x > 0.0
    floored, runs = transport.FLOOR, {}
    for floor in (floored, 0.0):
        monkeypatch.setattr(transport, "FLOOR", floor)
        sim = _preset("hyp2", 2, 1, nodes=big + small)
        mass = field_mass(SpatialField(grid, np.where(right[:, None], sim.rho.values, 0.0)))
        sim.run(20)
        assert (sim.f.box != (slice(None),) * 2) == (floor > 0.0)
        inside = np.zeros(grid.x_shape, dtype=bool)
        inside[sim.f.box] = True
        assert np.all(inside[sim.rho.values > 0.0]) and np.any(inside & right[:, None])
        runs[floor] = field_mass(SpatialField(grid, np.where(right[:, None], sim.rho.values,
                                                             0.0)))
        # the per-slab rescale moves 1.5% of the small blob's mass either way
        assert abs(runs[floor] - mass) <= 0.05 * mass
    assert abs(runs[floored] - runs[0.0]) <= 1e-6 * runs[0.0]


def test_an_all_zero_state_still_steps():
    # no node sum exceeds the floor: nothing is flushed, no slab is
    # rescaled, and the state stays +0.0 with the whole grid as its box
    for dim in (1, 2, 3):
        grid = _grid(dim)
        zeros = np.zeros((grid.n_vnodes,) + grid.x_shape)
        for in_place in (False, True):
            f = transport_step(DistributionField(grid, zeros.copy()), grid.spec.dt,
                               in_place=in_place)
            assert same_bits(f.nodes, zeros) and f.box == (slice(None),) * dim
    sim = _preset("hyp3", 3, 1, nodes=np.zeros((32, 32, 32, 32)))
    sim.run(2)
    assert same_bits(sim.f.nodes, np.zeros_like(sim.f.nodes)) and sim.mass0 == 0.0
