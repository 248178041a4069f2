import itertools

import numpy as np
import pytest
from conftest import node_array, same_bits

from runtumble.fields import solve_field
from runtumble.grid import DistributionField, GridSpec, SpatialField, build_grid, density
from runtumble.interp import stack_on_box
from runtumble.kernels import (KernelSpec, PositivityError, evaluate_kernel, kernel_components,
                               kernel_mixed_norm, loss_rate, mixed_norm_bound_report,
                               scattering_apply)
from runtumble.norms import spatial_norm


def make_scene(dim=1, L=4.0, nx=16, nv=2, seed=0):
    grid = build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv))
    rng = np.random.default_rng(seed)
    mesh = grid.x_mesh()
    rho_vals = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in mesh))
    fields = solve_field(SpatialField(grid, rho_vals), want=("S", "grad", "hess"))
    f_vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, node_array(grid, f_vals))
    return grid, fields, f, rng


def test_spec_validation():
    KernelSpec(family="hyp3", signs=(1, -1, 1, -1))
    with pytest.raises(ValueError):
        KernelSpec(family="nope")
    with pytest.raises(ValueError):
        KernelSpec(coefficient=-1.0)
    with pytest.raises(ValueError):
        KernelSpec(family="hyp3", signs=(1, 2, 1, -1))
    nan = float("nan")
    for bad in (dict(coefficient=nan), dict(epsilon=nan)):
        with pytest.raises(ValueError):
            KernelSpec(family="hyp1", **bad)


_HYP3_MASKS = [(True, True, True, True), (True, False, True, False), (False, True, False, True),
               (True, True, False, False), (True, False, False, True), (False,) * 4]


def test_required_fields_frozen():
    # the fields each family reads, frozen from the per-family formulas
    assert KernelSpec(family="constant").required_fields() == set()
    assert KernelSpec(family="hyp1").required_fields() == {"S", "grad"}
    assert KernelSpec(family="hyp2").required_fields() == {"S", "grad", "hess"}
    expect = [{"S", "grad"}, {"S", "grad"}, {"S", "grad"}, {"S"}, {"S", "grad"}, set()]
    for active, need in zip(_HYP3_MASKS, expect):
        assert KernelSpec(family="hyp3", active=active).required_fields() == need, active


def test_missing_fields_rejected():
    grid, fields, f, _ = make_scene()
    with pytest.raises(ValueError):
        kernel_components(KernelSpec(family="hyp1"), {"S": fields["S"]}, grid)


def _dense_matrix(A, B, grid):
    """T[x..., j, j'] = A[x..., j] + B[x..., j'] as an explicit array."""
    return A[..., :, None] + B[..., None, :]


# hyp3 with terms along v only (B is None, an x-only loss rate) and along v' only
_HYP3_ONE_SIDED = [(True, False, True, False), (False, True, False, True)]
_FAMILY_CASES = [pytest.param(family, (True,) * 4, id=family)
                 for family in ("constant", "hyp1", "hyp2", "hyp3")] + \
    [pytest.param("hyp3", active, id=f"hyp3-{side}")
     for active, side in zip(_HYP3_ONE_SIDED, ("v-only", "vprime-only"))]


@pytest.mark.parametrize("family, active", _FAMILY_CASES)
def test_scattering_matches_dense_oracle(family, active):
    grid, fields, f, _ = make_scene(nv=2)
    spec = KernelSpec(family=family, coefficient=0.4, epsilon=1.0, active=active)
    A, B = kernel_components(spec, fields, grid)
    T = _dense_matrix(A, B, grid)
    w = grid.hv ** grid.dim
    fm = f.compact()
    gain = w * np.einsum("...jk,...k->...j", T, fm)
    loss = fm * (w * T.sum(axis=-2))
    dt = 0.01
    oracle = fm + dt * (gain - loss)
    out = scattering_apply(f, spec, fields, dt)
    assert np.abs(out.compact() - oracle).max() <= 1e-14 * max(1.0, np.abs(oracle).max())


@pytest.mark.parametrize("family", ["constant", "hyp1", "hyp2", "hyp3"])
def test_scattering_mass_neutral_pointwise(family):
    grid, fields, f, _ = make_scene(dim=2, nx=8, nv=4, seed=3)
    spec = KernelSpec(family=family, coefficient=0.3)
    out = scattering_apply(f, spec, fields, 0.02)
    rho_before = density(f).values
    rho_after = density(out).values
    assert np.abs(rho_after - rho_before).max() <= 1e-12 * max(1.0, rho_before.max())


def test_scattering_positivity_and_dt_guard():
    grid, fields, f, _ = make_scene(nv=4, seed=4)
    spec = KernelSpec(family="hyp2", coefficient=1.0)
    rate = loss_rate(spec, fields, grid)
    dt_ok = 0.5 / float(rate.max())
    out = scattering_apply(f, spec, fields, dt_ok)
    assert out.values.min() >= 0.0
    with pytest.raises(ValueError):
        scattering_apply(f, spec, fields, 2.0 / float(rate.max()))


def test_evaluate_kernel_matches_components_at_nodes():
    # epsilon chosen so every offset eps * v lands on grid nodes
    grid, fields, f, _ = make_scene(dim=1, L=4.0, nx=16, nv=2, seed=5)
    eps = grid.dx / grid.hv * 2.0  # eps * v_j is a whole number of cells
    for family in ("constant", "hyp1", "hyp2", "hyp3"):
        spec = KernelSpec(family=family, coefficient=0.7, epsilon=eps)
        A, B = kernel_components(spec, fields, grid)
        T = _dense_matrix(A, B, grid)
        for i in (0, 5, 11):
            for j in range(grid.n_vnodes):
                for jp in range(grid.n_vnodes):
                    val = evaluate_kernel(spec, fields, grid, [grid.x[i]],
                                          grid.vnodes[j], grid.vnodes[jp])
                    assert val == pytest.approx(T[i, j, jp], abs=1e-12)


def _hyp3_reference(spec, fields, grid):
    """hyp3 components term by term, frozen as a reference: four offset
    stacks added into zeros, then the coefficient."""
    shape = (grid.n_vnodes,) + grid.x_shape
    Sabs = np.abs(fields["S"].values)
    gmag = np.sqrt(sum(g.values**2 for g in fields["grad"]))
    A, B = np.zeros(shape), np.zeros(shape)
    for i, (values, part) in enumerate(((Sabs, A), (Sabs, B), (gmag, A), (gmag, B))):
        if spec.active[i]:
            part += stack_on_box(values, grid.vnodes, -spec.signs[i] * spec.epsilon,
                                 grid.dx, (slice(None),) * grid.dim)
    A, B = spec.coefficient * A, spec.coefficient * B
    return np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1)


def _hyp3_scene(dim, nx, r_max, seed=0):
    grid = build_grid(GridSpec(dim=dim, box_half_length=4.0, nx=nx, nv=4, r_max=r_max))
    rng = np.random.default_rng(seed)
    rho = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in grid.x_mesh()))
    return grid, solve_field(SpatialField(grid, rho), want=("S", "grad"))


@pytest.mark.parametrize("dim, nx, r_max", [(1, 16, 1.0), (2, 8, 1.0), (3, 8, 1.0),
                                            (2, 8, 0.3)])  # the last has no vreflect
def test_hyp3_components_bit_identical_to_term_by_term_formula(dim, nx, r_max):
    grid, fields = _hyp3_scene(dim, nx, r_max, seed=dim)
    assert (grid.vreflect is None) == (r_max == 0.3)
    for signs in itertools.product((1, -1), repeat=4):
        for active in _HYP3_MASKS:
            for eps in (1.3, 4.0):  # eps = 4: whole cells
                spec = KernelSpec(family="hyp3", coefficient=0.7, epsilon=eps, signs=signs,
                                  active=active)
                got = kernel_components(spec, fields, grid)
                ref = _hyp3_reference(spec, fields, grid)
                assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1]), spec


def _hyp12_reference(spec, fields, grid):
    """hyp1 and hyp2 components, frozen as a reference: C * (1.0 + stack)
    and C * stack from fresh temporaries."""
    C = spec.coefficient

    def stack(values, sign):
        return stack_on_box(values, grid.vnodes, -sign * spec.epsilon, grid.dx,
                            (slice(None),) * grid.dim)

    S = fields["S"].values
    if spec.family == "hyp1":
        gmag = np.sqrt(sum(g.values**2 for g in fields["grad"]))
        A, B = C * (1.0 + stack(S + gmag, +1)), C * stack(S, -1)
    else:
        w = np.abs(S)
        for g in fields["grad"]:
            w = w + np.abs(g.values)
        for row in fields["hess"]:
            for h in row:
                w = w + np.abs(h.values)
        A, B = C * (1.0 + stack(w, +1)), np.zeros((grid.n_vnodes,) + grid.x_shape)
    return np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1)


@pytest.mark.parametrize("family", ["hyp1", "hyp2"])
@pytest.mark.parametrize("dim, nx", [(1, 16), (2, 8), (3, 8)])
def test_hyp1_hyp2_components_bit_identical_to_fresh_formula(family, dim, nx):
    grid = build_grid(GridSpec(dim=dim, box_half_length=4.0, nx=nx, nv=4))
    rng = np.random.default_rng(dim)
    rho = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in grid.x_mesh()))
    fields = solve_field(SpatialField(grid, rho), want=("S", "grad", "hess"))
    for eps in (1.3, 4.0):  # eps = 4: whole cells
        spec = KernelSpec(family=family, coefficient=0.7, epsilon=eps)
        got = kernel_components(spec, fields, grid)
        ref = _hyp12_reference(spec, fields, grid)
        assert same_bits(got[0], ref[0]) and same_bits(got[1], ref[1]), spec


def test_hyp3_mirrored_b_is_a_view_of_a(monkeypatch):
    # with the default signs B's terms mirror A's: two offset stacks instead
    # of four, where the grid pairs each velocity node with its mirror
    import runtumble.kernels as kernels
    calls, stack_on_box = [], kernels.stack_on_box

    def counted(*args, **kwargs):
        calls.append(args)
        return stack_on_box(*args, **kwargs)

    monkeypatch.setattr(kernels, "stack_on_box", counted)
    spec = KernelSpec(family="hyp3", coefficient=0.5)
    for r_max, stacks in ((1.0, 2), (0.3, 4)):
        grid, fields = _hyp3_scene(2, 8, r_max)
        calls.clear()
        A, B = kernel_components(spec, fields, grid)
        assert len(calls) == stacks
    grid, fields = _hyp3_scene(2, 8, 1.0)
    A, B = kernel_components(spec, fields, grid)
    assert same_bits(B, A[..., grid.vreflect])
    assert np.shares_memory(A, B) and not A.flags.writeable and not B.flags.writeable


def test_mixed_norm_rejects_bad_exponent_order():
    grid, fields, f, _ = make_scene()
    spec = KernelSpec(family="hyp3")
    with pytest.raises(ValueError):
        kernel_mixed_norm(spec, fields, grid, 1.5, 2.0, 1.0)


def test_mixed_norm_constant_kernel_analytic():
    grid, fields, f, _ = make_scene(dim=1, L=2.0, nx=16, nv=4)
    spec = KernelSpec(family="constant", coefficient=0.9)
    got = kernel_mixed_norm(spec, fields, grid, 2.0, 1.0, 1.0)
    expect = 0.9 * grid.velocity_measure**2 * (2 * grid.spec.box_half_length) ** 0.5
    assert got == pytest.approx(expect, rel=1e-12)


def test_mixed_norm_bound_report():
    grid, fields, f, _ = make_scene(dim=2, nx=16, nv=4, seed=7)
    spec = KernelSpec(family="hyp3", coefficient=0.5)
    rep = mixed_norm_bound_report(spec, fields, grid, 4.5, 1.8, 4.5)
    assert rep["passed"] and rep["ratio"] <= 1.05
    with pytest.raises(ValueError):
        mixed_norm_bound_report(KernelSpec(family="hyp1"), fields, grid, 4.5, 1.8, 4.5)


def _scatter_reference(f, spec, fields, dt):
    """The scattering update from fresh temporaries, frozen as a reference:
    rate = vm * B + w * sum A, gain = A * rho + w * sum B f, then
    (1 - dt * rate) * f + dt * gain."""
    grid = f.grid
    A, B = (np.moveaxis(c, -1, 0) for c in kernel_components(spec, fields, grid))
    w = grid.hv ** grid.dim
    rate = grid.velocity_measure * B
    rate = rate + w * A.sum(axis=0)
    gain = A * density(f).values
    gain = gain + w * np.einsum("k...,k...->...", B, f.nodes)
    return (1.0 - rate * dt) * f.nodes + gain * dt


_SCATTER_SPECS = [
    KernelSpec(family="constant", coefficient=0.4),
    KernelSpec(family="hyp1", coefficient=0.4, epsilon=1.3),
    KernelSpec(family="hyp2", coefficient=0.4, epsilon=1.3),
    KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3),
    KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3, active=(True, True, False, False)),
    KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3, signs=(1, 1, 1, 1)),
    KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3, signs=(1, 1, -1, 1),
               active=(True, False, True, True)),
]


@pytest.mark.parametrize("dim, nx, nv, r_max", [(1, 16, 4, 1.0), (2, 8, 4, 1.0), (3, 8, 4, 1.0),
                                                (2, 8, 4, 0.3)])  # the last has no vreflect
def test_scattering_bit_identical_to_fresh_temporaries(dim, nx, nv, r_max):
    # the update formed in the components' own arrays, into a new array or
    # into the state itself, has the bits of the formula on fresh temporaries;
    # not in place, the state is left as it is
    grid = build_grid(GridSpec(dim=dim, box_half_length=4.0, nx=nx, nv=nv, r_max=r_max))
    rng = np.random.default_rng(dim)
    rho = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in grid.x_mesh()))
    fields = solve_field(SpatialField(grid, rho), want=("S", "grad", "hess"))
    nodes = rng.random((grid.n_vnodes,) + grid.x_shape)
    f = DistributionField(grid, nodes, t=0.25)
    before = nodes.copy()
    for spec in _SCATTER_SPECS:
        ref = _scatter_reference(f, spec, fields, 0.02)
        fresh = scattering_apply(f, spec, fields, 0.02)
        assert same_bits(fresh.nodes, ref) and fresh.t == f.t, spec
        assert same_bits(f.nodes, before) and not np.shares_memory(fresh.nodes, nodes)
        g = DistributionField(grid, nodes.copy(), t=0.25)
        inplace = scattering_apply(g, spec, fields, 0.02, rho=density(g), in_place=True)
        assert inplace is g and same_bits(g.nodes, ref), spec


def test_scattering_guard_runs_before_any_write():
    # a refused in-place update leaves f's nodes, time and box as they were,
    # on the whole grid and on a box of part of it
    for grid, fields, f in (make_scene(dim=2, nx=8, nv=4, seed=8)[:3],
                            _compact_scene(2, 16, seed=8)):
        before, t, box = f.nodes.copy(), f.t, f.box
        for family in ("constant", "hyp1", "hyp2", "hyp3"):
            spec = KernelSpec(family=family, coefficient=1e4)
            with pytest.raises(ValueError, match="positivity"):
                scattering_apply(f, spec, fields, 0.02, in_place=True)
            assert same_bits(f.nodes, before) and f.t == t and f.box == box


def test_nan_rate_fails_the_positivity_guard():
    # dt * NaN < 1 is false: a NaN rate aborts the step instead of writing NaN
    grid, fields, f, _ = make_scene(dim=2, nx=8, nv=4, seed=8)
    S = fields["S"].values.copy()
    S[0, 0] = np.nan
    bad = dict(fields, S=SpatialField(grid, S))
    before = f.nodes.copy()
    with pytest.raises(PositivityError):
        scattering_apply(f, KernelSpec(family="hyp2", coefficient=0.1), bad, 0.02, in_place=True)
    assert same_bits(f.nodes, before)


def test_loss_rate_of_kernels_without_a_v_prime_part():
    # for the constant and hyp2 kernels, and hyp3 with terms along v only,
    # the rate does not depend on v: an x-only field, broadcast over the
    # nodes (its bits are checked below)
    grid, fields, f, _ = make_scene(dim=2, nx=8, nv=4, seed=9)
    for family, active in (("constant", (True,) * 4), ("hyp2", (True,) * 4),
                           ("hyp3", _HYP3_ONE_SIDED[0])):
        spec = KernelSpec(family=family, coefficient=0.6, active=active)
        rate = loss_rate(spec, fields, grid)
        assert rate.shape == (grid.n_vnodes,) + grid.x_shape and rate.strides[0] == 0
    rate = loss_rate(KernelSpec(family="hyp3", coefficient=0.6, active=_HYP3_ONE_SIDED[1]),
                     fields, grid)
    assert rate.strides[0] != 0


@pytest.mark.parametrize("family, active", _FAMILY_CASES)
def test_loss_rate_is_node_first_and_read_only(family, active):
    # the rate vm * B + w * sum_j A over the node-first components, with the
    # bits of that formula on fresh temporaries (vm * 0 + sum A without a v'-part)
    grid, fields, f, _ = make_scene(dim=2, nx=8, nv=4, seed=10)
    spec = KernelSpec(family=family, coefficient=0.6, epsilon=1.3, active=active)
    rate = loss_rate(spec, fields, grid)
    A, B = (np.moveaxis(c, -1, 0) for c in kernel_components(spec, fields, grid))
    expect = grid.velocity_measure * B + grid.hv ** grid.dim * A.sum(axis=0)
    assert rate.shape == (grid.n_vnodes,) + grid.x_shape and not rate.flags.writeable
    assert same_bits(rate, expect)


def _view_kernel_mixed_norm(spec, fields, grid, p1, p2, p3):
    """kernel_mixed_norm through the x_shape + (K,) components moved back to
    node-first rows: the formula before the kernel norm went node-first."""
    inf = np.inf
    K = grid.n_vnodes
    A, B = (np.moveaxis(c, -1, 0).reshape(K, -1) for c in kernel_components(spec, fields, grid))
    w = grid.hv ** grid.dim
    mid = np.zeros(A.shape[1])
    for j in range(K):
        T = np.abs(A[j] + B)
        if p3 == inf:
            inner = T.max(axis=0)
        else:
            inner = (w * np.sum(T**p3, axis=0)) ** (1.0 / p3)
        if p2 == inf:
            mid = np.maximum(mid, inner)
        else:
            mid += w * inner**p2
    if p2 != inf:
        mid = mid ** (1.0 / p2)
    return spatial_norm(mid.reshape(grid.x_shape), grid, p1)


@pytest.mark.parametrize("family", ["constant", "hyp1", "hyp2", "hyp3"])
def test_kernel_mixed_norm_bit_identical_to_view_formula(family):
    grid, fields, f, _ = make_scene(dim=2, nx=8, nv=4, seed=11)
    spec = KernelSpec(family=family, coefficient=0.6, epsilon=1.3)
    for p1, p2, p3 in ((4.5, 1.8, 4.5), (2.0, 1.0, 1.0), (np.inf, 2.0, np.inf),
                       (np.inf, np.inf, np.inf)):
        got = kernel_mixed_norm(spec, fields, grid, p1, p2, p3)
        expect = _view_kernel_mixed_norm(spec, fields, grid, p1, p2, p3)
        assert same_bits(got, expect), (p1, p2, p3)


# ---------------------------------------------------------------------------
# scattering on the box of f's support
# ---------------------------------------------------------------------------

def _compact_scene(dim, nx, r_max=1.0, seed=0):
    """Fields from a smooth density, and a state that is +0.0 outside a
    cube of three cells a side off the centre (a box of part of the grid)."""
    grid = build_grid(GridSpec(dim=dim, box_half_length=4.0, nx=nx, nv=4, r_max=r_max))
    rng = np.random.default_rng(seed)
    rho = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in grid.x_mesh()))
    fields = solve_field(SpatialField(grid, rho), want=("S", "grad", "hess"))
    nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
    cube = (slice(None),) + (slice(nx // 2 - 1, nx // 2 + 2),) * dim
    nodes[cube] = rng.random(nodes[cube].shape)
    return grid, fields, DistributionField(grid, nodes, t=0.5)


def _box_spy(monkeypatch):
    """A list that records, per _components call, whether it built on a box
    smaller than the whole grid."""
    import runtumble.kernels as kernels
    components, on_box = kernels._components, []

    def spy(spec, inputs, grid, box=None):
        on_box.append(box not in (None, (slice(None),) * grid.dim))
        return components(spec, inputs, grid, box)

    monkeypatch.setattr(kernels, "_components", spy)
    return on_box


def _full_path(monkeypatch, f, spec, fields, dt, **kwargs):
    """scattering_apply with the stack-free bound failing: the whole-grid path."""
    import runtumble.kernels as kernels
    with monkeypatch.context() as m:
        m.setattr(kernels, "_rate_bound", lambda *args: np.inf)
        return scattering_apply(f, spec, fields, dt, **kwargs)


_BOX_SPECS = [KernelSpec(family=family, coefficient=0.4, epsilon=1.3)
              for family in ("constant", "hyp1", "hyp2")] + \
    [KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3, signs=signs, active=active)
     for signs in itertools.product((1, -1), repeat=4) for active in _HYP3_MASKS]


@pytest.mark.parametrize("dim, nx, r_max", [(1, 32, 1.0), (2, 16, 1.0), (3, 8, 1.0),
                                            (2, 16, 0.3)])  # the last has no vreflect
def test_scattering_box_path_bit_identical_to_full_path(monkeypatch, dim, nx, r_max):
    # the update on the box of f's support, into a new array and into the
    # state itself, has the bits of the whole-grid update; the box is f's
    # own, also where a subnormal f carries no density
    grid, fields, f = _compact_scene(dim, nx, r_max, seed=dim)
    assert (grid.vreflect is None) == (r_max == 0.3)
    subnormal = f.nodes.copy()
    subnormal[(-1,) + (nx // 2 + 3,) * dim] = 5e-324
    assert grid.hv ** dim * 5e-324 == 0.0
    on_box = _box_spy(monkeypatch)
    for nodes in (f.nodes, subnormal):
        f = DistributionField(grid, nodes, t=0.5)
        before = nodes.copy()
        for spec in _BOX_SPECS:
            expect = _full_path(monkeypatch, f, spec, fields, 0.02).nodes
            on_box.clear()
            fresh = scattering_apply(f, spec, fields, 0.02)
            assert on_box == [True] and same_bits(fresh.nodes, expect), spec
            assert fresh.t == f.t and same_bits(f.nodes, before)
            g = DistributionField(grid, nodes.copy(), t=f.t)
            inplace = scattering_apply(g, spec, fields, 0.02, rho=density(g), in_place=True)
            assert inplace is g and same_bits(g.nodes, expect), spec


def test_scattering_on_a_whole_grid_or_one_cell_box_takes_the_full_path(monkeypatch):
    # a support from the first cell to the last is the whole grid; on one
    # cell NumPy would add the K = 208 terms of the rate pairwise instead of
    # row by row, which can change its last bit, so neither takes the box
    # path, and two cells do
    grid = build_grid(GridSpec(dim=2, box_half_length=4.0, nx=16, nv=16))
    assert grid.n_vnodes == 208
    rng = np.random.default_rng(12)
    rho = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in grid.x_mesh()))
    fields = solve_field(SpatialField(grid, rho), want=("S", "grad"))
    on_box = _box_spy(monkeypatch)
    for cells, box_path in ((((0, 0), (15, 15)), False), (((8, 8),), False),
                            (((8, 8), (8, 9)), True)):
        nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
        for cell in cells:
            nodes[(slice(None),) + cell] = rng.random(grid.n_vnodes)
        f = DistributionField(grid, nodes)
        for family in ("hyp1", "hyp3"):
            spec = KernelSpec(family=family, coefficient=0.4, epsilon=1.3)
            expect = _full_path(monkeypatch, f, spec, fields, 0.02).nodes
            on_box.clear()
            assert same_bits(scattering_apply(f, spec, fields, 0.02).nodes, expect), cells
            assert on_box == [box_path]


def test_scattering_on_a_box_over_a_quarter_of_the_grid_takes_the_full_path(monkeypatch):
    # on a large box the arithmetic on strided views costs more than the
    # box's stacks save: 64 of 256 cells take the box path, 72 do not
    grid, fields, _ = _compact_scene(2, 16)
    rng = np.random.default_rng(13)
    on_box = _box_spy(monkeypatch)
    spec = KernelSpec(family="hyp1", coefficient=0.4, epsilon=1.3)
    for rows, box_path in ((8, True), (9, False)):
        nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
        nodes[:, 4:4 + rows, 4:12] = rng.random((grid.n_vnodes, rows, 8))
        f = DistributionField(grid, nodes)
        expect = _full_path(monkeypatch, f, spec, fields, 0.02).nodes
        on_box.clear()
        assert same_bits(scattering_apply(f, spec, fields, 0.02).nodes, expect)
        assert on_box == [box_path]


def test_scattering_bound_covers_the_exact_rate():
    # dt * bound < 1 must imply dt * sup rate < 1: the bound is never below
    # the rate's maximum, and on these fields within a factor of two of it
    from runtumble.kernels import _inputs, _rate_bound
    for dim, nx in ((1, 32), (2, 16), (3, 8)):
        grid, fields, _ = _compact_scene(dim, nx, seed=dim)
        for spec in _BOX_SPECS:
            exact = float(loss_rate(spec, fields, grid).max())
            bound = _rate_bound(spec, _inputs(spec, fields), grid)
            assert exact <= bound <= 2.0 * exact + 1e-300, spec


def test_scattering_bound_fails_but_exact_guard_passes(monkeypatch):
    # a dt between 1 / bound and 1 / sup rate: the bound does not clear, the
    # whole-grid path runs and its exact guard passes
    from runtumble.kernels import _inputs, _rate_bound
    grid, fields, f = _compact_scene(3, 8, seed=3)
    spec = KernelSpec(family="hyp1", coefficient=0.4, epsilon=1.3)
    exact = float(loss_rate(spec, fields, grid).max())
    bound = _rate_bound(spec, _inputs(spec, fields), grid)
    dt = 2.0 / (exact + bound)
    assert dt * bound >= 1.0 > dt * exact
    expect = _full_path(monkeypatch, f, spec, fields, dt).nodes
    on_box = _box_spy(monkeypatch)
    got = scattering_apply(f, spec, fields, dt)
    assert on_box == [False] and same_bits(got.nodes, expect)
    assert got.nodes.min() >= 0.0


def test_scattering_exact_guard_message_unchanged(monkeypatch):
    # past the exact threshold the whole-grid guard raises the message it
    # always has, and writes nothing
    grid, fields, f = _compact_scene(2, 16, seed=4)
    before = f.nodes.copy()
    for spec in (KernelSpec(family="hyp1", coefficient=0.4, epsilon=1.3),
                 KernelSpec(family="hyp3", coefficient=0.4, epsilon=1.3)):
        max_rate = float(loss_rate(spec, fields, grid).max())
        dt = 1.5 / max_rate
        message = (f"scattering dt={dt} violates the positivity threshold: "
                   f"dt * sup rate = {dt * max_rate:.3e}, not < 1")
        with pytest.raises(PositivityError) as exc:
            scattering_apply(f, spec, fields, dt, in_place=True)
        assert str(exc.value) == message
        assert same_bits(f.nodes, before)


def test_nan_field_fails_the_guard_on_a_compact_state(monkeypatch):
    # a NaN input makes the bound NaN, which never clears: the whole-grid
    # path runs and its guard fails closed, also for a NaN outside f's box
    grid, fields, f = _compact_scene(2, 16, seed=5)
    before = f.nodes.copy()
    on_box = _box_spy(monkeypatch)
    for cell in ((0, 0), (8, 8)):
        S = fields["S"].values.copy()
        S[cell] = np.nan
        bad = dict(fields, S=SpatialField(grid, S))
        for family in ("hyp1", "hyp2", "hyp3"):
            on_box.clear()
            with pytest.raises(PositivityError):
                scattering_apply(f, KernelSpec(family=family, coefficient=0.1), bad, 0.02,
                                 in_place=True)
            assert on_box == [False] and same_bits(f.nodes, before)
