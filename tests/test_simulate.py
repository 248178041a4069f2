import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import runtumble.simulate
from runtumble import transport
from runtumble.estimator import BootstrapMonitor, GronwallMonitor, TermTracker
from runtumble.grid import (DistributionField, GridSpec, build_grid, density, field_mass,
                            grow_box, occupied_box, support_box, total_mass)
from runtumble.interp import stack_spread
from runtumble.kernels import KernelSpec, scattering_apply
from runtumble.simulate import GuardAbort, Simulation
from runtumble.transport import SeparableData, exact_free_solution, transport_step


def make_sim(dim=2, L=8.0, nx=32, nv=8, dt=0.02, family="hyp2", C=0.5, beta=1,
             amplitude=1.0, width=0.8, kind="cube"):
    grid = build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv, dt=dt))
    f0 = SeparableData(amplitude=amplitude, width=width, kind=kind)
    return Simulation(grid, f0, KernelSpec(family=family, coefficient=C), beta=beta)


def test_mass_conserved_over_run():
    sim = make_sim()
    m0 = sim.mass0
    sim.run(25)
    assert abs(total_mass(sim.f) - m0) / m0 < 1e-12
    assert sim.f.values.min() >= 0.0
    assert sim.t == pytest.approx(25 * 0.02, rel=1e-12)


def test_time_is_the_fields_own():
    # a run started from a field at t0 = 0.5 reports f's own time: t0, then
    # t0 + dt added once a step; sim.t is read-only
    grid = build_grid(GridSpec(dim=1, box_half_length=8.0, nx=32, nv=8, dt=0.02))
    f0 = exact_free_solution(SeparableData(width=0.8, kind="cube"), grid, 0.5)
    sim = Simulation(grid, f0, KernelSpec(family="constant", coefficient=0.5))
    t = 0.5
    assert sim.t == sim.f.t == t
    for _ in range(3):
        sim.step()
        t += grid.spec.dt
        assert sim.t == sim.f.t == t
    assert sim.t == pytest.approx(0.5 + 3 * 0.02, rel=1e-12)
    with pytest.raises(AttributeError):
        sim.t = 0.0


def test_beta0_restricted_to_d3():
    with pytest.raises(ValueError):
        make_sim(dim=2, beta=0)
    # hyp2 needs the Hessian, which the beta=0 field solve does not provide
    with pytest.raises(ValueError, match="hess"):
        make_sim(dim=3, L=4.0, nx=8, nv=4, family="hyp2", beta=0)
    sim = make_sim(dim=3, L=4.0, nx=16, nv=4, family="hyp1", C=0.2, beta=0,
                   amplitude=0.3, width=0.6)
    # the Newtonian chemoattractant stays nonnegative for nonnegative rho
    assert sim.fields["S"].values.min() >= -1e-12
    sim.run(5)
    assert abs(total_mass(sim.f) - sim.mass0) / sim.mass0 < 1e-12


def test_monitors_do_not_perturb_the_run():
    sim_plain = make_sim()
    sim_mon = make_sim()

    class Probe:
        def __init__(self):
            self.times = []

        def start(self, sim):
            self.times.append(sim.t)

        def after_step(self, sim):
            self.times.append(sim.t)

    probe = Probe()
    sim_mon.attach(probe)
    sim_plain.run(10)
    sim_mon.run(10)
    assert np.array_equal(sim_plain.f.values, sim_mon.f.values)
    assert len(probe.times) == 11


def test_wrap_guard_aborts_with_valid_time():
    # on a small box the support reaches the rim after some steps: the
    # aborted step leaves the run at the last completed step, whose time
    # the message names, with its state, density and box as they were
    sim = make_sim(L=4.0, nx=16, nv=4, dt=0.05, width=1.0)
    times = []
    with pytest.raises(GuardAbort) as exc:
        for _ in range(100):
            f, nodes, rho, box = sim.f, sim.f.nodes.copy(), sim.rho, sim.f.box
            sim.step()
            times.append(sim.t)
    assert len(times) > 10
    assert exc.value.t_valid == sim.t == times[-1] == f.t
    assert f"after t={sim.t:.6g} " in str(exc.value)
    assert sim.f is f and np.array_equal(f.nodes.view(np.int64), nodes.view(np.int64))
    assert sim.rho is rho and f.box == box and sim.step_count == len(times)


def test_initial_data_in_the_rim_is_rejected():
    # the wrap guard's rule on f0: a cube of half-width 7.9 on [-8, 8)
    # starts with 4.8% of M in the 2-cell rim, which no step may hold, so
    # the run is refused before any state is recorded; 7.0 starts clean
    with pytest.raises(ValueError, match="initial data already reach the box boundary"):
        make_sim(dim=1, nx=64, width=7.9)
    sim = make_sim(dim=1, nx=64, width=7.0)
    assert sim.t == 0.0 and sim.mass0 > 0.0
    # f0 = 0 has no mass to guard
    assert make_sim(dim=1, nx=64, amplitude=0.0, width=7.9).mass0 == 0.0


def test_scattering_guard_becomes_guard_abort():
    # huge kernel coefficient violates dt * sup rate < 1; the aborted step
    # leaves the state, its time and box, and the monitors as they were
    class Probe:
        calls = 0

        def start(self, sim):
            pass

        def after_step(self, sim):
            self.calls += 1

    for family in ("constant", "hyp1", "hyp2", "hyp3"):
        sim = make_sim(family=family, C=1e4)
        probe = Probe()
        sim.attach(probe)
        f, nodes, box = sim.f, sim.f.nodes.copy(), sim.f.box
        with pytest.raises(GuardAbort):
            sim.step()
        assert sim.f is f and np.array_equal(f.nodes.view(np.int64), nodes.view(np.int64))
        assert f.t == 0.0 and f.box == box
        assert sim.t == 0.0 and sim.step_count == 0 and probe.calls == 0


def test_max_stable_dt_is_consistent_with_guard():
    sim = make_sim(family="constant", C=1.0)
    dt_max = sim.max_stable_dt()
    # |V| * C = sup rate for the constant kernel (loss side)
    assert dt_max == pytest.approx(1.0 / sim.grid.velocity_measure, rel=1e-12)


def test_deterministic_reruns_bitwise():
    a = make_sim()
    b = make_sim()
    a.run(8)
    b.run(8)
    assert np.array_equal(a.f.values, b.f.values)


@pytest.mark.parametrize("monitor", ["gronwall", "terms", "bootstrap"])
def test_finished_run_is_freed_without_the_cycle_collector(monitor):
    # monitors keep no reference to their Simulation, so dropping the last
    # reference frees the run and its arrays at once
    if monitor == "gronwall":
        sim, mon = make_sim(nx=16, nv=4), GronwallMonitor(p=1.5)
    elif monitor == "terms":
        sim = make_sim(dim=3, L=4.0, nx=8, nv=4, family="hyp1", C=0.2, beta=0,
                       amplitude=0.3, width=0.6)
        mon = TermTracker(p=9.0 / 5.0, q=9.0 / 7.0)
    else:
        sim = make_sim(dim=3, L=4.0, nx=8, nv=4, family="hyp3", amplitude=0.1, width=0.6)
        mon = BootstrapMonitor(a=1.5)
    gc.collect()
    gc.disable()
    try:
        sim.attach(mon)
        sim.run(2)
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def _reference_step(sim):
    """One step of fresh arrays, composed of public calls, frozen as a
    reference. Each call gets a field made without a box, so each box is
    found by its own reduction of f."""
    dt = sim.grid.spec.dt

    def bare(f):
        return DistributionField(sim.grid, f.nodes, f.t)

    f = transport_step(bare(sim.f), dt / 2.0)
    rho = density(bare(f))
    fields = sim._solve_fields_for(rho)
    f = scattering_apply(bare(f), sim.kernel, fields, dt, rho=rho)
    return transport_step(bare(f), dt / 2.0)


_STEP_KERNELS = [
    KernelSpec(family="constant", coefficient=0.5),
    KernelSpec(family="hyp1", coefficient=0.3),
    KernelSpec(family="hyp2", coefficient=0.5),
    KernelSpec(family="hyp3", coefficient=0.5),
    KernelSpec(family="hyp3", coefficient=0.5, signs=(1, 1, -1, -1)),
]


@pytest.mark.parametrize("dim, L, nx, nv, beta", [(1, 8.0, 32, 8, 1), (2, 8.0, 16, 8, 1),
                                                  (3, 4.0, 8, 4, 1), (3, 4.0, 8, 4, 0)])
def test_step_bit_identical_to_fresh_array_reference(dim, L, nx, nv, beta):
    # the step that writes one new array and works in it has the bits of the
    # step of fresh arrays; the previous state keeps its bytes
    grid = build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv, dt=0.02))
    f0 = SeparableData(amplitude=1.0, width=0.8, kind="cube")
    kernels = [k for k in _STEP_KERNELS if beta == 1 or "hess" not in k.required_fields()]
    for kernel in kernels:
        sim = Simulation(grid, f0, kernel, beta=beta)
        for _ in range(3):
            ref = _reference_step(sim)
            f_prev, prev = sim.f, sim.f.nodes.copy()
            sim.step()
            assert np.array_equal(sim.f.nodes.view(np.int64), ref.nodes.view(np.int64)), kernel
            assert np.array_equal(f_prev.nodes.view(np.int64), prev.view(np.int64))
            assert not np.shares_memory(sim.f.nodes, f_prev.nodes)
            assert sim.f.t == sim.t


@pytest.mark.parametrize("family, dim, beta, bound", [("hyp2", 2, 1, 2.5), ("hyp3", 3, 1, 4.0),
                                                      ("hyp1", 3, 0, 4.0)])
def test_step_allocates_few_state_sizes(family, dim, beta, bound):
    # on the preset grids a steady-state step holds at most `bound` state
    # sizes of new memory at its peak: the new state, the kernel's offset
    # stacks and the work buffers of the shifts
    if dim == 2:
        spec = GridSpec(dim=2, box_half_length=16.0, nx=64, nv=16, dt=0.02)
    else:
        spec = GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.02)
    sim = Simulation(build_grid(spec), SeparableData(amplitude=0.5, width=1.0, kind="cube"),
                     KernelSpec(family=family, coefficient=0.3), beta=beta)
    sim.step()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sim.step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= bound * sim.f.nodes.nbytes


def _check_step_boxes(monkeypatch):
    """Wrap the writers that Simulation.step calls so that each call checks
    the box its field carries: a transport result carries its input's box
    grown by the spread of the shift and narrowed to the floor box, which
    is the result's occupied box, a scattering result its input's box,
    an in-place write returns its input, density leaves f.box as it was,
    f's occupied box, and f is +0.0 outside the box after every call."""
    def zero_outside(f):
        inside = np.zeros(f.grid.x_shape, dtype=bool)
        inside[f.box] = True
        rest = f.nodes[:, ~inside]
        return np.array_equal(rest.view(np.int64), np.zeros_like(rest).view(np.int64))

    def transport(f, dt, in_place=False):
        grid = f.grid
        box = f.box
        g = transport_step(f, dt, in_place=in_place)
        assert (g is f) == in_place
        written = grow_box(box, stack_spread(grid.vnodes, dt, grid.dx), grid.x_shape)
        assert g.box == occupied_box(g.nodes) and zero_outside(g)
        assert zero_outside(DistributionField(grid, g.nodes, box=written))
        return g

    def scatter(f, *args, in_place=False, **kwargs):
        box = f.box
        g = scattering_apply(f, *args, in_place=in_place, **kwargs)
        assert (g is f) == in_place
        assert g.box == box and zero_outside(g)
        return g

    def read(f):
        box = f.box
        rho = density(f)
        assert f.box == box == occupied_box(f.nodes) and zero_outside(f)
        return rho

    monkeypatch.setattr(runtumble.simulate, "transport_step", transport)
    monkeypatch.setattr(runtumble.simulate, "scattering_apply", scatter)
    monkeypatch.setattr(runtumble.simulate, "density", read)


@pytest.mark.parametrize("family, dim, beta", [("hyp2", 2, 1), ("hyp3", 3, 1), ("hyp1", 3, 0)])
def test_carried_box_is_the_occupied_box(family, dim, beta, monkeypatch):
    # on the preset lattices, with the preset's monitor attached, the box
    # that the state carries is f's occupied box after every step, and the
    # step keeps the bits of the step of fresh arrays: with the floor, over
    # 12 steps in which the box stays a part of the grid, then with no
    # floor (FLOOR = 0), through the step at which it becomes the whole
    # grid. Within each step, every writer's result carries the box it
    # should (_check_step_boxes)
    _check_step_boxes(monkeypatch)
    if dim == 2:
        spec = GridSpec(dim=2, box_half_length=16.0, nx=64, nv=16, dt=0.02)
        monitor = GronwallMonitor(p=1.5)
    else:
        spec = GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.05 if beta else 0.02)
        monitor = BootstrapMonitor(a=1.5) if beta else TermTracker(p=9 / 5, q=9 / 7, stride=10)
    grid = build_grid(spec)
    sim = Simulation(grid, SeparableData(amplitude=0.5, width=1.0, kind="cube"),
                     KernelSpec(family=family, coefficient=0.3), beta=beta)
    sim.attach(monitor)
    whole = (slice(None),) * dim
    assert sim.f.box == occupied_box(sim.f.nodes) != whole
    for _ in range(12):
        ref = _reference_step(sim)
        sim.step()
        assert np.array_equal(sim.f.nodes.view(np.int64), ref.nodes.view(np.int64))
        assert sim.f.box == occupied_box(sim.f.nodes) != whole
    monkeypatch.setattr(transport, "FLOOR", 0.0)
    filled = 0
    while filled < 2:
        ref = _reference_step(sim)
        sim.step()
        assert np.array_equal(sim.f.nodes.view(np.int64), ref.nodes.view(np.int64))
        assert sim.f.box == occupied_box(sim.f.nodes)
        filled += sim.f.box == whole
    assert sim.step_count > 3


def test_step_takes_the_box_from_the_unscaled_node_sum(monkeypatch):
    # a few cells hold only subnormal f, whose node sums are subnormal and
    # nonzero, while hv^d times them is 0: rho is 0 there, yet the box that
    # the field is made with and that each transport half-step sets (from
    # the node sum before any hv^d factor) holds them, and a step moves
    # them as the step of fresh arrays does. Each half-step is an exact roll (1 or 3 cells), so with no
    # floor they survive; the floor flushes them, and the mass is kept
    monkeypatch.setattr(transport, "FLOOR", 0.0)
    spec = GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=6.0)
    grid = build_grid(spec)
    assert spec.dt / 2.0 == grid.alignment_time()
    nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
    nodes[:, 14:17, 14:17, 14:17] = 1.0
    nodes[-1, 20:22, 20:22, 20:22] = 5e-324
    sim = Simulation(grid, DistributionField(grid, nodes),
                     KernelSpec(family="constant", coefficient=0.01))
    for _ in range(2):
        lone = np.any(sim.f.nodes, axis=0) & (sim.rho.values == 0.0)
        assert lone.sum() == 8
        assert sim.f.box == occupied_box(sim.f.nodes) != support_box(sim.rho.values != 0.0)
        ref = _reference_step(sim)
        sim.step()
        assert np.array_equal(sim.f.nodes.view(np.int64), ref.nodes.view(np.int64))
    monkeypatch.undo()
    sim = Simulation(grid, DistributionField(grid, nodes),
                     KernelSpec(family="constant", coefficient=0.01))
    sim.step()
    assert not np.any(np.any(sim.f.nodes, axis=0) & (sim.rho.values == 0.0))
    assert sim.f.box == occupied_box(sim.f.nodes) == support_box(sim.rho.values != 0.0)
    assert abs(field_mass(sim.rho) - sim.mass0) <= 1e-15 * sim.mass0
