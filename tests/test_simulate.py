import gc
import weakref

import numpy as np
import pytest

from runtumble.estimator import BootstrapMonitor, GronwallMonitor, TermTracker
from runtumble.grid import GridSpec, build_grid, total_mass
from runtumble.kernels import KernelSpec
from runtumble.simulate import GuardAbort, Simulation
from runtumble.transport import SeparableData


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
    # data touching the box rim trips the boundary-shell guard immediately
    sim = make_sim(L=4.0, nx=16, nv=8, width=3.9, kind="cube")
    with pytest.raises(GuardAbort) as exc:
        sim.run(50)
    assert exc.value.t_valid <= 50 * 0.02


def test_scattering_guard_becomes_guard_abort():
    # huge kernel coefficient violates dt * sup rate < 1
    sim = make_sim(family="constant", C=1e4)
    with pytest.raises(GuardAbort):
        sim.step()


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
