import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import node_array, same_bits
from scipy.integrate import quad
from scipy.optimize import nnls

from runtumble.estimator import (CALIB_FRACTION, CERT_SLACK, BootstrapMonitor, DecayFit,
                                 GronwallMonitor, TermTracker, dispersion_decay_fit,
                                 dispersion_inequality_check, singular_weights,
                                 strichartz_quotient)
from runtumble.exponents import theorem3_exponents
from runtumble.freeflow import GaussianBallData
from runtumble.fields import newtonian_potential, split_short_long
import runtumble.grid as grid_module
from runtumble.grid import DistributionField, GridSpec, build_grid, density, grow_box, support_box
from runtumble.interp import stack_on_box, stack_reach, velocity_offset_stack
from runtumble.kernels import KernelSpec
from runtumble.norms import NormSpec, mixed_norm, spatial_norm
from runtumble.simulate import Simulation
from runtumble.transport import SeparableData, exact_free_solution

INF = math.inf


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_singular_weights_match_quadrature():
    lam, dt, n = 2.0 / 3.0, 0.13, 12
    for shift in (0.0, 0.5, 1.0):
        w = singular_weights(lam, dt, n, shift=shift)
        for k in range(1, n + 1):
            ref, _ = quad(lambda s: abs(s - shift) ** (-lam), (k - 1) * dt, k * dt,
                          points=[shift] if (k - 1) * dt < shift < k * dt else None)
            assert w[k - 1] == pytest.approx(ref, rel=1e-8)
    with pytest.raises(ValueError):
        singular_weights(1.0, dt, n)


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_decay_fit_matches_theory():
    data = GaussianBallData(sigma=0.3, R=1.0, d=2)
    fit = dispersion_decay_fit(data, 2.0, 1.0)
    assert isinstance(fit, DecayFit)
    assert fit.relative_deviation <= 0.10
    assert fit.inequality_ok
    with pytest.raises(ValueError):
        dispersion_decay_fit(data, 1.0, 2.0)
    with pytest.raises(ValueError):
        dispersion_decay_fit(data, 2.0, INF)
    with pytest.raises(ValueError):
        dispersion_decay_fit(data, 2.0, 1.0, times=[0.1])


def test_grid_inequality_check_on_smooth_random_fields():
    from scipy.ndimage import gaussian_filter
    grid = build_grid(GridSpec(dim=1, box_half_length=8.0, nx=128, nv=8))
    rng = np.random.default_rng(0)
    mesh = grid.x_mesh()[0]
    envelope = np.exp(-mesh**2 / 2.0)
    for _ in range(10):
        raw = rng.random(grid.x_shape + grid.v_shape)
        smooth = gaussian_filter(raw, sigma=(2.0, 0.0), mode="wrap")
        f = DistributionField(grid, node_array(grid, smooth * envelope[:, None] * grid.vmask))
        out = dispersion_inequality_check(f, INF, 1.0, k_align=1)
        assert out["passed"], out


def test_strichartz_quotient_stabilizes():
    data = GaussianBallData(sigma=0.3, R=1.0, d=3)
    quad_ = theorem3_exponents(1.5)
    rep = strichartz_quotient(data, quad_, t_end=400.0)
    assert rep["stable"]
    assert rep["Q"] > 0
    # the p = q edge is rejected
    from runtumble.exponents import ExponentQuadruple
    with pytest.raises(ValueError):
        strichartz_quotient(data, ExponentQuadruple(INF, 2, 2, 2, 3), t_end=10.0)


# ---------------------------------------------------------------------------
# monitors (small smoke runs; the full presets live in the acceptance suite)
# ---------------------------------------------------------------------------

def _gronwall_sim(n_steps=60):
    grid = build_grid(GridSpec(dim=2, box_half_length=8.0, nx=32, nv=8, dt=0.02))
    f0 = SeparableData(amplitude=1.0, width=1.2, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp2", coefficient=1.0), beta=1)
    mon = GronwallMonitor(p=1.5)
    sim.attach(mon)
    sim.run(n_steps)
    return sim, mon


def test_gronwall_monitor_smoke():
    sim, mon = _gronwall_sim()
    rep = mon.certify()
    assert rep["passed"], rep["records"][-3:]
    assert len(rep["records"]) == sim.step_count + 1
    ca, cb = rep["constants"]
    assert ca >= 0.0 and cb >= 0.0


def test_gronwall_history_integral_from_one_table_equals_per_n_sums():
    # certify takes the weights of every n from one table of the longest
    # run; the certificate built from per-n weights, term by term, is the same
    sim, mon = _gronwall_sim(n_steps=40)
    rep = mon.certify()
    t, lhs, c0 = (np.array(col) for col in zip(*mon.records))
    n_total = len(t) - 1
    I = [0.0]
    for n in range(1, n_total + 1):
        vals = np.array([0.5 * (lhs[n - k] + lhs[n - k + 1]) for k in range(1, n + 1)])
        I.append(float(np.sum(singular_weights(mon.lam, mon.dt, n) * vals)))
    X = np.stack([mon.mass0 * t ** (1.0 - mon.lam) / (1.0 - mon.lam), I], axis=1)
    n_cal = max(1, int(CALIB_FRACTION * n_total))
    excess = lhs - c0
    coef, _ = nnls(X[: n_cal + 1], np.maximum(excess[: n_cal + 1], 0.0))
    pred = X @ coef
    need = [e / p for e, p in zip(excess[1: n_cal + 1], pred[1: n_cal + 1]) if p > 0]
    coef = coef * max([1.0] + need)
    assert rep["constants"] == (float(coef[0]), float(coef[1]))
    assert [r["rhs"] for r in rep["records"]] == list(c0 + (1.0 + CERT_SLACK) * (X @ coef))
    assert coef[1] > 0.0 or coef[0] > 0.0


def test_gronwall_monitor_rejects_wrong_setup():
    grid = build_grid(GridSpec(dim=2, box_half_length=8.0, nx=16, nv=4, dt=0.02))
    sim = Simulation(grid, SeparableData(width=0.8), KernelSpec(family="constant"), beta=1)
    with pytest.raises(ValueError):
        sim.attach(GronwallMonitor(p=1.5))
    with pytest.raises(ValueError):
        GronwallMonitor(p=1.2).start(sim)  # d/p' = 2/6 fine but family wrong anyway
    # p < 1 gives lam < 0 (p = 0.5: lam = -2 in 2-D), a quantity that is not a norm
    for p in (0.5, 0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="exponent"):
            GronwallMonitor(p=p)


def test_term_tracker_validates_exponents():
    with pytest.raises(ValueError):
        TermTracker(p=2.0, q=1.0)  # q = 1 excluded
    with pytest.raises(ValueError):
        TermTracker(p=9.0, q=1.1)  # lam >= 1
    mon = TermTracker(p=9.0 / 5.0, q=9.0 / 7.0)
    assert mon.lam == pytest.approx(2.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("stride", [0, -3, 2.0, 1.5, "4", None])
def test_term_tracker_rejects_a_stride_that_is_not_a_positive_int(stride):
    # stride 0 would divide by zero at the first step, and a negative one
    # would never evaluate
    with pytest.raises(ValueError, match="stride"):
        TermTracker(p=9.0 / 5.0, q=9.0 / 7.0, stride=stride)


def test_bootstrap_monitor_smoke():
    grid = build_grid(GridSpec(dim=3, box_half_length=6.0, nx=16, nv=4, dt=0.05))
    f0 = SeparableData(amplitude=0.1, width=0.8, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp3", coefficient=0.5), beta=1)
    mon = BootstrapMonitor(a=1.5)
    sim.attach(mon)
    sim.run(20)
    rep = mon.report()
    X = rep["X"]
    assert np.all(np.diff(X) >= -1e-12)  # running space-time norm is nondecreasing
    assert rep["X_final"] > 0
    # wrong kernel family rejected
    sim2 = Simulation(grid, f0, KernelSpec(family="constant"), beta=1)
    with pytest.raises(ValueError):
        sim2.attach(BootstrapMonitor(a=1.5))


def test_q1_norms_are_density_norms_bit_for_bit():
    # for f >= 0 the L^p_x L^1_v norm is the L^p norm of the density: the
    # same node weight, the same node-by-node sum order, and an exact power 1,
    # so the CLI's q = 1 columns and the Gronwall C0 may read rho instead of f
    grid = build_grid(GridSpec(dim=2, box_half_length=8.0, nx=32, nv=8, dt=0.02))
    f0 = SeparableData(amplitude=1.0, width=1.2, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp2", coefficient=1.0), beta=1)
    mon = GronwallMonitor(p=1.5)
    sim.attach(mon)
    sim.run(5)
    for p in (1.0, 1.5, 2.0, INF):
        assert spatial_norm(sim.rho.values, grid, p) == mixed_norm(sim.f, NormSpec(p=p, q=1))
    for n in (0, 3):
        t, _, c0 = mon.records[n]
        assert t == pytest.approx(n * grid.spec.dt, rel=1e-12)
        assert c0 == mixed_norm(exact_free_solution(f0, grid, t), NormSpec(p=1.5, q=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gronwall_c0_is_the_norm_of_the_free_solutions_density(dim):
    # after_step takes C0(t) from the free data's block on its box and makes
    # no state: the bits of the L^p norm of the density of
    # exact_free_solution at the run's time. Cube and Gaussian data, widths
    # below one cell (0.3 dx), supports that wrap the periodic edge,
    # amplitude 0, early and late times
    grid = build_grid(GridSpec(dim=dim, box_half_length=6.0, nx=16, nv=4, dt=0.02))
    edge = 6.0 - 0.2 * grid.dx
    mon = GronwallMonitor(p=1.5)
    expect = []
    for kind, width, center, amplitude, t in itertools.product(
            ("cube", "gaussian"), (0.3 * grid.dx, 1.0), (0.0, edge), (0.0, 0.7),
            (0.0, 0.02, 0.5, 3.0, 10.0)):
        f0 = SeparableData(amplitude=amplitude, width=width, kind=kind, center=(center,) * dim)
        rho = density(exact_free_solution(f0, grid, t))
        mon.after_step(SimpleNamespace(grid=grid, rho=rho, f0_descriptor=f0, t=t))
        expect.append((t, spatial_norm(rho.values, grid, 1.5)))
    for (t, lhs, c0), (t_free, norm) in zip(mon.records, expect, strict=True):
        assert t == t_free and same_bits(c0, norm) and same_bits(lhs, norm), t


def _mixed_norm_of_copies(compact, grid, p, q):
    """compact_mixed_norm with a fresh array for |f|**q (the formula before
    the power went in place)."""
    a = np.abs(compact)
    inner = (grid.hv ** grid.dim * np.sum(a**q, axis=-1)) ** (1.0 / q)
    return spatial_norm(inner, grid, p)


def _tracked_hyp1_run(n_steps, stride, nx=16, center=()):
    """A 3-D hyp1 run with a TermTracker, and copies of the inputs of every
    stored step: (f, rho, S, S_short, gradS_short), each field of the
    step's end state."""
    grid = build_grid(GridSpec(dim=3, box_half_length=0.375 * nx, nx=nx, nv=4, dt=0.02))
    f0 = SeparableData(amplitude=0.5, width=1.0, kind="cube", center=center)
    sim = Simulation(grid, f0, KernelSpec(family="hyp1", coefficient=0.2), beta=0)
    mon = TermTracker(p=9.0 / 5.0, q=9.0 / 7.0, stride=stride)

    class Recorder:
        """The inputs of every stored step, copied."""

        def __init__(self):
            self.states = []

        def start(self, sim):
            self.after_step(sim)

        def after_step(self, sim):
            self.states.append((sim.f.nodes.copy(), sim.rho.values.copy(),
                                newtonian_potential(sim.rho).values,
                                split_short_long(sim.rho, order=0)[0].values,
                                split_short_long(sim.rho, order=1)[0].values))

    rec = Recorder()
    sim.attach(rec)
    sim.attach(mon)
    sim.run(n_steps)
    return grid, mon, rec.states


def _tracker_reference(grid, mon, states):
    """H, fnorm and each evaluation's term norms from the full-array formulas
    with fresh arrays: every history summand shifted over the whole grid."""
    vn, dx, dt, w = grid.vnodes, grid.dx, grid.spec.dt, grid.hv**3
    whole = (slice(None),) * 3
    H = [w * np.sum(stack_on_box(S, vn, 1.0, dx, whole) * nodes, axis=0)
         for nodes, _, S, _, _ in states]
    fnorm = [_mixed_norm_of_copies(np.moveaxis(nodes, 0, -1), grid, mon.p, mon.q)
             for nodes, *_ in states]
    norms = []
    for ev in mon.evaluations:
        n = ev["step"]
        f1 = np.zeros((grid.n_vnodes,) + grid.x_shape)
        f2 = np.zeros_like(f1)
        f3 = np.zeros_like(f1)
        for m in range(n):
            s_mid = (m + 0.5) * dt
            _, rho, _, s_short, g_short = states[n - 1 - m]
            w1 = stack_on_box(s_short, vn, -1.0, dx, whole) * rho
            w3 = stack_on_box(g_short, vn, -1.0, dx, whole) * rho
            f1 += dt * velocity_offset_stack(w1, vn, s_mid, dx)
            f3 += dt * velocity_offset_stack(w3, vn, s_mid, dx)
            f2 += dt * stack_on_box(H[n - 1 - m], vn, s_mid, dx, whole)
        norms.append([_mixed_norm_of_copies(np.moveaxis(f, 0, -1), grid, mon.p, mon.q)
                      for f in (f1, f2, f3)])
    return H, fnorm, norms


def test_term_tracker_in_place_sums_bit_identical_to_fresh_arrays():
    grid, mon, states = _tracked_hyp1_run(4, stride=2)
    H, fnorm, norms = _tracker_reference(grid, mon, states)
    assert len(mon.history) == 5 and len(mon.evaluations) == 2
    for (_, _, _, stored_H, _), h in zip(mon.history, H):
        assert np.array_equal(stored_H.view(np.int64), h.view(np.int64))
    assert mon.fnorm == fnorm
    assert [ev["norms"] for ev in mon.evaluations] == norms


def test_term_tracker_H_is_taken_at_the_end_of_each_step():
    # H_n = hv^3 sum_j S_n(x - v_j) f_n(x, v_j) with S_n the Newtonian
    # potential of f_n's own density, not the step's mid-point field
    grid, mon, states = _tracked_hyp1_run(3, stride=3)
    for (nodes, *_), (*_, stored_H, _) in zip(states, mon.history):
        S = newtonian_potential(density(DistributionField(grid, nodes))).values
        stack = stack_on_box(S, grid.vnodes, 1.0, grid.dx, (slice(None),) * 3)
        H = grid.hv**3 * np.sum(stack * nodes, axis=0)
        assert np.array_equal(stored_H.view(np.int64), H.view(np.int64))


def test_term_tracker_on_one_cell_equals_full_grid_sums():
    # f on a single cell, with node values that differ: NumPy would reduce
    # the node axis of a (K, 1, 1, 1) box pairwise, where the whole-grid
    # sums add the K rows one by one, so the tracker takes the whole grid
    grid = build_grid(GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.02))
    f0 = np.zeros((grid.n_vnodes,) + grid.x_shape)
    f0[:, 16, 16, 16] = 0.5 * np.exp(-np.sum(grid.vnodes**2, axis=1) / (2.0 * 0.4**2))
    f0 = DistributionField(grid, f0)
    sim = Simulation(grid, f0, KernelSpec(family="hyp1", coefficient=0.2), beta=0)
    mon = TermTracker(p=9.0 / 5.0, q=9.0 / 7.0)
    sim.attach(mon)
    nodes = sim.f.nodes
    assert np.count_nonzero(np.any(nodes, axis=0)) == 1
    assert len(np.unique(nodes[:, 16, 16, 16])) > 1
    stack = stack_on_box(sim.fields["S"].values, grid.vnodes, 1.0, grid.dx, (slice(None),) * 3)
    H = grid.hv**3 * np.sum(stack * nodes, axis=0)
    assert np.array_equal(mon.history[0][3].view(np.int64), H.view(np.int64))
    a = np.abs(nodes)
    for p, q in ((9 / 5, 9 / 7), (1.5, 1.2), (3, 2)):
        inner = (grid.hv**3 * np.sum(a**q, axis=0)) ** (1.0 / q)
        assert mixed_norm(sim.f, NormSpec(p=p, q=q)) == spatial_norm(inner, grid, p), (p, q)
    assert mon.fnorm == [mixed_norm(sim.f, NormSpec(p=9 / 5, q=9 / 7))]


def test_term_tracker_on_whole_grid_boxes_equals_full_grid_sums(monkeypatch):
    # with BOX_SHARE = 0 every box is the whole grid, while rho's support
    # stays a small part of it: each summand is formed and shifted on the
    # whole grid, and still equals the full-grid sums
    monkeypatch.setattr(grid_module, "BOX_SHARE", 0.0)
    grid, mon, states = _tracked_hyp1_run(4, stride=2)
    whole = (slice(None),) * 3
    assert all(record[4] == whole for record in mon.history)
    assert all(support_box(rho != 0.0) != whole for _, rho, *_ in states)
    H, fnorm, norms = _tracker_reference(grid, mon, states)
    assert all(np.array_equal(stored[3], h) for stored, h in zip(mon.history, H))
    assert mon.fnorm == fnorm
    assert [ev["norms"] for ev in mon.evaluations] == norms


@pytest.mark.parametrize("nx, center, edge", [(16, (-3.0, 1.5, 0.0), True),
                                               (32, (0.75, 0.0, -0.75), False)])
def test_term_tracker_box_sums_equal_full_grid_sums(nx, center, edge):
    # the tracker shifts each history summand, and the fields that it
    # multiplies, only on boxes around its support: on 16^3 a cube off the
    # centre, whose support reaches the rim on the first axis by step 13, so
    # that the last evaluation reads that step's summand on a box that
    # reaches the periodic edge on the first axis (a full-axis fallback
    # there) and not on the last; on 32^3 no box does
    grid, mon, states = _tracked_hyp1_run(14, stride=7, nx=nx, center=center)
    reach = stack_reach(grid.vnodes, grid.spec.dt / 2.0, grid.dx)
    box = grow_box(mon.history[13][4], reach, grid.x_shape)
    assert (box[0] == slice(None)) == edge and box[2] != slice(None)
    H, fnorm, norms = _tracker_reference(grid, mon, states)
    # the box sums leave +0.0 where the full sums may hold -0.0, so the
    # fields compare by value and the norms and integrals bit for bit
    assert all(np.array_equal(stored[3], h) for stored, h in zip(mon.history, H))
    assert mon.fnorm == fnorm
    assert [ev["norms"] for ev in mon.evaluations] == norms
    fn = np.array(fnorm)
    for ev in mon.evaluations:
        n = ev["step"]
        hist = np.array([0.5 * (fn[n - k] + fn[n - k + 1]) for k in range(1, n + 1)])
        shifted = float(np.sum(singular_weights(mon.lam, grid.spec.dt, n, shift=1.0) * hist))
        plain = float(np.sum(singular_weights(mon.lam, grid.spec.dt, n) * hist))
        assert ev["integrals"] == {"shifted": shifted, "plain": plain,
                                   "K": float(grid.spec.dt * np.sum(hist)) + plain + shifted}


def test_bootstrap_fnorm_bit_identical_to_view_formula():
    # the monitor's node-first norms against the formula over the
    # x_shape + (K,) view, on copies of the states it saw
    grid = build_grid(GridSpec(dim=3, box_half_length=6.0, nx=16, nv=4, dt=0.05))
    f0 = SeparableData(amplitude=0.2, width=1.0, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp3", coefficient=0.5), beta=1)
    mon = BootstrapMonitor(a=1.5)
    states = []

    class Recorder:
        def start(self, sim):
            self.after_step(sim)

        def after_step(self, sim):
            states.append(sim.f.nodes.copy())

    sim.attach(Recorder())
    sim.attach(mon)
    sim.run(4)
    expect = [_mixed_norm_of_copies(np.moveaxis(nodes, 0, -1), grid, mon.p, mon.q)
              for nodes in states]
    assert len(mon.fnorm) == 5 and mon.fnorm == expect
