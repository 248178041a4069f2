"""End-to-end acceptance suite.

Each numbered test exercises one acceptance criterion at full preset scale
and registers a single pass/fail verdict line, printed in the terminal
summary after the run (see conftest.py), so the verdicts remain visible
under pytest's output capture.
"""

import math
import time
from fractions import Fraction

import conftest
import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from runtumble.cli import EXIT_OK, main
from runtumble.estimator import (BootstrapMonitor, GronwallMonitor, TermTracker,
                                 dispersion_decay_fit, dispersion_inequality_check)
from runtumble.exponents import (ExponentQuadruple, admissible_region, conjugate,
                                 numerology_delta, region_member, solve_numerology,
                                 strichartz_admissible, theorem3_exponents)
from runtumble.fields import (bessel_potential_norms, newtonian_potential, solve_field,
                              split_short_long)
from runtumble.freeflow import GaussianBallData
from runtumble.grid import (DistributionField, GridSpec, SpatialField, build_grid,
                            density, field_mass)
from runtumble.kernels import (KernelSpec, kernel_components, mixed_norm_bound_report,
                               scattering_apply)
from runtumble.simulate import Simulation
from runtumble.transport import SeparableData

INF = math.inf
F = Fraction


def report(num, name, ok):
    line = f"[criterion {num:02d}] {name}: {'pass' if ok else 'FAIL'}"
    print(line)
    conftest.VERDICTS.append(line)
    return ok


def run_with_trace(sim, n_steps, monitors=()):
    """Run a simulation recording mass and minimum per step."""
    for mon in monitors:
        sim.attach(mon)
    trace = {"mass": [sim.mass0], "min_f": [sim.f.extrema()[0]]}
    for _ in range(n_steps):
        sim.step()
        trace["mass"].append(field_mass(sim.rho))
        trace["min_f"].append(sim.f.extrema()[0])
    return trace


# ---------------------------------------------------------------------------
# heavy presets, each run once per session
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mass_run():
    grid = build_grid(GridSpec(dim=2, box_half_length=16.0, nx=64, nv=16, dt=0.01))
    f0 = SeparableData(amplitude=1.0, width=1.0, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp2", coefficient=0.5), beta=1)
    t0 = time.monotonic()
    trace = run_with_trace(sim, 1000)
    trace["elapsed"] = time.monotonic() - t0
    return trace


@pytest.fixture(scope="module")
def gronwall_run():
    grid = build_grid(GridSpec(dim=2, box_half_length=16.0, nx=64, nv=16, dt=0.02))
    f0 = SeparableData(amplitude=1.0, width=1.0, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp2", coefficient=0.5), beta=1)
    mon = GronwallMonitor(p=1.5)
    t0 = time.monotonic()
    trace = run_with_trace(sim, 500, monitors=[mon])
    trace["elapsed"] = time.monotonic() - t0
    trace["report"] = mon.certify()
    return trace


@pytest.fixture(scope="module")
def term_run():
    grid = build_grid(GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.02))
    f0 = SeparableData(amplitude=0.5, width=1.0, kind="cube")
    sim = Simulation(grid, f0, KernelSpec(family="hyp1", coefficient=0.2), beta=0)
    mon = TermTracker(p=9.0 / 5.0, q=9.0 / 7.0, stride=25)
    t0 = time.monotonic()
    trace = run_with_trace(sim, 100, monitors=[mon])
    trace["elapsed"] = time.monotonic() - t0
    trace["report"] = mon.certify()
    return trace


@pytest.fixture(scope="module")
def bootstrap_runs():
    out = {"min_f": [], "reports": {}}
    t0 = time.monotonic()
    for amp in (0.05, 0.2, 0.8):
        grid = build_grid(GridSpec(dim=3, box_half_length=12.0, nx=32, nv=4, dt=0.05))
        f0 = SeparableData(amplitude=amp, width=1.0, kind="cube")
        sim = Simulation(grid, f0, KernelSpec(family="hyp3", coefficient=0.5), beta=1)
        mon = BootstrapMonitor(a=F(3, 2))
        trace = run_with_trace(sim, 100, monitors=[mon])
        out["min_f"].extend(trace["min_f"])
        out["reports"][amp] = mon.report()
    out["elapsed"] = time.monotonic() - t0
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_mass_conservation(mass_run):
    mass = np.asarray(mass_run["mass"])
    drift = np.abs(mass - mass[0]).max() / mass[0]
    ok = drift <= 1e-8
    assert report(1, f"mass conservation over 1000 steps (drift {drift:.2e})", ok)


def test_criterion_02_dispersion_decay():
    # log-log decay fits against the radial-quadrature norms
    fits_ok = True
    for d, p, q in ((1, INF, 1.0), (2, 2.0, 1.0), (3, 9 / 5, 9 / 7)):
        fit = dispersion_decay_fit(GaussianBallData(sigma=0.3, R=1.0, d=d), p, q)
        fits_ok = fits_ok and fit.relative_deviation <= 0.10 and fit.inequality_ok

    # pointwise inequality at exact-shift times over randomized fields
    grid = build_grid(GridSpec(dim=1, box_half_length=8.0, nx=128, nv=8))
    envelope = np.exp(-grid.x_mesh()[0] ** 2 / 2.0)
    rng = np.random.default_rng(42)
    exponents = ((INF, 1.0), (2.0, 1.0), (3.0, 1.5))
    violations = 0
    for i in range(100):
        raw = rng.random(grid.x_shape + grid.v_shape)
        smooth = gaussian_filter(raw, sigma=(2.0, 0.0), mode="wrap")
        dense = smooth * envelope[:, None] * grid.vmask
        f = DistributionField(grid, conftest.node_array(grid, dense))
        p, q = exponents[i % len(exponents)]
        k = 1 + (i % 2)
        out = dispersion_inequality_check(f, p, q, k_align=k)
        violations += 0 if out["passed"] else 1
    ok = fits_ok and violations == 0
    assert report(2, f"dispersion decay (fits ok, {violations} violations/100)", ok)


def test_criterion_03_exponent_numerology():
    chain = solve_numerology(9.0 / 7.0)
    ok = abs(chain.p - 9.0 / 5.0) <= 1e-12
    ok &= numerology_delta(F(9, 5), F(9, 7)) == 0  # exact rational arithmetic
    rng = np.random.default_rng(0)
    for q in rng.uniform(1.001, 1.499, 1000):
        c = solve_numerology(float(q))
        ok &= abs(c.eps_interp + c.theta - 1.0) <= 1e-12
    derived = (chain.lam, chain.theta, chain.c, chain.b, chain.eps_interp)
    expect = (2.0 / 3.0, 0.5, 9.0 / 8.0, 9.0 / 7.0, 0.5)
    ok &= all(abs(a - b) <= 1e-9 for a, b in zip(derived, expect))
    assert report(3, "exponent numerology (p = 9/5, chain identities)", bool(ok))


def test_criterion_04_strichartz_admissibility():
    ok, _ = strichartz_admissible(ExponentQuadruple(F(3), F(9, 5), F(9, 7), F(3, 2), 3))
    ok4, _ = strichartz_admissible(ExponentQuadruple(F(3), F(12, 5), F(12, 7), F(2), 4))
    accepted = ok and ok4

    rng = np.random.default_rng(1)
    accepted_violators = 0
    for _ in range(1000):
        base = theorem3_exponents(float(rng.uniform(1.5, 2.0)))
        r, p, q, a = float(base.r), float(base.p), float(base.q), float(base.a)
        mode = rng.integers(3)
        if mode == 0:      # break the rate identity
            r *= 1.0 + float(rng.uniform(0.02, 0.5))
        elif mode == 1:    # break the ordering p >= q
            p, q = q, p
        else:              # break a = HM(p, q)
            a *= 1.0 + float(rng.uniform(0.02, 0.5))
        admissible, _ = strichartz_admissible(ExponentQuadruple(r, p, q, a, 3))
        accepted_violators += 1 if admissible else 0

    derived_ok = all(strichartz_admissible(theorem3_exponents(float(a)))[0]
                     for a in np.linspace(1.5, 2.0, 1000))
    ok = accepted and accepted_violators == 0 and derived_ok
    assert report(4, f"Strichartz admissibility ({accepted_violators} violators accepted)", ok)


def test_criterion_05_admissible_region():
    inside = bool(region_member(4.5, 2.25))
    qs, _, mask = admissible_region(step=0.05)
    beyond3 = bool(mask[qs > 3.0, :].any())
    rng = np.random.default_rng(2)
    pp = rng.uniform(1.0, 6.0, 1000)
    qp = pp - rng.uniform(0.0, 3.0, 1000)
    halfplane_excluded = not np.any(region_member(qp, pp))
    ok = inside and beyond3 and halfplane_excluded
    assert report(5, "admissible exponent region (reference point, q' > 3, half-plane)", ok)


def test_criterion_06_field_solver():
    # manufactured spectral solution
    grid = build_grid(GridSpec(dim=2, box_half_length=4.0, nx=32, nv=4))
    mesh = grid.x_mesh()
    kx = np.pi / 4.0
    S = np.cos(kx * mesh[0]) * np.cos(kx * mesh[1])
    rho = SpatialField(grid, S + 2 * kx**2 * S)
    residual = np.abs(solve_field(rho)["S"].values - S).max()

    # short/long split of the unscreened potential
    g3 = build_grid(GridSpec(dim=3, box_half_length=4.0, nx=16, nv=4))
    rng = np.random.default_rng(3)
    r2 = sum(m**2 for m in g3.x_mesh())
    rho3 = SpatialField(g3, rng.random(g3.x_shape) * np.exp(-r2))
    full = newtonian_potential(rho3, order=0)
    short, long_ = split_short_long(rho3, order=0)
    split_err = np.abs(short.values + long_.values - full.values).max() / np.abs(full.values).max()
    mass = float(g3.x_weight * rho3.values.sum())
    long_bounded = np.abs(long_.values).max() <= mass / (4 * np.pi) * (1 + 1e-6)

    rejects = 0
    for p, order in ((3.0, 0), (1.5, 1)):
        try:
            bessel_potential_norms(p, order=order, d=3)
        except ValueError:
            rejects += 1
    coarse = bessel_potential_norms(2.0, order=0, d=3, n_radial=400)
    fine = bessel_potential_norms(2.0, order=0, d=3, n_radial=800)
    converged = abs(fine - coarse) / fine < 0.005

    ok = residual <= 1e-10 and split_err <= 1e-8 and long_bounded \
        and rejects == 2 and converged
    assert report(6, f"field solver (residual {residual:.1e}, split {split_err:.1e})", ok)


def test_criterion_07_scattering(mass_run, gronwall_run, term_run, bootstrap_runs):
    # two-node kernel against the dense matrix-vector oracle
    grid = build_grid(GridSpec(dim=1, box_half_length=4.0, nx=16, nv=2))
    rng = np.random.default_rng(4)
    rho_vals = rng.random(grid.x_shape) * np.exp(-grid.x_mesh()[0] ** 2)
    fields = solve_field(SpatialField(grid, rho_vals), want=("S", "grad", "hess"))
    fvals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, conftest.node_array(grid, fvals))
    oracle_err = 0.0
    neutral_err = 0.0
    dt = 0.01
    for family in ("constant", "hyp1", "hyp2", "hyp3"):
        spec = KernelSpec(family=family, coefficient=0.4)
        A, B = kernel_components(spec, fields, grid)
        T = A[..., :, None] + B[..., None, :]
        w = grid.hv
        fm = f.compact()
        expect = fm + dt * (w * np.einsum("xjk,xk->xj", T, fm) - fm * (w * T.sum(axis=-2)))
        got = scattering_apply(f, spec, fields, dt)
        oracle_err = max(oracle_err, float(np.abs(got.compact() - expect).max()))
        neutral_err = max(neutral_err, float(np.abs(density(got).values
                                                   - density(f).values).max()))

    # positivity across every scenario preset run in this suite
    minima = (mass_run["min_f"] + gronwall_run["min_f"] + term_run["min_f"]
              + bootstrap_runs["min_f"])
    positive = min(minima) >= 0.0
    ok = oracle_err <= 1e-14 and neutral_err <= 1e-12 and positive
    assert report(7, f"scattering (oracle {oracle_err:.1e}, neutrality {neutral_err:.1e}, "
                     f"min f {min(minima):.1e})", ok)


def test_criterion_08_kernel_mixed_norm_bound():
    grid = build_grid(GridSpec(dim=3, box_half_length=4.0, nx=16, nv=4))
    rng = np.random.default_rng(5)
    r2 = sum(m**2 for m in grid.x_mesh())
    worst = 0.0
    p3 = float(conjugate(F(9, 7)))
    for _ in range(50):
        rho = SpatialField(grid, rng.random(grid.x_shape) * np.exp(-r2))
        fields = solve_field(rho, want=("S", "grad"))
        rep = mixed_norm_bound_report(KernelSpec(family="hyp3", coefficient=0.5),
                                      fields, grid, 4.5, 1.8, p3)
        worst = max(worst, rep["ratio"])
    ok = worst <= 1.05
    assert report(8, f"kernel mixed-norm bound (worst ratio {worst:.3f}/1.05)", ok)


def test_criterion_09_certificates(gronwall_run, term_run):
    g_ok = gronwall_run["report"]["passed"]
    t_ok = term_run["report"]["passed"]
    budget = gronwall_run["elapsed"] + term_run["elapsed"]
    ok = g_ok and t_ok and budget <= 900.0
    assert report(9, f"history-bound certificates (gronwall {g_ok}, terms {t_ok}, "
                     f"{budget:.0f}s/900s)", ok)


def test_criterion_10_bootstrap(bootstrap_runs):
    reports = bootstrap_runs["reports"]
    small = reports[0.05]
    stable = small["stable"] and small["increment"] < 0.02
    X = [reports[a]["X_final"] for a in (0.05, 0.2, 0.8)]
    monotone = X[0] < X[1] < X[2]
    # superlinear: X grows faster than the (linear) amplitude ratio of 4
    superlinear = X[1] / X[0] > 4.0 and X[2] / X[1] > 4.0
    ok = stable and monotone and superlinear
    assert report(10, f"bootstrap norm (increment {small['increment']:.3f}, "
                      f"growth {X[1] / X[0]:.2f}, {X[2] / X[1]:.2f})", ok)


def test_criterion_11_determinism(tmp_path):
    config = """\
dimension = 2
box_half_length = 8
nx = 32
nv = 8
dt = 0.02
t_end = 0.4
kernel_family = hyp2
kernel_C = 0.5
init_kind = cube
init_width = 0.8
norms = 2,1; 3/2,1
snapshot_every = 10
"""
    outputs = []
    for tag in ("first", "second"):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(config + f"output_dir = {tmp_path / tag}\n")
        assert main(["simulate", str(cfg)]) == EXIT_OK
        outdir = tmp_path / tag
        blob = (outdir / "timeseries.csv").read_bytes()
        for snap in sorted(outdir.glob("snapshot_*.csv")):
            blob += snap.read_bytes()
        outputs.append(blob)
    ok = outputs[0] == outputs[1]
    assert report(11, "byte-identical CSV on repeated runs", ok)
