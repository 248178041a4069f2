"""The benchmark's workloads: set-up, one measured round, and its checks.

A round builds the run from scratch, steps it, produces the certified
result, and then checks the outputs against properties of the method and
against reference values from reference.py. Every step and every check is
one operation of the round.
"""

import contextlib
import csv
import io
import math
import os
import shutil
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np

import reference
from runtumble import cli
from runtumble.estimator import BootstrapMonitor, TermTracker
from runtumble.grid import GridSpec, build_grid
from runtumble.kernels import KernelSpec, kernel_components, scattering_apply
from runtumble.simulate import GuardAbort, Simulation
from runtumble.transport import SeparableData
from tracing import held_bytes, step_times

MASS_DRIFT = 1e-8     # relative mass drift allowed over a run
ROUNDOFF = 1e-12      # relative gap allowed between equal quantities summed in another order
N_SAMPLES = 8         # seeded sample positions per pointwise check

# Median time of run.calibration_kernel on the reference machine (README,
# "Reference figures"); reported times are scaled to it.
CALIBRATION_3D = 0.12
CALIBRATION_2D = 0.07


@dataclass
class Round:
    setup_s: float
    run_s: float
    step_s: list          # per step, monitor calls removed
    steps: int            # steps attempted
    done: int             # steps completed
    checks: list          # (name, passed)
    t_first: float        # start of the first step: the trace window opens here
    history_bytes: int    # held in the monitor's histories at the end
    output_bytes: int = 0
    totals: dict = None   # per-span totals, on traced rounds
    layer_spans: int = 0  # spans of the layer functions, on traced rounds
    setups: list = None   # set-up times: the set-up-only runs before the round, and its own


class _SetupDone(Exception):
    """Raised in place of the first step to end a set-up-only run."""


def _stop_at_first_step(sim):
    raise _SetupDone(perf_counter())


@contextlib.contextmanager
def _setup_only():
    """Make Simulation.step end the run at its first call, with the time."""
    step = Simulation.step
    Simulation.step = _stop_at_first_step
    try:
        yield
    finally:
        Simulation.step = step


def _common_checks(sim, mass0, nv):
    grid = sim.grid
    mass = reference.phase_mass(sim.f.values, grid.dx, nv)
    return [("mass_drift", abs(mass - mass0) <= MASS_DRIFT * mass0),
            ("min_f_nonnegative", float(sim.f.values.min()) >= 0.0)]


def _close(got, expect):
    return bool(abs(got - expect) <= ROUNDOFF * abs(expect))


def _history_bytes(monitor):
    return sum(held_bytes(v) for k, v in vars(monitor).items() if k != "sim")


def _sample_points(rho, draws):
    """Seeded positions where rho is at least 1% of its maximum. The
    interpolation spreads tiny values over most of the box, and a check
    there would compare numbers near zero."""
    support = np.argwhere(rho >= 0.01 * rho.max())
    return [tuple(support[int(u * len(support))]) for u in draws]


class ApiWorkload:
    """A 3-D run driven through Simulation and one estimator monitor."""

    name = ""
    dt = 0.0
    amplitude = 0.0
    nx, nv, half_length, width = 32, 4, 12.0, 1.0
    phase_shape = (32, 32, 32, 32)   # f at the velocity nodes: x_shape + (K,)
    calibration_s = CALIBRATION_3D

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.amplitude = self.amplitude * (0.95 + 0.1 * rng.random())
        self.center_cells = tuple(int(c) for c in rng.integers(-2, 3, size=3))
        self.draws = rng.random(N_SAMPLES)
        dx = 2.0 * self.half_length / self.nx
        self.data = SeparableData(amplitude=self.amplitude, width=self.width, kind="cube",
                                  center=tuple(c * dx for c in self.center_cells))
        self.mass0 = reference.cube_mass(3, self.half_length, self.nx, self.nv,
                                         self.amplitude, self.width, self.center_cells)

    def inputs(self):
        return {"amplitude": self.amplitude, "center_cells": self.center_cells}

    def build(self, n_steps):
        grid = build_grid(GridSpec(dim=3, box_half_length=self.half_length, nx=self.nx,
                                   nv=self.nv, dt=self.dt))
        sim = Simulation(grid, self.data, self.kernel, beta=self.beta)
        monitor = self.monitor(n_steps)
        sim.attach(monitor)
        return sim, monitor

    def setup_only(self):
        t0 = perf_counter()
        self.build(self.n_steps)
        return perf_counter() - t0

    def round(self, rec, n_steps, traced):
        rec.reset()
        rec.tracing = traced
        t0 = perf_counter()
        sim, monitor = self.build(n_steps)
        done = 0
        with contextlib.suppress(GuardAbort):
            for _ in range(n_steps):
                sim.step()
                done += 1
        result = self.finish(monitor)
        t1 = perf_counter()
        rec.tracing = False
        t_first = rec.first_start("simulate.step")
        checks = _common_checks(sim, self.mass0, self.nv) + self.checks(rec, sim, monitor, result)
        rec.last.clear()
        return Round(setup_s=t_first - t0, run_s=t1 - t_first, step_s=step_times(rec),
                     steps=n_steps, done=done, checks=checks, t_first=t_first,
                     history_bytes=_history_bytes(monitor))


class Hyp3Bootstrap(ApiWorkload):
    name = "hyp3_3d_bootstrap"
    dt = 0.05
    amplitude = 0.2
    beta = 1
    n_steps = 12
    kernel = KernelSpec(family="hyp3", coefficient=0.5)

    def monitor(self, n_steps):
        return BootstrapMonitor(a=Fraction(3, 2))

    def finish(self, monitor):
        return monitor.report()

    def checks(self, rec, sim, monitor, result):
        grid = sim.grid
        # the monitor's first and last norms against the closed form of the
        # initial data and the benchmark's own norm of the final f, and X(T)
        # against the benchmark's own trapezoid of the monitor's norms
        fn = monitor.fnorm
        first = reference.cube_norm(3, self.half_length, self.nx, self.nv, self.amplitude,
                                    self.width, self.center_cells, monitor.p, monitor.q)
        last = reference.phase_norm(sim.f.values, grid.dx, self.nv, monitor.p, monitor.q)
        X_final = reference.running_norm(fn, self.dt, monitor.r)
        bootstrap = (len(fn) == sim.step_count + 1 and _close(fn[0], first)
                     and _close(fn[-1], last) and _close(result["X_final"], X_final))

        # one more scattering update against the dense gain-loss sum over T = A + B
        A, B = kernel_components(sim.kernel, sim.fields, grid)
        K = grid.n_vnodes
        A = np.broadcast_to(A, grid.x_shape + (K,))
        B = np.broadcast_to(B, grid.x_shape + (K,))
        updated = scattering_apply(sim.f, sim.kernel, sim.fields, self.dt)
        w = grid.hv ** grid.dim
        oracle = True
        for x in _sample_points(sim.rho.values, self.draws):
            f_nodes = sim.f.values[x][grid.vmask]
            expect = reference.scattering_at(f_nodes, A[x], B[x], w, self.dt)
            got = updated.values[x][grid.vmask]
            oracle &= bool(np.abs(got - expect).max() <= 1e-14 * max(1.0, np.abs(expect).max()))

        # the last field solve against a separate FFT Helmholtz solve of its density
        (rho,), fields = rec.last["fields.solve"]
        S_ref = reference.helmholtz(rho.values, grid.dx)
        helmholtz = fields is sim.fields and bool(
            np.abs(fields["S"].values - S_ref).max() <= ROUNDOFF * np.abs(S_ref).max())
        return [("bootstrap_norms", bootstrap), ("scattering_oracle", oracle),
                ("helmholtz_S", helmholtz)]


class Hyp1Terms(ApiWorkload):
    name = "hyp1_3d_terms"
    dt = 0.02
    amplitude = 0.5
    beta = 0
    n_steps = 12
    kernel = KernelSpec(family="hyp1", coefficient=0.2)

    def monitor(self, n_steps):
        # one evaluation, at the last step: see README, "hyp1_3d_terms"
        return TermTracker(p=9.0 / 5.0, q=9.0 / 7.0, stride=n_steps)

    def finish(self, monitor):
        return monitor.certify()

    def checks(self, rec, sim, monitor, result):
        grid = sim.grid
        norms = [v for e in monitor.evaluations for v in e["norms"]]
        terms_ok = bool(norms) and all(math.isfinite(v) and v >= 0.0 for v in norms)

        # the f_2 term of the last evaluation, summed again from the stored
        # H fields with the benchmark's own shifts and norm
        last = monitor.evaluations[-1]
        nodes, hv = reference.velocity_nodes(3, self.nv)
        H = [h[3] for h in monitor.history[: last["step"] + 1]]
        f2 = reference.history_sum(H, nodes, self.dt, grid.dx)
        f2_ok = _close(last["norms"][1],
                           reference.node_norm(f2, grid.dx, hv, monitor.p, monitor.q))

        (rho,), S = rec.last["fields.solve"]
        points = _sample_points(rho.values, self.draws)
        direct = reference.newton_direct(rho.values, grid.dx, points)
        got = np.array([S.values[p] for p in points])
        newton = S is sim.fields["S"] and bool(
            np.abs(got - direct).max() <= ROUNDOFF * np.abs(S.values).max())
        return [("term_norms", terms_ok), ("term_f2", f2_ok), ("newtonian_S", newton)]


_CONFIG = """\
dimension = 2
box_half_length = {half_length!r}
nx = {nx}
nv = {nv}
dt = {dt!r}
t_end = {t_end!r}
beta = 1
kernel_family = hyp2
kernel_C = 0.5
init_kind = cube
init_amplitude = {amplitude!r}
init_width = {width!r}
norms = 3/2,1; 2,1; inf,1
monitors = gronwall_thm2
snapshot_every = {every}
output_dir = {out}
"""


class Hyp2Cli:
    """`runtumble simulate` on a 2-D hyp2 config with the Gronwall monitor."""

    name = "hyp2_2d_cli"
    n_steps = 30
    nx, nv, half_length, width, dt, every = 64, 16, 16.0, 1.0, 0.02, 10
    phase_shape = (64, 64, 208)
    calibration_s = CALIBRATION_2D
    exponents = (1.5, 2.0, math.inf)

    def __init__(self, seed, outdir):
        rng = np.random.default_rng(seed)
        self.amplitude = 0.95 + 0.1 * rng.random()
        self.dir = outdir
        self.mass0 = reference.cube_mass(2, self.half_length, self.nx, self.nv,
                                         self.amplitude, self.width, (0, 0))

    def inputs(self):
        return {"amplitude": self.amplitude}

    def _config(self, n_steps):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        path = os.path.join(self.dir, "run.cfg")
        with open(path, "w") as fh:
            fh.write(_CONFIG.format(half_length=self.half_length, nx=self.nx, nv=self.nv,
                                    dt=self.dt, t_end=n_steps * self.dt,
                                    amplitude=self.amplitude, width=self.width,
                                    every=self.every, out=os.path.join(self.dir, "out")))
        return path

    def setup_only(self):
        path = self._config(self.n_steps)
        t0 = perf_counter()
        with _setup_only(), contextlib.redirect_stdout(io.StringIO()):
            try:
                cli.main(["simulate", path])
            except _SetupDone as stop:
                return stop.args[0] - t0
        raise RuntimeError("the run ended before its first step")

    def round(self, rec, n_steps, traced):
        path = self._config(n_steps)
        rec.reset()
        rec.tracing = traced
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", path])
        t1 = perf_counter()
        rec.tracing = False
        t_first = rec.first_start("simulate.step")
        sim = rec.last["simulate.step"][0][0]
        monitor = rec.last["estimator.certify"][0][0]
        out = os.path.join(self.dir, "out")
        with open(os.path.join(out, "timeseries.csv")) as fh:
            rows = list(csv.DictReader(fh))
        done = len(rows) - 1   # a guard abort still writes the rows of the steps done
        checks = _common_checks(sim, self.mass0, self.nv) + self._checks(rows, out, n_steps)
        nbytes = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
        rec.last.clear()
        return Round(setup_s=t_first - t0, run_s=t1 - t_first, step_s=step_times(rec),
                     steps=n_steps, done=done, checks=checks, t_first=t_first,
                     history_bytes=_history_bytes(monitor), output_bytes=nbytes)

    def _checks(self, rows, out, n_steps):
        mass = [float(r["mass"]) for r in rows]
        checks = [
            ("mass_column", all(abs(m - mass[0]) <= ROUNDOFF * mass[0] for m in mass)),
            ("certificate_gronwall", all(r["cert_gronwall"] == "pass" for r in rows)),
        ]
        dx = 2.0 * self.half_length / self.nx
        columns = ("norm_3/2_1", "norm_2_1", "norm_inf_1")
        for step in range(0, n_steps + 1, self.every):
            path = os.path.join(out, f"snapshot_{step:06d}.csv")
            ok = step < len(rows) and os.path.exists(path)
            if ok:
                with open(path) as fh:
                    header = fh.readline()
                    rho = np.loadtxt(fh, delimiter=",", skiprows=1, usecols=2)
                row = rows[step]
                expect = reference.spatial_norms(rho, dx**2, self.exponents)
                ok = header.split()[1] == f"t={row['t']}" and all(
                    abs(float(row[c]) - e) <= ROUNDOFF * e for c, e in zip(columns, expect))
            checks.append((f"snapshot_norms_{step}", ok))
        return checks


WORKLOADS = {w.name: w for w in (Hyp2Cli, Hyp3Bootstrap, Hyp1Terms)}
