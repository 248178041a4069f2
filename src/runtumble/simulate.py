"""Strang-split evolution of the coupled transport-scattering system.

Each step is transport(dt/2) -> field solve -> scattering(dt) ->
transport(dt/2). The chemoattractant is refreshed from the current density
every step: spectrally for the screened equation (beta=1), and through the
min-image Newtonian kernel for beta=0, which keeps S nonnegative, as the
sign of the turning kernel needs (a zero-mean spectral solve of the
unscreened equation can go negative).

Monitors are pure observers: they read the state after each step and never
mutate it, so a run with monitors attached produces bit-identical fields
to a run without.
"""

import numpy as np
from scipy.fft import rfftn

from runtumble.fields import gradient_from_hat, newtonian_potential, solve_field
from runtumble.grid import WRAP_TOL, PhaseGrid, density, field_mass, shell_mass
from runtumble.kernels import KernelSpec, PositivityError, loss_rate, scattering_apply
from runtumble.transport import SeparableData, exact_free_solution, transport_step


class GuardAbort(RuntimeError):
    """Raised when the wrap monitor or the scattering dt guard trips."""

    def __init__(self, message, t_valid):
        super().__init__(message)
        self.t_valid = t_valid


class Simulation:
    """Driver for one run on a fixed grid with a fixed kernel."""

    def __init__(self, grid: PhaseGrid, f0, kernel: KernelSpec, beta=1):
        if beta not in (0, 1):
            raise ValueError("beta must be 0 or 1")
        if beta == 0 and grid.dim != 3:
            raise ValueError("beta=0 runs are supported for d=3 only "
                             "(the Newtonian kernel is dimension-specific)")
        # the spectral solve (beta=1) gives any derivative; the Newtonian
        # potential (beta=0) gives S and its gradient only
        provided = {"S", "grad", "hess"} if beta == 1 else {"S", "grad"}
        missing = kernel.required_fields() - provided
        if missing:
            raise ValueError(f"kernel family {kernel.family!r} needs fields {sorted(missing)}, "
                             f"which the beta={beta} field solve does not provide")
        self.grid = grid
        self.kernel = kernel
        self.beta = beta
        self.f0_descriptor = f0 if isinstance(f0, SeparableData) else None
        self.f = f0 if self.f0_descriptor is None else exact_free_solution(f0, grid, 0.0)
        self.f.validate()
        self.step_count = 0
        self.rho = density(self.f)
        self.mass0 = field_mass(self.rho)
        excess = self._rim_excess(self.rho)
        if excess:
            raise ValueError(f"the initial data already reach the box boundary ({excess})")
        self.fields = self._solve_fields_for(self.rho)
        self.monitors = []

    @property
    def t(self):
        """The time of the state: f's own."""
        return self.f.t

    def attach(self, monitor):
        monitor.start(self)
        self.monitors.append(monitor)

    def _rim_excess(self, rho):
        """The wrap guard's rule, on f0 and after each step: a note of rho's
        mass in its rim, WRAP_WIDTH = 2 cells a side, when that holds over
        WRAP_TOL = 1e-6 of M, else ''."""
        shell = shell_mass(rho)
        over = shell > WRAP_TOL * self.mass0
        return f"shell mass {shell:.3e} > {WRAP_TOL:.1e} * M" if over else ""

    def step(self):
        # the first half-step makes a new field, the step's only copy of the
        # state (self.f is left as it is); scattering and the second
        # half-step update that field in place. It carries its box: each
        # half-step shifts its box and sets the floor box it wrote, density
        # sums on that box, and scattering, which writes +0.0 wherever
        # f(x, .) = 0, keeps it. Either guard raises before the run takes
        # the new state, so an aborted step leaves the state, its time and
        # the monitors as they were
        dt = self.grid.spec.dt
        half = dt / 2.0
        f = transport_step(self.f, half)
        rho = density(f)
        fields = self._solve_fields_for(rho)
        try:
            scattering_apply(f, self.kernel, fields, dt, rho=rho, in_place=True)
        except PositivityError as exc:
            raise GuardAbort(f"{exc}, in the step after t={self.t:.6g}", self.t) from exc
        transport_step(f, half, in_place=True)
        rho = density(f)
        excess = self._rim_excess(rho)
        if excess:
            # the message names self.t, the last valid time
            raise GuardAbort(f"support reached the box boundary in the step after "
                             f"t={self.t:.6g} ({excess})", self.t)
        f.t = self.t + dt
        self.f = f
        self.step_count += 1
        self.rho = rho
        self.fields = fields
        for mon in self.monitors:
            mon.after_step(self)

    def _solve_fields_for(self, rho):
        if self.beta == 1:
            want = {"S", "grad"} | self.kernel.required_fields()
            return solve_field(rho, want=tuple(want))
        out = {"S": newtonian_potential(rho, order=0)}
        out["grad"] = gradient_from_hat(rfftn(out["S"].values), self.grid)
        return out

    def run(self, n_steps):
        for _ in range(n_steps):
            self.step()
        return self.f

    def max_stable_dt(self):
        """Largest dt allowed by the positivity guard with self.fields: the
        fields of the last step's mid-point, not of the current state (those
        of the initial state before the first step)."""
        rate = loss_rate(self.kernel, self.fields, self.grid)
        mx = float(np.max(rate))
        return np.inf if mx == 0.0 else 1.0 / mx
