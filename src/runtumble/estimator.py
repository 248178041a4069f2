"""Verification harness: decay fits, inequality checks, and bound monitors.

The constants in the continuum estimates are never numeric, so every
certificate here has the same shape: assemble the right-hand side from its
structural ingredients (initial-data norm, singular-in-time weights,
history norms), calibrate the one free constant on an early window of the
run, and assert that the bound with that constant (plus slack) holds on
every recorded step thereafter.
"""

from dataclasses import dataclass

import numpy as np

from runtumble.exponents import exponent_ge, is_exponent, strichartz_admissible, theorem3_exponents
from runtumble.fields import newton_parts
from runtumble.freeflow import GaussianBallData, decay_rate, free_mixed_norm
from runtumble.grid import DistributionField, box_density, nest_box
from runtumble.interp import stack_on_box, stack_reach, velocity_offset_stack, written_box
from runtumble.norms import NormSpec, compact_mixed_norm, mixed_norm, spatial_norm
from runtumble.transport import free_block

DISPERSION_SLACK = 0.05  # quadrature slack of the dispersion inequality checks
STRICHARTZ_TIMES = 120   # geometric time samples of strichartz_quotient on [1, t_end]
CALIB_FRACTION = 0.5     # early share of a run on which certificate constants are calibrated
CERT_SLACK = 0.10        # slack of the certified bounds after calibration
STABILITY_WINDOW = 0.25  # trailing share of a run over which X(T) must settle
STABILITY_TOL = 0.02     # largest relative increment of X(T) over that window


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    """Log-log decay fit of a free-transport mixed norm against theory."""

    times: np.ndarray
    norms: np.ndarray
    fitted_slope: float
    theoretical_slope: float
    relative_deviation: float
    inequality_ok: bool
    inequality_margin: float  # max over samples of lhs / rhs


def dispersion_decay_fit(data: GaussianBallData, p, q, times=None) -> DecayFit:
    """Fit the decay of ||f(t)||_{p,q} for free transport of separable data.

    Sampling is restricted to the asymptotic window t >= 10 sigma / R
    (support spread at least ten initial widths), where this data class
    saturates the decay rate. Also checks the pointwise inequality
    ||f(t)||_{p,q} <= t^-rate ||f0||_{q,p} at every sample with the
    quadrature slack DISPERSION_SLACK = 0.05. Needs p >= q, which
    free_mixed_norm checks.
    """
    t_min = 10.0 * data.sigma / data.R
    if times is None:
        times = np.geomspace(t_min, 8.0 * t_min, 10)
    times = np.asarray(times, dtype=float)
    if np.any(times < t_min):
        raise ValueError(f"all sample times must sit in the asymptotic window t >= {t_min}")

    norms = np.array([free_mixed_norm(data, t, p, q) for t in times])
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    rate = decay_rate(data.d, p, q)

    rhs0 = data.initial_norm(q, p)  # exponent-swapped initial norm
    margins = norms / (times ** (-rate) * rhs0)
    return DecayFit(
        times=times,
        norms=norms,
        fitted_slope=float(slope),
        theoretical_slope=-rate,
        relative_deviation=abs(slope + rate) / rate if rate else abs(slope),
        inequality_ok=bool(np.all(margins <= 1.0 + DISPERSION_SLACK)),
        inequality_margin=float(margins.max()),
    )


def dispersion_inequality_check(h: DistributionField, p, q, k_align=1) -> dict:
    """Grid check of the dispersion inequality at an exact-shift time.

    t = k_align * (2 dx / hv) makes every velocity node shift by a whole number of
    cells, so the free solution is an exact roll and the only discrepancy against the
    continuum inequality is quadrature error, allowed up to DISPERSION_SLACK = 0.05.
    """
    grid = h.grid
    if not exponent_ge(p, q):
        raise ValueError("need p >= q")
    t = grid.alignment_time(k_align)
    d = grid.dim

    cells = t * grid.vnodes / grid.dx
    cells_int = np.rint(cells).astype(int)
    if not np.allclose(cells, cells_int, atol=1e-9):
        raise ValueError("not an exact-shift time for this grid")
    shifted = np.stack([np.roll(h.nodes[j], tuple(cells_int[j]), axis=tuple(range(d)))
                        for j in range(grid.n_vnodes)])
    moved = DistributionField(grid, shifted, t=t)
    lhs = mixed_norm(moved, NormSpec(p=p, q=q))
    rhs = t ** (-decay_rate(d, p, q)) * mixed_norm(h, NormSpec(p=q, q=p))
    return {"t": t, "lhs": lhs, "rhs": rhs,
            "passed": lhs <= (1.0 + DISPERSION_SLACK) * rhs + 1e-300}


def strichartz_quotient(data: GaussianBallData, quad, t_end) -> dict:
    """Q = ||f||_{L^r_t L^p_x L^q_v} / ||f0||_{L^a} for the free flow on [0, t_end].

    The substantive claim is convergence of the time integral: the report
    carries Q at t_end and at t_end/2 so callers can assert stabilization.
    Times: STRICHARTZ_TIMES // 4 = 30 on [0, 1], STRICHARTZ_TIMES = 120 on [1, t_end].
    """
    ok, diag = strichartz_admissible(quad)
    if not ok:
        raise ValueError(f"quadruple not admissible: {diag}")
    if diag["r_infinite"]:
        raise ValueError("p = q edge has r = inf; excluded from space-time-norm use")
    r, p, q, a = float(quad.r), float(quad.p), float(quad.q), float(quad.a)

    denom = data.flat_norm(a)
    times = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, STRICHARTZ_TIMES // 4),
        np.geomspace(1.0, t_end, STRICHARTZ_TIMES),
    ]))
    norms = np.array([free_mixed_norm(data, t, p, q) for t in times])
    X = _running_norm(norms, r, np.diff(times))
    q_end = X[-1] / denom
    q_half = X[np.searchsorted(times, t_end / 2.0)] / denom
    return {"Q": float(q_end), "Q_half": float(q_half),
            "stable": bool(q_end - q_half <= 0.01 * q_end),
            "times": times, "running": X / denom}


# ---------------------------------------------------------------------------
# trapezoid rule and singular time weights
# ---------------------------------------------------------------------------

def _midpoints(values):
    """Trapezoid midpoints 0.5 (v_(i+1) + v_i) of a sampled series (an
    array), one per interval."""
    return 0.5 * (values[1:] + values[:-1])


def _running_norm(values, r, spacing):
    """Running L^r_t norm (int_0^t_i v^r dt)^(1/r) of a nonnegative series at
    each sample t_i, by the trapezoid rule; `spacing` is the time step or the
    array of the sample spacings."""
    cum = np.concatenate([[0.0], np.cumsum(_midpoints(np.asarray(values) ** r) * spacing)])
    return cum ** (1.0 / r)


def _power_interval(lam, s0, s1):
    """int_s0^s1 s^-lam ds, analytic (lam < 1)."""
    return (s1 ** (1.0 - lam) - s0 ** (1.0 - lam)) / (1.0 - lam)


def singular_weights(lam, dt, n, shift=0.0):
    """Per-interval weights int |s - shift|^-lam ds over ((k-1) dt, k dt), k = 1..n.

    The cell containing the singularity is integrated analytically on each
    side; lam < 1 keeps everything finite.
    """
    if not lam < 1.0:
        raise ValueError(f"singular exponent lam={lam} must be < 1")
    out = np.empty(n)
    for k in range(1, n + 1):
        s0, s1 = (k - 1) * dt, k * dt
        if shift == 0.0:
            out[k - 1] = _power_interval(lam, s0, s1)
            continue
        a0, a1 = s0 - shift, s1 - shift
        if a1 <= 0.0:
            out[k - 1] = _power_interval(lam, -a1, -a0)
        elif a0 >= 0.0:
            out[k - 1] = _power_interval(lam, a0, a1)
        else:
            out[k - 1] = _power_interval(lam, 0.0, -a0) + _power_interval(lam, 0.0, a1)
    return out


# ---------------------------------------------------------------------------
# Gronwall certificate for the second-derivative kernel class
# ---------------------------------------------------------------------------

class GronwallMonitor:
    """Certificate ||rho(t)||_p <= C0(t) + C int_0^t s^(-d/p') ||rho(t-s)||_p ds.

    Valid for the hyp2 kernel class with beta=1 and q=1; requires
    d/p' < 1. C is calibrated on an early fraction of the run and the
    inequality is then asserted with slack on every step.

    C0(t) is the L^p norm of the density of the closed-form free solution
    f0(x - t v, v), recorded at the start and after every step. It is taken
    from transport.free_block's block, sampled only on its support box,
    with the bits of the density of the whole state (grid.box_density).
    """

    def __init__(self, p):
        if not is_exponent(p):
            raise ValueError(f"p must be an exponent (>= 1 or inf), got {p}")
        self.p = p
        self.records = []

    def start(self, sim):
        d = sim.grid.dim
        self.lam = d * (1.0 - 1.0 / self.p)
        if not self.lam < 1.0:
            raise ValueError(f"Gronwall setup needs d/p' < 1, got {self.lam} "
                             f"(p={self.p}, d={d})")
        if sim.kernel.family != "hyp2" or sim.beta != 1:
            raise ValueError("Gronwall certificate is for hyp2 kernels with beta=1")
        if sim.f0_descriptor is None:
            raise ValueError("needs closed-form initial data for C0(t)")
        self.dt = sim.grid.spec.dt
        self.mass0 = sim.mass0
        self._record(sim)

    def _record(self, sim):
        lhs = spatial_norm(sim.rho.values, sim.grid, self.p)
        # the free solution is >= 0, so its L^p_x L^1_v norm is the L^p norm
        # of its density, bit for bit (README, "Numerical notes"); that
        # density is its block's, +0.0 outside the block's box
        box, block = free_block(sim.f0_descriptor, sim.grid, sim.t)
        c0 = spatial_norm(box_density(sim.grid, block, box).values, sim.grid, self.p)
        self.records.append((sim.t, lhs, c0))

    def after_step(self, sim):
        self._record(sim)

    def certify(self):
        """Calibrate the two constants on the early window, then check every step.

        The certified inequality is
            ||rho(t)||_p <= C0(t) + Ca * M * W(t) + Cb * I(t),
        W(t) = int_0^t s^-lam ds (the mass-only part of the source) and
        I(t) the rho-history integral. Ca, Cb are fitted nonnegative on the
        calibration window, the first CALIB_FRACTION = 0.5 of the steps, and
        scaled so the bound holds there exactly; every later step must
        satisfy it with the slack CERT_SLACK = 0.10. A run with
        no completed step has an empty window: both constants are 0, and
        only t = 0, where the bound is C0 itself, is checked.
        """
        from scipy.optimize import nnls

        n_total = len(self.records) - 1
        n_cal = max(1, int(CALIB_FRACTION * n_total))
        t = np.array([r[0] for r in self.records])
        lhs = np.array([r[1] for r in self.records])
        c0 = np.array([r[2] for r in self.records])
        # I_n sums the singular weight of each past interval times ||rho||_p at
        # its midpoint, the last interval first; the weights of n intervals are
        # the first n of one table
        w = singular_weights(self.lam, self.dt, n_total)
        I = np.array([np.sum(w[:n] * _midpoints(lhs[n::-1])) for n in range(n_total + 1)])
        W = self.mass0 * t ** (1.0 - self.lam) / (1.0 - self.lam)
        excess = lhs - c0

        X = np.stack([W, I], axis=1)
        coef, _ = nnls(X[: n_cal + 1], np.maximum(excess[: n_cal + 1], 0.0))
        pred = X @ coef
        cal = slice(1, n_cal + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            need_scale = np.where(pred[cal] > 0, excess[cal] / pred[cal], 0.0)
        scale = max(1.0, float(need_scale.max(initial=0.0)))  # 1 on an empty window
        coef = coef * scale

        rhs = c0 + (1.0 + CERT_SLACK) * (X @ coef)
        ok = lhs <= rhs + 1e-9 * np.maximum(1.0, rhs)
        return {
            "constants": (float(coef[0]), float(coef[1])),
            "passed": bool(np.all(ok)),
            "n_failures": int(np.sum(~ok)),
            "records": [
                {"t": ti, "lhs": l, "C0": c, "rhs": r, "ok": bool(o)}
                for ti, l, c, r, o in zip(t, lhs, c0, rhs, ok)
            ],
        }

    def columns(self):
        """CSV columns (name, one value per record): each record's verdict and bound."""
        recs = self.certify()["records"]
        return [("cert_gronwall", ["pass" if r["ok"] else "fail" for r in recs]),
                ("bound_gronwall", [r["rhs"] for r in recs])]


# ---------------------------------------------------------------------------
# term tracker for the d=3 large-data chain
# ---------------------------------------------------------------------------

class TermTracker:
    """Tracks the three history terms of the d=3 beta=0 bound and their bounds.

    At each tracked step the terms are evaluated directly from their
    integral definitions (history sums with shifted spatial fields) and
    compared against the singular-weight bounds
    ||f_1||, ||f_3|| <= C M int |s-1|^-lam ||f(t-s)||_{p,q} ds and
    ||f_2|| <= C M int s^-lam ||f(t-s)||_{p,q} ds.
    """

    def __init__(self, p, q, stride=1):
        if not q > 1.0:
            raise ValueError("the f_2 chain requires q > 1 "
                             "(q = 1 gives b = 3/2, c = 1, outside the HLS range)")
        self.p, self.q = p, q
        self.spec = NormSpec(p=p, q=q)
        self.lam = 3.0 * (1.0 / q - 1.0 / p)
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"need 0 < lam = 3(1/q - 1/p) < 1, got {self.lam}")
        if not isinstance(stride, int) or stride < 1:
            raise ValueError(f"stride must be an int >= 1, got {stride!r}")
        self.stride = stride
        self.history = []   # per step: (rho, S_short, gradS_short_bound, H, f's box)
        self.fnorm = []
        self.evaluations = []

    def start(self, sim):
        if sim.beta != 0 or sim.grid.dim != 3 or sim.kernel.family != "hyp1":
            raise ValueError("term tracker is for d=3, beta=0, hyp1 runs")
        self.grid = sim.grid
        self.mass = sim.mass0
        self._store(sim)

    def _store(self, sim):
        grid = sim.grid
        # S at the end of the step, as rho and f are (the step's own S is its
        # mid-point field), from the FFT of rho that gives the short parts
        S, s_short, g_short = newton_parts(sim.rho)
        # S_shift * f is zero outside the box that f carries
        box = sim.f.box
        shifted_S = (stack_on_box(S.values, grid.vnodes, 1.0, grid.dx, box)
                     * sim.f.nodes[(slice(None),) + box])
        H = np.zeros(grid.x_shape)
        H[box] = grid.hv**3 * np.sum(shifted_S, axis=0)
        # density() makes a new array at every step, so rho is kept as it is
        self.history.append((sim.rho.values, s_short.values, g_short.values, H, box))
        self.fnorm.append(mixed_norm(sim.f, self.spec))

    def after_step(self, sim):
        self._store(sim)
        n = sim.step_count
        if n % self.stride == 0:
            self.evaluations.append(self._evaluate(n, sim.t))

    def _evaluate(self, n, t):
        """The terms and their bounds after step n, at the state's time t."""
        grid = self.grid
        dt = grid.spec.dt
        vn, dx = grid.vnodes, grid.dx
        every_node = (slice(None),)
        f1, f2, f3 = (np.zeros((grid.n_vnodes,) + grid.x_shape) for _ in range(3))
        # midpoint-in-s quadrature of the history integrals. Each summand is
        # zero outside its step's box, so it is formed on that box, placed in
        # zeros of the box grown by the reach of the transport shift
        # x - s v_j, shifted there (each axis on the box grown along the
        # axes shifted so far), and added on the box grown by the shift's
        # spread, outside which its stack is +0.0
        for m in range(n):
            s_mid = (m + 0.5) * dt
            rho, s_short, g_short, H, box = self.history[n - 1 - m]
            grown, inner = nest_box(box, stack_reach(vn, s_mid, dx), grid.x_shape)
            # the summand's box grown by the spread: in the grid, and in `grown`
            written = written_box(box, vn, s_mid, dx, grid.x_shape)
            kept = written_box(inner, vn, s_mid, dx, rho[grown].shape)
            for f, field in ((f1, s_short), (f3, g_short), (f2, None)):
                if field is None:
                    # one spatial field, whose stack shares shifts between nodes
                    w = stack_on_box(H[grown], vn, s_mid, dx, kept)
                else:
                    # the per-node offsets x + v_j of the field times rho: a
                    # signed zero where rho is 0, which adds nothing to the sum
                    w = np.zeros((grid.n_vnodes,) + rho[grown].shape)
                    np.multiply(stack_on_box(field, vn, -1.0, dx, box), rho[box],
                                out=w[every_node + inner])
                    velocity_offset_stack(w, vn, s_mid, dx, out=w, box=inner)
                    w = w[every_node + kept]
                w *= dt
                f[every_node + written] += w

        norms = [compact_mixed_norm(f, grid, self.p, self.q) for f in (f1, f2, f3)]
        hist = _midpoints(np.array(self.fnorm[: n + 1])[::-1])  # the last interval first
        shifted = float(np.sum(singular_weights(self.lam, dt, n, shift=1.0) * hist))
        plain = float(np.sum(singular_weights(self.lam, dt, n) * hist))
        # full kernel K(s) = 1 + s^-lam + |s-1|^-lam, dominating each
        # single-weight bound
        integrals = {"shifted": shifted, "plain": plain,
                     "K": float(dt * np.sum(hist)) + plain + shifted}
        return {"step": n, "t": t, "norms": norms, "integrals": integrals}

    def certify(self):
        """Calibrate the three constants early, assert the bounds everywhere.

        Each term is certified against the K(s)-weighted history integral
        ||f_i(t)|| <= C_i M int_0^t K(s) ||f(t-s)||_{p,q} ds, C_i calibrated on the
        first CALIB_FRACTION = 0.5 of the evaluations, with the slack CERT_SLACK = 0.10.
        """
        evs = self.evaluations
        if not evs:
            raise RuntimeError("no tracked evaluations")
        n_cal = max(1, int(CALIB_FRACTION * len(evs)))
        out = {"passed": True, "terms": {}}
        for name, i in (("f1", 0), ("f2", 1), ("f3", 2)):
            ratios = np.array([e["norms"][i] / (self.mass * e["integrals"]["K"])
                               if e["integrals"]["K"] > 0 else 0.0 for e in evs])
            c_cal = float(ratios[:n_cal].max())
            ok = ratios <= (1.0 + CERT_SLACK) * c_cal + 1e-12
            out["terms"][name] = {
                "constant": c_cal,
                "passed": bool(np.all(ok)),
                "max_ratio": float(ratios.max()),
            }
            out["passed"] = out["passed"] and bool(np.all(ok))
        return out

    def columns(self):
        """CSV columns (name, one value per stored step): the terms and their
        bounds on the evaluated steps, and the verdict on the last step."""
        by_step = {e["step"]: e for e in self.evaluations}
        evs = [by_step.get(s) for s in range(len(self.fnorm))]
        out = [(f"term_f{i + 1}", ["" if e is None else e["norms"][i] for e in evs])
               for i in range(3)]
        out += [(f"bound_{kind}", ["" if e is None else e["integrals"][kind] for e in evs])
                for kind in ("shifted", "plain")]
        # a guard abort can end the run before the first evaluation
        verdict = ("pass" if self.certify()["passed"] else "fail") if by_step else ""
        return out + [("cert_terms", [""] * (len(evs) - 1) + [verdict])]


# ---------------------------------------------------------------------------
# bootstrap monitor for the small-data space-time bound
# ---------------------------------------------------------------------------

class BootstrapMonitor:
    """Running space-time norm X(T) = ||f||_{L^3_t L^p_x L^q_v} and its quadratic fit."""

    def __init__(self, a):
        quad = theorem3_exponents(a)
        self.a = float(a)
        self.p, self.q = float(quad.p), float(quad.q)
        self.spec = NormSpec(p=self.p, q=self.q)
        self.r = 3.0
        self.fnorm = []

    def start(self, sim):
        if sim.beta != 1 or sim.grid.dim != 3 or sim.kernel.family != "hyp3":
            raise ValueError("bootstrap monitor is for d=3, beta=1, hyp3 runs")
        self.dt = sim.grid.spec.dt
        self._record(sim)

    def after_step(self, sim):
        self._record(sim)

    def _record(self, sim):
        self.fnorm.append(mixed_norm(sim.f, self.spec))

    def report(self):
        """X(T_n), the running norm over the recorded steps, and its quadratic
        fit; stable when X grows by at most STABILITY_TOL = 0.02 of X(T) over
        the last STABILITY_WINDOW = 0.25 of the steps."""
        X = _running_norm(self.fnorm, self.r, self.dt)
        n = len(X) - 1
        i0 = int((1.0 - STABILITY_WINDOW) * n)
        increment = (X[-1] - X[i0]) / X[-1] if X[-1] > 0 else 0.0
        # least-squares fit of X = A + B X^2 on the running samples
        M = np.stack([np.ones_like(X), X**2], axis=1)
        coef, *_ = np.linalg.lstsq(M, X, rcond=None)
        resid = X - M @ coef
        return {
            "X": X,
            "X_final": float(X[-1]),
            "increment": float(increment),
            "stable": bool(increment <= STABILITY_TOL),
            "A_fit": float(coef[0]),
            "B_fit": float(coef[1]),
            "residual_rms": float(np.sqrt(np.mean(resid**2))),
        }

    def columns(self):
        """CSV columns (name, one value per record): X(T) on each record and
        the verdict on the last."""
        rep = self.report()
        X = list(rep["X"])
        return [("term_X", X),
                ("cert_bootstrap", [""] * (len(X) - 1) + ["pass" if rep["stable"] else "fail"])]
