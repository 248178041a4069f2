"""Exponent algebra for the kinetic estimates.

Everything here is arithmetic on Lebesgue exponents: the admissibility
conditions for the kinetic Strichartz estimate, the exponent chain used in
the large-data d=3 bootstrap, and the admissible region in conjugate
coordinates (q', p').

Exponents may be given as ``fractions.Fraction`` (or int), in which case all
identities are evaluated exactly; floats fall back to a 1e-12 tolerance.
``math.inf`` is the sentinel for the L-infinity exponent.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf

_FLOAT_TOL = 1e-12
NUMEROLOGY_TOL = 1e-12  # bracket width at which solve_numerology's bisection stops
REGION_Q_PRIME_MAX = 8.0  # extent of the (q', p') lattice of admissible_region
REGION_P_PRIME_MAX = 5.0
REGION_MAX_POINTS = 10**6  # largest lattice admissible_region makes (a step of 0.0053 or more)


def _is_exact(*values):
    return all(isinstance(v, (Fraction, int)) or v == INF for v in values)


def is_exponent(e):
    """True for a Lebesgue exponent: inf or a number >= 1 (NaN is not one)."""
    return e == INF or e >= 1


def inv(p):
    """1/p, with 1/inf = 0. Preserves exact types."""
    if p == INF:
        return Fraction(0)
    if isinstance(p, (Fraction, int)):
        return Fraction(1, 1) / Fraction(p)
    return 1.0 / p


def conjugate(p):
    """Hoelder conjugate p' with 1/p + 1/p' = 1."""
    ip = inv(p)
    if ip == 1:
        return INF
    one = Fraction(1) if isinstance(ip, Fraction) else 1.0
    return 1 / (one - ip)


def exponent_ge(p, q):
    """p >= q for Lebesgue exponents, with inf above every finite one.
    Exact when p and q are Fractions or ints."""
    return p == INF or (q != INF and p >= q)


def harmonic_mean(p, q):
    """HM(p, q) = 2 / (1/p + 1/q). Symmetric, HM(p, p) = p."""
    s = inv(p) + inv(q)
    if s == 0:
        return INF
    return 2 / s


@dataclass(frozen=True)
class ExponentQuadruple:
    """A (r, p, q, a) tuple of exponents together with the dimension."""

    r: object
    p: object
    q: object
    a: object
    d: int


def strichartz_admissible(quad):
    """Check the admissibility conditions for the kinetic Strichartz estimate.

    The three conditions are: p >= q, 2/r = d(1/q - 1/p) < 1, and
    a = HM(p, q) <= 2. Returns (admissible, diagnostics) where diagnostics
    names each condition and records the p = q edge (where r = inf and the
    time norm degenerates; flagged so callers can exclude it from
    space-time-norm use).
    """
    r, p, q, a, d = quad.r, quad.p, quad.q, quad.a, quad.d
    exact = _is_exact(r, p, q, a)
    gap = inv(q) - inv(p)
    decay = d * gap

    cond_order = exponent_ge(p, q)
    if exact:
        cond_rate = (2 * inv(r) == decay) and decay < 1
        cond_mean = inv(a) * 2 == inv(p) + inv(q) and inv(a) * 2 >= 1
    else:
        cond_rate = abs(2 * inv(r) - decay) <= _FLOAT_TOL and decay < 1 - _FLOAT_TOL / 2
        cond_mean = abs(2 * inv(a) - (inv(p) + inv(q))) <= _FLOAT_TOL and 2 * inv(a) >= 1 - _FLOAT_TOL

    diagnostics = {
        "p_ge_q": bool(cond_order),
        "rate_condition": bool(cond_rate),
        "harmonic_mean_condition": bool(cond_mean),
        "decay_exponent": decay,
        "r_infinite": bool(gap == 0),
    }
    return bool(cond_order and cond_rate and cond_mean), diagnostics


def theorem3_exponents(a):
    """Exponents for the small-data space-time bound in d = 3: r = 3,
    1/p = 1/a - 1/9, 1/q = 1/a + 1/9.

    Requires a in [3/2, 2]. The returned quadruple always passes
    strichartz_admissible.
    """
    a = Fraction(a) if isinstance(a, (Fraction, int, str)) else a
    lo, hi = Fraction(3, 2), Fraction(2)
    if not (lo <= a <= hi):
        raise ValueError(f"a = {a} outside [3/2, 2]")
    ninth = Fraction(1, 9) if isinstance(a, Fraction) else 1.0 / 9.0
    p = 1 / (inv(a) - ninth)
    q = 1 / (inv(a) + ninth)
    r = Fraction(3) if isinstance(a, Fraction) else 3.0
    return ExponentQuadruple(r=r, p=p, q=q, a=a, d=3)


def numerology_delta(p, q):
    """delta(p) = 1 - 3p'/(q')^2 - 3(1/q - 1/p) for d = 3.

    Exact when p, q are rational; the root in p of this expression fixes the
    exponent pair used in the large-data d=3 argument.
    """
    qc = conjugate(q)
    pc = conjugate(p)
    one = Fraction(1) if _is_exact(p, q) else 1.0
    return one - 3 * pc / (qc * qc) - 3 * (inv(q) - inv(p))


@dataclass(frozen=True)
class NumerologyChain:
    """Derived exponent chain for the d=3 large-data bound.

    q in (1, 3/2) is free; p in (3/2, 3) solves the delta equation, and the
    remaining entries follow from the interpolation/Hoelder relations:
    lam = 3(1/q - 1/p), 1/q = 1 - theta + theta/p, 1/c = 1 - theta + theta/q,
    1/b + 1/c = 5/3, 1/b = 1 - eps + eps/p. eps here is the interpolation
    exponent (distinct from the kernel memory scale).
    """

    q: float
    p: float
    lam: float
    theta: float
    c: float
    b: float
    eps_interp: float


def solve_numerology(q):
    """Solve the d=3 exponent chain for a given q in (1, 3/2).

    p is found by bisection of delta(p) on [3/2, 3]; the sign conditions
    delta(3/2) > 0 > delta(3) hold throughout the range. All chain
    invariants (lam < 1, theta and eps in (0,1), 1 < c < q, 1 < b < min(c', p),
    eps + theta = 1) are verified before returning. The bisection stops at
    a bracket of NUMEROLOGY_TOL = 1e-12, and the two identities among the
    invariants are allowed 100 times that.
    """
    q = float(q)
    if not (1.0 < q < 1.5):
        raise ValueError(f"q = {q} outside (1, 3/2)")

    lo, hi = 1.5, 3.0
    dlo, dhi = numerology_delta(lo, q), numerology_delta(hi, q)
    if not (dlo > 0 > dhi):
        raise RuntimeError(f"bisection bracket failure: delta(3/2)={dlo}, delta(3)={dhi}")
    while hi - lo > NUMEROLOGY_TOL:
        mid = 0.5 * (lo + hi)
        if numerology_delta(mid, q) > 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)

    lam = 3.0 * (1.0 / q - 1.0 / p)
    theta = conjugate(p) / conjugate(q)
    c = 1.0 / (1.0 - theta + theta / q)
    b = 1.0 / (5.0 / 3.0 - 1.0 / c)
    eps = conjugate(p) / conjugate(b)

    chain = NumerologyChain(q=q, p=p, lam=lam, theta=theta, c=c, b=b, eps_interp=eps)
    _validate_chain(chain)
    return chain


def _validate_chain(chain):
    checks = {
        "delta_root": abs(numerology_delta(chain.p, chain.q)) <= 100 * NUMEROLOGY_TOL,
        "lam_lt_1": chain.lam < 1.0,
        "theta_in_01": 0.0 < chain.theta < 1.0,
        "eps_in_01": 0.0 < chain.eps_interp < 1.0,
        "c_range": 1.0 < chain.c < chain.q,
        "b_range": 1.0 < chain.b < min(conjugate(chain.c), chain.p),
        "eps_plus_theta": abs(chain.eps_interp + chain.theta - 1.0) <= 100 * NUMEROLOGY_TOL,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise RuntimeError(f"numerology chain invariants violated: {bad} for {chain}")


def region_member(q_prime, p_prime):
    """Membership of (q', p') in the admissible exponent region.

    In conjugate coordinates (1/q = 1 - 1/q', 1/p = 1 - 1/p'):
    q' > p' >= 1, 3(1/p' - 1/q') + 3 p'/(q')^2 <= 1, and 1/p' - 1/q' < 1/3.
    """
    qp = np.asarray(q_prime, dtype=float)
    pp = np.asarray(p_prime, dtype=float)
    gap = 1.0 / pp - 1.0 / qp
    ok = (qp >= 1.0) & (pp >= 1.0) & (qp > pp)
    ok &= 3.0 * gap + 3.0 * pp / qp**2 <= 1.0 + 1e-14
    ok &= gap < 1.0 / 3.0
    return ok


def admissible_region(step=0.05):
    """Rasterize the admissible region on a (q', p') lattice of spacing step,
    q' in [1, REGION_Q_PRIME_MAX = 8] and p' in [1, REGION_P_PRIME_MAX = 5].

    Returns (q_grid, p_grid, mask) with mask[i, j] true when
    (q_grid[i], p_grid[j]) lies in the region. A step that is not positive
    and finite, or that gives more than REGION_MAX_POINTS = 10^6 lattice
    points, is rejected before anything is allocated.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    # np.arange's length, ceil((stop - start) / step), for each axis
    n_q, n_p = (math.ceil((top + step / 2 - 1.0) / step)
                for top in (REGION_Q_PRIME_MAX, REGION_P_PRIME_MAX))
    if n_q * n_p > REGION_MAX_POINTS:
        raise ValueError(f"step {step} gives {n_q} x {n_p} lattice points, "
                         f"over {REGION_MAX_POINTS}")
    qs = np.arange(1.0, REGION_Q_PRIME_MAX + step / 2, step)
    ps = np.arange(1.0, REGION_P_PRIME_MAX + step / 2, step)
    mask = region_member(qs[:, None], ps[None, :])
    return qs, ps, mask
