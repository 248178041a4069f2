"""Grid-free mixed norms of the free-transport flow for radial data.

For f0(x, v) = g(x) h(v) with g an isotropic Gaussian and h the indicator
of the ball {|v| <= R}, the free solution is f(t, x, v) = g(x - t v) h(v)
and its L^p_x L^q_v norm reduces to nested radial quadratures: the inner
velocity integral is a Gaussian mass over a ball (erf in d=1 and d=3,
a Bessel-I0 radial integral in d=2), the outer integral is one-dimensional
in |x|. No position box is involved, so arbitrarily late times are
accessible; this is the independent route against which the grid solver's
norms are cross-checked.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, i0e

from runtumble.exponents import exponent_ge

INF = math.inf
N_RADIAL = 800  # trapezoid nodes in |x| of free_mixed_norm
N_RHO = 400     # trapezoid nodes in |u| of the d = 2 ball mass

_BALL_VOLUME = {1: lambda R: 2.0 * R,
                2: lambda R: np.pi * R**2,
                3: lambda R: 4.0 * np.pi * R**3 / 3.0}
SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class GaussianBallData:
    """f0(x, v) = amplitude * exp(-|x|^2 / (2 sigma^2)) * 1{|v| <= R}."""

    amplitude: float = 1.0
    sigma: float = 1.0
    R: float = 1.0
    d: int = 3

    def __post_init__(self):
        for name in ("amplitude", "sigma", "R"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"d must be 1, 2 or 3, got {self.d}")

    @property
    def ball_volume(self):
        return _BALL_VOLUME[self.d](self.R)

    def gaussian_norm(self, p):
        """L^p norm of the spatial factor g."""
        if p == INF:
            return self.amplitude
        return self.amplitude * (2.0 * np.pi * self.sigma**2 / p) ** (self.d / (2.0 * p))

    def initial_norm(self, p, q):
        """||f0||_{L^p_x L^q_v} (separable: ||g||_p * |V|^(1/q))."""
        vq = 1.0 if q == INF else self.ball_volume ** (1.0 / q)
        return self.gaussian_norm(p) * vq

    def flat_norm(self, a):
        """||f0||_{L^a_{x,v}}."""
        return self.initial_norm(a, a)


def gaussian_ball_mass(r0, a, s, d):
    """int_{|u| <= a} exp(-|u - r0 e|^2 / (2 s^2)) du for an array of center offsets r0,
    d = 1, 2 or 3 (GaussianBallData's d); in d = 2 a trapezoid over N_RHO = 400 radii."""
    r0 = np.atleast_1d(np.asarray(r0, dtype=float))
    c = np.sqrt(2.0) * s
    if d == 1:
        return np.sqrt(np.pi / 2.0) * s * (erf((r0 + a) / c) - erf((r0 - a) / c))
    if d == 2:
        rho = np.linspace(0.0, a, N_RHO)[None, :]
        rr = r0[:, None]
        z = rho * rr / s**2
        integrand = rho * np.exp(-((rho - rr) ** 2) / (2.0 * s**2)) * i0e(z)
        return 2.0 * np.pi * np.trapezoid(integrand, rho[0], axis=1)
    rr = np.maximum(r0, 1e-9 * max(s, a))

    def F(center):
        return (s**2 * (np.exp(-(center**2) / (2.0 * s**2))
                        - np.exp(-((a - center) ** 2) / (2.0 * s**2)))
                + center * np.sqrt(np.pi / 2.0) * s
                * (erf((a - center) / c) + erf(center / c)))

    return 2.0 * np.pi * s**2 / rr * (F(rr) - F(-rr))


def free_mixed_norm(data: GaussianBallData, t, p, q) -> float:
    """||f(t)||_{L^p_x L^q_v} of the free solution of the kinetic transport equation,
    a trapezoid over N_RADIAL = 800 radii in |x|."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not exponent_ge(p, q):
        raise ValueError("dispersion-side norms need p >= q")
    if t == 0.0:
        return data.initial_norm(p, q)
    d, sigma, R, A = data.d, data.sigma, data.R, data.amplitude

    r_max = t * R + 10.0 * sigma
    r0 = np.linspace(0.0, r_max, N_RADIAL)

    if q == INF:
        inner = A * np.exp(-np.maximum(0.0, r0 - t * R) ** 2 / (2.0 * sigma**2))
    else:
        s = sigma / np.sqrt(q)
        phi = gaussian_ball_mass(r0, t * R, s, d) / t**d
        inner = A * np.maximum(phi, 0.0) ** (1.0 / q)

    if p == INF:
        return float(inner.max())
    integrand = SPHERE_AREA[d] * r0 ** (d - 1) * inner**p
    return float(np.trapezoid(integrand, r0) ** (1.0 / p))


def decay_rate(d, p, q):
    """Theoretical dispersion decay exponent d (1/q - 1/p)."""
    ip = 0.0 if p == INF else 1.0 / p
    iq = 0.0 if q == INF else 1.0 / q
    return d * (iq - ip)
