"""Chemoattractant field solves and the potential-theory bounds.

The screened equation S - Lap S = rho (beta = 1) is solved spectrally on
the periodic box. The unscreened d=3 equation (beta = 0) is solved by the
Newtonian potential, a direct convolution with the tabulated kernel
1/(4 pi |x|), which also splits into short (|x| <= 1) and long (|x| >= 1) parts;
the truncated kernels are bounded by 1/(4 pi), which is what makes the long
parts a-priori bounded by the mass. Each tabulated kernel is transformed
once per grid and kept, read-only, in a small cache, as are the
wavenumber factors of the spectral solve.

Every field is real, so every transform is a real one (scipy.fft's rfftn
and irfftn on the half spectrum, the last axis cut to nx // 2 + 1), which
equals the real part of the complex transforms up to roundoff when three
rules keep the half spectrum's factors Hermitian:
- a first-derivative factor i k_a is 0 at the Nyquist index of axis a,
  where the real part of the complex inverse cancels it;
- a mixed second-derivative factor -k_a k_b is 0 where exactly one of
  its two indices is at Nyquist, for the same reason;
- the last axis keeps fftfreq's -pi/dx at Nyquist, so that a mixed factor
  with both indices there has the complex formula's sign.
"""

from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, rfftn
from scipy.special import kv

from runtumble.freeflow import SPHERE_AREA
from runtumble.grid import SpatialField, build_grid, field_mass
from runtumble.norms import spatial_norm

BESSEL_R_MAX = 80.0  # outer radius of the radial quadrature of bessel_potential_norms


@lru_cache(maxsize=16)
def _wavenumbers(spec):
    """Half-spectrum factors on the grid of `spec`, read-only, one per spec:
    (1 + |k|^2, the first-derivative factors i k_a, and the second-derivative
    factors -k_a k_b for a <= b), with the module's Nyquist rules. Each
    factor of one or two axes is an open mesh that broadcasts over the
    half spectrum."""
    grid = build_grid(spec)
    d, n = grid.dim, spec.nx
    sizes = (n,) * (d - 1) + (n // 2 + 1,)
    k, nyquist = [], []
    for a, m in enumerate(sizes):
        shape = (1,) * a + (m,) + (1,) * (d - a - 1)
        k.append(grid.k[:m].reshape(shape))
        nyquist.append((np.arange(m) == n // 2).reshape(shape))
    denom = 1.0 + sum(c * c for c in k)
    grad = [np.where(nyquist[a], 0.0, 1j * k[a]) for a in range(d)]
    hess = {(a, b): np.where(nyquist[a] != nyquist[b], 0.0, -k[a] * k[b])
            for a in range(d) for b in range(a, d)}
    for x in (denom, *grad, *hess.values()):
        x.flags.writeable = False
    return denom, grad, hess


def gradient_from_hat(hat, grid):
    """The spectral gradient [irfftn(i k_a hat) for each axis a] of the field
    whose real transform rfftn is hat, the factor 0 at axis a's Nyquist index."""
    _, grad, _ = _wavenumbers(grid.spec)
    return [SpatialField(grid, irfftn(g * hat, s=grid.x_shape)) for g in grad]


def solve_field(rho: SpatialField, want=("S",)) -> dict:
    """Spectral solve of the screened equation S - Lap S = rho with requested derivatives.

    want is a subset of {"S", "grad", "hess"}. Returns a dict with "S",
    optionally "grad" (list of d components) and "hess" (d x d nested list,
    whose entries [a][b] and [b][a] are one field).
    """
    grid = rho.grid
    unknown = set(want) - {"S", "grad", "hess"}
    if unknown:
        raise ValueError(f"unknown derivative requests {sorted(unknown)}")

    denom, _, hess = _wavenumbers(grid.spec)
    s_hat = rfftn(rho.values) / denom
    out = {}
    if "S" in want:
        out["S"] = SpatialField(grid, irfftn(s_hat, s=grid.x_shape))
    if "grad" in want:
        out["grad"] = gradient_from_hat(s_hat, grid)
    if "hess" in want:
        parts = {ab: SpatialField(grid, irfftn(h * s_hat, s=grid.x_shape))
                 for ab, h in hess.items()}
        out["hess"] = [[parts[min(a, b), max(a, b)] for b in range(grid.dim)]
                       for a in range(grid.dim)]
    return out


def _radius_mesh(grid):
    """Min-image offset radius indexed in FFT order (index 0 = zero offset)."""
    n = grid.spec.nx
    off = grid.dx * np.fft.fftfreq(n, d=1.0 / n)
    mesh = np.meshgrid(*([off] * grid.dim), indexing="ij")
    return np.sqrt(sum(c * c for c in mesh))


def _newton_kernel(grid, order, part):
    """Tabulated d=3 kernel 1/(4 pi |x|^(1+order)) restricted to a radial part.

    part is "short" (|x| <= 1), "long" (|x| >= 1) or "full". The origin cell
    gets the cell average over the equal-volume ball, keeping the quadrature
    error of the singular cell O(h).
    """
    r = _radius_mesh(grid)
    h = grid.dx
    with np.errstate(divide="ignore"):
        if order == 0:
            ker = 1.0 / (4.0 * np.pi * r)
        else:
            ker = 1.0 / (4.0 * np.pi * r * r)
    a_eq = (3.0 * h**3 / (4.0 * np.pi)) ** (1.0 / 3.0)
    # cell averages of the integrable singularity over the equal-volume ball
    ker[tuple([0] * 3)] = (a_eq**2 / 2.0 if order == 0 else a_eq) / h**3
    if part == "short":
        ker = np.where(r <= 1.0, ker, 0.0)
    elif part == "long":
        # strict inequality so grid offsets exactly on the cutoff sphere are
        # not counted twice; short + long then partitions the full kernel
        ker = np.where(r > 1.0, ker, 0.0)
    elif part != "full":
        raise ValueError(f"unknown kernel part {part!r}")
    return ker


@lru_cache(maxsize=16)
def _newton_kernel_hat(spec, order, part):
    """rfftn of _newton_kernel on the grid of `spec`, read-only; one per (spec, order, part)."""
    hat = rfftn(_newton_kernel(build_grid(spec), order, part))
    hat.flags.writeable = False
    return hat


def _newton(rho, kernels):
    """The circular convolutions of rho with each tabulated (order, part)
    kernel of `kernels`, from one real transform of rho; d = 3."""
    grid = rho.grid
    if grid.dim != 3:
        raise ValueError("short/long potential split is specific to d = 3")
    if grid.spec.box_half_length <= 2.0:
        raise ValueError("short/long split needs box_half_length > 2 to resolve the |x| <= 1 cutoff")
    rho_hat = rfftn(rho.values)
    out = []
    for order, part in kernels:
        conv = irfftn(rho_hat * _newton_kernel_hat(grid.spec, order, part), s=grid.x_shape)
        conv *= grid.x_weight
        out.append(SpatialField(grid, conv))
    return tuple(out)


def newtonian_potential(rho: SpatialField, order=0) -> SpatialField:
    """Convolution of rho with the full tabulated kernel 1/(4 pi |x|^(1+order)), d=3."""
    return _newton(rho, ((order, "full"),))[0]


def split_short_long(rho: SpatialField, order=0):
    """Short-range and long-range parts of the d=3 Newtonian potential.

    order 0 splits S; order 1 splits the radial bound on grad S (kernel
    1/(4 pi |x|^2)). The parts sum to the full tabulated-kernel potential
    exactly (same FFTs, linearity).
    """
    return _newton(rho, ((order, "short"), (order, "long")))


def newton_parts(rho: SpatialField):
    """The full order-0 potential and the short-range parts of the order-0
    and order-1 splits, bit for bit newtonian_potential(rho),
    split_short_long(rho, 0)[0] and split_short_long(rho, 1)[0], from one
    real transform of rho."""
    return _newton(rho, ((0, "full"), (0, "short"), (1, "short")))


def _bessel_radial(r, order, d):
    """The radial Bessel-type kernel G (order 0) or |G'| (order 1) at radii r > 0.

    G(x) = (1/4pi) int_0^inf exp(-pi |x|^2/(4s) - s/(4pi)) s^((2-d)/2) ds/s
    closes by int_0^inf s^(nu-1) exp(-a/s - b s) ds = 2 (a/b)^(nu/2)
    K_nu(2 sqrt(ab)) (Gradshteyn-Ryzhik 3.471.9, DLMF 10.32.10): with
    nu = (2-d)/2, G = (pi r)^nu K_nu(r/2) / (2 pi) and, differentiating
    under the integral, |G'| = (pi r)^nu K_(nu-1)(r/2) / (4 pi).
    """
    r = np.asarray(r, dtype=float)
    nu = (2.0 - d) / 2.0
    if order == 0:
        return (np.pi * r) ** nu * kv(nu, r / 2.0) / (2.0 * np.pi)
    return (np.pi * r) ** nu * kv(nu - 1.0, r / 2.0) / (4.0 * np.pi)


def bessel_potential_integrable(p, order, d):
    """Whether the L^p norm of G (order 0) or grad G (order 1) is finite."""
    if order == 0:
        return True if d <= 2 else p < d / (d - 2.0)
    return p < d / (d - 1.0)


def bessel_potential_norms(p, order=0, d=3, n_radial=400, r_min=1e-6) -> float:
    """Numerical L^p norm of the Bessel-type kernel G or of |grad G|.

    Radial quadrature (trapezoid in log r) of the closed form on
    [r_min, BESSEL_R_MAX = 80], plus the tail below r_min in closed form for
    the power law G ~ c r^alpha matched at r_min (the part beyond it decays like
    exp(-p r / 2) and is left out); rejects exponents at or beyond the
    integrability threshold, where alpha p + d <= 0. Doubling n_radial
    changes the result well below 0.5%.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2 or 3")
    if p < 1:
        raise ValueError("p must be >= 1")
    if not bessel_potential_integrable(p, order, d):
        thr = "d/(d-2)" if order == 0 else "d/(d-1)"
        raise ValueError(f"L^{p} norm diverges: order={order} requires p < {thr} at d={d}")
    u = np.linspace(np.log(r_min), np.log(BESSEL_R_MAX), n_radial)
    r = np.exp(u)
    g = np.abs(_bessel_radial(r, order, d))
    integrand = SPHERE_AREA[d] * g**p * r ** (d - 1) * r  # extra r from du = dr/r
    # G or |G'| ~ r^alpha as r -> 0, from K_mu(z) ~ Gamma(|mu|) (2/z)^|mu| / 2 for
    # mu != 0 (the logarithm of G in d = 2 is left out: its tail is ~1e-12)
    alpha = min(2.0 - d, 0.0) if order == 0 else 1.0 - d
    tail = SPHERE_AREA[d] * g[0] ** p * r_min**d / (alpha * p + d)
    return float((np.trapezoid(integrand, u) + tail) ** (1.0 / p))


def grad_magnitude(fields):
    """|grad S| at each position, from the "grad" entry of a field solve."""
    return np.sqrt(sum(g.values**2 for g in fields["grad"]))


def gradient_bound_check(rho: SpatialField, p) -> dict:
    """Young-inequality check ||grad S||_p <= M ||grad G||_p for the beta=1 solve.

    Returns the ratio and a pass flag at 2% slack. The kernel norm is the
    paper-normalized G (an upper kernel for the unit-normalized solve), so
    the bound is conservative.
    """
    grid = rho.grid
    d = grid.dim
    if not p < d / (d - 1.0):
        raise ValueError(f"gradient bound needs p < d/(d-1) = {d/(d-1.0)}")
    mass = field_mass(rho)
    if mass == 0.0:
        return {"ratio": 0.0, "passed": True, "mass": 0.0}
    lhs = spatial_norm(grad_magnitude(solve_field(rho, want=("grad",))), grid, p)
    bessel_norm = bessel_potential_norms(p, order=1, d=d)
    ratio = lhs / (mass * bessel_norm)
    return {"ratio": ratio, "passed": ratio <= 1.02, "mass": mass, "kernel_norm": bessel_norm}


def calderon_zygmund_check(rho: SpatialField, p) -> dict:
    """Empirical Calderon-Zygmund constant max_ij ||d_ij S||_p / ||Lap S||_p.

    1 < p < infinity, beta = 1. No universal numeric is asserted; callers
    compare the reported constant across resolutions.
    """
    if not (1.0 < p < np.inf):
        raise ValueError("Calderon-Zygmund check needs 1 < p < inf")
    grid = rho.grid
    sol = solve_field(rho, want=("S", "hess"))
    lap = sum(sol["hess"][a][a].values for a in range(grid.dim))
    lap_norm = spatial_norm(lap, grid, p)
    if lap_norm == 0.0:
        return {"ratio": 0.0, "per_pair": {}}
    per_pair = {}
    for a in range(grid.dim):
        for b in range(grid.dim):
            per_pair[(a, b)] = spatial_norm(sol["hess"][a][b].values, grid, p) / lap_norm
    return {"ratio": max(per_pair.values()), "per_pair": per_pair}
