"""Reference values computed apart from runtumble, for the correctness checks.

Each function works from raw arrays and the grid parameters alone, and
uses none of the package's numerics.
"""

import math

import numpy as np


def velocity_mask(dim, nv, r_max=1.0):
    """Cell-centred velocity nodes over [-r_max, r_max]^dim inside the ball."""
    hv = 2.0 * r_max / nv
    v = -r_max + hv * (np.arange(nv) + 0.5)
    mesh = np.meshgrid(*([v] * dim), indexing="ij")
    return np.sqrt(sum(c * c for c in mesh)) <= r_max, hv


def velocity_nodes(dim, nv, r_max=1.0):
    """Coordinates of the nodes inside the ball, shape (K, dim), in the C
    order of the mask."""
    mask, hv = velocity_mask(dim, nv, r_max)
    v = -r_max + hv * (np.arange(nv) + 0.5)
    return v[np.argwhere(mask)], hv


def _covered_cells(half_length, nx, width, center_cells):
    dx = 2.0 * half_length / nx
    x = -half_length + dx * np.arange(nx)
    covered = 1
    for c in center_cells:
        off = np.mod(x - c * dx + half_length, 2.0 * half_length) - half_length
        covered *= int(np.count_nonzero(np.abs(off) <= width))
    return covered


def cube_mass(dim, half_length, nx, nv, amplitude, width, center_cells):
    """Mass of cube data sampled at t = 0: amplitude times the covered
    position cells times the velocity nodes, with their cell volumes."""
    dx = 2.0 * half_length / nx
    mask, hv = velocity_mask(dim, nv)
    covered = _covered_cells(half_length, nx, width, center_cells)
    return amplitude * covered * dx**dim * int(mask.sum()) * hv**dim


def cube_norm(dim, half_length, nx, nv, amplitude, width, center_cells, p, q):
    """L^p_x L^q_v norm of cube data sampled at t = 0, in closed form:
    amplitude * (velocity measure)^(1/q) * (covered volume)^(1/p)."""
    dx = 2.0 * half_length / nx
    mask, hv = velocity_mask(dim, nv)
    covered = _covered_cells(half_length, nx, width, center_cells)
    return amplitude * (int(mask.sum()) * hv**dim) ** (1.0 / q) * (covered * dx**dim) ** (1.0 / p)


def node_norm(nodes, dx, hv, p, q):
    """L^p_x L^q_v norm of values at the velocity nodes, shape x_shape + (K,)."""
    dim = nodes.ndim - 1
    inner = (hv**dim * np.sum(np.abs(nodes) ** q, axis=-1)) ** (1.0 / q)
    return float((dx**dim * np.sum(inner**p)) ** (1.0 / p))


def phase_norm(values, dx, nv, p, q):
    """L^p_x L^q_v norm of a dense f(x, v) array over the masked velocity nodes."""
    mask, hv = velocity_mask(values.ndim // 2, nv)
    return node_norm(values[(Ellipsis,) + np.nonzero(mask)], dx, hv, p, q)


def running_norm(series, dt, r):
    """(int_0^T a(t)^r dt)^(1/r) at the last sample, by the trapezoid rule."""
    a = np.asarray(series, dtype=float) ** r
    return float((dt * np.sum(0.5 * (a[1:] + a[:-1]))) ** (1.0 / r))


_STENCIL = (-1.0, 0.0, 1.0, 2.0)


def cubic_shift(a, disp, dx, axis):
    """out(x) = a(x - disp) along one periodic axis: the Lagrange cubic
    through the four nodes around x - disp, clamped to the range of the two
    nodes that bracket it."""
    s = disp / dx
    m = math.floor(s)
    u = 1.0 - (s - m)   # offset of x - disp from node i - m - 1, in cells
    nodes = [np.roll(a, m + 1 - int(k), axis=axis) for k in _STENCIL]
    weights = [math.prod((u - t) / (k - t) for t in _STENCIL if t != k) for k in _STENCIL]
    out = sum(w * node for w, node in zip(weights, nodes))
    return np.clip(out, np.minimum(nodes[1], nodes[2]), np.maximum(nodes[1], nodes[2]))


def _shifted(cache, disp, dx):
    """The cached field shifted by disp, one axis after another in order."""
    if disp not in cache:
        prev = _shifted(cache, disp[:-1], dx)
        d = disp[-1]
        cache[disp] = prev if d == 0.0 else cubic_shift(prev, d, dx, axis=len(disp) - 1)
    return cache[disp]


def history_sum(fields, nodes, dt, dx):
    """dt sum_m F_{n-1-m}(x - s_m v_j) with s_m = (m + 1/2) dt, for the
    n + 1 fields F_0 .. F_n stored from t = 0: the midpoint rule of a
    history integral over [0, t_n], per velocity node, shape x_shape + (K,)."""
    n = len(fields) - 1
    out = np.zeros(fields[0].shape + (len(nodes),))
    for m in range(n):
        s_mid = (m + 0.5) * dt
        cache = {(): fields[n - 1 - m]}
        for j, v in enumerate(nodes):
            out[..., j] += dt * _shifted(cache, tuple(float(s_mid * c) for c in v), dx)
    return out


def phase_mass(values, dx, nv):
    """Mass of a dense f(x, v) array: sum over the masked velocity nodes."""
    dim = values.ndim // 2
    mask, hv = velocity_mask(dim, nv)
    return float(values[(Ellipsis,) + np.nonzero(mask)].sum()) * (dx * hv) ** dim


def helmholtz(rho, dx):
    """S with S - Lap S = rho on the periodic grid, by a real FFT."""
    n = rho.shape[0]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)
    kr = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    axes = [k] * (rho.ndim - 1) + [kr]
    k2 = sum(np.square(a).reshape([-1 if i == j else 1 for j in range(rho.ndim)])
             for i, a in enumerate(axes))
    return np.fft.irfftn(np.fft.rfftn(rho) / (1.0 + k2), s=rho.shape)


def newton_direct(rho, dx, points):
    """Min-image sum of rho(y) / (4 pi |x - y|) dy at grid points x (d = 3).

    The cell y = x contributes rho(x) times the integral of 1 / (4 pi |z|)
    over the ball with the cell's volume, a_eq^2 / 2.
    """
    n = rho.shape[0]
    a_eq = (3.0 * dx**3 / (4.0 * math.pi)) ** (1.0 / 3.0)
    idx = np.arange(n)
    out = []
    for p in points:
        offs = [((idx - p[a] + n // 2) % n - n // 2) * dx for a in range(3)]
        r = np.sqrt(offs[0][:, None, None] ** 2 + offs[1][None, :, None] ** 2
                    + offs[2][None, None, :] ** 2)
        r[tuple(p)] = np.inf
        direct = float(np.sum(rho / (4.0 * math.pi * r))) * dx**3
        out.append(direct + rho[tuple(p)] * a_eq**2 / 2.0)
    return np.array(out)


def scattering_at(f_nodes, A, B, hv_dim, dt):
    """One explicit scattering update at one position from the dense kernel
    T[j, k] = A[j] + B[k]: f + dt * (gain - loss), with
    gain_j = w sum_k T[j, k] f_k and loss_j = f_j w sum_k T[k, j]."""
    T = A[:, None] + B[None, :]
    gain = hv_dim * (T @ f_nodes)
    loss = f_nodes * hv_dim * T.sum(axis=0)
    return f_nodes + dt * (gain - loss)


def spatial_norms(rho, cell_volume, exponents):
    """(cell_volume * sum rho^p)^(1/p), and max rho for p = inf."""
    return [float(rho.max()) if p == math.inf
            else float((cell_volume * np.sum(rho**p)) ** (1.0 / p)) for p in exponents]
