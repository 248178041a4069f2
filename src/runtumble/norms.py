"""Mixed Lebesgue norms on phase-space fields.

Norms carry the grid quadrature weights so the discrete Hoelder and
interpolation inequalities hold exactly. Infinite exponents are computed
as exact maxima, never as large-p surrogates. The inner velocity norms are
taken only on the box that a field carries (DistributionField.box).
"""

import math
from dataclasses import dataclass

import numpy as np

from runtumble.exponents import is_exponent
from runtumble.grid import DistributionField, occupied_box

INF = math.inf
INTERPOLATION_RTOL = 1e-12  # relative roundoff allowed in interpolation_check


@dataclass(frozen=True)
class NormSpec:
    """Exponents of an L^p_x L^q_v norm."""

    p: float
    q: float

    def __post_init__(self):
        for e in (self.p, self.q):
            if not is_exponent(e):
                raise ValueError(f"exponent {e} must be >= 1 or inf")


def mixed_norm(f: DistributionField, spec: NormSpec) -> float:
    """|| ||f(x, .)||_{L^q_v} ||_{L^p_x} with grid quadrature weights, on
    the box that f carries (compact_mixed_norm)."""
    return compact_mixed_norm(f.nodes, f.grid, spec.p, spec.q, box=f.box)


def spatial_norm(values, grid, p) -> float:
    """L^p norm on the position grid."""
    a = np.abs(values)
    if p == INF:
        return float(a.max())
    return float((grid.x_weight * np.sum(a**p)) ** (1.0 / p))


def compact_mixed_norm(nodes, grid, p, q, box=None) -> float:
    """Mixed norm of values at the masked velocity nodes, node-first: shape (K,) + x_shape.

    The inner L^q_v norms are taken on a contiguous copy of the occupied
    box only, and put into an x-shaped array of zeros: outside that box
    every inner norm is +0.0 in any case. The box is `box` when given (the
    box that a field carries, DistributionField.box), else
    grid.occupied_box(nodes), for a node array that is not a field's.
    The outer L^p_x norm is the full spatial_norm, so its sum adds the same
    array in the same order as a sweep over all positions.
    """
    box = box or occupied_box(nodes)
    a = np.abs(nodes[(slice(None),) + box])
    inner = np.zeros(nodes.shape[1:])
    if q == INF:
        inner[box] = a.max(axis=0)
    else:
        a **= q  # the same power dispatch as a**q, without a second copy
        inner[box] = (grid.hv ** grid.dim * np.sum(a, axis=0)) ** (1.0 / q)
    return spatial_norm(inner, grid, p)


def interpolation_check(f: DistributionField, p, q, theta) -> dict:
    """Check ||f||_{L^q_x L^c_v} <= ||f||_{1,1}^(1-theta) ||f||_{p,q}^theta.

    Requires the exponent relation 1/q = 1 - theta + theta/p (which also
    defines 1/c = 1 - theta + theta/q); Hoelder then gives the inequality exactly
    in the weighted discrete setting, up to the roundoff INTERPOLATION_RTOL = 1e-12.
    """
    iq = 1.0 - theta + theta / p if p != INF else 1.0 - theta
    if abs(iq - 1.0 / q) > 1e-10:
        raise ValueError(f"theta={theta} inconsistent with (p, q)=({p}, {q})")
    c = 1.0 / (1.0 - theta + theta / q)
    lhs = mixed_norm(f, NormSpec(p=q, q=c))
    low = mixed_norm(f, NormSpec(p=1, q=1))
    high = mixed_norm(f, NormSpec(p=p, q=q))
    rhs = low ** (1.0 - theta) * high**theta
    return {
        "lhs": lhs,
        "rhs": rhs,
        "c": c,
        "holds": lhs <= rhs * (1.0 + INTERPOLATION_RTOL) + 1e-300,
    }
