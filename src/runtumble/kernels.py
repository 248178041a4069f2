"""Turning-kernel families, the scattering operator, and kernel mixed norms.

Each family is the bounding expression of one of the admissible kernel
classes, so the corresponding hypothesis holds with equality by
construction. Every family decomposes as T(x, v, v') = A(x, v) + B(x, v'),
which the scattering update exploits: gains and losses reduce to velocity
averages of A and B, and mass neutrality is an algebraic identity of the
discrete update, pointwise in x.

Components, loss rates and kernel norms are node-first, (K,) + x_shape like the
state of DistributionField; only kernel_components hands out x_shape + (K,) views.
hyp3 builds each (input, sign) offset stack once. On a grid whose velocity
nodes pair exactly with their mirrors -v (PhaseGrid.vreflect, the reversal
of the node order), the stack at the opposite sign is that stack reversed,
and when B's terms mirror A's (the default signs) B is A[vreflect], a
reversed read-only view of A; both are bit-identical to building the
stacks again.

The scattering update reuses the arrays that building the components made:
the loss rate goes into B's array (or into the offset stack that hyp3's
mirrored A has consumed) and the gain into A's, and it writes the new state
into a caller's array when given one, which may be the state itself. The
kernels with no v'-part (constant, hyp2) have a loss rate that does not
depend on v, so it is an x_shape field, and their gain needs no velocity
sum over B.
"""

from dataclasses import dataclass

import numpy as np

from runtumble.grid import DistributionField, PhaseGrid, density
from runtumble.interp import interp_point, velocity_offset_stack
from runtumble.norms import spatial_norm

FAMILIES = ("constant", "hyp1", "hyp2", "hyp3")


@dataclass(frozen=True)
class KernelSpec:
    """A turning-kernel family with its coefficients and offset choices.

    signs applies to hyp3 only: offsets (S at x+s1*eps*v, S at x+s2*eps*v',
    |grad S| at x+s3*eps*v, |grad S| at x+s4*eps*v'), each entry +1 or -1.
    active masks the four hyp3 terms in the same order. saturation, when
    set, clamps each of the two kernel components at saturation/2 so that
    T <= saturation pointwise.
    """

    family: str = "constant"
    coefficient: float = 1.0
    epsilon: float = 1.0
    signs: tuple = (1, -1, 1, -1)
    active: tuple = (True, True, True, True)
    saturation: float = None

    def validate(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.coefficient < 0:
            raise ValueError("coefficient must be >= 0")
        if self.epsilon < 0:
            raise ValueError("memory scale epsilon must be >= 0")
        if self.saturation is not None and self.saturation < 0:
            raise ValueError("saturation must be >= 0")
        if self.family == "hyp3":
            if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
                raise ValueError("hyp3 needs four signs in {-1, +1}")
            if len(self.active) != 4:
                raise ValueError("hyp3 needs four active flags")

    def required_fields(self):
        if self.family == "constant":
            return set()
        if self.family == "hyp1":
            return {"S", "grad"}
        if self.family == "hyp2":
            return {"S", "grad", "hess"}
        active = self.active
        need = set()
        if active[0] or active[1]:
            need.add("S")
        if active[2] or active[3]:
            need.add("grad")
        return need


def _check_fields(spec, fields):
    missing = spec.required_fields() - set(fields)
    if missing:
        raise ValueError(f"kernel family {spec.family!r} needs fields {sorted(missing)}")


def _grad_magnitude(fields):
    return np.sqrt(sum(g.values**2 for g in fields["grad"]))


def _hyp2_weight(fields):
    w = np.abs(fields["S"].values)
    for g in fields["grad"]:
        w = w + np.abs(g.values)
    for row in fields["hess"]:
        for h in row:
            w = w + np.abs(h.values)
    return w


class PositivityError(ValueError):
    """The scattering dt violates the positivity threshold dt * sup rate < 1."""


def _offset_stack(values, grid, sign, eps):
    """Stack values(x + sign*eps*v_j) over the masked velocity nodes -> (K,) + x_shape."""
    return velocity_offset_stack(values, grid.vnodes, -sign * eps, grid.dx)


def _loss_rate(A, B, grid, out=None):
    """sum_j' w_j' T(x, v_j', v) from node-first components.

    With no v'-part (B is None) the rate does not depend on v and is an
    x_shape field; else it is (K,) + x_shape, written to `out` when given,
    which may be B itself.
    """
    rate = grid.hv ** grid.dim * A.sum(axis=0)
    if B is None:
        return rate
    full = np.multiply(B, grid.velocity_measure, out=out)
    full += rate
    return full


def _components(spec, fields, grid):
    """Node-first, saturated (A, B, spare) of the split T = A(x, v) + B(x, v').

    A is an array of the caller's own, or a read-only broadcast (the
    constant kernel). B is None for the kernels with no v'-part (constant,
    hyp2); else an array of the caller's own, or a read-only view of A
    (hyp3's mirrored B). spare, when not None, is an array of the caller's
    own, of the state's shape, that holds nothing needed once B has been
    read: B's own array, or the offset stack that hyp3's mirrored A has
    consumed.
    """
    spec.validate()
    _check_fields(spec, fields)
    if spec.family == "hyp3":
        return _hyp3_components(spec, fields, grid)
    C, eps = spec.coefficient, spec.epsilon
    B = None
    if spec.family == "constant":
        A = np.broadcast_to(float(C), (grid.n_vnodes,) + grid.x_shape)
    elif spec.family == "hyp1":
        # C * (1.0 + stack) and C * stack, in place in the fresh stacks:
        # IEEE addition and multiplication commute, so the bits are the same
        S = fields["S"].values
        A = _offset_stack(S + _grad_magnitude(fields), grid, +1, eps)
        A += 1.0
        A *= C
        B = _offset_stack(S, grid, -1, eps)
        B *= C
    else:  # hyp2
        A = _offset_stack(_hyp2_weight(fields), grid, +1, eps)
        A += 1.0
        A *= C
    A = _saturate(A, spec)
    if B is None:
        return A, None, None
    B = _saturate(B, spec)
    return A, B, B


def kernel_components(spec: KernelSpec, fields, grid: PhaseGrid):
    """The split T(x, v, v') = A(x, v) + B(x, v') on the grid.

    Returns (A, B), each an x_shape + (K,) array over the masked velocity
    nodes (A indexed by v, B by v'): a transposed view of a node-first
    array, or a read-only broadcast of a constant. When hyp3's B mirrors A,
    B is a view of A and both are read-only.
    """
    A, B, _ = _components(spec, fields, grid)
    if B is None:
        B = _saturate(np.broadcast_to(0.0, A.shape), spec)
    elif B.base is A:  # hyp3's mirrored B
        A.flags.writeable = False
    return np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1)


def _saturate(part, spec):
    return part if spec.saturation is None else np.minimum(part, spec.saturation / 2.0)


def _hyp3_components(spec, fields, grid):
    """Node-first, saturated (A, B, spare) of hyp3, as _components returns
    them, bit for bit C * (0 + term + term) per part.

    Each (input, sign) offset stack is built once. On a grid with vreflect
    r, a term whose opposite-sign stack exists is the view [r] of it:
    negating a displacement is exact, so stack(-sign)[j] and stack(sign)[r[j]]
    agree bit for bit. When B's active terms mirror A's (s2 = -s1, s4 = -s3,
    the default signs), B is A[r] itself, a read-only view; the coefficient
    and saturation are elementwise, so they commute with the reordering.
    Then no other part reads A's stacks, so A is summed and scaled in its
    first stack, and its second stack is the spare.
    """
    C, eps, r = spec.coefficient, spec.epsilon, grid.vreflect
    inputs = {}
    if spec.active[0] or spec.active[1]:
        inputs["S"] = np.abs(fields["S"].values)
    if spec.active[2] or spec.active[3]:
        inputs["grad"] = _grad_magnitude(fields)
    names = ("S", "S", "grad", "grad")
    a_terms = [(names[i], spec.signs[i]) for i in (0, 2) if spec.active[i]]  # offsets along v
    b_terms = [(names[i], spec.signs[i]) for i in (1, 3) if spec.active[i]]  # offsets along v'
    mirrored = r is not None and b_terms == [(name, -sign) for name, sign in a_terms]
    stacks = {}

    def stack(name, sign):
        if (name, sign) not in stacks:
            if r is not None and (name, -sign) in stacks:
                return stacks[name, -sign][r]
            stacks[name, sign] = _offset_stack(inputs[name], grid, sign, eps)
        return stacks[name, sign]

    def part(terms, in_place):
        # the stacks hold no -0.0 (|S| and |grad S| are >= +0, and so is a
        # limited shift of such values), so leaving out the 0 + changes no bit
        rows = [stack(*t) for t in terms]
        if not rows:
            return C * np.zeros((grid.n_vnodes,) + grid.x_shape)
        into = rows[0] if in_place else None
        if len(rows) == 1:
            return np.multiply(rows[0], C, out=into)
        total = np.add(*rows, out=into)
        total *= C
        return total

    A = _saturate(part(a_terms, mirrored), spec)
    if mirrored:
        B = A[r]
        B.flags.writeable = False
        return A, B, stacks[a_terms[1]] if len(a_terms) == 2 else None
    B = _saturate(part(b_terms, False), spec)
    return A, B, B


def evaluate_kernel(spec: KernelSpec, fields, grid: PhaseGrid, x, v, vp) -> float:
    """Pointwise kernel value T(x, v, v') with periodic cubic offset sampling.

    Saturation clamps the v-part and the v'-part at saturation/2 each, as
    kernel_components does, so T equals A + B at the grid nodes.
    """
    spec.validate()
    _check_fields(spec, fields)
    C, eps = spec.coefficient, spec.epsilon
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    vp = np.asarray(vp, dtype=float)
    x0, dx = grid.x[0], grid.dx

    def at(values, point):
        return interp_point(values, x0, dx, point)

    # the v-part a and the v'-part b of T = A(x, v) + B(x, v')
    if spec.family == "constant":
        a, b = C, 0.0
    elif spec.family == "hyp1":
        S = fields["S"].values
        a = C * (1.0 + at(S, x + eps * v) + at(_grad_magnitude(fields), x + eps * v))
        b = C * at(S, x - eps * vp)
    elif spec.family == "hyp2":
        a, b = C * (1.0 + at(_hyp2_weight(fields), x + eps * v)), 0.0
    else:
        s = spec.signs
        on = spec.active
        a = b = 0.0
        if on[0]:
            a += at(np.abs(fields["S"].values), x + s[0] * eps * v)
        if on[1]:
            b += at(np.abs(fields["S"].values), x + s[1] * eps * vp)
        if on[2]:
            a += at(_grad_magnitude(fields), x + s[2] * eps * v)
        if on[3]:
            b += at(_grad_magnitude(fields), x + s[3] * eps * vp)
        a, b = C * a, C * b
    if spec.saturation is not None:
        a = min(a, spec.saturation / 2.0)
        b = min(b, spec.saturation / 2.0)
    return float(a + b)


def loss_rate(spec: KernelSpec, fields, grid: PhaseGrid):
    """Total tumbling rate out of each node: sum_j' w_j' T(x, v_j', v), shape (K,) + x_shape.

    A read-only view; for the kernels with no v'-part, a broadcast of an
    x_shape field.
    """
    A, B, _ = _components(spec, fields, grid)
    return np.broadcast_to(_loss_rate(A, B, grid), A.shape)


def scattering_apply(f: DistributionField, spec: KernelSpec, fields, dt: float,
                     rho=None, out=None) -> DistributionField:
    """Explicit scattering update f + dt * (gain - loss).

    gain(x, v) = sum_j' w_j' T(x, v, v_j') f(x, v_j'), loss(x, v) =
    f(x, v) * sum_j' w_j' T(x, v_j', v). Raises PositivityError for dt
    above the positivity threshold dt * sup loss_rate < 1; under the guard
    the update preserves nonnegativity, and x-integrated gain equals
    x-integrated loss by the (v, v') swap antisymmetry of the discrete sums.
    rho, when given, must be density(f), so that it is not computed again.
    The new state is written to `out` when given, which may be f.nodes,
    else to a new array; nothing is written to `out` before the guard
    passes, and f is left as it is otherwise.

    The rate and the gain are formed in the arrays that building the
    components made, and are bit-identical to fresh temporaries: where B
    is zero, the rate vm * 0 + s is s and the gain g + w * 0 is g, because
    s and g are >= +0.
    """
    grid = f.grid
    fm = f.nodes
    w = grid.hv ** grid.dim
    A, B, spare = _components(spec, fields, grid)
    # the v'-part of the gain, read before B's array takes the rate
    gain_b = None if B is None else w * np.einsum("k...,k...->...", B, fm)
    rate = _loss_rate(A, B, grid, out=spare)
    max_rate = float(rate.max())
    if dt * max_rate >= 1.0:
        raise PositivityError(
            f"scattering dt={dt} violates the positivity threshold: "
            f"dt * sup rate = {dt * max_rate:.3e} >= 1")

    rho_values = (density(f) if rho is None else rho).values
    gain = np.multiply(A, rho_values, out=A if A.flags.writeable else None)
    if gain_b is not None:
        gain += gain_b
    # out = fm * (1 - dt * rate) + dt * gain
    np.multiply(rate, dt, out=rate)
    np.subtract(1.0, rate, out=rate)
    if out is None:
        out = rate if rate.shape == fm.shape else np.empty_like(fm)
    np.multiply(rate, fm, out=out)
    gain *= dt
    out += gain
    return DistributionField.from_nodes(grid, out, t=f.t)


def kernel_mixed_norm(spec: KernelSpec, fields, grid: PhaseGrid, p1, p2, p3) -> float:
    """Mixed norm ||T||_{L^p1_x L^p2_v L^p3_v'} (innermost v', then v, then x).

    Requires p1 >= p2 and p1 >= p3, the direction in which Minkowski's
    inequality controls the norm by ||S||_p1 + ||grad S||_p1.
    """
    inf = np.inf

    def ge(a, b):
        return a == inf or (b != inf and a >= b)

    if not (ge(p1, p2) and ge(p1, p3)):
        raise ValueError(f"need p1 >= p2 and p1 >= p3, got ({p1}, {p2}, {p3})")
    K = grid.n_vnodes
    A, B, _ = _components(spec, fields, grid)
    B = np.broadcast_to(0.0, A.shape) if B is None else B
    A, B = A.reshape(K, -1), B.reshape(K, -1)
    w = grid.hv ** grid.dim

    mid = np.zeros(A.shape[1])
    for j in range(K):
        T = np.abs(A[j] + B)  # T[j', x] = |A(x, v_j) + B(x, v_j')|
        if p3 == inf:
            inner = T.max(axis=0)
        else:
            inner = (w * np.sum(T**p3, axis=0)) ** (1.0 / p3)
        if p2 == inf:
            mid = np.maximum(mid, inner)
        else:
            mid += w * inner**p2
    if p2 != inf:
        mid = mid ** (1.0 / p2)
    return spatial_norm(mid.reshape(grid.x_shape), grid, p1)


def mixed_norm_bound_report(spec: KernelSpec, fields, grid: PhaseGrid, p1, p2, p3) -> dict:
    """Compare the kernel mixed norm with its Minkowski bound.

    Bound: coefficient * |V|^(1/p2 + 1/p3) * (nS ||S||_p1 + nG ||grad S||_p1)
    where nS, nG count the active S- and gradient-type terms of the family.
    """
    if spec.family == "hyp3":
        nS = int(spec.active[0]) + int(spec.active[1])
        nG = int(spec.active[2]) + int(spec.active[3])
    elif spec.family == "hyp1":
        raise ValueError("mixed-norm bound applies to pure S-term kernels (hyp3); "
                         "hyp1/hyp2 carry a constant term")
    else:
        raise ValueError(f"mixed-norm bound not defined for family {spec.family!r}")
    value = kernel_mixed_norm(spec, fields, grid, p1, p2, p3)
    wsum = grid.velocity_measure
    cV = wsum ** ((0.0 if p2 == np.inf else 1.0 / p2) + (0.0 if p3 == np.inf else 1.0 / p3))
    s_norm = spatial_norm(fields["S"].values, grid, p1) if nS else 0.0
    g_norm = spatial_norm(_grad_magnitude(fields), grid, p1) if nG else 0.0
    bound = spec.coefficient * cV * (nS * s_norm + nG * g_norm)
    ratio = 0.0 if bound == 0.0 and value == 0.0 else value / bound
    return {"value": value, "bound": bound, "ratio": ratio, "passed": ratio <= 1.05}
