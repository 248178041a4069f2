"""Turning-kernel families, the scattering operator, and kernel mixed norms.

Each family is the bounding expression of one of the admissible kernel
classes, so the corresponding hypothesis holds with equality by
construction. One table, _terms, defines every family: T(x, v, v') =
C * (c + sum of its terms), where a term (input, sign) is a field built
from S (one of _INPUTS) sampled at x + sign*eps*v (a term of A) or at
x + sign*eps*v' (a term of B). So every family splits as
T(x, v, v') = A(x, v) + B(x, v'), the constant c in A, and B is absent
when no term reads v'. The components builder, the pointwise kernel, the
fields a family needs and the Minkowski bound all read that table.

The scattering update exploits the split: gains and losses reduce to
velocity averages of A and B, and mass neutrality is an algebraic identity
of the discrete update, pointwise in x. Components, loss rates and kernel
norms are node-first, (K,) + x_shape like the state of DistributionField;
only kernel_components hands out x_shape + (K,) views.

Each (input, sign) offset stack is built once. On a grid whose velocity
nodes pair exactly with their mirrors -v (PhaseGrid.vreflect, the reversal
of the node order), the stack at the opposite sign is that stack reversed,
and when B's terms mirror A's (hyp3's default signs) B is A[vreflect], a
reversed read-only view of A; both are bit-identical to building the
stacks again. A part is summed and scaled in its first stack when the
other part does not read that stack.

The scattering update reuses the arrays that building the components made:
the loss rate goes into B's array (or into the offset stack that a
mirrored A has consumed) and the gain into A's, and the new state goes
into a new array or, in place, into the state itself. A kernel with no
v'-part (constant, hyp2, hyp3 with no v' term) has a loss rate that does
not depend on v, so it is an x_shape field, and its gain needs no velocity
sum over B.

Scattering works only on the box that f carries (DistributionField.box),
when the positivity guard can be decided without the rate, and its result
carries the same box. The limiter keeps every shifted value inside its
stencil's range, so no offset stack exceeds the maximum of its input, and
the same operations as the components on the inputs' maxima bound sup_x
of the rate without building any stack (_rate_bound). When dt times that
bound is below 1, the guard passes, and the components, the rate, the
gain and the update are formed only on that box, each stack reading its
input on the box grown by its reach and cutting each axis to the box as
it shifts it (interp.stack_on_box); outside it f is +0.0 and so is the
full update.
Otherwise (a large dt or coefficient, or a NaN field) the update runs on
the whole grid with the exact guard. loss_rate, kernel_components and
kernel_mixed_norm always work on the whole grid.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from runtumble.exponents import exponent_ge
from runtumble.fields import grad_magnitude
from runtumble.grid import DistributionField, PhaseGrid, density
from runtumble.interp import interp_point, stack_on_box
from runtumble.norms import spatial_norm

FAMILIES = ("constant", "hyp1", "hyp2", "hyp3")


@dataclass(frozen=True)
class KernelSpec:
    """A turning-kernel family with its coefficients and offset choices.

    signs applies to hyp3 only: offsets (S at x+s1*eps*v, S at x+s2*eps*v',
    |grad S| at x+s3*eps*v, |grad S| at x+s4*eps*v'), each entry +1 or -1.
    active masks the four hyp3 terms in the same order.
    """

    family: str = "constant"
    coefficient: float = 1.0
    epsilon: float = 1.0
    signs: tuple = (1, -1, 1, -1)
    active: tuple = (True, True, True, True)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # the `not x >= 0` form rejects NaN too
        if not self.coefficient >= 0:
            raise ValueError("coefficient must be >= 0")
        if not self.epsilon >= 0:
            raise ValueError("memory scale epsilon must be >= 0")
        if self.family == "hyp3":
            if len(self.signs) != 4 or any(s not in (-1, 1) for s in self.signs):
                raise ValueError("hyp3 needs four signs in {-1, +1}")
            if len(self.active) != 4:
                raise ValueError("hyp3 needs four active flags")

    def required_fields(self):
        _, a_terms, b_terms = _terms(self)
        return set().union(*(_INPUTS[name][0] for name, _ in a_terms + b_terms))


def _hyp2_weight(fields):
    w = np.abs(fields["S"].values)
    for g in fields["grad"]:
        w = w + np.abs(g.values)
    for row in fields["hess"]:
        for h in row:
            w = w + np.abs(h.values)
    return w


# input name -> (the fields it reads, the x_shape array it forms from them)
_INPUTS = {
    "S": ({"S"}, lambda fields: fields["S"].values),
    "|S|": ({"S"}, lambda fields: np.abs(fields["S"].values)),
    "|grad S|": ({"grad"}, grad_magnitude),
    "S + |grad S|": ({"S", "grad"}, lambda fields: fields["S"].values + grad_magnitude(fields)),
    "|S| + |DS|_1 + |D2S|_1": ({"S", "grad", "hess"}, _hyp2_weight),
}


def _terms(spec):
    """(c, a_terms, b_terms) of T = C * (c + sum of terms), the one place a
    family is told apart. A term (input, sign) samples _INPUTS[input] at
    x + sign*eps*v in a_terms and at x + sign*eps*v' in b_terms."""
    if spec.family == "constant":
        return 1.0, [], []
    if spec.family == "hyp1":
        return 1.0, [("S + |grad S|", +1)], [("S", -1)]
    if spec.family == "hyp2":
        return 1.0, [("|S| + |DS|_1 + |D2S|_1", +1)], []
    s, on = spec.signs, spec.active
    names = ("|S|", "|S|", "|grad S|", "|grad S|")
    return (0.0, [(names[i], s[i]) for i in (0, 2) if on[i]],
            [(names[i], s[i]) for i in (1, 3) if on[i]])


def _inputs(spec, fields):
    """{input name: x_shape array} of every term of a spec, each formed once."""
    missing = spec.required_fields() - set(fields)
    if missing:
        raise ValueError(f"kernel family {spec.family!r} needs fields {sorted(missing)}")
    _, a_terms, b_terms = _terms(spec)
    return {name: _INPUTS[name][1](fields) for name, _ in a_terms + b_terms}


_ROUNDING = 1e-9  # relative margin of _rate_bound for the rounding of the velocity sums


class PositivityError(ValueError):
    """The scattering dt violates the positivity threshold dt * sup rate < 1."""


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


def _rate_bound(spec, inputs, grid):
    """An upper bound on sup_x of the loss rate that builds no offset stack.

    The limiter keeps every shifted value inside its stencil's range, so no
    offset stack exceeds its input's maximum. _components' operations on
    the stacks (sums in the same order, + c, * C >= 0) are
    monotone, also in floating point, so the same operations on the
    maxima bound each part: a for A and b for B. The rate w sum_j A_j +
    |V| B is then at most |V| (a + b), up to the rounding of the velocity
    sums, which _ROUNDING covers with a wide margin. NaN in an input
    gives NaN.
    """
    c, a_terms, b_terms = _terms(spec)
    peak = {name: float(values.max()) for name, values in inputs.items()}

    def part(terms, c):
        return (sum(peak[name] for name, _ in terms) + c) * spec.coefficient

    a, b = part(a_terms, c), part(b_terms, 0.0)
    vm = grid.velocity_measure
    return vm * (a + b) + _ROUNDING * vm * (abs(a) + abs(b))


def _components(spec, inputs, grid, box=None):
    """Node-first (A, B, spare) of the split T = A(x, v) + B(x, v'),
    built from _terms and the formed inputs (_inputs), bit for bit
    C * (c + term + term) per part.

    Every array is built only on `box`, a tuple of slices of the position
    grid (the whole grid when None), (K,) + that box's shape, bit for bit
    the full arrays' [:, box]: each offset stack reads its input on the
    box grown by the stack's reach only, and is box-shaped (stack_on_box).

    A is an array of the caller's own, or a read-only broadcast (a part
    with no terms, such as the constant kernel's). B is None when no term
    reads v'; else an array of the caller's own, or a read-only view of A
    (a mirrored B). spare, when not None, is an array of the caller's own,
    of the state's shape, that holds nothing needed once B has been read:
    B's own array, or the offset stack that a mirrored A has consumed.

    Each (input, sign) offset stack is built once. On a grid with vreflect
    r, a term whose opposite-sign stack exists is the view [r] of it:
    negating a displacement is exact, so stack(-sign)[j] and stack(sign)[r[j]]
    agree bit for bit. When B's terms mirror A's, B is A[r] itself, a
    read-only view; the coefficient is elementwise, so it commutes with the
    reordering.
    """
    c, a_terms, b_terms = _terms(spec)
    C, eps, r = spec.coefficient, spec.epsilon, grid.vreflect
    mirrored = r is not None and b_terms == [(name, -sign) for name, sign in a_terms]
    box = box or (slice(None),) * grid.dim
    stacks = {}

    def stack(name, sign):
        if (name, sign) not in stacks:
            if r is not None and (name, -sign) in stacks:
                return stacks[name, -sign][r]
            stacks[name, sign] = stack_on_box(inputs[name], grid.vnodes, -sign * eps, grid.dx, box)
        return stacks[name, sign]

    def part(terms, c, others):
        # C * (c + sum of the stacks). The first operation writes into the
        # first stack when no term of `others` reads that stack, else into a
        # new array. A part has at most one term per input, so its stacks
        # are distinct; with c = 0 the 0 + is left out, since the stacks
        # hold no -0.0 (hyp3's inputs are >= +0, and so is a limited shift)
        if not terms:
            return np.broadcast_to(C * c, (grid.n_vnodes,) + grid.x_shape)[(slice(None),) + box]
        name, sign = terms[0]
        shared = (name, sign) in others or (r is not None and (name, -sign) in others)
        rows = [stack(*t) for t in terms]
        ops = [(np.add, row) for row in rows[1:]] + [(np.add, c)] * bool(c) + [(np.multiply, C)]
        total = rows[0]
        for i, (op, operand) in enumerate(ops):
            total = op(total, operand, out=None if shared and i == 0 else total)
        return total

    # a mirrored B is A[r], so then no other part reads A's stacks
    A = part(a_terms, c, [] if mirrored else b_terms)
    if not b_terms:
        return A, None, None
    if mirrored:
        B = A[r]
        B.flags.writeable = False
        return A, B, stacks[a_terms[1]] if len(a_terms) == 2 else None
    B = part(b_terms, 0.0, a_terms)
    return A, B, B


def kernel_components(spec: KernelSpec, fields, grid: PhaseGrid):
    """The split T(x, v, v') = A(x, v) + B(x, v') on the grid.

    Returns (A, B), each an x_shape + (K,) array over the masked velocity
    nodes (A indexed by v, B by v'): a transposed view of a node-first
    array, or a read-only broadcast of a constant. When B mirrors A, B is
    a view of A and both are read-only.
    """
    A, B, _ = _components(spec, _inputs(spec, fields), grid)
    if B is None:
        B = np.broadcast_to(0.0, A.shape)
    elif B.base is A:  # a mirrored B
        A.flags.writeable = False
    return np.moveaxis(A, 0, -1), np.moveaxis(B, 0, -1)


def evaluate_kernel(spec: KernelSpec, fields, grid: PhaseGrid, x, v, vp) -> float:
    """Pointwise kernel value T(x, v, v') = A(x, v) + B(x, v') with periodic
    cubic offset sampling, from the same _terms as kernel_components."""
    inputs = _inputs(spec, fields)
    C, eps = spec.coefficient, spec.epsilon
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    vp = np.asarray(vp, dtype=float)
    x0, dx = grid.x[0], grid.dx

    # the v-part a and the v'-part b of T = A(x, v) + B(x, v')
    c, a_terms, b_terms = _terms(spec)

    def total(terms, vel):
        return sum(interp_point(inputs[name], x0, dx, x + sign * eps * vel)
                   for name, sign in terms)

    a = C * (total(a_terms, v) + c)
    b = C * total(b_terms, vp)
    return float(a + b)


def loss_rate(spec: KernelSpec, fields, grid: PhaseGrid):
    """Total tumbling rate out of each node: sum_j' w_j' T(x, v_j', v), shape (K,) + x_shape.

    A read-only view; for the kernels with no v'-part, a broadcast of an
    x_shape field.
    """
    A, B, _ = _components(spec, _inputs(spec, fields), grid)
    return np.broadcast_to(_loss_rate(A, B, grid), A.shape)


def scattering_apply(f: DistributionField, spec: KernelSpec, fields, dt: float,
                     rho=None, in_place=False) -> DistributionField:
    """Explicit scattering update f + dt * (gain - loss).

    gain(x, v) = sum_j' w_j' T(x, v, v_j') f(x, v_j'), loss(x, v) =
    f(x, v) * sum_j' w_j' T(x, v_j', v). Raises PositivityError unless dt
    meets the positivity threshold dt * sup loss_rate < 1, which a NaN rate
    never meets; under the guard the update preserves nonnegativity, and
    x-integrated gain equals x-integrated loss by the (v, v') swap
    antisymmetry of the discrete sums.
    rho, when given, must be density(f), so that it is not computed again.
    By default the new state goes into a new array and a new field, which
    carries f's box, and f is left as it is; with in_place it goes into
    f.nodes, and f itself is returned, its time and box unchanged. Nothing
    is written before the guard passes.

    When dt times the stack-free bound _rate_bound is below 1, the guard
    passes without the rate, and the components, the rate, the gain and
    the update are formed only on f.box, as views of f and of the new
    state. Where f(x, .) = +0.0 the full update is (1 - dt * rate) * (+0.0)
    + dt * (+-0.0) = +0.0, so outside the box a new array starts as zeros
    and the state itself is left as it is: the result is bit for bit the
    full update's wherever f's zeros are +0.0, as in every state the solver
    makes. Otherwise the update runs on the whole grid and the guard takes
    the rate's exact maximum.

    The rate and the gain are formed in the arrays that building the
    components made, and are bit-identical to fresh temporaries: where B
    is zero, the rate vm * 0 + s is s and the gain g + w * 0 is g, because
    s and g are >= +0.
    """
    grid = f.grid
    fm = f.nodes
    w = grid.hv ** grid.dim
    inputs = _inputs(spec, fields)
    rho = density(f) if rho is None else rho
    whole = (slice(None),) * grid.dim
    bounded = dt * _rate_bound(spec, inputs, grid) < 1.0  # fails on a NaN bound
    box = f.box if bounded else whole
    A, B, spare = _components(spec, inputs, grid, box)
    nodes_box = (slice(None),) + box
    f_box = fm[nodes_box]
    # the v'-part of the gain, read before B's array takes the rate
    gain_b = None if B is None else w * np.einsum("k...,k...->...", B, f_box)
    rate = _loss_rate(A, B, grid, out=spare)
    if not bounded:
        max_rate = float(rate.max())
        if not dt * max_rate < 1.0:  # fails closed on a NaN rate
            raise PositivityError(
                f"scattering dt={dt} violates the positivity threshold: "
                f"dt * sup rate = {dt * max_rate:.3e}, not < 1")

    gain = np.multiply(A, rho.values[box], out=A if A.flags.writeable else None)
    if gain_b is not None:
        gain += gain_b
    # out = fm * (1 - dt * rate) + dt * gain
    np.multiply(rate, dt, out=rate)
    np.subtract(1.0, rate, out=rate)
    if in_place:
        out = fm
    else:
        out = np.zeros(fm.shape) if box != whole or rate.shape != fm.shape else rate
    out_box = out[nodes_box]
    np.multiply(rate, f_box, out=out_box)
    gain *= dt
    out_box += gain
    return f if in_place else DistributionField(grid, out, t=f.t, box=f.box)


def kernel_mixed_norm(spec: KernelSpec, fields, grid: PhaseGrid, p1, p2, p3) -> float:
    """Mixed norm ||T||_{L^p1_x L^p2_v L^p3_v'} (innermost v', then v, then x).

    Requires p1 >= p2 and p1 >= p3, the direction in which Minkowski's
    inequality controls the norm by ||S||_p1 + ||grad S||_p1.
    """
    if not (exponent_ge(p1, p2) and exponent_ge(p1, p3)):
        raise ValueError(f"need p1 >= p2 and p1 >= p3, got ({p1}, {p2}, {p3})")
    K = grid.n_vnodes
    A, B, _ = _components(spec, _inputs(spec, fields), grid)
    B = np.broadcast_to(0.0, A.shape) if B is None else B
    A, B = A.reshape(K, -1), B.reshape(K, -1)
    w = grid.hv ** grid.dim

    mid = np.zeros(A.shape[1])
    for j in range(K):
        T = np.abs(A[j] + B)  # T[j', x] = |A(x, v_j) + B(x, v_j')|
        if p3 == np.inf:
            inner = T.max(axis=0)
        else:
            inner = (w * np.sum(T**p3, axis=0)) ** (1.0 / p3)
        if p2 == np.inf:
            mid = np.maximum(mid, inner)
        else:
            mid += w * inner**p2
    if p2 != np.inf:
        mid = mid ** (1.0 / p2)
    return spatial_norm(mid.reshape(grid.x_shape), grid, p1)


def mixed_norm_bound_report(spec: KernelSpec, fields, grid: PhaseGrid, p1, p2, p3) -> dict:
    """Compare the kernel mixed norm with its Minkowski bound.

    Bound: coefficient * |V|^(1/p2 + 1/p3) * sum over the terms of
    ||input||_p1, for kernels with no constant term (c = 0 in _terms).
    """
    c, a_terms, b_terms = _terms(spec)
    if c:
        raise ValueError(f"the mixed-norm bound applies to kernels of S-terms only (hyp3); "
                         f"{spec.family!r} carries a constant term")
    value = kernel_mixed_norm(spec, fields, grid, p1, p2, p3)
    wsum = grid.velocity_measure
    cV = wsum ** ((0.0 if p2 == np.inf else 1.0 / p2) + (0.0 if p3 == np.inf else 1.0 / p3))
    counts = Counter(name for name, _ in a_terms + b_terms)
    norms = sum((n * spatial_norm(_INPUTS[name][1](fields), grid, p1)
                 for name, n in counts.items()), 0.0)
    bound = spec.coefficient * cV * norms
    ratio = 0.0 if bound == 0.0 and value == 0.0 else value / bound
    return {"value": value, "bound": bound, "ratio": ratio, "passed": ratio <= 1.05}
