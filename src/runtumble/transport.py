"""Free kinetic transport: exact solution for closed-form data and the
semi-Lagrangian step used inside the split scheme.

The free equation d_t f + v . grad_x f = 0 has solution f(t,x,v) =
f0(x - t v, v), which we exploit twice: closed-form initial data are
sampled exactly at the shifted points, and the per-step update shifts each
velocity slab by dt * v with monotonized cubic interpolation. Both work on
the node-first state of DistributionField, (K,) + x_shape, and never build
the dense array. The closed-form data are sampled only on the box where
every axis profile is nonzero (free_block): the initial state and the
Gronwall C0 are made from that block. The step shifts each axis only on
the box that f carries, grown along the axes shifted so far by the cells a
shift can write (the spread). A limited shift writes a nonzero value one spread past its
input's support, so the numerical support would grow by a cell every
half-step while the continuum's grows at max |v| only: the step flushes to
+0.0 the tail of the box it wrote whose node sum is at most FLOOR times
the largest over K, and its result carries the box that is left (the
floor box).
Its slab sums are taken on boxes too, by a rule that gives every box the
whole array's bits.
"""

from dataclasses import dataclass

import numpy as np

from runtumble.grid import DistributionField, PhaseGrid, carried_box, support_box
from runtumble.interp import velocity_offset_stack, written_box

# Relative floor of a transport half-step: the positions whose node sum is
# at most FLOOR times the largest node sum over K are set to +0.0. f >= 0,
# so each value set to 0 is at most FLOOR * max f; FLOOR = 0 flushes nothing.
FLOOR = 2.0 ** -52


@dataclass(frozen=True)
class SeparableData:
    """Closed-form initial data f0(x, v) = g(x) on V, point-evaluable anywhere.

    kind "gaussian": g(x) = amplitude * exp(-|x - center|^2 / (2 width^2));
    kind "cube":     g(x) = amplitude * 1{|x - center|_inf <= width}.
    center is () (the origin) or one coordinate per position axis. The data
    do not depend on v: every velocity node of V carries the same g.
    """

    amplitude: float = 1.0
    width: float = 1.0
    kind: str = "gaussian"
    center: tuple = ()

    def __post_init__(self):
        if self.kind not in ("gaussian", "cube"):
            raise ValueError(f"unknown kind {self.kind!r}")
        # the `not x >= 0` form rejects NaN too
        if not self.amplitude >= 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not self.width > 0:
            raise ValueError(f"width must be > 0, got {self.width}")


def free_block(f0: SeparableData, grid: PhaseGrid, t: float):
    """(box, block): f(t, x, v) = f0(x - t v, v) sampled exactly (periodic
    wrap in x) on `box`, a box outside which it is +0.0, as the node-first
    block (K,) + the shape of box.

    Both descriptor kinds factorize over position axes, so each node's
    values are an outer product of one-dimensional profiles; only the
    distinct velocity components along each axis need evaluating. On each
    axis the box is the bounding range of the columns where some profile
    is nonzero (so a support across the periodic edge gives the whole
    axis), under carried_box's rule, so it is more than one cell or the
    whole grid and the block's node sum has the whole grid's bits. The
    product is formed on the box only, in axis order, and the amplitude
    multiplied into it in place: each value has the bits of the same
    product on the whole grid, which is +0.0 outside the box.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    d, K = grid.dim, grid.n_vnodes
    if len(f0.center) not in (0, d):
        raise ValueError(f"center has {len(f0.center)} entries on a {d}-D grid, need 0 or {d}")
    L = grid.spec.box_half_length
    center = f0.center if f0.center else (0.0,) * d

    profiles = []
    for a in range(d):
        comps, col = np.unique(grid.vnodes[:, a], return_inverse=True)
        xa = np.mod(grid.x - t * comps[:, None] - center[a] + L, 2.0 * L) - L
        if f0.kind == "gaussian":
            profile = np.exp(-(xa**2) / (2.0 * f0.width**2))
        else:
            profile = (np.abs(xa) <= f0.width).astype(float)
        profiles.append(profile[col])
    box = carried_box(tuple(support_box(np.any(p, axis=0))[0] for p in profiles), grid.x_shape)
    # block[j] = product over axes of node j's 1-d profile on the box
    block = np.ones((K,) + (1,) * d)
    for a, (profile, s) in enumerate(zip(profiles, box)):
        block = block * profile[:, s].reshape((K,) + (1,) * a + (-1,) + (1,) * (d - a - 1))
    block *= f0.amplitude
    return box, block


def exact_free_solution(f0: SeparableData, grid: PhaseGrid, t: float) -> DistributionField:
    """The field of f(t, x, v) = f0(x - t v, v), sampled exactly on the grid
    (periodic wrap in x): free_block's block put into zeros, or the block
    itself when its box is the whole grid.

    The field's box is the bounding box of the block's nonzero positions
    under carried_box's rule: occupied_box of the nodes, found without a
    pass over the whole state.
    """
    box, block = free_block(f0, grid, t)
    if box == (slice(None),) * grid.dim:
        nodes = block
    else:
        nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
        nodes[(slice(None),) + box] = block
    mask = np.zeros(grid.x_shape, dtype=bool)
    mask[box] = np.any(block, axis=0)
    return DistributionField(grid, nodes, t=float(t),
                             box=carried_box(support_box(mask), grid.x_shape))


def slab_sums(nodes, box):
    """Per-node sums over position of a node-first array, (K,) + x_shape,
    that is +0.0 outside `box`: the same bits for every such box.

    NumPy sums each whole plane of the position axes after the first (a
    contiguous block), for the planes of the box along the first axis;
    the plane sums are then added one at a time, in order along that
    axis, from +0.0. A plane outside the box sums to +0.0 and would leave
    the running sum as it is, so a box gives the whole grid's bits. The
    additions are explicit: NumPy reduces an axis of a view with a
    length-1 axis in another order.
    """
    lo, hi, _ = box[0].indices(nodes.shape[1])
    planes = nodes[:, lo:hi].sum(axis=tuple(range(2, nodes.ndim)))
    total = np.zeros(len(nodes))
    for i in range(hi - lo):
        total += planes[:, i]
    return total


def _flush_tail(nodes, box):
    """Set to +0.0 the positions of `box` in a node-first array, +0.0
    outside `box`, that lie outside the floor box, and return the floor box.

    The floor box is the bounding box (grid.support_box) of the positions
    of `box` whose node sum exceeds FLOOR * (its largest node sum) / K; it
    is `box` when no position does. The zeros go in by two slice writes an
    axis, on the rims of `box` below and above the floor box. With FLOOR = 0
    the floor box is the bounding box of the nonzero positions, so only
    +0.0 is written.
    """
    inside = nodes[(slice(None),) + box]
    total = inside.sum(axis=0)
    keep = support_box(total > FLOOR * total.max() / len(nodes))
    floor_box = []
    for a, (b, k) in enumerate(zip(box, keep)):
        lo, hi, _ = k.indices(total.shape[a])
        lead = (slice(None),) * (a + 1)
        inside[lead + (slice(None, lo),)] = 0.0
        inside[lead + (slice(hi, None),)] = 0.0
        start = b.indices(nodes.shape[a + 1])[0]
        floor_box.append(b if k == slice(None) else slice(start + lo, start + hi))
    return tuple(floor_box)


def transport_step(f: DistributionField, dt: float, in_place=False) -> DistributionField:
    """Semi-Lagrangian update f_new(x, v) = Interp(f)(x - dt v, v).

    Periodic monotonized cubic per velocity node; exact when dt * v lands on
    grid nodes. The limiter keeps values in the local range, hence >= 0,
    and the cubic of cells >= +0.0 is never -0.0 (its terms on the two
    bracketing cells have positive weights), so no clip follows it.
    The unlimited shift is a circular convolution with unit weight sum, so
    the only mass error comes from the limiter; a per-slab rescale restores
    the slab mass exactly, keeping total mass conserved to roundoff.
    By default the new state goes into a new array and a new field, and f
    is left as it is; with in_place it goes into f.nodes, f's time and box
    are updated with it, and f itself is returned.

    Position axis a is read on f.box grown by the reach of the shift along
    axis a, and written on f.box grown by its spread along axes 0..a
    (velocity_offset_stack's box), so the shifted state is +0.0 outside
    f.box grown by the spread along every axis (interp.written_box). Past
    the spread the full sweep writes +0.0, which is what the box path
    leaves there: the result is bit for bit the full sweep's wherever f's
    zeros are +0.0, as in every state the solver makes. A new array is
    zeroed first unless f.box is the whole grid, when the first axis
    writes every element.

    Before the rescale, the positions of the written box outside its floor
    box (_flush_tail: node sum above FLOOR times the largest over K) are
    set to +0.0, each a value of at most FLOOR * max f, and the result
    carries the floor box under occupied_box's rule (grid.carried_box).
    The slab sums (slab_sums) are taken on f.box and on that box, with the
    bits of the same rule on the whole array, so the rescale restores the
    mass of each slab, flushed values included. With FLOOR = 0 the state
    is bit for bit the unfloored step's, and the box is the bounding box
    of its nonzero positions before the rescale, under that rule.
    """
    if not (dt > 0 and np.isfinite(dt)):
        raise ValueError(f"dt must be > 0 and finite, got {dt}")
    grid = f.grid
    before = slab_sums(f.nodes, f.box)
    written = written_box(f.box, grid.vnodes, dt, grid.dx, grid.x_shape)
    out = velocity_offset_stack(f.nodes, grid.vnodes, dt, grid.dx,
                                out=f.nodes if in_place else None, box=f.box)
    box = carried_box(_flush_tail(out, written), grid.x_shape)
    after = slab_sums(out, box)
    scale = np.where(after > 0.0, before / np.where(after > 0.0, after, 1.0), 1.0)
    moved = out[(slice(None),) + box]
    moved *= scale.reshape((-1,) + (1,) * grid.dim)  # +0.0 * scale is +0.0 where f is
    if not in_place:
        return DistributionField(grid, out, t=f.t + dt, box=box)
    f.t, f.box = f.t + dt, box
    return f
