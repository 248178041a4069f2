"""Periodic cubic interpolation utilities.

Two flavors of the same monotonized-cubic rule: whole-array shifts by a
constant displacement along one axis (the semi-Lagrangian workhorse; a
shift by an integer number of cells is exact), and single-point evaluation
at arbitrary coordinates. Monotonization clamps the cubic value to the
range of the two bracketing nodes, which preserves positivity.

Whole-array shifts work block by block, in blocks of about _BLOCK elements
taken along an axis other than the shifted one, so that a block's
wrap-padded copy and its work buffers stay in cache; the arithmetic is
done in place in those buffers, and the result is bit-identical to the
unblocked formula. axis_shift writes into a caller's array when given
`out=`, and `out` may be the input itself: a block is copied out before
its part of `out` is written, and it reads no other block.

Per-velocity-node stacks are node-first, (K,) + x_shape, the layout of
DistributionField's state: position axis a of a stack is array axis a + 1.
velocity_offset_stack shifts straight into its stack wherever the rows of a
batched shift form a contiguous run.
"""

import math

import numpy as np

_BLOCK = 1 << 15  # elements per block of axis_shift: its work buffers stay in L2


def _cubic_weights(u):
    """Lagrange cubic weights at local coordinate u in [0, 1] on nodes (-1, 0, 1, 2)."""
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -u * (u + 1.0) * (u - 2.0) / 2.0
    w2 = u * (u + 1.0) * (u - 1.0) / 6.0
    return wm1, w0, w1, w2


def _wrap_pad(src, dst, start, axis):
    """dst[..., j, ...] = src[..., (start + j) % n, ...] along axis, by slice copies."""
    n = src.shape[axis]
    lead = (slice(None),) * axis
    j = 0
    while j < dst.shape[axis]:
        length = min(n - start, dst.shape[axis] - j)
        dst[lead + (slice(j, j + length),)] = src[lead + (slice(start, start + length),)]
        j += length
        start = 0


def axis_shift(a, disp, dx, axis=0, limit=True, out=None):
    """Values of a periodic field shifted along one axis: out(x) = a(x - disp).

    a is sampled on a uniform periodic grid of spacing dx along `axis`.
    When disp/dx is an integer the result is an exact roll. With
    limit=True the cubic value is clamped to the local bracketing range.

    The result is written to `out` when given, else to a new array, and
    returned. `out` may be `a` itself (or a view of exactly its elements),
    which shifts in place; any other `out` must not overlap `a`. A
    whole-cell shift copies the two rolled slices of `a` straight into an
    `out` that shares no memory with `a`, and rolls into a temporary first
    otherwise. Other shifts are processed in blocks of about _BLOCK
    elements along another axis, so that a block's wrap-padded copy and
    two work buffers stay in cache. Each block is copied out of `a` before
    its part of `out` is written, and a block reads only its own part of
    `a`, which is what makes the in-place shift safe.

    The result is bit-identical to the unblocked formula: the cubic is
    ((wm1*below + w0*base) + w1*upper) + w2*above, and the limiter is a
    maximum with min(base, upper) then a minimum with max(base, upper),
    which gives np.clip's values, signed zeros included.
    """
    s = disp / dx
    m = int(np.floor(s))
    u = 1.0 - (s - m)  # local coordinate on the stencil anchored at node i - m - 1

    if s == m:
        if out is None:
            return np.roll(a, m, axis=axis)
        if np.may_share_memory(a, out):
            out[...] = np.roll(a, m, axis=axis)
            return out
        # the two rolled slices, straight into out
        n, k = a.shape[axis], m % a.shape[axis]
        lead = (slice(None),) * axis
        out[lead + (slice(k, n),)] = a[lead + (slice(0, n - k),)]
        out[lead + (slice(0, k),)] = a[lead + (slice(n - k, n),)]
        return out
    if out is None:
        out = np.empty(a.shape, dtype=np.result_type(a, u))

    n = a.shape[axis]
    start = -(m + 2) % n  # padded row j holds row (j - m - 2) mod n
    lead = (slice(None),) * axis
    blocks = [(Ellipsis,)]
    bshape = list(a.shape)
    others = [b for b in range(a.ndim) if b != axis and a.shape[b] > 1]
    if others:  # blocks along the outermost other axis with more than one index
        b = others[0]
        step = max(1, _BLOCK * a.shape[b] // a.size)
        blocks = [(slice(None),) * b + (slice(lo, lo + step),) for lo in range(0, a.shape[b], step)]
        bshape[b] = min(step, a.shape[b])
    bshape[axis] = n + 3
    pbuf, rbuf, tbuf = (np.empty(math.prod(bshape), dtype=out.dtype) for _ in range(3))
    wm1, w0, w1, w2 = _cubic_weights(u)

    for blk in blocks:
        src, dst = a[blk], out[blk]
        pshape = src.shape[:axis] + (n + 3,) + src.shape[axis + 1:]
        size = math.prod(pshape)
        row = math.prod(pshape[axis + 1:])  # elements per index of `axis`

        def rows(buf):
            return buf[:size].reshape(pshape)[lead + (slice(0, n),)]

        _wrap_pad(src, pbuf[:size].reshape(pshape), start, axis)
        # the four stencil nodes are flat slices of the padded block, one row
        # apart; the three extra rows of each padded line compute unused values
        span = size - 3 * row
        below, base, upper, above = (pbuf[j * row:j * row + span] for j in range(4))
        r, tmp = rbuf[:span], tbuf[:span]
        np.multiply(below, wm1, out=r)
        r += np.multiply(base, w0, out=tmp)
        r += np.multiply(upper, w1, out=tmp)
        r += np.multiply(above, w2, out=tmp)
        if limit:
            np.maximum(r, np.minimum(base, upper, out=tmp), out=r)
            np.maximum(base, upper, out=tmp)
            np.minimum(rows(rbuf), rows(tbuf), out=dst)
        else:
            dst[...] = rows(rbuf)
    return out


def shift_spatial(values, disp, dx, limit=True):
    """Shift a d-dimensional periodic field by a displacement vector.

    out(x) = values(x - disp), applied axis by axis (the displacement is
    constant so the axis interpolations commute up to the cubic error).
    """
    out = values
    for axis, da in enumerate(np.atleast_1d(disp)):
        if da != 0.0:
            out = axis_shift(out, da, dx, axis=axis, limit=limit)
    return out


def _block(idx):
    """A slice for a contiguous run of row indices (a view), else the indices."""
    if idx[-1] - idx[0] + 1 == len(idx):
        return slice(idx[0], idx[-1] + 1)
    return idx


def velocity_offset_stack(values, vnodes, factor, dx, limit=True):
    """Per-node shifted copies out[j](x) = values(x - factor * v_j), node-first.

    values: a spatial array x_shape, or a node-first array (K,) + x_shape.
    Returns a new (K,) + x_shape array. Each node gets the axis shifts of
    shift_spatial in the same order, so the result is bit-identical to
    shifting node by node. Shifts are shared: after axis a the stack holds
    one row per distinct (row, v_a) pair, so a spatial input is shifted
    once per distinct prefix (v_0, ..., v_a) rather than once per node,
    and each axis costs one batched call per distinct component.
    """
    K, d = vnodes.shape
    if values.ndim == d:
        rows, owner = values[None], np.zeros(K, dtype=int)
    elif values.ndim == d + 1 and values.shape[0] == K:
        rows, owner = values, np.arange(K)
    else:
        raise ValueError("values must be x_shape or (K,) + x_shape")
    for a in range(d):
        comps, col = np.unique(vnodes[:, a], return_inverse=True)
        # rows of the next stack: distinct (current row, component) pairs
        keys, owner = np.unique(owner * len(comps) + col, return_inverse=True)
        parent, comp = np.divmod(keys, len(comps))
        # rows that map one to one onto the next stack are shifted in place,
        # once they are a copy of the input (from the second axis on)
        inplace = a > 0 and len(keys) == len(rows)
        shifted = rows if inplace else np.empty((len(keys),) + rows.shape[1:])
        for c in np.unique(comp):
            sel = _block(np.nonzero(comp == c)[0])
            src = rows[_block(parent[sel])]
            disp = factor * comps[c]
            if disp == 0.0:
                shifted[sel] = src
            elif isinstance(sel, slice):  # a view: shift straight into it
                axis_shift(src, disp, dx, axis=a + 1, limit=limit, out=shifted[sel])
            else:
                shifted[sel] = axis_shift(src, disp, dx, axis=a + 1, limit=limit)
        rows = shifted
    return rows if np.array_equal(owner, np.arange(K)) else rows[owner]


def interp_point(values, x0, dx, points, limit=True):
    """Monotonized-cubic evaluation of a periodic field at arbitrary points.

    values: d-dimensional array on the grid x0 + i*dx per axis.
    points: (..., d) coordinates; wrapped periodically.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = values.ndim
    n = np.array(values.shape)
    # fractional index per axis
    fi = (pts - x0) / dx
    base = np.floor(fi).astype(int)
    u = fi - base

    out = np.zeros(pts.shape[0])
    # per-axis cubic weights, indexable by stencil offset
    w_axis = []
    for a in range(d):
        wm1, w0, w1, w2 = _cubic_weights(u[:, a])
        w_axis.append({-1: wm1, 0: w0, 1: w1, 2: w2})
    # accumulate the tensor-product stencil
    offs = np.stack(np.meshgrid(*([np.arange(-1, 3)] * d), indexing="ij"), axis=-1).reshape(-1, d)
    for off in offs:
        w = np.ones(pts.shape[0])
        idx = []
        for a in range(d):
            w = w * w_axis[a][off[a]]
            idx.append(np.mod(base[:, a] + off[a], n[a]))
        out += w * values[tuple(idx)]

    if limit:
        lo = np.full(pts.shape[0], np.inf)
        hi = np.full(pts.shape[0], -np.inf)
        corner_offs = np.stack(np.meshgrid(*([np.array([0, 1])] * d), indexing="ij"), axis=-1).reshape(-1, d)
        for off in corner_offs:
            idx = tuple(np.mod(base[:, a] + off[a], n[a]) for a in range(d))
            vals = values[idx]
            lo = np.minimum(lo, vals)
            hi = np.maximum(hi, vals)
        out = np.clip(out, lo, hi)

    if np.asarray(points).ndim == 1:
        return float(out[0])
    return out
