"""Periodic cubic interpolation utilities.

Two flavors of the same monotonized-cubic rule: whole-array shifts by a
constant displacement along one axis (the semi-Lagrangian workhorse; a
shift by an integer number of cells is exact), and single-point evaluation
at arbitrary coordinates. Monotonization clamps the cubic value to the
range of the two bracketing nodes, which preserves positivity.

Whole-array shifts work block by block, in blocks of about _BLOCK elements:
whole rows of array axis 0, or parts of one row along an axis other than
the shifted one, so that a block's wrap-padded copy and its work buffers
stay in cache; the arithmetic is done in place in those buffers, and the
result is bit-identical to the unblocked formula. axis_shift writes into a
caller's array when given `out=`, and `out` may be the input itself: a
block is copied out before its part of `out` is written, and it reads no
other block.

axis_shift also has a per-row form: one displacement per row of array axis
0, each row with its own integer part and cubic weights, and an optional
`rows=` index naming the source row of each output row. The wrap-padded
block copy does that gather, so no gathered copy of the input is made.
`out` may be the input itself only when each row reads its own row.

A shift's plan (integer parts, cubic weights, pad starts, row blocks and
pad runs) depends only on the cells per row, the source rows, the row
shape, the axis and the dtype, and the rows of a spatial field's stack
only on the velocity nodes, so each is built once and kept in a table of
at most _PLANS entries (functools.lru_cache, _row_plan and _stack_plan).
A plan holds per-row arrays only; the work buffers are made per call.

Per-velocity-node stacks are node-first, (K,) + x_shape, the layout of
DistributionField's state: position axis a of a stack is array axis a + 1.
There is one entry per kind of input: velocity_offset_stack for a
node-first array, whose row j shifts by node j, and stack_on_box for a
spatial field, whose rows share the shifts of their common prefixes. A
stack is one per-row axis_shift call per position axis. It reads nothing
past stack_reach cells a side, and the stack of a field that is +0.0
outside a box is +0.0 outside that box grown by stack_spread cells a side
(written_box; the clamp of a limited shift between two +0.0 cells is
+0.0), so each call works only on the box that its axis reaches, bit for
bit the whole-grid stack there:
- velocity_offset_stack, given a box outside which its input is +0.0,
  shifts axis a reading that box grown by the reach along axis a, and
  writes it grown by the spread along axes 0..a only (axis_shift's keep);
  +0.0 is the stack everywhere else;
- stack_on_box, the stack of a spatial field on a box, reads the field on
  the box grown by the reach, and cuts each axis to the box as it shifts
  it (axis_shift's keep), so it returns a box-shaped array.
"""

import functools
import math

import numpy as np

from runtumble.grid import grow_box, nest_box

_BLOCK = 1 << 15  # elements per block of axis_shift: its work buffers stay in L2
_PLANS = 64       # entries of each shift-plan table (_row_plan, _stack_plan)
_MARGIN = 1       # cells a shift reads past its spread: the outer node of the 4-point stencil


def _cubic_weights(u):
    """Lagrange cubic weights at local coordinate u in [0, 1] on nodes (-1, 0, 1, 2)."""
    wm1 = -u * (u - 1.0) * (u - 2.0) / 6.0
    w0 = (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0
    w1 = -u * (u + 1.0) * (u - 2.0) / 2.0
    w2 = u * (u + 1.0) * (u - 1.0) / 6.0
    return wm1, w0, w1, w2


def _wrap_pad(src, dst, start, axis):
    """dst[..., j, ...] = src[..., (start + j) % n, ...] along axis, by slice copies.

    src may have one row (array axis 0) where dst has several: it is broadcast.
    """
    n = src.shape[axis]
    lead = (slice(None),) * axis
    j = 0
    while j < dst.shape[axis]:
        length = min(n - start, dst.shape[axis] - j)
        dst[lead + (slice(j, j + length),)] = src[lead + (slice(start, start + length),)]
        j += length
        start = 0


def _pad_runs(starts, src):
    """Runs [j, k) of rows with one pad start whose source rows are one row
    repeated or consecutive rows: each run is padded by one set of slice copies.
    Yields (j, k, the slice of source rows)."""
    j = 0
    while j < len(src):
        k = j + 1
        step = src[k] - src[j] if k < len(src) else 0
        while (k < len(src) and step in (0, 1) and starts[k] == starts[j]
               and src[k] - src[k - 1] == step):
            k += 1
        yield j, k, slice(src[j], src[j] + (1 if step == 0 else k - j))
        j = k


def _roll_row(src, dst, m, axis, lo):
    """dst = src rolled by m along axis, from cell lo on: an exact whole-cell shift."""
    n = src.shape[axis]
    if np.may_share_memory(src, dst):  # dst is src's own cells from lo on
        if not m % n:
            return
        src = src.copy()
    # the rolled slices, straight into dst
    _wrap_pad(src, dst, (lo - m) % n, axis)


@functools.lru_cache(maxsize=_PLANS)
def _row_plan(cells, src, row_shape, axis, dtype):
    """The set-up of _shift_rows, from the bytes of its float64 cells per row
    and int64 source rows, a row's shape, the axis (>= 1) and the output
    dtype: (whole, buffer, parts, blocks).

    whole: (row, source row, cells) of each whole-cell or zero row. buffer:
    elements of each work buffer. parts: the index of each part of a row
    along its outermost other axis with more than one index, when a row is
    larger than _BLOCK, else ((),). blocks: (first row, end row, the four
    cubic weights of its rows, its pad runs (j, end, source rows, pad
    start)) of each block of consecutive fractional rows. Every array in
    it is small (per row) and read-only.
    """
    s = np.frombuffer(cells)
    src = np.frombuffer(src, dtype=np.int64).tolist()
    n = row_shape[axis - 1]
    m = np.floor(s)
    u = 1.0 - (s - m)  # local coordinate on the stencil anchored at node i - m - 1
    frac = np.flatnonzero(s != m)
    whole = np.flatnonzero(s == m).tolist()
    m = m.astype(np.int64)
    starts = (-(m + 2) % n).tolist()  # padded line j holds line (j - m - 2) mod n
    m = m.tolist()
    whole = tuple((i, src[i], m[i]) for i in whole)

    # blocks of nb consecutive rows; a row larger than _BLOCK is blocked in
    # parts along its outermost other axis with more than one index
    row_size = math.prod(row_shape)
    nb = max(1, _BLOCK // row_size)
    parts = [()]
    bshape = list(row_shape)
    others = [b for b in range(len(row_shape)) if b != axis - 1 and row_shape[b] > 1]
    if others:
        b = others[0]
        step = max(1, _BLOCK * row_shape[b] // row_size)
        parts = [(slice(None),) * b + (slice(lo, lo + step),) for lo in range(0, row_shape[b], step)]
        bshape[b] = min(step, row_shape[b])
    bshape[axis - 1] = n + 3
    # in the output's precision, as a scalar weight would be
    weights = [w.astype(dtype)[:, None] for w in _cubic_weights(u)]
    for w in weights:
        w.flags.writeable = False
    blocks = []
    for run in np.split(frac, np.flatnonzero(np.diff(frac) != 1) + 1) if len(frac) else []:
        for lo in range(0, len(run), nb):
            i0, i1 = int(run[lo]), int(run[min(lo + nb, len(run)) - 1]) + 1
            runs = tuple((j, k, rows, starts[i0 + j])
                         for j, k, rows in _pad_runs(starts[i0:i1], src[i0:i1]))
            blocks.append((i0, i1, tuple(w[i0:i1] for w in weights), runs))
    return whole, nb * math.prod(bshape), tuple(parts), tuple(blocks)


def _shift_rows(a, s, out, axis, limit, src, keep):
    """out[i] = a[src[i]] shifted by s[i] cells along axis (>= 1), cells
    keep = slice(lo, hi) of it along axis: the body of axis_shift."""
    n = a.shape[axis]
    lo, hi, _ = keep.indices(n)
    whole, buffer, parts, blocks = _row_plan(
        np.ascontiguousarray(s, dtype=np.float64).tobytes(),
        np.ascontiguousarray(src, dtype=np.int64).tobytes(), a.shape[1:], axis, out.dtype)

    # whole-cell and zero rows: exact copies, one row at a time
    for i, j, m in whole:
        _roll_row(a[j], out[i], m, axis - 1, lo)
    if not blocks:
        return

    pbuf, rbuf, tbuf = (np.empty(buffer, dtype=out.dtype) for _ in range(3))
    lead = (slice(None),) * axis
    for i0, i1, (wm1, w0, w1, w2), runs in blocks:
        k = i1 - i0
        for part in parts:
            blk = (slice(None),) + part
            dst = out[i0:i1][blk]
            pshape = dst.shape[:axis] + (n + 3,) + dst.shape[axis + 1:]
            size = math.prod(pshape)
            P, T = size // k, math.prod(pshape[axis + 1:])  # per padded row; per line index

            def lines(buf):
                return buf[:size].reshape(pshape)[lead + (slice(lo, hi),)]

            pad = pbuf[:size].reshape(pshape)
            for j, jend, rows, start in runs:
                _wrap_pad(a[rows][blk], pad[j:jend], start, axis)
            # in each padded row the four stencil nodes are flat slices, one
            # line apart; the three extra lines compute unused values
            span = P - 3 * T
            below, base, upper, above = (pbuf[:size].reshape(k, P)[:, j * T:j * T + span]
                                         for j in range(4))
            r, tmp = (buf[:size].reshape(k, P)[:, :span] for buf in (rbuf, tbuf))
            np.multiply(below, wm1, out=r)
            r += np.multiply(base, w0, out=tmp)
            r += np.multiply(upper, w1, out=tmp)
            r += np.multiply(above, w2, out=tmp)
            if limit:
                np.maximum(r, np.minimum(base, upper, out=tmp), out=r)
                np.maximum(base, upper, out=tmp)
                if axis == 1:  # each row's lines are one contiguous run
                    np.minimum(lines(rbuf), lines(tbuf), out=dst)
                    continue
                # strided lines: a flat minimum and one strided copy beat a
                # strided minimum
                np.minimum(r, tmp, out=r)
            np.copyto(dst, lines(rbuf))


def axis_shift(a, disp, dx, axis=0, limit=True, out=None, rows=None, keep=slice(None)):
    """Values of a periodic field shifted along one axis: out(x) = a(x - disp).

    a is sampled on a uniform periodic grid of spacing dx along `axis`.
    When disp/dx is an integer the result is an exact roll. With
    limit=True the cubic value is clamped to the local bracketing range.
    `keep`, a slice of `axis` with step 1, names the cells of the shifted
    field that the result holds (all of them by default); the others are
    not written.

    Per-row form: disp may be a 1-D array with one displacement per output
    row (array axis 0; `axis` must then be >= 1), and `rows` an optional
    index array naming the row of `a` that each output row reads (without
    it, row i reads row i). Each row gets its own integer part and cubic
    weights, from the same formula as a scalar disp, so row i of the result
    is bit for bit axis_shift(a[rows[i]], disp[i], dx, axis=axis - 1).

    The result is written to `out` when given, else to a new array, and
    returned. `out` may be the cells of `keep` of `a` itself (`a` itself
    when keep holds every cell, or a view of exactly those elements),
    which shifts in place, provided `rows` is None or the identity; any
    other `out` must not overlap `a`. Whole-cell and zero rows are exact
    copies, one row at a time: the rolled slices go straight into `out`,
    or through a copy of the row when `out` is in `a`. Other rows are
    processed in blocks of about _BLOCK elements, whole rows or parts of
    one row along another axis, so that a block's wrap-padded copy and two
    work buffers stay in cache. The padded copy reads each row from its source row, one
    set of slice copies per run of rows with the same integer part and one
    or consecutive source rows. Each block is padded before its part of
    `out` is written, and reads only its own part of `a` when shifting in
    place, which is what makes the in-place shift safe.

    The result is bit-identical to the unblocked formula: the cubic is
    ((wm1*below + w0*base) + w1*upper) + w2*above, and the limiter is a
    maximum with min(base, upper) then a minimum with max(base, upper),
    which gives np.clip's values, signed zeros included.
    """
    if np.ndim(disp) == 0:  # the per-row form on a one-row view
        if out is None:
            out = np.empty(_kept(a.shape, axis, keep), dtype=np.result_type(a, 1.0))
        _shift_rows(a[None], np.array([disp], dtype=float) / dx, out[None], axis + 1,
                    limit, np.zeros(1, dtype=int), keep)
        return out
    s = np.asarray(disp, dtype=float) / dx
    if axis < 1 or s.ndim != 1:
        raise ValueError("per-row displacements need a 1-D disp and axis >= 1")
    src = np.arange(len(s)) if rows is None else np.asarray(rows)
    if len(src) != len(s):
        raise ValueError("rows and disp must have one entry per output row")
    if out is None:
        out = np.empty(_kept((len(s),) + a.shape[1:], axis, keep),
                       dtype=np.result_type(a, 1.0))
    elif np.may_share_memory(a, out) and not np.array_equal(src, np.arange(len(a))):
        raise ValueError("out may be the input only when each row reads its own row")
    _shift_rows(a, s, out, axis, limit, src, keep)
    return out


def _kept(shape, axis, keep):
    """`shape` with axis cut to the cells of `keep`."""
    return shape[:axis] + (len(range(shape[axis])[keep]),) + shape[axis + 1:]


def shift_spatial(values, disp, dx):
    """Shift a d-dimensional periodic field by a displacement vector, limited.

    out(x) = values(x - disp), applied axis by axis (the displacement is
    constant so the axis interpolations commute up to the cubic error).
    """
    out = values
    for axis, da in enumerate(np.atleast_1d(disp)):
        if da != 0.0:
            out = axis_shift(out, da, dx, axis=axis)
    return out


def velocity_offset_stack(values, vnodes, factor, dx, out=None, box=None):
    """Per-node limited shifted copies out[j](x) = values[j](x - factor * v_j),
    of a node-first array values, (K,) + x_shape, row j shifted by node j.
    Each row gets the axis shifts of shift_spatial in the same order, so
    the result is bit-identical to shifting node by node. The stack of a
    spatial field is stack_on_box.

    The result is `out` when given, which may be `values` itself (row j
    reads row j, so every axis shifts in place), else a new array. `box`,
    when given, is a box of positions outside which `values` is +0.0.
    Position axis a is then read on the box grown by stack_reach along axis
    a, as the periodic pad needs, and written on written_box(box, ...)
    along axes 0..a only (axis_shift's keep): the stack is +0.0 past the
    spread, which `out` must already hold there. A new array starts as
    zeros unless box is the whole grid.
    """
    K, d = vnodes.shape
    if values.ndim != d + 1 or values.shape[0] != K:
        raise ValueError("values must be a node-first array, (K,) + x_shape")
    whole = (slice(None),) * d
    box = whole if box is None else box
    if out is None:
        out = (np.empty if box == whole else np.zeros)(values.shape, dtype=values.dtype)
    written = written_box(box, vnodes, factor, dx, values.shape[1:])
    read, keep = nest_box(written, _MARGIN, values.shape[1:])
    src = values
    for a in range(d):
        # the first axis reads `values`, the others shift `out` in place;
        # the axes before a are +0.0 past the written box, the axes after a
        # past the input's box
        done, todo = (slice(None),) + written[:a], box[a + 1:]
        axis_shift(src[done + (read[a],) + todo], factor * vnodes[:, a], dx, axis=a + 1,
                   out=out[done + (written[a],) + todo], keep=keep[a])
        src = out
    return out


@functools.lru_cache(maxsize=_PLANS)
def _stack_plan(vnodes, K, d):
    """The rows of the offset stack of a spatial field, from the bytes of
    the (K, d) float64 nodes: per axis a, (each new row's component v_a,
    its parent row in the previous stack). The field is shifted once per
    distinct prefix (v_0, ..., v_a) of the nodes, not once per node. The
    rows of each stack are in lexicographic order of their prefixes, and
    build_grid lists the nodes in C order of the lattice, which is
    lexicographic order of their coordinates: row j of the last stack is
    node j."""
    vnodes = np.frombuffer(vnodes).reshape(K, d)
    owner = np.zeros(K, dtype=int)
    axes = []
    for a in range(d):
        comps, col = np.unique(vnodes[:, a], return_inverse=True)
        # rows of the next stack: distinct (current row, component) pairs
        keys, owner = np.unique(owner * len(comps) + col, return_inverse=True)
        parent, comp = np.divmod(keys, len(comps))
        axes.append((comps[comp], parent))
    for comps, parent in axes:
        comps.flags.writeable = parent.flags.writeable = False
    return tuple(axes)


def stack_spread(vnodes, factor, dx):
    """Cells a side, ceil(max |factor v_j| / dx), past which the offset
    stack of a field that is +0.0 outside a box is +0.0: a limited shift
    by s cells clamps cell i between cells i - m - 1 and i - m of its
    input, m = floor(s), and a clamp between two +0.0 gives +0.0."""
    return math.ceil(abs(factor) * np.abs(vnodes).max() / dx)


def stack_reach(vnodes, factor, dx):
    """Cells a side, stack_spread + 1, past which
    velocity_offset_stack(values, vnodes, factor, dx) reads nothing: a
    shift by s cells that is not whole reads the 4-point stencil on cells
    i - m - 2 to i - m + 1 of its input, m = floor(s), at most ceil(|s|) + 1
    cells from i, and a whole-cell shift reads cell i - s only."""
    return _MARGIN + stack_spread(vnodes, factor, dx)


def written_box(box, vnodes, factor, dx, shape):
    """The box outside which the offset stack of a field that is +0.0
    outside `box` is +0.0: `box` grown by stack_spread (grid.grow_box), on
    a grid of `shape`."""
    return grow_box(box, stack_spread(vnodes, factor, dx), shape)


def stack_on_box(values, vnodes, factor, dx, box):
    """The offset stack of a spatial field on a box of positions, a new
    (K,) + box shape array, bit for bit the whole grid's stack on the box.

    The field is read on the box grown by the stack's reach (grid.nest_box),
    and each axis is cut to the box as it is shifted (axis_shift's keep), so
    axis a shifts the box grown along axes a..d-1 only. Shifts are shared:
    after axis a the stack holds one row per distinct (row, v_a) pair, each
    row reading its parent row of the previous stack.
    """
    K, d = vnodes.shape
    grown, inner = nest_box(box, stack_reach(vnodes, factor, dx), values.shape)
    axes = _stack_plan(np.ascontiguousarray(vnodes, dtype=np.float64).tobytes(), K, d)
    rows = values[grown][None]
    for a, (comps, parent) in enumerate(axes):
        rows = axis_shift(rows, factor * comps, dx, axis=a + 1, rows=parent, keep=inner[a])
    return rows


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
