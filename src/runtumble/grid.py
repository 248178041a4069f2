"""Discrete phase space: periodic position box times bounded velocity set.

Positions live on a uniform periodic grid over [-L, L)^d; velocities on a
cell-centered Cartesian lattice over the bounding cube [-r_max, r_max]^d,
masked to the ball or shell {r_min <= |v| <= r_max}. Cell-centered velocity
nodes with uniform weights make the d=1 shell measure exact when the radii
align with cell edges, and keep the masked quadrature a controlled O(h)
approximation of |V| otherwise.

A distribution function is held node-first: one contiguous (K,) + x_shape
array over the K masked velocity nodes, so a node's spatial block is a
plain slice and velocity sums reduce over the leading axis. A field is
made from such an array only (DistributionField(grid, nodes, t, box));
the dense x_shape + v_shape array is only built on request (.values).
build_grid lists the masked nodes in C order of the velocity lattice,
which the offset stacks' plans rely on (interp._stack_plan). Where the
lattice is exactly symmetric, PhaseGrid.vreflect pairs each node v with
its mirror -v.

f is +0.0 outside a box around its support, and the state carries that
box (DistributionField.box), which work on f reads to skip the zeros
outside it. A field is made with its box: the caller's, or f's occupied
box (occupied_box) when the caller gives none. After that only a
transport step changes it: it sets the box that is left once it has
flushed the tail below its floor (transport.FLOOR), under occupied_box's
rule (carried_box). Readers of f (density and the masses) write nothing
to it.
"""

import math
from dataclasses import dataclass, field

import numpy as np

WRAP_WIDTH = 2   # position cells per side of the rim that shell_mass measures
WRAP_TOL = 1e-6  # the wrap guard trips when the rim holds more than this share of the mass
# Largest share of the grid's cells on which occupied_box gives a box: on
# the presets, work on a box stopped paying once it held 20-45% of the grid.
BOX_SHARE = 0.25


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Parameters of the phase-space discretization."""

    dim: int
    box_half_length: float
    nx: int
    nv: int
    velocity_shape: str = "ball"  # "ball" or "shell"
    r_min: float = 0.0
    r_max: float = 1.0
    dt: float = 0.01

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        # the `not x > 0` form rejects NaN too
        if not (self.box_half_length > 0 and math.isfinite(self.box_half_length)):
            raise ValueError(f"box_half_length must be > 0 and finite, got {self.box_half_length}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be > 0 and finite, got {self.dt}")
        if not _is_power_of_two(self.nx):
            raise ValueError(f"nx must be a power of two, got {self.nx}")
        if not _is_power_of_two(self.nv):
            raise ValueError(f"nv must be a power of two, got {self.nv}")
        if self.velocity_shape not in ("ball", "shell"):
            raise ValueError(f"unknown velocity_shape {self.velocity_shape!r}")
        if self.velocity_shape == "ball" and self.r_min != 0.0:
            raise ValueError("ball velocity set requires r_min = 0")
        if not (0 <= self.r_min < self.r_max and math.isfinite(self.r_max)):
            raise ValueError(f"need 0 <= r_min < r_max < inf, got ({self.r_min}, {self.r_max})")


@dataclass(frozen=True)
class PhaseGrid:
    """Realized grid: coordinates, velocity mask/weights, spectral wavenumbers."""

    spec: GridSpec
    x: np.ndarray          # (nx,) position nodes per axis, identical axes
    dx: float
    k: np.ndarray          # (nx,) angular wavenumbers per axis (FFT order)
    v: np.ndarray          # (nv,) velocity nodes per axis (cell centers)
    hv: float
    vmask: np.ndarray      # (nv,)*d bool, true inside V
    vweights: np.ndarray   # (nv,)*d quadrature weights, zero outside V
    vnodes: np.ndarray = field(repr=False, default=None)  # (K, d) masked node coordinates
    vindex: tuple = field(repr=False, default=None)       # advanced index of masked nodes
    vreflect: slice = field(repr=False, default=None)     # r with vnodes[r] == -vnodes, or None

    @property
    def dim(self):
        return self.spec.dim

    @property
    def x_weight(self):
        """Quadrature weight of one position cell."""
        return self.dx ** self.dim

    @property
    def velocity_measure(self):
        """Quadrature value of |V|."""
        return float(self.vweights.sum())

    @property
    def x_shape(self):
        return (self.spec.nx,) * self.dim

    @property
    def v_shape(self):
        return (self.spec.nv,) * self.dim

    @property
    def n_vnodes(self):
        return self.vnodes.shape[0]

    def x_mesh(self):
        return np.meshgrid(*([self.x] * self.dim), indexing="ij")

    def alignment_time(self, k=1):
        """Times at which every velocity node shifts positions by whole cells.

        Velocity nodes are odd multiples of hv/2, so t * v_j / dx is an
        integer for all nodes exactly when t is a multiple of 2 dx / hv.
        """
        return 2.0 * k * self.dx / self.hv


def build_grid(spec: GridSpec) -> PhaseGrid:
    """Construct the discrete phase space from a spec."""
    d, nx, nv = spec.dim, spec.nx, spec.nv
    L, R = spec.box_half_length, spec.r_max

    dx = 2.0 * L / nx
    x = -L + dx * np.arange(nx)
    k = 2.0 * np.pi * np.fft.fftfreq(nx, d=dx)

    hv = 2.0 * R / nv
    v = -R + hv * (np.arange(nv) + 0.5)

    mesh = np.meshgrid(*([v] * d), indexing="ij")
    speed = np.sqrt(sum(c * c for c in mesh))
    vmask = (speed >= spec.r_min) & (speed <= spec.r_max)
    vweights = np.where(vmask, hv**d, 0.0)

    vindex = np.nonzero(vmask)
    vnodes = np.stack([mesh[a][vindex] for a in range(d)], axis=1)

    # v -> -v reverses the C order of the masked nodes whenever it maps V onto
    # itself, and it is exact only when every cell center is the exact
    # negative of its mirror (r_max = 0.3 with nv = 4 misses by one ulp)
    reverse = slice(None, None, -1)
    vreflect = reverse if np.array_equal(vnodes[reverse], -vnodes) else None

    return PhaseGrid(spec=spec, x=x, dx=dx, k=k, v=v, hv=hv, vmask=vmask, vweights=vweights,
                     vnodes=vnodes, vindex=vindex, vreflect=vreflect)


class DistributionField:
    """Nonnegative cell density f(x, v) on the phase grid at one time.

    The state is node-first: `nodes` has shape (K,) + x_shape, one
    contiguous spatial block per masked velocity node, in the order of
    grid.vnodes. Values outside V are not stored. The field holds `nodes`
    as its state, without copying it.

    `box` is a tuple of position slices outside which the nodes are +0.0:
    the caller's, or occupied_box(nodes) when none is given. The writers
    (transport_step, scattering_apply) keep it true of the nodes they
    write. A write into `nodes` behind the field's back leaves it stale.
    """

    def __init__(self, grid: PhaseGrid, nodes, t=0.0, box=None):
        self.grid, self.nodes, self.t, self.box = grid, nodes, t, box or occupied_box(nodes)

    def validate(self):
        expected = (self.grid.n_vnodes,) + self.grid.x_shape
        if self.nodes.shape != expected:
            raise ValueError(f"node array shape {self.nodes.shape} != {expected}")
        if not 0 <= self.t < math.inf:  # rejects NaN too
            raise ValueError(f"timestamp must be nonnegative and finite, got {self.t}")
        if not np.all(np.isfinite(self.nodes)):
            raise ValueError("distribution values must be finite")
        if np.any(self.nodes < 0):
            raise ValueError("distribution values must be nonnegative")

    @property
    def values(self):
        """Dense x_shape + v_shape copy, zero outside V (built on each access)."""
        dense = np.zeros(self.grid.x_shape + self.grid.v_shape)
        dense[(Ellipsis,) + self.grid.vindex] = self.compact()
        return dense

    def compact(self):
        """Values at the masked velocity nodes, shape x_shape + (K,): a view of the state."""
        return np.moveaxis(self.nodes, 0, -1)

    def extrema(self):
        """(min, max) of the dense values, counting the zeros outside V and
        outside the box. Only the box is read."""
        inside = self.nodes[(slice(None),) + self.box]
        lo, hi = float(inside.min()), float(inside.max())
        if inside.size < self.grid.vmask.size * math.prod(self.grid.x_shape):
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        return lo, hi


def grow_box(box, cells, shape):
    """A box of slices grown by `cells` a side on a grid of `shape`.

    An axis on which the grown box would cross the periodic edge, or would
    be exactly [0, n), gets slice(None), and a slice(None) axis stays one;
    so the box is the whole grid exactly when it is (slice(None),) * len(shape).
    """
    grown = []
    for s, n in zip(box, shape):
        lo, hi = (0, n) if s == slice(None) else (s.start - cells, s.stop + cells)
        grown.append(slice(lo, hi) if 0 <= lo and hi <= n and hi - lo < n else slice(None))
    return tuple(grown)


def nest_box(box, cells, shape):
    """(grown, inner): grow_box(box, cells, shape), and `box` within it,
    slice(cells, cells + its length) on each grown axis and box's own slice
    on each whole one. Growing inner by `cells` within the grown box gives
    all of it."""
    grown = grow_box(box, cells, shape)
    return grown, tuple(b if g == slice(None) else slice(cells, cells + b.stop - b.start)
                        for b, g in zip(box, grown))


def support_box(mask):
    """Slices of the bounding box of a boolean position mask, in grow_box's
    form; an axis on which the mask is empty gets slice(None)."""
    box = []
    for a in range(mask.ndim):
        hits = np.flatnonzero(np.any(mask, axis=tuple(b for b in range(mask.ndim) if b != a)))
        box.append(slice(int(hits[0]), int(hits[-1]) + 1) if len(hits) else slice(None))
    return grow_box(box, 0, mask.shape)


def carried_box(box, shape):
    """occupied_box's rule on a box of a grid of `shape`: the box itself,
    or the whole grid when the box is a single cell or holds more than
    BOX_SHARE of the grid."""
    cells = math.prod(len(range(n)[s]) for s, n in zip(box, shape))
    return box if 1 < cells <= BOX_SHARE * math.prod(shape) else (slice(None),) * len(shape)


def occupied_box(nodes):
    """The box on which work on a node-first array may skip its zeros.

    The bounding box of the positions where `nodes`, (K,) + x_shape, is
    nonzero (support_box), or the whole grid when that box is a single
    cell or holds more than BOX_SHARE of the grid. On a single cell NumPy
    reduces a (K, 1, ..., 1) array over the node axis pairwise, where on
    more cells it adds the K rows one by one, as a sweep of the whole grid
    does; arithmetic on a box's strided views costs about twice as much a
    cell as on whole arrays. A field is made with this box unless its
    maker gives one.
    """
    return carried_box(support_box(np.any(nodes, axis=0)), nodes.shape[1:])


def field_from_compact(grid, compact, t=0.0):
    """Field from values at the masked velocity nodes, shape x_shape + (K,)."""
    return DistributionField(grid, np.ascontiguousarray(np.moveaxis(compact, -1, 0)), t)


@dataclass
class SpatialField:
    """Scalar field on the position grid (density, chemoattractant, derivatives)."""

    grid: PhaseGrid
    values: np.ndarray


def density(f: DistributionField) -> SpatialField:
    """Velocity integral rho(x) = sum_j w_j f(x, v_j), with the uniform node
    weight w. It reads f and writes nothing to it.

    The node sum runs on f.box only (box_density). f.box is a box of more
    than one cell or the whole grid (the floor box a transport step
    carries, or an occupied box, both under carried_box's rule), so rho is
    bit for bit the whole-grid density.
    """
    return box_density(f.grid, f.nodes[(slice(None),) + f.box], f.box)


def box_density(grid, block, box) -> SpatialField:
    """The density of a node-first block, (K,) + the shape of `box`, of a
    state that is +0.0 outside `box`: w times the block's node sum on the
    box, and +0.0 outside it, as w times a sum of +0.0 is.

    `box` must be a box of more than one cell or the whole grid (carried_box's
    rule). There NumPy adds the node rows one by one, as on the whole grid,
    so rho is bit for bit the density of the whole state; on a single cell it
    reduces a (K, 1, ..., 1) array pairwise.
    """
    rho = np.zeros(grid.x_shape)
    rho[box] = block.sum(axis=0)
    rho *= grid.hv ** grid.dim
    return SpatialField(grid, rho)


def field_mass(rho: SpatialField) -> float:
    """M = sum_i wx_i rho(x_i), the mass of a density."""
    return float(rho.grid.x_weight * rho.values.sum())


def shell_mass(rho: SpatialField) -> float:
    """Mass of a density in the outermost WRAP_WIDTH = 2 position cells of each side."""
    nx = rho.grid.spec.nx
    inner = np.zeros_like(rho.values, dtype=bool)
    inner[(slice(WRAP_WIDTH, nx - WRAP_WIDTH),) * rho.grid.dim] = True
    return float(rho.grid.x_weight * rho.values[~inner].sum())


def total_mass(f: DistributionField) -> float:
    """M = sum_ij wx_i w_j f(x_i, v_j)."""
    return field_mass(density(f))


def boundary_shell_mass(f: DistributionField) -> float:
    """Mass carried by the outermost WRAP_WIDTH position cells (wrap-detection
    monitor)."""
    return shell_mass(density(f))
