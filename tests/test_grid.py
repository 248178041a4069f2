import numpy as np
import pytest
from conftest import node_array

from runtumble.grid import (DistributionField, GridSpec, boundary_shell_mass, build_grid,
                            density, field_from_compact, total_mass)
from runtumble.kernels import KernelSpec
from runtumble.norms import NormSpec


def make_grid(dim=1, L=4.0, nx=16, nv=4, shape="ball", r_min=0.0, r_max=1.0, dt=0.01):
    return build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv,
                               velocity_shape=shape, r_min=r_min, r_max=r_max, dt=dt))


@pytest.mark.parametrize("bad", [
    dict(dim=4, box_half_length=1.0, nx=16, nv=4),
    dict(dim=1, box_half_length=-1.0, nx=16, nv=4),
    dict(dim=1, box_half_length=1.0, nx=12, nv=4),
    dict(dim=1, box_half_length=1.0, nx=16, nv=6),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, velocity_shape="cube"),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, r_min=0.5),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, velocity_shape="shell",
         r_min=0.8, r_max=0.5),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, dt=0.0),
    # NaN and infinite values, which `x <= 0` checks let through
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, dt=float("nan")),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, dt=float("inf")),
    dict(dim=1, box_half_length=float("nan"), nx=16, nv=4),
    dict(dim=1, box_half_length=float("inf"), nx=16, nv=4),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, r_max=float("nan")),  # K = 0 nodes
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, r_max=float("inf")),
    dict(dim=1, box_half_length=1.0, nx=16, nv=4, velocity_shape="shell",
         r_min=float("nan")),
])
def test_spec_validation_rejects(bad):
    with pytest.raises(ValueError):
        GridSpec(**bad)


def test_specs_check_themselves_at_construction():
    # making an invalid spec raises: its rules run once, in __post_init__
    with pytest.raises(ValueError, match="power of two"):
        GridSpec(dim=1, box_half_length=1.0, nx=12, nv=4)
    with pytest.raises(ValueError, match="r_min < r_max"):
        GridSpec(dim=1, box_half_length=1.0, nx=16, nv=4, r_max=0.0)
    with pytest.raises(ValueError, match="unknown kernel family"):
        KernelSpec(family="nope")
    with pytest.raises(ValueError, match="four signs"):
        KernelSpec(family="hyp3", signs=(1, 2, 1, -1))
    with pytest.raises(ValueError, match="must be >= 1"):
        NormSpec(p=0.5, q=1)


def test_d1_ball_measure_exact():
    grid = make_grid(dim=1, nv=8, r_max=1.0)
    assert grid.velocity_measure == pytest.approx(2.0, abs=1e-14)


def test_d1_shell_measure_exact_on_aligned_radii():
    # radii on cell edges: nv=8 over [-1, 1] has edges at multiples of 0.25
    grid = make_grid(dim=1, nv=8, shape="shell", r_min=0.5, r_max=1.0)
    assert grid.velocity_measure == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.abs(grid.vnodes) >= 0.5)


def test_ball_measure_converges_d2():
    errs = []
    for nv in (8, 16, 32, 64):
        grid = make_grid(dim=2, nv=nv)
        errs.append(abs(grid.velocity_measure - np.pi))
    assert errs[-1] < errs[0]
    assert errs[-1] / np.pi < 0.02


def test_alignment_time_gives_integer_cell_shifts():
    for k in (1, 2, 5):
        grid = make_grid(dim=2, nv=8)
        t = grid.alignment_time(k)
        cells = t * grid.vnodes / grid.dx
        assert np.allclose(cells, np.rint(cells), atol=1e-12)


@pytest.mark.parametrize("dim, nv, shape, r_min", [
    (1, 8, "ball", 0.0),      # the 1-D CLI scenario of the tests
    (2, 16, "ball", 0.0),     # the 2-D hyp2 preset, 208 nodes
    (3, 4, "ball", 0.0),      # the 3-D presets, 32 nodes
    (2, 8, "shell", 0.5),
])
def test_vreflect_pairs_each_node_with_its_mirror(dim, nv, shape, r_min):
    grid = make_grid(dim=dim, nv=nv, shape=shape, r_min=r_min)
    r = grid.vreflect
    assert r is not None
    assert np.array_equal(grid.vnodes[r], -grid.vnodes)


def test_vreflect_none_without_exact_pairing():
    # with r_max = 0.3 the cell centers are not exact negatives of each other
    grid = make_grid(dim=2, nv=4, r_max=0.3)
    assert not np.array_equal(grid.v[::-1], -grid.v)
    assert grid.vreflect is None


def test_compact_roundtrip():
    grid = make_grid(dim=2, nx=8, nv=4)
    rng = np.random.default_rng(0)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, node_array(grid, vals))
    f.validate()
    assert np.array_equal(f.values, vals)
    # compact() is a view of the node-first state, not a copy
    assert f.compact().shape == grid.x_shape + (grid.n_vnodes,)
    assert np.shares_memory(f.compact(), f.nodes)
    back = field_from_compact(grid, np.ascontiguousarray(f.compact()))
    assert np.array_equal(back.values, f.values)
    assert f.extrema() == (float(vals.min()), float(vals.max()))
    # extrema reads only f's box and counts the +0.0 outside it: on a 1-D
    # grid every velocity node is in V, and f is strictly positive on a
    # compact box, so only the box supplies the 0.0 minimum
    grid = make_grid(dim=1, nx=16, nv=4)
    assert grid.n_vnodes == grid.vmask.size
    nodes = np.zeros((grid.n_vnodes,) + grid.x_shape)
    nodes[:, 5:9] = 0.5 + rng.random((grid.n_vnodes, 4))
    f = DistributionField(grid, nodes)
    assert f.box == (slice(5, 9),)
    dense = f.values
    assert f.extrema() == (0.0, float(nodes.max())) == (float(dense.min()), float(dense.max()))


def test_field_validation():
    grid = make_grid(dim=1, nx=8, nv=4)
    shape = (grid.n_vnodes,) + grid.x_shape
    good = DistributionField(grid, np.ones(shape))
    good.validate()
    with pytest.raises(ValueError, match="nonnegative"):
        DistributionField(grid, -np.ones(shape)).validate()
    with pytest.raises(ValueError, match="shape"):
        DistributionField(grid, np.ones((grid.n_vnodes, 4))).validate()
    # the field's time is the run's (Simulation.t), so NaN and inf are refused too
    for t in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="timestamp"):
            DistributionField(grid, np.ones(shape), t=t).validate()
    for bad in (np.nan, np.inf):
        nodes = np.ones(shape)
        nodes[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            DistributionField(grid, nodes).validate()


def test_density_and_mass_of_uniform_data():
    grid = make_grid(dim=2, nx=8, nv=8)
    f = DistributionField(grid, node_array(grid, np.ones(grid.x_shape + grid.v_shape) * grid.vmask))
    rho = density(f)
    assert np.allclose(rho.values, grid.velocity_measure)
    # total mass = |box| * |V| for f = 1 on the support
    L = grid.spec.box_half_length
    assert total_mass(f) == pytest.approx((2 * L) ** 2 * grid.velocity_measure, rel=1e-13)


def test_boundary_shell_mass_sees_only_the_rim():
    grid = make_grid(dim=1, nx=16, nv=4)
    vals = np.zeros(grid.x_shape + grid.v_shape)
    vals[8, :] = 1.0  # interior cell
    f = DistributionField(grid, node_array(grid, vals))
    assert boundary_shell_mass(f) == 0.0
    vals[0, :] = 1.0  # rim cell
    f = DistributionField(grid, node_array(grid, vals))
    assert boundary_shell_mass(f) > 0.0
