import math

import numpy as np
import pytest
from conftest import node_array

from runtumble.grid import DistributionField, GridSpec, build_grid
from runtumble.norms import (NormSpec, compact_mixed_norm, interpolation_check,
                             mixed_norm, spatial_norm)

INF = math.inf


def make_grid(dim=1, L=4.0, nx=32, nv=8):
    return build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv))


def separable_field(grid, gx, hv):
    """f(x, v) = gx(x) * hv(|v| nodes), zero outside V."""
    g = gx(*grid.x_mesh())
    h = np.zeros(grid.v_shape)
    h[grid.vindex] = hv(grid.vnodes)
    vals = np.multiply.outer(g, h)
    return DistributionField(grid, node_array(grid, vals)), g, h


def test_norm_spec_validation():
    NormSpec(p=2, q=1)
    NormSpec(p=INF, q=INF)
    with pytest.raises(ValueError):
        NormSpec(p=0.5, q=1)


def test_separable_norm_factorizes():
    grid = make_grid(dim=2, nx=16, nv=8)
    f, g, h = separable_field(grid, lambda x, y: np.exp(-(x**2 + y**2)),
                              lambda vn: 1.0 + vn[:, 0] ** 2)
    for p in (1.0, 2.0, INF):
        for q in (1.0, 3.0, INF):
            got = mixed_norm(f, NormSpec(p=p, q=q))
            gn = spatial_norm(g, grid, p)
            if q == INF:
                hn = np.abs(h).max()
            else:
                hn = (np.sum(grid.vweights * np.abs(h) ** q)) ** (1.0 / q)
            assert got == pytest.approx(gn * hn, rel=1e-12)


def test_infinite_exponents_are_exact_maxima():
    grid = make_grid(dim=1, nx=16, nv=4)
    rng = np.random.default_rng(1)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, node_array(grid, vals))
    assert mixed_norm(f, NormSpec(p=INF, q=INF)) == vals.max()


def test_compact_norm_matches_full_norm():
    grid = make_grid(dim=2, nx=8, nv=8)
    rng = np.random.default_rng(2)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, node_array(grid, vals))
    for p, q in ((1, 1), (2, 1.5), (INF, 2), (3, INF)):
        assert compact_mixed_norm(f.nodes, grid, p, q) == pytest.approx(
            mixed_norm(f, NormSpec(p=p, q=q)), rel=1e-13)


def _view_mixed_norm(nodes, grid, p, q):
    """The mixed norm over the x_shape + (K,) view of a node array, reduced
    over its last axis: the formula before the norms went node-first."""
    a = np.abs(np.moveaxis(nodes, 0, -1))
    if q == INF:
        inner = a.max(axis=-1)
    else:
        a **= q
        inner = (grid.hv ** grid.dim * np.sum(a, axis=-1)) ** (1.0 / q)
    return spatial_norm(inner, grid, p)


@pytest.mark.parametrize("dim, nx, nv", [(1, 32, 8), (2, 16, 16), (3, 8, 8),
                                         (3, 32, 4)])  # the last has nx = K = 32
def test_node_first_norm_bit_identical_to_view_formula(dim, nx, nv):
    grid = make_grid(dim=dim, nx=nx, nv=nv)
    rng = np.random.default_rng(dim + nx)
    nodes = rng.random((grid.n_vnodes,) + grid.x_shape)
    pairs = ((1, 1), (1.5, 1), (2, 1.5), (9 / 5, 9 / 7), (INF, 1), (3, INF), (INF, INF))
    for p, q in pairs:
        got = compact_mixed_norm(nodes, grid, p, q)
        expect = _view_mixed_norm(nodes, grid, p, q)
        assert np.array_equal(np.float64(got).view(np.int64),
                              np.float64(expect).view(np.int64)), (p, q)


def test_discrete_hoelder_between_mixed_norms():
    # ||f||_{a,a} <= ||f||_{p,q}^(1/2) ||f||_{q,p}^(1/2) at a = HM(p, q)
    grid = make_grid(dim=1, nx=32, nv=8)
    rng = np.random.default_rng(3)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, node_array(grid, vals))
    p, q = 9.0 / 5.0, 9.0 / 7.0
    a = 2.0 / (1.0 / p + 1.0 / q)
    lhs = mixed_norm(f, NormSpec(p=a, q=a))
    rhs = math.sqrt(mixed_norm(f, NormSpec(p=p, q=q)) * mixed_norm(f, NormSpec(p=q, q=p)))
    assert lhs <= rhs * (1 + 1e-12)


def test_interpolation_inequality_randomized():
    grid = make_grid(dim=1, nx=32, nv=8)
    rng = np.random.default_rng(4)
    for _ in range(20):
        vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
        f = DistributionField(grid, node_array(grid, vals))
        out = interpolation_check(f, p=9.0 / 5.0, q=9.0 / 7.0, theta=0.5)
        assert out["holds"]
        assert out["c"] == pytest.approx(9.0 / 8.0, rel=1e-12)
    with pytest.raises(ValueError):
        interpolation_check(f, p=2.0, q=1.5, theta=0.9)

