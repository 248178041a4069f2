import math

import numpy as np
import pytest

from runtumble.grid import DistributionField, GridSpec, build_grid
from runtumble.norms import (NormSpec, compact_mixed_norm, interpolation_check,
                             mixed_norm, spatial_norm, time_norm)

INF = math.inf


def make_grid(dim=1, L=4.0, nx=32, nv=8):
    return build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=nv))


def separable_field(grid, gx, hv):
    """f(x, v) = gx(x) * hv(|v| nodes), zero outside V."""
    g = gx(*grid.x_mesh())
    h = np.zeros(grid.v_shape)
    h[grid.vindex] = hv(grid.vnodes)
    vals = np.multiply.outer(g, h)
    return DistributionField(grid, vals), g, h


def test_norm_spec_validation():
    NormSpec(p=2, q=1).validate()
    NormSpec(p=INF, q=INF, r=3).validate()
    with pytest.raises(ValueError):
        NormSpec(p=0.5, q=1).validate()


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
    f = DistributionField(grid, vals)
    assert mixed_norm(f, NormSpec(p=INF, q=INF)) == vals.max()


def test_compact_norm_matches_full_norm():
    grid = make_grid(dim=2, nx=8, nv=8)
    rng = np.random.default_rng(2)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, vals)
    for p, q in ((1, 1), (2, 1.5), (INF, 2), (3, INF)):
        assert compact_mixed_norm(f.compact(), grid, p, q) == pytest.approx(
            mixed_norm(f, NormSpec(p=p, q=q)), rel=1e-13)


def test_discrete_hoelder_between_mixed_norms():
    # ||f||_{a,a} <= ||f||_{p,q}^(1/2) ||f||_{q,p}^(1/2) at a = HM(p, q)
    grid = make_grid(dim=1, nx=32, nv=8)
    rng = np.random.default_rng(3)
    vals = rng.random(grid.x_shape + grid.v_shape) * grid.vmask
    f = DistributionField(grid, vals)
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
        f = DistributionField(grid, vals)
        out = interpolation_check(f, p=9.0 / 5.0, q=9.0 / 7.0, theta=0.5)
        assert out["holds"]
        assert out["c"] == pytest.approx(9.0 / 8.0, rel=1e-12)
    with pytest.raises(ValueError):
        interpolation_check(f, p=2.0, q=1.5, theta=0.9)


def test_time_norm():
    series = [1.0, 2.0, 3.0]
    assert time_norm(series, INF, 0.1) == 3.0
    assert time_norm(series, 2, 0.1) == pytest.approx(math.sqrt(0.1 * 14.0), rel=1e-14)
    assert time_norm([], 2, 0.1) == 0.0
