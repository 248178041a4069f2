import math

import numpy as np
import pytest

from runtumble.freeflow import (GaussianBallData, decay_rate, free_mixed_norm,
                                gaussian_ball_mass)
from runtumble.grid import GridSpec, build_grid
from runtumble.norms import NormSpec, mixed_norm
from runtumble.transport import SeparableData, exact_free_solution

INF = math.inf


def test_initial_norms_are_separable():
    data = GaussianBallData(amplitude=2.0, sigma=0.5, R=1.0, d=3)
    # ||g||_p = A (2 pi sigma^2 / p)^{d/2p}, |V| = 4 pi R^3 / 3
    vol = 4.0 * np.pi / 3.0
    assert data.ball_volume == pytest.approx(vol, rel=1e-14)
    p, q = 2.0, 3.0
    expect = 2.0 * (2 * np.pi * 0.25 / p) ** (3 / (2 * p)) * vol ** (1 / q)
    assert data.initial_norm(p, q) == pytest.approx(expect, rel=1e-13)
    assert data.flat_norm(p) == data.initial_norm(p, p)
    assert data.initial_norm(INF, INF) == 2.0


def test_gaussian_ball_mass_limits():
    # ball much larger than the Gaussian: mass -> full Gaussian integral
    for d in (1, 2, 3):
        full = (2 * np.pi * 0.3**2) ** (d / 2.0)
        got = gaussian_ball_mass([0.0], a=10.0, s=0.3, d=d)[0]
        # d = 2 is a radial trapezoid quadrature, the others are erf-exact
        assert got == pytest.approx(full, rel=1e-3 if d == 2 else 1e-6)
    # center far outside the ball: mass -> 0
    for d in (1, 2, 3):
        assert gaussian_ball_mass([8.0], a=1.0, s=0.3, d=d)[0] < 1e-10


def test_free_norm_t0_and_l1_conservation():
    data = GaussianBallData(sigma=0.4, R=1.0, d=2)
    assert free_mixed_norm(data, 0.0, 2.0, 1.0) == data.initial_norm(2.0, 1.0)
    # the (1, 1) norm is the mass, conserved along free transport
    m0 = data.initial_norm(1.0, 1.0)
    for t in (1.0, 5.0, 20.0):
        assert free_mixed_norm(data, t, 1.0, 1.0) == pytest.approx(m0, rel=5e-3)


@pytest.mark.parametrize("d,p,q", [(1, INF, 1.0), (2, 2.0, 1.0), (3, 9 / 5, 9 / 7)])
def test_asymptotic_decay_rate(d, p, q):
    data = GaussianBallData(sigma=0.3, R=1.0, d=d)
    times = np.geomspace(10.0, 80.0, 8)
    norms = [free_mixed_norm(data, t, p, q) for t in times]
    slope = np.polyfit(np.log(times), np.log(norms), 1)[0]
    rate = decay_rate(d, p, q)
    assert abs(slope + rate) <= 0.05 * rate


def test_free_norm_rejects_bad_arguments():
    data = GaussianBallData()
    with pytest.raises(ValueError):
        free_mixed_norm(data, -1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        free_mixed_norm(data, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        free_mixed_norm(data, 1.0, 2.0, INF)


@pytest.mark.parametrize("make, kwargs", [
    (SeparableData, {"width": -1.0}), (SeparableData, {"kind": "ring"}),
    (SeparableData, {"width": 0.0}), (SeparableData, {"width": math.nan}),
    (GaussianBallData, {"amplitude": 0.0}), (GaussianBallData, {"sigma": -1.0}),
    (GaussianBallData, {"R": math.nan}), (GaussianBallData, {"d": 4}),
    (SeparableData, {"amplitude": -1.0}), (SeparableData, {"amplitude": math.nan})])
def test_initial_data_descriptors_reject_bad_parameters(make, kwargs):
    with pytest.raises(ValueError):
        make(**kwargs)


def test_grid_solver_cross_check():
    # the same free flow on the periodic grid reproduces the radial-quadrature norms
    data = GaussianBallData(amplitude=1.0, sigma=0.5, R=1.0, d=1)
    grid = build_grid(GridSpec(dim=1, box_half_length=10.0, nx=256, nv=16))
    f0 = SeparableData(amplitude=1.0, width=0.5, kind="gaussian")
    for t in (0.0, 1.0, 2.0):
        f = exact_free_solution(f0, grid, t)
        for p, q in ((INF, 1.0), (2.0, 1.0), (2.0, 2.0)):
            ref = free_mixed_norm(data, t, p, q)
            got = mixed_norm(f, NormSpec(p=p, q=q))
            assert got == pytest.approx(ref, rel=0.02)
