import math
from fractions import Fraction

import numpy as np
import pytest

from runtumble.exponents import (ExponentQuadruple, admissible_region, conjugate,
                                 exponent_ge, harmonic_mean, numerology_delta, region_member,
                                 solve_numerology, strichartz_admissible,
                                 theorem3_exponents)

INF = math.inf
F = Fraction


def test_conjugate_and_harmonic_mean():
    assert conjugate(2) == 2
    assert conjugate(1) == INF
    assert conjugate(INF) == 1
    assert conjugate(F(9, 7)) == F(9, 2)
    assert harmonic_mean(F(9, 5), F(9, 7)) == F(3, 2)
    # symmetry and idempotence on the diagonal
    assert harmonic_mean(3, 5) == harmonic_mean(5, 3)
    assert harmonic_mean(F(7, 3), F(7, 3)) == F(7, 3)


def test_exponent_order_puts_inf_above_every_finite_exponent():
    assert exponent_ge(INF, 2) and exponent_ge(INF, INF) and not exponent_ge(2, INF)
    assert exponent_ge(F(9, 5), F(9, 7)) and not exponent_ge(F(9, 7), F(9, 5))
    assert exponent_ge(F(3, 2), 1.5) and exponent_ge(2, 2)


def test_admissible_reference_quadruples():
    ok, diag = strichartz_admissible(ExponentQuadruple(F(3), F(9, 5), F(9, 7), F(3, 2), 3))
    assert ok and diag["decay_exponent"] == F(2, 3)
    ok, _ = strichartz_admissible(ExponentQuadruple(F(3), F(12, 5), F(12, 7), F(2), 4))
    assert ok


def test_p_equals_q_edge_flagged():
    ok, diag = strichartz_admissible(ExponentQuadruple(INF, 2, 2, 2, 3))
    assert diag["r_infinite"]
    assert diag["decay_exponent"] == 0


def test_single_condition_violations_rejected():
    rng = np.random.default_rng(7)
    base = theorem3_exponents(F(7, 4))
    for _ in range(50):
        # break the rate condition by perturbing r
        bad_r = float(base.r) * (1.0 + float(rng.uniform(0.05, 0.5)))
        ok, _ = strichartz_admissible(
            ExponentQuadruple(bad_r, float(base.p), float(base.q), float(base.a), 3))
        assert not ok
        # break the ordering by swapping p and q
        ok, _ = strichartz_admissible(
            ExponentQuadruple(float(base.r), float(base.q), float(base.p), float(base.a), 3))
        assert not ok


def test_theorem3_endpoints():
    quad = theorem3_exponents(F(3, 2))
    assert (quad.r, quad.p, quad.q) == (3, F(9, 5), F(9, 7))
    quad = theorem3_exponents(F(2))
    assert (quad.p, quad.q) == (F(18, 7), F(18, 11))
    with pytest.raises(ValueError):
        theorem3_exponents(F(5, 4))


def test_theorem3_always_admissible():
    for a in np.linspace(1.5, 2.0, 1000):
        ok, _ = strichartz_admissible(theorem3_exponents(float(a)))
        assert ok


def test_numerology_reference_chain():
    chain = solve_numerology(F(9, 7))
    assert abs(chain.p - 9.0 / 5.0) <= 1e-12
    assert numerology_delta(F(9, 5), F(9, 7)) == 0
    assert abs(chain.lam - 2.0 / 3.0) <= 1e-12
    assert abs(chain.theta - 0.5) <= 1e-12
    assert abs(chain.c - 9.0 / 8.0) <= 1e-12
    assert abs(chain.b - 9.0 / 7.0) <= 1e-12
    assert abs(chain.eps_interp - 0.5) <= 1e-12


def test_numerology_sweep_identities():
    for q in np.linspace(1.001, 1.499, 250):
        chain = solve_numerology(float(q))
        assert abs(chain.eps_interp + chain.theta - 1.0) <= 1e-12
        assert chain.lam < 1.0
        assert 0.0 < chain.theta < 1.0
        assert 1.5 < chain.p < 3.0


def test_numerology_rejects_out_of_range():
    for q in (1.0, 1.5, 0.9, 2.0):
        with pytest.raises(ValueError):
            solve_numerology(q)


def test_region_reference_point_and_exclusions():
    assert bool(region_member(4.5, 2.25))
    # middle constraint is tight at the reference point
    gap = 1.0 / 2.25 - 1.0 / 4.5
    assert abs(3.0 * gap + 3.0 * 2.25 / 4.5**2 - 1.0) <= 1e-12
    # p' >= q' half-plane fully excluded
    rng = np.random.default_rng(3)
    pp = rng.uniform(1.0, 5.0, 300)
    qp = pp - rng.uniform(0.0, 2.0, 300)
    assert not np.any(region_member(qp, pp))


def test_region_intersects_qprime_gt_3():
    qs, ps, mask = admissible_region(step=0.05)
    sel = mask[qs > 3.0, :]
    assert sel.any()
    # mask matches pointwise membership
    recomputed = region_member(qs[:, None], ps[None, :])
    assert np.array_equal(mask, recomputed)
