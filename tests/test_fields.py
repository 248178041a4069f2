import numpy as np
import pytest
import scipy.fft
from scipy.special import kv

from runtumble.fields import (_bessel_radial, _newton_kernel, _newton_kernel_hat,
                              bessel_potential_integrable, bessel_potential_norms,
                              calderon_zygmund_check, gradient_bound_check,
                              gradient_from_hat, newton_parts, newtonian_potential,
                              solve_field, split_short_long)
from runtumble.grid import GridSpec, SpatialField, build_grid


def make_grid(dim=2, L=4.0, nx=32):
    return build_grid(GridSpec(dim=dim, box_half_length=L, nx=nx, nv=4))


def manufactured(grid, beta):
    """S = product of low-mode cosines; rho = beta*S - Lap S analytically."""
    mesh = grid.x_mesh()
    L = grid.spec.box_half_length
    kx = np.pi / L  # one full period over the box per factor
    S = np.ones(grid.x_shape)
    for m in mesh:
        S = S * np.cos(kx * m)
    lap = -grid.dim * kx**2 * S
    rho = beta * S - lap
    return S, SpatialField(grid, rho)


@pytest.mark.parametrize("dim,beta", [(1, 1), (2, 1), (3, 1)])
def test_spectral_solver_manufactured_solution(dim, beta):
    grid = make_grid(dim=dim, nx=32 if dim < 3 else 16)
    S_exact, rho = manufactured(grid, beta)
    sol = solve_field(rho, want=("S", "grad", "hess"))
    assert np.abs(sol["S"].values - S_exact).max() <= 1e-10
    # spectral derivatives of a single-mode product are exact too
    L = grid.spec.box_half_length
    kx = np.pi / L
    mesh = grid.x_mesh()
    dS0 = -kx * np.sin(kx * mesh[0])
    for m in mesh[1:]:
        dS0 = dS0 * np.cos(kx * m)
    assert np.abs(sol["grad"][0].values - dS0).max() <= 1e-10
    lap = sum(sol["hess"][a][a].values for a in range(dim))
    assert np.abs(lap - (-dim * kx**2 * S_exact)).max() <= 1e-9


def _random_rho3(L=4.0, nx=16, seed=0):
    grid = build_grid(GridSpec(dim=3, box_half_length=L, nx=nx, nv=4))
    rng = np.random.default_rng(seed)
    mesh = grid.x_mesh()
    r2 = sum(m**2 for m in mesh)
    vals = rng.random(grid.x_shape) * np.exp(-r2)
    return grid, SpatialField(grid, vals)


def test_newtonian_split_reconstruction():
    grid, rho = _random_rho3()
    full = newtonian_potential(rho, order=0)
    short, long_ = split_short_long(rho, order=0)
    err = np.abs(short.values + long_.values - full.values).max()
    assert err <= 1e-8 * np.abs(full.values).max()


def test_newton_kernels_transformed_once_per_grid():
    # the cached, read-only transform gives the bits of transforming the
    # tabulated kernel on every call
    grid, rho = _random_rho3(seed=4)
    rho_hat = scipy.fft.rfftn(rho.values)

    def direct(order, part):
        ker_hat = scipy.fft.rfftn(_newton_kernel(grid, order, part))
        return scipy.fft.irfftn(rho_hat * ker_hat, s=grid.x_shape) * grid.x_weight

    for order in (0, 1):
        S = newtonian_potential(rho, order=order)
        assert np.array_equal(S.values.view(np.int64), direct(order, "full").view(np.int64))
        for got, part in zip(split_short_long(rho, order=order), ("short", "long")):
            assert np.array_equal(got.values.view(np.int64), direct(order, part).view(np.int64))
    for got, (order, part) in zip(newton_parts(rho), ((0, "full"), (0, "short"), (1, "short"))):
        assert np.array_equal(got.values.view(np.int64), direct(order, part).view(np.int64))
    hat = _newton_kernel_hat(grid.spec, 0, "full")
    assert _newton_kernel_hat(grid.spec, 0, "full") is hat and not hat.flags.writeable


def test_gradient_from_hat_is_the_spectral_gradient():
    # solve_field's gradient and the gradient of the Newtonian S share one
    # formula, irfftn(i k_a hat) over the grid's half-spectrum wavenumbers,
    # the factor 0 at the Nyquist index of axis a
    grid, rho = _random_rho3(seed=5)
    n = grid.spec.nx
    kmesh = np.meshgrid(grid.k, grid.k, grid.k[:n // 2 + 1], indexing="ij")
    for hat in (scipy.fft.rfftn(rho.values),
                scipy.fft.rfftn(newtonian_potential(rho).values)):
        for a, got in enumerate(gradient_from_hat(hat, grid)):
            factor = np.where(np.indices(hat.shape)[a] == n // 2, 0.0, 1j * kmesh[a])
            expect = scipy.fft.irfftn(factor * hat, s=grid.x_shape)
            assert np.array_equal(got.values.view(np.int64), expect.view(np.int64))


def _nyquist_rich(grid, seed):
    """White noise plus the pure Nyquist mode (-1)^(i_0 + ... + i_(d-1))."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.x_shape)
    values += (-1.0) ** np.indices(grid.x_shape).sum(axis=0)
    return SpatialField(grid, values)


def _close(got, expect, rtol=1e-13):
    return np.abs(got - expect).max() <= rtol * np.abs(expect).max()


@pytest.mark.parametrize("dim, nx", [(1, 64), (2, 32), (3, 16)])
def test_real_transforms_give_the_complex_formulas(dim, nx):
    # S, grad and hess from the half spectrum equal the real parts of the
    # complex formulas to roundoff on a field with every Nyquist mode
    grid = make_grid(dim=dim, nx=nx)
    rho = _nyquist_rich(grid, seed=dim)
    kmesh = np.meshgrid(*([grid.k] * dim), indexing="ij")
    s_hat = np.fft.fftn(rho.values) / (1 + sum(c * c for c in kmesh))
    sol = solve_field(rho, want=("S", "grad", "hess"))
    assert _close(sol["S"].values, np.fft.ifftn(s_hat).real)
    for a in range(dim):
        assert _close(sol["grad"][a].values, np.fft.ifftn(1j * kmesh[a] * s_hat).real), a
        for b in range(dim):
            expect = np.fft.ifftn(-kmesh[a] * kmesh[b] * s_hat).real
            assert _close(sol["hess"][a][b].values, expect), (a, b)


def test_newton_parts_give_the_complex_convolutions():
    grid = build_grid(GridSpec(dim=3, box_half_length=4.0, nx=16, nv=4))
    rho = _nyquist_rich(grid, seed=6)
    rho_hat = np.fft.fftn(rho.values)
    for got, (order, part) in zip(newton_parts(rho), ((0, "full"), (0, "short"), (1, "short"))):
        ker_hat = np.fft.fftn(_newton_kernel(grid, order, part))
        assert _close(got.values, np.fft.ifftn(rho_hat * ker_hat).real * grid.x_weight), part


def test_long_range_part_bounded_by_mass():
    grid, rho = _random_rho3(seed=1)
    mass = float(grid.x_weight * rho.values.sum())
    _, long_ = split_short_long(rho, order=0)
    assert np.abs(long_.values).max() <= mass / (4.0 * np.pi) * (1.0 + 1e-6)


def test_newtonian_far_field():
    # potential of a compact blob approaches M / (4 pi |x|) away from it
    grid, rho = _random_rho3(L=8.0, nx=32, seed=2)
    mass = float(grid.x_weight * rho.values.sum())
    S = newtonian_potential(rho, order=0)
    i = np.searchsorted(grid.x, 5.0)
    mid = grid.spec.nx // 2
    r = abs(grid.x[i])
    assert S.values[i, mid, mid] == pytest.approx(mass / (4 * np.pi * r), rel=0.05)


def test_split_requires_d3_and_wide_box():
    grid = make_grid(dim=2, nx=16)
    with pytest.raises(ValueError):
        split_short_long(SpatialField(grid, np.ones(grid.x_shape)))
    narrow = build_grid(GridSpec(dim=3, box_half_length=1.5, nx=16, nv=4))
    with pytest.raises(ValueError):
        split_short_long(SpatialField(narrow, np.ones(narrow.x_shape)))


def test_bessel_integrability_thresholds():
    assert bessel_potential_integrable(2.9, 0, 3)
    assert not bessel_potential_integrable(3.0, 0, 3)
    assert bessel_potential_integrable(1.4, 1, 3)
    assert not bessel_potential_integrable(1.5, 1, 3)
    with pytest.raises(ValueError):
        bessel_potential_norms(3.0, order=0, d=3)
    with pytest.raises(ValueError):
        bessel_potential_norms(1.5, order=1, d=3)


def test_bessel_norm_quadrature_converges():
    for p, order in ((2.0, 0), (9.0 / 7.0, 1)):
        coarse = bessel_potential_norms(p, order=order, d=3, n_radial=400)
        fine = bessel_potential_norms(p, order=order, d=3, n_radial=800)
        assert abs(fine - coarse) / fine < 0.005


def test_bessel_kernel_pointwise_closed_form():
    # G = (pi r)^nu K_nu(r/2) / (2 pi) and |G'| = (pi r)^nu K_(nu-1)(r/2) / (4 pi),
    # nu = (2-d)/2; for d = 1 and 3 the half-integer K are elementary
    r = np.array([1e-5, 1e-2, 1.0])
    e = np.exp(-r / 2.0)
    expect = {
        (1, 0): e / 2.0, (1, 1): e / 4.0,
        (2, 0): kv(0.0, r / 2.0) / (2.0 * np.pi), (2, 1): kv(1.0, r / 2.0) / (4.0 * np.pi),
        (3, 0): e / (2.0 * np.pi * r), (3, 1): e * (1.0 + 2.0 / r) / (4.0 * np.pi * r),
    }
    for (d, order), g in expect.items():
        assert np.allclose(_bessel_radial(r, order, d), g, rtol=1e-12, atol=0.0), (d, order)


def test_bessel_norm_includes_the_small_radius_tail():
    # the gradient norm near its threshold p < 3/2 gets much of its mass
    # from r < 1e-6; the power-law tail makes it independent of r_min
    near = bessel_potential_norms(1.4, order=1, d=3)
    deeper = bessel_potential_norms(1.4, order=1, d=3, n_radial=800, r_min=1e-9)
    assert abs(near - deeper) / deeper < 1e-5


def test_bessel_l1_norm_closed_form():
    # the Gaussian substitution closes the s-integral of the kernel exactly:
    # int G = 2^d for this radial normalization
    for d in (2, 3):
        assert bessel_potential_norms(1.0, order=0, d=d) == pytest.approx(2.0**d, rel=5e-3)


def test_gradient_bound_check():
    grid, rho = _random_rho3(seed=3)
    out = gradient_bound_check(rho, p=9.0 / 7.0)
    assert out["passed"]
    with pytest.raises(ValueError):
        gradient_bound_check(rho, p=2.0)


def test_calderon_zygmund_constant_stable_under_refinement():
    ratios = []
    for nx in (16, 32):
        grid = build_grid(GridSpec(dim=2, box_half_length=4.0, nx=nx, nv=4))
        rng = np.random.default_rng(5)
        mesh = grid.x_mesh()
        vals = rng.random(grid.x_shape) * np.exp(-sum(m**2 for m in mesh))
        ratios.append(calderon_zygmund_check(SpatialField(grid, vals), p=1.5)["ratio"])
    assert ratios[0] > 0
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.2
    with pytest.raises(ValueError):
        calderon_zygmund_check(SpatialField(grid, vals), p=1.0)
