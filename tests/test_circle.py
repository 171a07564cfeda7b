import numpy as np
import pytest

from ttolab import (BoundaryGrid, CircleFunction, inner_product, lp_norm,
                    riesz_plus)

from conftest import random_trig_poly_samples


def test_grid_validation():
    with pytest.raises(ValueError):
        BoundaryGrid(24)
    with pytest.raises(ValueError):
        BoundaryGrid(8)
    g = BoundaryGrid(16)
    assert g.n == 16
    # points are exactly the 16th roots of unity
    assert abs(g.points[4] - 1j) < 1e-15
    assert BoundaryGrid(16) is g  # cached
    assert repr(g) == "BoundaryGrid(n=16)"


def test_oversized_grid_is_refused_before_allocation():
    from ttolab.circle import MAX_GRID
    for n in (2 ** 40, 2 * MAX_GRID):  # 2^40 points would need 16 TB: MemoryError
        with pytest.raises(ValueError, match="from 16 to 1048576"):
            BoundaryGrid(n)


def test_analyze_single_harmonic():
    g = BoundaryGrid(16)
    f = CircleFunction(g, g.points)
    co = f.coeffs  # FFT bin order: frequency k in bin k mod 16
    idx = {k: co[k % 16] for k in range(-8, 8)}
    assert abs(idx[1] - 1.0) < 1e-14
    assert max(abs(idx[k]) for k in idx if k != 1) < 1e-14


def test_analyze_constant_and_linearity():
    g = BoundaryGrid(16)
    f = CircleFunction(g, np.ones(16))
    assert abs(f.coeff(0) - 1.0) < 1e-15
    f = CircleFunction(g, 2.0 * np.conj(g.points) + 3.0)
    assert abs(f.coeff(-1) - 2.0) < 1e-14
    assert abs(f.coeff(0) - 3.0) < 1e-14
    assert abs(f.coeff(2)) < 1e-14


def test_analysis_synthesis_roundtrip(rng):
    g = BoundaryGrid(64)
    f = random_trig_poly_samples(rng, g, 20)
    back = CircleFunction._from_fft(g, f.coeffs)
    rel = np.max(np.abs(back.samples - f.samples)) / np.max(np.abs(f.samples))
    assert rel < 1e-12


def test_riesz_truncation():
    g = BoundaryGrid(16)
    f = CircleFunction.from_coeffs(g, {-1: 1.0, 0: 2.0, 1: 3.0})
    plus = riesz_plus(f)
    assert abs(plus.coeff(-1)) < 1e-15
    assert abs(plus.coeff(0) - 2.0) < 1e-15
    assert abs(plus.coeff(1) - 3.0) < 1e-15


def test_riesz_idempotence_and_partition(rng):
    g = BoundaryGrid(128)
    for _ in range(100):
        f = random_trig_poly_samples(rng, g, 30)
        p = riesz_plus(f)
        pp = riesz_plus(p)
        assert np.max(np.abs(pp.samples - p.samples)) < 1e-12
        # analytic input is fixed
        assert np.max(np.abs(riesz_plus(p).samples - p.samples)) < 1e-12


def test_inner_product_monomials():
    g = BoundaryGrid(32)
    z = CircleFunction.from_coeffs(g, {1: 1.0})
    z2 = CircleFunction.from_coeffs(g, {2: 1.0})
    assert abs(inner_product(z, z) - 1.0) < 1e-14
    assert abs(inner_product(z, z2)) < 1e-14


def test_inner_product_reproduces_point_values(rng):
    # <f, k_lambda> = f(lambda) against direct polynomial evaluation
    g = BoundaryGrid(256)
    coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    f = CircleFunction.from_coeffs(g, dict(enumerate(coeffs)))
    for _ in range(50):
        lam = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        k = CircleFunction(g, 1.0 / (1.0 - np.conj(lam) * g.points))
        direct = np.polyval(coeffs[::-1], lam)
        assert abs(inner_product(f, k) - direct) < 1e-10


def test_inner_product_conjugate_symmetry(rng):
    g = BoundaryGrid(64)
    f = random_trig_poly_samples(rng, g, 10)
    h = random_trig_poly_samples(rng, g, 10)
    assert abs(inner_product(f, h) - np.conj(inner_product(h, f))) < 1e-14


def test_lp_norm_constant():
    g = BoundaryGrid(16)
    f = CircleFunction(g, np.full(16, -2.0 + 1.0j))
    c = abs(-2.0 + 1.0j)
    for p in (1, 2, 3.5, np.inf):
        assert abs(lp_norm(f, p) - c) < 1e-14


def test_lp_norm_one_plus_z():
    g = BoundaryGrid(256)
    f = CircleFunction.from_coeffs(g, {0: 1.0, 1: 1.0})
    assert abs(lp_norm(f, 2) - np.sqrt(2.0)) < 1e-13
    # oracle: |1+e^{it}|^4 = (2+2cos t)^2 integrates to 6
    assert abs(lp_norm(f, 4) - 6.0 ** 0.25) < 1e-13


def test_parseval(rng):
    g = BoundaryGrid(128)
    f = random_trig_poly_samples(rng, g, 40)
    total = np.sum(np.abs(f.coeffs) ** 2)
    assert abs(lp_norm(f, 2) ** 2 - total) / total < 1e-12


def test_cauchy_refine():
    from ttolab.circle import cauchy_refine
    # quadrature of a smooth function stabilizes after one doubling
    calls = []

    def compute(n):
        calls.append(n)
        g = BoundaryGrid(n)
        return float(np.mean(np.abs(1.0 / (1.0 - 0.5 * g.points)) ** 2))

    val, resid, n = cauchy_refine(compute, start_n=64, tol=1e-12, max_n=4096)
    assert resid <= 1e-12
    assert abs(val - 1.0 / (1.0 - 0.25)) < 1e-12  # sum of 0.25^k
    # budget exhaustion reports the last residual instead of raising
    val2, resid2, n2 = cauchy_refine(compute, start_n=16, tol=0.0, max_n=64)
    assert n2 == 64 and resid2 > 0.0


def test_coefficients_outside_the_band_are_zero():
    g = BoundaryGrid(16)
    f = CircleFunction.from_coeffs(g, {1: 2.0, -8: 1.0})
    assert f.coeff(-8) == 1.0
    assert f.coeff(8) == 0 and f.coeff(-9) == 0  # the band is [-8, 8)


def test_sums_and_products_without_bandwidth_metadata():
    g = BoundaryGrid(16)
    f = CircleFunction.from_coeffs(g, {1: 2.0, -1: 1.0})  # bandwidth 1
    h = CircleFunction(g, g.points ** 3)  # no bandwidth declared
    assert (f - f).bandwidth == 1 and (f + h).bandwidth is None
    # a scalar multiple keeps whatever metadata the function has
    assert (2.0 * f).bandwidth == 1 and (h * 2.0).bandwidth is None
    assert np.array_equal((2.0 * h).samples, 2.0 * h.samples)
