import numpy as np
import pytest

from ttolab import (BoundaryGrid, CircleFunction, analyze, inner_product,
                    lp_norm, multiply, riesz_minus, riesz_plus, synthesize)
from ttolab.circle import h2_eval
from ttolab.errors import BandwidthOverflow

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


def test_oversized_grid_is_refused_before_allocation():
    from ttolab.circle import MAX_GRID
    for n in (2 ** 40, 2 * MAX_GRID):  # 2^40 points would need 16 TB: MemoryError
        with pytest.raises(ValueError, match="from 16 to 1048576"):
            BoundaryGrid(n)


def test_analyze_single_harmonic():
    g = BoundaryGrid(16)
    f = CircleFunction(g, g.points)
    co = analyze(f)
    idx = {k: co[k + 8] for k in range(-8, 8)}
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
    back = synthesize(g, analyze(f))
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
        m = riesz_minus(f)
        assert np.max(np.abs(p.samples + m.samples - f.samples)) < 1e-12
        # analytic input is fixed
        assert np.max(np.abs(riesz_plus(p).samples - p.samples)) < 1e-12


def test_multiply_unimodular_cancellation():
    g = BoundaryGrid(16)
    f = CircleFunction(g, g.points, bandwidth=1)
    gbar = CircleFunction(g, np.conj(g.points), bandwidth=1)
    prod = multiply(f, gbar)
    assert np.max(np.abs(prod.samples - 1.0)) < 1e-14


def test_multiply_monomials():
    g = BoundaryGrid(16)
    z = CircleFunction.from_coeffs(g, {1: 1.0})
    z2 = multiply(z, z)
    assert abs(z2.coeff(2) - 1.0) < 1e-14
    assert z2.bandwidth == 2


def test_multiply_alias_free_oracle(rng):
    # same degree-7 product computed on n=32 and n=64 must agree
    co1 = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(8)}
    co2 = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in range(8)}
    vals = {}
    for n in (32, 64):
        g = BoundaryGrid(n)
        f = CircleFunction.from_coeffs(g, co1)
        h = CircleFunction.from_coeffs(g, co2)
        prod = multiply(f, h)
        vals[n] = [prod.coeff(k) for k in range(15)]
    err = np.max(np.abs(np.array(vals[32]) - np.array(vals[64])))
    assert err < 1e-12


def test_multiply_bandwidth_overflow():
    g = BoundaryGrid(16)
    f = CircleFunction.from_coeffs(g, {5: 1.0})
    h = CircleFunction.from_coeffs(g, {4: 1.0})
    with pytest.raises(BandwidthOverflow):
        multiply(f, h)


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
        assert abs(h2_eval(f, lam) - direct) < 1e-12


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


def test_multiply_commutative_associative(rng):
    g = BoundaryGrid(256)
    a = random_trig_poly_samples(rng, g, 5)
    b = random_trig_poly_samples(rng, g, 6)
    c = random_trig_poly_samples(rng, g, 7)
    ab = multiply(a, b)
    ba = multiply(b, a)
    assert np.max(np.abs(ab.samples - ba.samples)) < 1e-12
    left = multiply(multiply(a, b), c)
    right = multiply(a, multiply(b, c))
    assert np.max(np.abs(left.samples - right.samples)) < 1e-11


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
    # a caller-supplied distance(prev, cur) replaces the default one
    seen = []

    def distance(prev, cur):
        seen.append((prev, cur))
        return abs(cur - prev)

    val, resid, n = cauchy_refine(lambda n: 1.0 / n, start_n=16, tol=2e-2,
                                  max_n=1024, distance=distance)
    assert seen == [(1 / 16, 1 / 32), (1 / 32, 1 / 64)]
    assert (val, resid, n) == (1 / 64, 1 / 32 - 1 / 64, 64)
