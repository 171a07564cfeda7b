import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ttolab import (BlaschkeProduct, BoundaryGrid, BoundaryPoint, CircleFunction,
                    ModelSpace, Monomial, ProductInner, tm_basis)
from ttolab.circle import inner_product, lp_norm
from ttolab.errors import BoundaryPointNotNormalizable, NoAngularDerivative
from ttolab.modelspace import GridSpace, _one_minus_abs2

from conftest import (near_zero_lists, random_blaschke_space, random_trig_poly_samples,
                      space_from_zeros, zero_lists)
from identities import product_into


def test_tm_basis_monomials():
    basis = tm_basis(Monomial(4))
    for j, e in enumerate(basis):
        assert abs(e.coeff(j) - 1.0) < 1e-13
        assert sum(abs(e.coeff(k)) for k in range(8) if k != j) < 1e-12


def _tm_scalar(zeros, w):
    """e_j(w) from the docstring formula, one point and one zero at a time."""
    row, prefix = [], 1.0 + 0.0j
    for a in zeros:
        d = 1.0 - a.conjugate() * w
        row.append(math.sqrt(1.0 - abs(a) ** 2) / d * prefix)
        prefix *= (w - a) / d
    return row


@pytest.mark.parametrize("N", [1, 2, 48])
@pytest.mark.parametrize("L", [1, 7, 4096, 4103])  # 4103: a full block and a short one
def test_tm_eval_matches_scalar_formula(rng, N, L):
    fixed = [0.0, 0.5 - 0.2j, 0.5 - 0.2j]  # the origin and a repeated zero
    spread = list(0.8 * np.sqrt(rng.uniform(0.0, 1.0, N))
                  * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, N)))
    space = ModelSpace(BlaschkeProduct((fixed + spread)[:N]))
    if L == 4096:  # a boundary grid, as in basis construction
        w = np.exp(2j * np.pi * np.arange(L) / L)
    else:
        w = 0.9 * rng.uniform(0.0, 1.0, L) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, L))
    got = space._tm_eval(w)
    assert got.shape == (L, N)
    ref = np.array([_tm_scalar([complex(a) for a in space.zeros], complex(z)) for z in w])
    assert np.max(np.abs(got - ref)) <= 1e-14


def test_one_minus_abs2_keeps_relative_accuracy(rng):
    # against exact rational arithmetic on the same floats, as |a| -> 1
    for delta in 10.0 ** -np.arange(1, 16):
        a = (1.0 - delta) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
        a[0] = (1.0 - delta) * np.exp(0.25j * np.pi)  # both squares just under 1/2
        for z, got in zip(a, _one_minus_abs2(a)):
            exact = 1 - Fraction(z.real) ** 2 - Fraction(z.imag) ** 2
            assert abs(Fraction(float(got)) - exact) <= 2.0 ** -50 * exact


def test_tm_basis_gram_identity(rng):
    space = random_blaschke_space(rng, 8)
    assert space.gram_residual() < 1e-10


def test_tm_basis_orthogonal_to_theta_h2(rng):
    space = random_blaschke_space(rng, 8)
    th = space.theta_samples
    g = space.grid
    for m in range(6):
        f = CircleFunction(g, th * g.points ** m)
        for j in range(space.dim):
            e = CircleFunction(g, space.basis_samples[:, j])
            assert abs(inner_product(e, f)) < 1e-10


def test_project_kills_theta_h2(rng):
    space = random_blaschke_space(rng, 5)
    f = CircleFunction(space.grid, space.theta_samples * space.grid.points)
    assert space.project(f).norm() < 1e-10


def test_project_constant(rng):
    # P_Theta 1 = 1 - conj(Theta(0)) Theta
    space = random_blaschke_space(rng, 5)
    one = CircleFunction(space.grid, np.ones(space.grid.n))
    proj = space.project(one)
    th0 = complex(space.theta.eval(0.0))
    expect = 1.0 - np.conj(th0) * space.theta_samples
    assert np.max(np.abs(proj.samples() - expect)) < 1e-10
    # monomial case: Theta(0) = 0 so the projection is 1
    sp = ModelSpace(Monomial(3))
    assert np.max(np.abs(sp.project(
        CircleFunction(sp.grid, np.ones(sp.grid.n))).samples() - 1.0)) < 1e-12


def test_project_idempotent_selfadjoint(rng):
    space = random_blaschke_space(rng, 6)
    g = space.grid
    f = CircleFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    h = CircleFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    pf = space.project(f)
    ph = space.project(h)
    assert (space.project(pf.as_circle()) - pf).norm() < 1e-10
    lhs = inner_product(pf.as_circle(), h)
    rhs = inner_product(f, ph.as_circle())
    assert abs(lhs - rhs) < 1e-10


def test_project_squared_kernel(rng):
    # P_Theta k_lambda^{Theta^2} = k_lambda^Theta
    space = random_blaschke_space(rng, 5)
    th2 = ProductInner([space.theta, space.theta])
    for lam in (0.2 + 0.1j, -0.4j, 0.55):
        tv2 = complex(th2.eval(lam))
        k2 = CircleFunction(space.grid,
                            (1.0 - np.conj(tv2) * space.theta_samples ** 2)
                            / (1.0 - np.conj(lam) * space.grid.points))
        proj = space.project(k2)
        k1 = space.kernel(lam)
        assert (proj - k1).norm() < 1e-9


def test_kernel_at_origin_monomial():
    sp = ModelSpace(Monomial(4))
    k0 = sp.kernel(0.0)
    assert np.max(np.abs(k0.samples() - 1.0)) < 1e-12


def test_kernel_reproduces(rng):
    space = random_blaschke_space(rng, 8)
    f = space.from_coeffs(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    for _ in range(200):
        lam = 0.95 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        k = space.kernel(lam)
        assert abs(f.inner(k) - f.eval(lam)) < 1e-9


def test_boundary_kernel_norm_monomial():
    # t = 0.0 is a grid point: there the truncated-mode sample is k_zeta(zeta) = N
    N = 6
    for sp in (ModelSpace(Monomial(N)), GridSpace(Monomial(N))):
        for t in (0.0, 1.1, 3.7):
            k = sp.kernel(BoundaryPoint(t))
            assert abs(k.norm() ** 2 - N) < 1e-10, (sp.mode, t)


def test_boundary_kernel_requires_certificate():
    from ttolab.inner import BlaschkeZero
    zeros = [BlaschkeZero(2.0 ** -k, 0.0) for k in range(1, 16)]
    space = ModelSpace(BlaschkeProduct(zeros, truncated=True))
    with pytest.raises(NoAngularDerivative):
        space.kernel(BoundaryPoint(0.0))


def test_orthogonal_kernel_split(rng):
    # k_lambda = k_lambda^Theta + Theta conj(Theta(lambda)) k_lambda at grid points
    space = random_blaschke_space(rng, 6)
    g = space.grid
    for lam in (0.3, -0.2 + 0.4j):
        cauchy = 1.0 / (1.0 - np.conj(lam) * g.points)
        tv = complex(space.theta.eval(lam))
        lhs = cauchy
        rhs = space.kernel(lam).samples() + space.theta_samples * np.conj(tv) * cauchy
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_normalized_kernel_unit_norm(rng):
    space = random_blaschke_space(rng, 7)
    for _ in range(200):
        lam = 0.97 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(space.normalized_kernel(lam).norm() - 1.0) < 1e-10
    with pytest.raises(BoundaryPointNotNormalizable):
        space.normalized_kernel(BoundaryPoint(0.3))


def test_kernel_norm_lower_bound(rng):
    # ||k_lambda|| >= sqrt((1-|Theta(0)|)/(1+|Theta(0)|))
    space = random_blaschke_space(rng, 6)
    t0 = abs(complex(space.theta.eval(0.0)))
    floor = np.sqrt((1.0 - t0) / (1.0 + t0))
    for _ in range(100):
        lam = 0.98 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert space.kernel(lam).norm() >= floor - 1e-12


@settings(max_examples=40, deadline=None)
@given(zero_lists, st.integers(0, 2 ** 32 - 1))
def test_omega_involution(zeros, seed):
    space = space_from_zeros(zeros)
    rng = np.random.default_rng(seed)
    f = space.from_coeffs(rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim))
    back = space.omega(space.omega(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(zero_lists)
def test_omega_conjugates_compressed_shift(zeros):
    # omega S_Theta omega = S_Theta^*: ties S_Theta's closed-form entries to
    # W, a product of zero swaps; omega(c) = W conj(c), so omega S omega =
    # W conj(S) conj(W)
    space = space_from_zeros(zeros)
    W, S = space.omega_matrix, space.shift_matrix
    assert np.max(np.abs(W @ np.conj(S) @ np.conj(W) - S.conj().T)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(near_zero_lists)
def test_omega_identities_near_the_circle(zeros):
    # W needs no grid, so omega^2 = I and omega S omega = S^* keep to
    # rounding with zeros as near as 1 - |a| = 1e-12
    space = space_from_zeros(zeros)
    W, S = space.omega_matrix, space.shift_matrix
    assert np.max(np.abs(W @ np.conj(W) - np.eye(space.dim))) < 1e-13
    assert np.max(np.abs(W @ np.conj(S) @ np.conj(W) - S.conj().T)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(zero_lists)
@example([(1.0, 0.0)] * 5)  # K_{z^5}: W is the exchange matrix
@example([(0.4, 1.0), (0.4, 1.0), (0.7, 2.5), (0.4, 1.0)])  # a repeated zero
def test_omega_matches_grid_quadrature(zeros):
    # independent of the swaps: W = conj(B^T diag(conj(Theta) z) B) / n by
    # the uniform rule, wherever the grid resolves the basis
    space = space_from_zeros(zeros)
    assume(space.gram_residual() <= 1e-13)
    B, z = space.basis_samples, space.grid.points
    quad = np.conj(B.T @ (B * (np.conj(space.theta_samples) * z)[:, None])) / space.grid.n
    assert np.max(np.abs(space.omega_matrix - quad)) <= 1e-12


def test_omega_commutes_with_projection(rng):
    space = random_blaschke_space(rng, 6)
    g = space.grid
    f = CircleFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    a = space.omega(space.project(f))
    b = space.project(space.omega(f))
    assert (a - b).norm() < 1e-10


def test_omega_kernel_is_difference_quotient(rng):
    space = random_blaschke_space(rng, 6)
    for lam in (0.0, 0.3 - 0.5j):
        dq = space.difference_quotient(lam)
        om = space.omega(space.kernel(lam))
        assert (dq - om).norm() < 1e-12
        # samplewise closed form
        tv = complex(space.theta.eval(lam))
        expect = (space.theta_samples - tv) / (space.grid.points - lam)
        assert np.max(np.abs(dq.samples() - expect)) < 1e-9


def test_omega_boundary_kernel(rng):
    # omega(k_zeta) = conj(zeta) Theta(zeta) k_zeta on E(Theta)
    space = random_blaschke_space(rng, 5)
    zeta = BoundaryPoint(1.234)
    k = space.kernel(zeta)
    om = space.omega(k)
    tv = complex(space.theta.eval(zeta.value))
    expect = np.conj(zeta.value) * tv * k.coeffs
    assert np.max(np.abs(om.coeffs - expect)) < 1e-9


def test_difference_quotient_monomials():
    sp = ModelSpace(Monomial(2))
    dq0 = sp.difference_quotient(0.0)
    assert np.max(np.abs(dq0.samples() - sp.grid.points)) < 1e-12
    dq = sp.difference_quotient(0.5)
    assert np.max(np.abs(dq.samples() - (sp.grid.points + 0.5))) < 1e-12


def test_difference_quotient_equals_omega_kernel_random(rng):
    space = random_blaschke_space(rng, 8)
    for _ in range(100):
        lam = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        a = space.difference_quotient(lam)
        b = space.omega(space.kernel(lam))
        assert (a - b).norm() < 1e-10


def test_product_lemma(rng):
    # f1 in K_Theta1, bounded f2 in K_Theta2 => f1 f2, z f1 f2 in K_{Theta1 Theta2}
    s1 = random_blaschke_space(rng, 3)
    s2 = random_blaschke_space(rng, 4)
    big = ModelSpace(ProductInner([s1.theta, s2.theta]))
    f1 = s1.from_coeffs(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    f2 = s2.from_coeffs(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    for with_z in (False, True):
        proj = product_into(big, f1, f2, with_z=with_z)
        raw = f1.as_circle().on_grid(big.grid).samples \
            * f2.as_circle().on_grid(big.grid).samples
        if with_z:
            raw = big.grid.points * raw
        resid = np.sqrt(np.mean(np.abs(proj.samples() - raw) ** 2))
        assert resid < 1e-9


def test_nesting_lemma(rng):
    # theta^3 | z Theta: theta K_theta subset K_{theta^2} subset K_Theta
    theta = ModelSpace(Monomial(2))
    big = ModelSpace(Monomial(7))
    mid = ModelSpace(Monomial(4))
    f = theta.from_coeffs(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    tf = CircleFunction(theta.grid,
                        theta.theta_samples * f.samples())
    for target in (mid, big):
        proj = target.project(tf)
        resid = np.sqrt(np.mean(np.abs(
            proj.samples() - tf.on_grid(target.grid).samples) ** 2))
        assert resid < 1e-9


def test_kernel_comparison_pointwise(rng):
    # k^{Theta^2} = (1 + conj(Theta(lam)) Theta) k^Theta and the 2x bound
    space = random_blaschke_space(rng, 5)
    th2 = ProductInner([space.theta, space.theta])
    for lam in (0.25, -0.3 + 0.45j):
        tv = complex(space.theta.eval(lam))
        tv2 = complex(th2.eval(lam))
        k1 = space.kernel(lam).samples()
        k2 = ((1.0 - np.conj(tv2) * space.theta_samples ** 2)
              / (1.0 - np.conj(lam) * space.grid.points))
        expect = (1.0 + np.conj(tv) * space.theta_samples) * k1
        assert np.max(np.abs(k2 - expect)) < 1e-10
        g = space.grid
        for p in (2.0, 3.0, 4.0):
            a = lp_norm(CircleFunction(g, k2), p)
            b = lp_norm(CircleFunction(g, k1), p)
            assert a <= 2.0 * b * (1.0 + 1e-12)


def test_projection_independent_of_zero_ordering(rng):
    zeros = [0.3, -0.2 + 0.4j, 0.5j, -0.45]
    s1 = ModelSpace(BlaschkeProduct(zeros))
    s2 = ModelSpace(BlaschkeProduct(zeros[::-1]))
    g = s1.grid
    f = CircleFunction(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
    p1 = s1.project(f).samples()
    p2 = s2.project(f.on_grid(s2.grid)).samples()
    assert np.max(np.abs(p1 - p2)) < 1e-10


def test_truncated_mode_projection_smooth():
    # truncated-mode projection is spectrally accurate for smooth Theta
    space = GridSpace(BlaschkeProduct([0.4, -0.3 + 0.2j]))
    f = CircleFunction(space.grid, space.theta_samples * space.grid.points)
    assert space.project(f).norm() < 1e-12
    k = space.kernel(0.3 + 0.1j)
    assert (space.project(k.as_circle()) - k).norm() < 1e-12


def test_truncated_mode_projection_singular():
    from ttolab import SingularAtomic, Atom
    space = ModelSpace(SingularAtomic([Atom(0.0, 1.0)]), n=4096)
    assert space.mode == "truncated"
    f = CircleFunction(space.grid, space.theta_samples * space.grid.points)
    # Theta z lies in Theta H^2; the atomic singular function's Fourier tail
    # (~ k^{-3/4}) caps the honest grid accuracy at the percent level
    assert space.project(f).norm() < 0.15


def test_tm_basis_rejects_singular():
    from ttolab import SingularAtomic, Atom
    from ttolab.errors import UnsupportedVariant
    with pytest.raises(UnsupportedVariant):
        tm_basis(SingularAtomic([Atom(0.0, 1.0)]))


def test_representation_follows_the_class_of_theta():
    from ttolab import Atom, SingularAtomic
    from ttolab.modelspace import TMSpace, ToeplitzSpace
    blaschke = BlaschkeProduct([0.3, -0.2j])
    for space, kind, mode in (
            (ModelSpace(Monomial(3)), ToeplitzSpace, "exact"),
            (ModelSpace(blaschke), TMSpace, "exact"),
            (GridSpace(blaschke), GridSpace, "truncated"),  # a representation named directly
            (GridSpace(Monomial(3)), GridSpace, "truncated"),
            (ModelSpace(Monomial(600)), GridSpace, "truncated"),  # beyond the degree cap
            (ModelSpace(SingularAtomic([Atom(0.0, 1.0)])), GridSpace, "truncated")):
        assert type(space) is kind and isinstance(space, ModelSpace)
        assert space.mode == mode
    assert ModelSpace(Monomial(3)).dim == 3 and not hasattr(GridSpace(blaschke), "dim")


@pytest.mark.parametrize("N", [1, 3, 16, 64])
def test_kzn_compress_and_project_match_the_basis_quadrature(rng, N):
    # grids 16 and 32 are shorter than 2N - 1 (or than N), so (i - j) mod n
    # and j mod n alias; random samples have full bandwidth n/2
    for n in (16, 32, ModelSpace(Monomial(N)).grid.n):
        space = ModelSpace(Monomial(N), n=n)
        B = space._tm_eval(space.grid.points)  # (n, N): z^j on the grid
        w, f = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        ref = B.conj().T @ (w[:, None] * B) / n
        got = space.compress(w)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref = B.conj().T @ f / n
        got = space.project(CircleFunction(space.grid, f)).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert "basis_samples" not in vars(space)


def test_compress_rejects_a_symbol_it_cannot_represent():
    for theta in (Monomial(3), BlaschkeProduct([0.3, -0.5j])):
        space = ModelSpace(theta)
        with pytest.raises(OverflowError):
            space.compress(np.full(space.grid.n, 1e307) * (1.0 + space.grid.points))


def test_project_takes_a_function_on_another_grid(rng):
    theta = BlaschkeProduct([0.4, -0.3 + 0.2j])
    for space in (ModelSpace(theta), ModelSpace(Monomial(3)), GridSpace(theta)):
        f = random_trig_poly_samples(rng, BoundaryGrid(2 * space.grid.n), 6)
        want = space.project(f.on_grid(space.grid))
        assert np.array_equal(space.project(f).samples(), want.samples())
