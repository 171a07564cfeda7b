from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttolab import (CircleFunction, FejerWindowSet, FourierPolynomial,
                    ModelSpace, Monomial, SampleSet, TTOperator,
                    assemble_bounded_symbol, blaschke_transport, build,
                    central_bound_check, fejer_kernel, fejer_split,
                    minimal_analytic_extension, operator_norm, rho)
from ttolab.boundedsym import (CF_TAYLOR_MIN, QComplex, _lanczos_top_pair,
                               _series_division, _toeplitz_from_taylor,
                               symbol_from_matrix)
from ttolab.circle import BoundaryGrid, lp_norm, toeplitz
from ttolab.errors import DivisibilityViolated, SupportOverflow
from ttolab.modelspace import EXACT_DEGREE_CAP
from ttolab.operators import LANCZOS_STEPS, BoundarySymbol

from identities import rotation_covariance_residual, transport_function


def random_toeplitz(rng, N):
    col = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    row = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    row[0] = col[0]
    i = np.arange(N)
    return np.where(i[:, None] >= i[None, :], col[np.maximum(i[:, None] - i[None, :], 0)],
                    row[np.maximum(i[None, :] - i[:, None], 0)])


def test_fejer_kernel_coefficients():
    f4 = fejer_kernel(4)
    assert f4.coeff(0) == 1
    assert f4.coeff(2) == Fraction(1, 2)
    assert f4.coeff(4) == 0
    assert f4.coeff(-3) == Fraction(1, 4)


def test_fejer_kernel_l1_and_positivity():
    g = BoundaryGrid(1024)
    for m in (1, 4, 16, 64):
        fm = fejer_kernel(m).to_circle(g)
        assert np.min(fm.samples.real) > -1e-12
        assert np.max(np.abs(fm.samples.imag)) < 1e-12
        assert abs(lp_norm(fm, 1) - 1.0) < 1e-10
    # closed form F_2 = 1 + cos t
    f2 = fejer_kernel(2).to_circle(g)
    assert np.max(np.abs(f2.samples - (1.0 + np.cos(g.angles)))) < 1e-12


def test_window_partition_exact():
    for N in (16, 17, 18, 64, 256):
        ws = FejerWindowSet(N)
        assert ws.partition_defect(ws.partition_range) == []
        # the partition always covers the operator band |n| <= N-1
        assert ws.partition_range >= N - 1
        if N % 3 == 1:
            # for N = 1 mod 3 the identity genuinely fails at |n| = N
            assert ws.partition_defect(N) == [-N, N]
        else:
            assert ws.partition_defect(N) == []


def test_window_l1_norms():
    for N in (16, 32, 64):
        ws = FejerWindowSet(N)
        l1, l2, l3 = ws.l1_norms()
        assert abs(l1 - 1.0) < 1e-12
        assert l2 <= 3.0 + 1e-12
        assert abs(l2 - l3) < 1e-12
    # the L^1 norm of F_M is its zeroth coefficient, one, on angle counts
    # beyond its degree: the closure and the benchmark's J = min(closure, 512)
    for N in (256, 512):
        ws = FejerWindowSet(N)
        for J in (ws.closure_angles(), min(ws.closure_angles(), 512)):
            assert abs(ws.l1_norms(J)[0] - 1.0) <= 1e-15, (N, J)


def _window_reference(N):
    """eta_1 = F_M, eta_2 = z^{2M} (2 F_{2M} - F_M) and eta_3 = conj(eta_2) with
    M = max(1, floor((N+1)/3)), as exact {k: Fraction} dicts."""
    M = max(1, (N + 1) // 3)
    f_m, f_2m = fejer_kernel(M).coeffs, fejer_kernel(2 * M).coeffs
    diff = {k: 2 * Fraction(f_2m.get(k, 0)) - Fraction(f_m.get(k, 0))
            for k in set(f_m) | set(f_2m)}
    eta2 = {k + 2 * M: v for k, v in diff.items() if v != 0}
    return f_m, eta2, {-k: v.conjugate() for k, v in eta2.items()}


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1))
def test_fejer_partition_property(N, seed):
    ws = FejerWindowSet(N)
    M = ws.M
    n = range(-4 * M, 4 * M + 1)
    tents = [ws.tents(k) for k in n]
    assert [{k: Fraction(t[i], M) for k, t in zip(n, tents) if t[i]} for i in range(3)] \
        == list(_window_reference(N))
    assert all(isinstance(x, int) for t in tents for x in t)
    assert ws.partition_defect(3 * M) == []
    assert ws.partition_defect(3 * M + 1) == [-(3 * M + 1), 3 * M + 1]
    rng = np.random.default_rng(seed)
    band = range(-ws.partition_range, ws.partition_range + 1)
    coeffs = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in band}
    parts = fejer_split(FourierPolynomial(coeffs), N)
    for k in band:
        assert parts[0].coeff(k) + parts[1].coeff(k) + parts[2].coeff(k) == coeffs[k]


def test_windows_on_K_z():
    # N = 1 uses N = 2's windows, exact on |n| <= 1, which covers the band |n| <= 0
    ws = FejerWindowSet(1)
    assert (ws.M, ws.partition_range) == (1, 1)
    assert [ws.tents(k) for k in range(-8, 9)] == [
        FejerWindowSet(2).tents(k) for k in range(-8, 9)]
    assert ws.partition_defect(1) == []
    p1, p2, p3 = fejer_split(FourierPolynomial({0: 2 + 1j, 1: 1.0}), 1)
    assert (p1.coeffs, p2.coeffs, p3.coeffs) == ({0: 2 + 1j}, {1: 1}, {})
    with pytest.raises(ValueError):
        FejerWindowSet(0)
    res = assemble_bounded_symbol(TTOperator(ModelSpace(Monomial(1)), matrix=[[2 + 1j]]))
    assert res.build_residual == 0.0
    assert abs(res.sup_norm - 5 ** 0.5) <= 1e-15 and abs(res.rho_hat - 5 ** 0.5) <= 1e-15
    assert abs(res.measured_constant - 1.0) <= 1e-15


def test_fejer_split_constant():
    one = FourierPolynomial({0: 1.0})
    p1, p2, p3 = fejer_split(one, 8)
    assert complex(p1.coeff(0)) == 1.0
    assert not p2.coeffs and not p3.coeffs


def test_fejer_split_reconstruction_exact(rng):
    for _ in range(50):
        N = int(rng.integers(4, 33))
        coeffs = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                  for k in range(-(N - 1), N)}
        phi = FourierPolynomial(coeffs)
        p1, p2, p3 = fejer_split(phi, N)
        for k in range(-(N - 1), N):
            total = p1.coeff(k) + p2.coeff(k) + p3.coeff(k)
            # exact rational arithmetic: equality without tolerance
            assert complex(total) == coeffs[k]
    with pytest.raises(SupportOverflow):
        fejer_split(FourierPolynomial({10: 1.0}), 8)
    # N = 4 = 1 mod 3: the windows sum to one on |n| <= 3 only, so z^4 would be dropped
    with pytest.raises(SupportOverflow, match=r"partition range \|n\| <= 3 of N = 4"):
        fejer_split(FourierPolynomial({4: 1.0, 0: 1.0}), 4)


@pytest.mark.parametrize("N", [2, 3, 4, 16, 64])
def test_fejer_split_matches_fresh_windows(rng, N):
    # reference: windows built in the test and an exact product per coefficient
    phi = FourierPolynomial({k: complex(rng.standard_normal(), rng.standard_normal())
                             for k in range(-(N - 1), N)})
    for part, eta in zip(fejer_split(phi, N), _window_reference(N)):
        ref = {k: QComplex.of(v) * Fraction(eta[k])
               for k, v in phi.coeffs.items() if k in eta}
        assert part.coeffs == ref
        assert all(isinstance(x, Fraction) for v in part.coeffs.values()
                   for x in (v.re, v.im))


def test_fejer_split_reads_only_the_support():
    # N = 10^6 (M = 333333): the parts of a two-coefficient symbol, exactly,
    # with no window coefficient off its support formed
    M = 333333
    p1, p2, p3 = fejer_split(FourierPolynomial({0: 1.0, 1: 1j}), 10 ** 6)
    assert p1.coeffs == {0: 1, 1: QComplex(0, Fraction(M - 1, M))}
    assert p2.coeffs == {1: QComplex(0, Fraction(1, M))}
    assert p3.coeffs == {}
    # beyond int64 the tents stay exact Python ints
    ws = FejerWindowSet(3 * 10 ** 30)
    assert ws.tents(2) == (10 ** 30 - 2, 2, 0)
    assert ws.tents(-2 * ws.M) == (0, 0, ws.M)


def test_fejer_split_supports():
    N = 16
    ws = FejerWindowSet(N)
    phi = FourierPolynomial({k: 1.0 for k in range(-(N - 1), N)})
    p1, p2, p3 = fejer_split(phi, N)
    assert all(abs(k) < ws.M for k in p1.coeffs)
    assert all(k > 0 for k in p2.coeffs)
    assert all(k < 0 for k in p3.coeffs)


def test_rho_contraction_on_rotation_closed_sets(rng):
    N = 32
    ws = FejerWindowSet(N)
    J = ws.closure_angles()
    samples = SampleSet.rotation_closed(J)
    space = ModelSpace(Monomial(N))
    l1s = ws.l1_norms(J)
    for _ in range(3):
        coeffs = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                  for k in range(-(N - 1), N)}
        phi = FourierPolynomial(coeffs)
        parts = fejer_split(phi, N)
        op = build(space, BoundarySymbol(phi.to_circle(space.grid)))
        base = rho(op, samples)
        for part, l1 in zip(parts, l1s):
            chopped = FourierPolynomial({k: complex(v) for k, v in part.coeffs.items()})
            op_part = build(space, BoundarySymbol(chopped.to_circle(space.grid)))
            assert rho(op_part, samples) <= l1 * base + 1e-9


def test_cf_constant_and_shift():
    ext = minimal_analytic_extension([1.0])
    assert ext.norm == 1.0 and not ext.suboptimal
    ext = minimal_analytic_extension([0.0, 1.0])
    assert abs(ext.norm - 1.0) < 1e-12
    assert abs(ext.taylor[1] - 1.0) < 1e-12
    assert abs(ext.taylor[0]) < 1e-12


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_cf_taylor_length_is_one_rule(rng, N):
    generic = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    constant = np.zeros(N, dtype=complex)
    constant[0] = 0.5 - 0.25j
    for data in (np.zeros(N), constant, generic):
        ext = minimal_analytic_extension(data)
        assert len(ext.taylor) == max(N, CF_TAYLOR_MIN)
        assert np.allclose(ext.taylor[:N], data, atol=1e-8)


def test_cf_golden_ratio():
    ext = minimal_analytic_extension([1.0, 1.0])
    assert abs(ext.norm - (1.0 + np.sqrt(5.0)) / 2.0) < 1e-12
    assert ext.taylor_defect < 1e-10
    assert ext.modulus_defect < 1e-10


def test_cf_random_generic(rng):
    for _ in range(50):
        N = int(rng.integers(2, 33))
        c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        ext = minimal_analytic_extension(c)
        assert not ext.suboptimal
        assert np.max(np.abs(ext.taylor[:N] - c)) <= 1e-8 * max(1.0, np.max(np.abs(c)))
        assert ext.modulus_defect <= 1e-6 * max(1.0, ext.norm)


def test_cf_norm_equals_operator_norm(rng):
    # commutant-lifting equality: minimal norm = ||A_phi|| for analytic phi
    N = 8
    sp = ModelSpace(Monomial(N))
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    ext = minimal_analytic_extension(c)
    phi = CircleFunction.from_coeffs(sp.grid, dict(enumerate(c)))
    op = build(sp, BoundarySymbol(phi))
    assert abs(ext.norm - operator_norm(op)) < 1e-8


def test_cf_conjugate_symmetry(rng):
    # minimal extension of conjugate data has the same norm, conjugate Taylor
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    a = minimal_analytic_extension(c)
    b = minimal_analytic_extension(np.conj(c))
    assert abs(a.norm - b.norm) < 1e-10
    assert np.max(np.abs(b.taylor - np.conj(a.taylor))) < 1e-8


def test_cf_degenerate_falls_back():
    # data [1, 0]: the Toeplitz matrix is the identity (double top sigma),
    # but constant data takes the exact shortcut
    ext = minimal_analytic_extension([1.0, 0.0])
    assert ext.norm == 1.0 and not ext.suboptimal
    # a genuinely degenerate non-constant case: isometric shift data [0,0,1]
    ext = minimal_analytic_extension([0.0, 0.0, 1.0])
    assert abs(ext.norm - 1.0) < 1e-12


def _cf_matrix(c):
    N = len(c)
    return toeplitz(np.concatenate([np.zeros(N - 1, dtype=complex), c]))


@pytest.mark.parametrize("N", [64, 256])
def test_cf_top_pair_matches_dense_svd(rng, N):
    # N = 64 is within the Lanczos step budget and takes the SVD; 256 takes Lanczos
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    T = _cf_matrix(c)
    assert (_lanczos_top_pair(T) is None) == (N <= LANCZOS_STEPS)
    ext = minimal_analytic_extension(c)
    s = np.linalg.svd(T, compute_uv=False)
    assert not ext.suboptimal
    assert abs(ext.norm - s[0]) <= 1e-13 * s[0]
    assert ext.taylor_defect <= 1e-12 * np.max(np.abs(c))


def test_cf_falls_back_to_the_svd_where_lanczos_cannot_certify(rng):
    # small N: a Krylov space within the budget would span C^N
    assert _lanczos_top_pair(_cf_matrix(np.array([1.0, 1.0]))) is None
    N = 128
    # a double top sigma that one Krylov sequence cannot see: data in z^2
    # make T two interleaved copies of one Toeplitz matrix
    double = np.zeros(N, dtype=complex)
    double[::2] = rng.standard_normal(N // 2) + 1j * rng.standard_normal(N // 2)
    # a near-double top sigma, split by about 1e-10: its residual is not met
    near = np.zeros(N, dtype=complex)
    near[[0, 1, 2]] = 1.0, 1e-10, 1.0
    for c in (double, near):
        T = _cf_matrix(c)
        s = np.linalg.svd(T, compute_uv=False)
        assert s[0] - s[1] <= 1e-8 * s[0]
        assert _lanczos_top_pair(T) is None
        # the SVD's degenerate branch: the raw polynomial, flagged suboptimal
        ext = minimal_analytic_extension(c)
        assert ext.suboptimal and ext.den is None
        assert np.array_equal(ext.taylor[:N], c) and not np.any(ext.taylor[N:])


def _series_division_loop(num, den, length):
    # the scalar recursion, kept as the reference
    out = np.zeros(length, dtype=complex)
    for k in range(length):
        acc = num[k] if k < len(num) else 0.0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return out


@pytest.mark.parametrize("N", [2, 3, 16, 64, 256])
def test_cf_series_division_reproduces_numerator(rng, N):
    ext = minimal_analytic_extension(rng.standard_normal(N) + 1j * rng.standard_normal(N))
    assert not ext.suboptimal
    length = max(4 * N, 64)
    out = _series_division(ext.num, ext.den, length)
    num = np.zeros(length, dtype=complex)
    num[:N] = ext.num
    scale = np.max(np.abs(ext.num))
    assert np.max(np.abs(np.convolve(out, ext.den)[:length] - num)) <= 1e-13 * scale
    ref = _series_division_loop(ext.num, ext.den, length)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert len(ext.taylor) == max(N, CF_TAYLOR_MIN)
    assert np.array_equal(out[:len(ext.taylor)], ext.taylor)


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_cf_toeplitz_gather_matches_diagonal_sum(rng, N):
    c = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    c[N // 2] = 0.0
    ref = np.zeros((N, N), dtype=complex)
    for d in range(N):
        ref += np.diag(np.full(N - d, c[d]), -d)
    got = toeplitz(np.concatenate([np.zeros(N - 1, dtype=complex), c]))
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [1, 2, 7, 64])
def test_toeplitz_from_taylor_matches_the_per_diagonal_loop(rng, N):
    plus, minus = (rng.standard_normal(N + 3) + 1j * rng.standard_normal(N + 3)
                   for _ in range(2))
    ref = np.zeros(2 * N - 1, dtype=complex)  # the loop, kept as the reference
    for d in range(N):
        ref[d + N - 1] += plus[d]
        ref[N - 1 - d] += np.conj(minus[d])
    got = _toeplitz_from_taylor(plus, minus, FourierPolynomial({}), N)
    assert got.tobytes() == toeplitz(ref).tobytes()


def test_central_bound_monomial_pair(rng):
    # theta = z^2, Theta = z^7: theta^3 | z Theta and Theta | theta^4
    space = ModelSpace(Monomial(7))
    theta = Monomial(2)
    phi = CircleFunction.from_coeffs(space.grid, {1: 1.0, -1: 1.0})  # z + conj(z)
    sup, bound = central_bound_check(space, theta, phi)
    assert sup <= bound * 1.05
    # constant symbol: A = cI, rho_r = |c|
    phi_c = CircleFunction.from_coeffs(space.grid, {0: 2.0})
    sup, bound = central_bound_check(space, theta, phi_c)
    assert abs(sup - 2.0) < 1e-10
    assert sup <= bound * 1.05
    # zero symbol
    phi_0 = CircleFunction.from_coeffs(space.grid, {0: 0.0})
    sup, bound = central_bound_check(space, theta, phi_0)
    assert sup == 0.0 and bound == 0.0


def test_central_bound_divisibility_guard():
    space = ModelSpace(Monomial(7))
    phi = CircleFunction.from_coeffs(space.grid, {0: 1.0})
    with pytest.raises(DivisibilityViolated):
        central_bound_check(space, Monomial(3), phi)  # 9 > 8: theta^3 does not divide z Theta


def test_central_bound_random_symbols(rng):
    space = ModelSpace(Monomial(7))
    theta = Monomial(2)
    samples = SampleSet.rotation_closed(64)
    for _ in range(10):
        phi = CircleFunction.from_coeffs(
            space.grid, {k: complex(rng.standard_normal(), rng.standard_normal())
                         for k in (-1, 0, 1)})
        sup, bound = central_bound_check(space, theta, phi, samples=samples)
        assert sup <= bound * 1.05


def test_symbol_from_matrix_roundtrip(rng):
    N = 6
    M = random_toeplitz(rng, N)
    poly = symbol_from_matrix(M)
    sp = ModelSpace(Monomial(N))
    op = build(sp, BoundarySymbol(poly.to_circle(sp.grid)))
    assert np.max(np.abs(op.matrix - M)) < 1e-10


def test_assemble_identity():
    N = 8
    sp = ModelSpace(Monomial(N))
    res = assemble_bounded_symbol(TTOperator(sp, matrix=np.eye(N, dtype=complex)))
    assert res.build_residual < 1e-12
    assert abs(res.sup_norm - 1.0) < 1e-10
    assert abs(res.measured_constant - 1.0) < 1e-9


def test_assemble_shift():
    N = 8
    sp = ModelSpace(Monomial(N))
    M = np.diag(np.ones(N - 1), -1).astype(complex)
    res = assemble_bounded_symbol(TTOperator(sp, matrix=M))
    assert res.build_residual <= 1e-8
    assert np.isfinite(res.measured_constant)
    assert res.sup_norm <= res.measured_constant * res.rho_hat + 1e-9


def test_assemble_random_batch(rng):
    for N in (8, 16):
        sp = ModelSpace(Monomial(N))
        for _ in range(5):
            M = random_toeplitz(rng, N)
            res = assemble_bounded_symbol(TTOperator(sp, matrix=M))
            assert res.build_residual <= 1e-8
            assert res.sup_norm >= operator_norm(TTOperator(sp, matrix=M)) - 1e-8


def test_transport_alpha_zero(rng):
    N = 6
    sp = ModelSpace(Monomial(N))
    M = random_toeplitz(rng, N)
    out = blaschke_transport(TTOperator(sp, matrix=M), 0.0)
    D = np.diag((-1.0) ** np.arange(N))
    assert np.max(np.abs(out.matrix - D @ M @ D)) < 1e-12


def test_transport_unitarity(rng):
    g = BoundaryGrid(4096)
    alpha = 0.45 - 0.15j
    for _ in range(50):
        f = CircleFunction.from_coeffs(
            g, {k: complex(rng.standard_normal(), rng.standard_normal())
                for k in range(12)})
        uf = transport_function(f, alpha)
        assert abs(lp_norm(uf, 2) - lp_norm(f, 2)) < 1e-10


def test_transport_symbol_correspondence(rng):
    N = 4
    sp = ModelSpace(Monomial(N))
    phi = CircleFunction.from_coeffs(sp.grid, {1: 1.0, -1: 2.0, 0: 0.5})
    op = build(sp, BoundarySymbol(phi))
    alpha = 0.4 + 0.1j
    moved = blaschke_transport(op, alpha)
    tg = moved.space.grid
    b = (alpha - tg.points) / (1.0 - np.conj(alpha) * tg.points)
    composed = CircleFunction(tg, b + 2.0 * np.conj(b) + 0.5)
    direct = build(moved.space, BoundarySymbol(composed))
    assert np.max(np.abs(moved.matrix - direct.matrix)) < 1e-9


def test_transport_rho_equality(rng):
    # pulled-back sample sets give equal rho values
    N = 5
    sp = ModelSpace(Monomial(N))
    M = random_toeplitz(rng, N)
    op = TTOperator(sp, matrix=M)
    alpha = 0.3 - 0.2j
    moved = blaschke_transport(op, alpha)
    lams = np.array([0.0, 0.2 + 0.1j, -0.5j, 0.44])
    pulled = (alpha - lams) / (1.0 - np.conj(alpha) * lams)
    from ttolab import rho_r
    a = rho_r(op, SampleSet(lams))
    b = rho_r(moved, SampleSet(pulled))
    assert abs(a - b) < 1e-10


def test_rotation_covariance():
    sp = ModelSpace(Monomial(16))
    assert rotation_covariance_residual(sp, 0.0, 0.3 + 0.4j) < 1e-14
    assert rotation_covariance_residual(sp, 1.234, 0.0) < 1e-14
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = float(rng.uniform(0, 2 * np.pi))
        lam = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert rotation_covariance_residual(sp, t, lam) < 1e-10


def test_qcomplex_repr():
    assert repr(QComplex(Fraction(1, 2), -3)) == "QComplex(1/2, -3)"


def test_kzn_identities_refuse_a_grid_space_at_once():
    # z^N beyond the exact-degree cap is a GridSpace: refused before any work
    space = ModelSpace(Monomial(EXACT_DEGREE_CAP + 1))
    op = build(space, BoundarySymbol(CircleFunction.from_coeffs(space.grid, {0: 1.0})))
    for call in (lambda: assemble_bounded_symbol(op), lambda: blaschke_transport(op, 0.3),
                 lambda: rotation_covariance_residual(space, 0.1, 0.3)):
        with pytest.raises(ValueError, match="K_"):
            call()


def test_symbol_from_matrix_reports_an_overflowing_diagonal():
    with pytest.raises(OverflowError, match="diagonal 0"):
        symbol_from_matrix(np.full((2, 2), 1e308))
