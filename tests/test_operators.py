import numpy as np
import pytest

from ttolab import (BlaschkeProduct, BoundaryPoint, CircleFunction,
                    MeasureSymbol, ModelSpace, Monomial, SampleSet, adjoint,
                    build, decompose, measure_operator, operator_norm,
                    rank_one_operator, rho, rho_d, rho_r, rho_scan_rows,
                    standard_symbol)
from ttolab.operators import (BoundarySymbol, TTOperator,
                              hankel_factor_residual, q_theta,
                              toeplitz_defect)

from conftest import random_blaschke_space, random_trig_poly_samples


def sym_from_coeffs(space, coeffs):
    return BoundarySymbol(CircleFunction.from_coeffs(space.grid, coeffs))


def test_build_shift_on_kz2():
    sp = ModelSpace(Monomial(2))
    op = build(sp, sym_from_coeffs(sp, {1: 1.0}))
    assert np.max(np.abs(op.matrix - np.array([[0, 0], [1, 0]]))) < 1e-12


def test_build_constant_symbol(rng):
    space = random_blaschke_space(rng, 5)
    op = build(space, sym_from_coeffs(space, {0: 2.5 - 1.0j}))
    assert np.max(np.abs(op.matrix - (2.5 - 1.0j) * np.eye(5))) < 1e-10


def test_build_zero_class(rng):
    # Theta z is a symbol of the zero operator
    space = random_blaschke_space(rng, 4)
    phi = CircleFunction(space.grid, space.theta_samples * space.grid.points)
    op = build(space, BoundarySymbol(phi))
    assert np.max(np.abs(op.matrix)) < 1e-10


def test_build_linearity(rng):
    space = random_blaschke_space(rng, 5)
    f = random_trig_poly_samples(rng, space.grid, 6)
    g = random_trig_poly_samples(rng, space.grid, 6)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = build(space, BoundarySymbol(a * f + b * g)).matrix
    rhs = a * build(space, BoundarySymbol(f)).matrix \
        + b * build(space, BoundarySymbol(g)).matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_adjoint_shift():
    sp = ModelSpace(Monomial(2))
    op = build(sp, sym_from_coeffs(sp, {1: 1.0}))
    adj = adjoint(op)
    assert np.max(np.abs(adj.matrix - np.array([[0, 1], [0, 0]]))) < 1e-12
    again = adjoint(adj)
    assert np.array_equal(again.matrix, op.matrix)


def test_adjoint_is_conjugate_symbol(rng):
    space = random_blaschke_space(rng, 6)
    for _ in range(20):
        f = random_trig_poly_samples(rng, space.grid, 8)
        direct = build(space, BoundarySymbol(f.conj())).matrix
        assert np.max(np.abs(direct - build(space, BoundarySymbol(f)).matrix.conj().T)) < 1e-9


def test_omega_adjoint_identity(rng):
    # omega A omega = A* at matrix level
    space = random_blaschke_space(rng, 6)
    f = random_trig_poly_samples(rng, space.grid, 5)
    A = build(space, BoundarySymbol(f)).matrix
    W = space.omega_matrix
    sandwich = W @ np.conj(A) @ np.conj(W)
    assert np.max(np.abs(sandwich - A.conj().T)) < 1e-9


def test_q_theta_formula(rng):
    # Q_Theta(conj Theta) = conj(Theta) - conj(Theta(0))^2 Theta
    space = random_blaschke_space(rng, 5)
    from ttolab.operators import _apply_q
    th = space.theta_samples
    got = _apply_q(space, CircleFunction(space.grid, np.conj(th)))
    th0 = complex(space.theta.eval(0.0))
    expect = np.conj(th) - np.conj(th0) ** 2 * th
    assert np.max(np.abs(got.samples - expect)) < 1e-10
    # unit norm of q_Theta
    q = q_theta(space)
    assert abs(np.sqrt(np.mean(np.abs(q.samples) ** 2)) - 1.0) < 1e-12


def test_standard_symbol_zero_class(rng):
    # Theta h + conj(Theta g) with analytic h, g lies in the zero class
    space = random_blaschke_space(rng, 5)
    g = space.grid
    h = CircleFunction.from_coeffs(
        g, {k: complex(rng.standard_normal(), rng.standard_normal())
            for k in range(5)})
    w = CircleFunction.from_coeffs(
        g, {k: complex(rng.standard_normal(), rng.standard_normal())
            for k in range(5)})
    phi = CircleFunction(g, space.theta_samples * h.samples
                         + np.conj(space.theta_samples * w.samples))
    proj = standard_symbol(space, phi)
    assert np.sqrt(np.mean(np.abs(proj.samples) ** 2)) < 1e-10


def test_standard_symbol_preserves_operator(rng):
    space = random_blaschke_space(rng, 5)
    for _ in range(5):
        phi = random_trig_poly_samples(rng, space.grid, 7)
        proj = standard_symbol(space, phi)
        a = build(space, BoundarySymbol(phi)).matrix
        b = build(space, BoundarySymbol(proj)).matrix
        assert np.max(np.abs(a - b)) < 1e-9


def test_decompose_analytic(rng):
    space = random_blaschke_space(rng, 5)
    f = space.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    pair = decompose(space, f.as_circle(), mu=0.2 + 0.1j)
    assert (pair.phi_plus - f).norm() < 1e-10
    assert pair.phi_minus.norm() < 1e-10


def test_decompose_coanalytic(rng):
    space = random_blaschke_space(rng, 5)
    mu = 0.3 - 0.2j
    g = space.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    k_mu = space.kernel(mu)
    g = g - (g.eval(mu) / k_mu.eval(mu)) * k_mu  # g(mu) = 0
    pair = decompose(space, g.as_circle().conj(), mu=mu)
    assert pair.phi_plus.norm() < 1e-9
    assert (pair.phi_minus - g).norm() < 1e-9


def test_decompose_uniqueness_gauge(rng):
    # two decompositions of one symbol differ by (c k_0, -conj(c) k_0)
    space = random_blaschke_space(rng, 5)
    mu = 0.25
    pp = space.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    pm = space.from_coeffs(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    phi = CircleFunction(space.grid,
                         pp.samples() + np.conj(pm.samples()))
    pair = decompose(space, phi, mu=mu)
    assert abs(pair.phi_minus.eval(mu)) < 1e-9
    k0 = space.kernel(0.0)
    cbar = pm.eval(mu) / k0.eval(mu)
    assert (pair.phi_plus - (pp + np.conj(cbar) * k0)).norm() < 1e-9
    assert (pair.phi_minus - (pm - cbar * k0)).norm() < 1e-9
    # operators agree
    a = build(space, BoundarySymbol(phi)).matrix
    b = build(space, pair).matrix
    assert np.max(np.abs(a - b)) < 1e-9


def test_rho_identity(rng):
    space = random_blaschke_space(rng, 4)
    op = TTOperator(space, matrix=np.eye(4, dtype=complex))
    # the default set reaches radii 1 - 2^-24, where the rotated points'
    # moduli carry ~1e-16 absolute error; the spec's +1e-9 slack covers this
    s = SampleSet.default(space)
    assert abs(rho_r(op, s) - 1.0) < 2e-9
    assert abs(rho_d(op, s) - 1.0) < 2e-9
    # real-axis samples hugging the boundary are exactly normalized
    s_edge = SampleSet(1.0 - 0.5 ** np.arange(20, 30))
    assert abs(rho_r(op, s_edge) - 1.0) < 1e-12
    s_mod = SampleSet.rotation_closed(16, radii=1.0 - 0.5 ** np.arange(1, 12))
    assert abs(rho_r(op, s_mod) - 1.0) < 1e-11


def test_rho_d_equals_rho_r_of_adjoint(rng):
    space = random_blaschke_space(rng, 6)
    f = random_trig_poly_samples(rng, space.grid, 6)
    op = build(space, BoundarySymbol(f))
    s = SampleSet.default(space)
    assert abs(rho_d(op, s) - rho_r(adjoint(op), s)) < 1e-10


def test_rho_rank_one_value(rng):
    # ||(kt (x) k) h_lam||_2 = |<h_lam, k>| ||kt||
    space = random_blaschke_space(rng, 5)
    lam0 = 0.4 - 0.25j
    op = rank_one_operator(space, lam0)
    k = space.kernel(lam0)
    kt = space.omega(k)
    h = space.normalized_kernel(lam0)
    expect = abs(h.inner(k)) * kt.norm()
    got = op.apply(h).norm()
    assert abs(got - expect) < 1e-12
    s = SampleSet(np.array([lam0, 0.1, -0.3j]))
    assert rho_r(op, s) >= expect - 1e-12


def test_rho_monotone_under_refinement(rng):
    space = random_blaschke_space(rng, 5)
    f = random_trig_poly_samples(rng, space.grid, 5)
    op = build(space, BoundarySymbol(f))
    s = SampleSet.default(space)
    s2 = s.refine()
    assert rho_r(op, s2) >= rho_r(op, s) - 1e-14
    nrm = operator_norm(op)
    assert rho(op, s2) <= nrm + 1e-9


def test_operator_norm_cases(rng):
    space = random_blaschke_space(rng, 5)
    c = 1.7 - 0.4j
    op = TTOperator(space, matrix=c * np.eye(5))
    assert abs(operator_norm(op) - abs(c)) < 1e-12
    u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    op = TTOperator(space, matrix=np.outer(u, np.conj(v)))
    assert abs(operator_norm(op)
               - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-10
    for N in (2, 5, 9):
        sp = ModelSpace(Monomial(N))
        shift = build(sp, sym_from_coeffs(sp, {1: 1.0}))
        assert abs(operator_norm(shift) - 1.0) < 1e-12


def test_measure_lebesgue_is_identity(rng):
    space = random_blaschke_space(rng, 5)
    dens = CircleFunction(space.grid, np.ones(space.grid.n))
    op = measure_operator(space, MeasureSymbol(density=dens))
    assert np.max(np.abs(op.matrix - np.eye(5))) < 1e-10


def test_measure_point_mass_is_rank_one_kernel(rng):
    space = random_blaschke_space(rng, 5)
    zeta = BoundaryPoint(0.9)
    op = measure_operator(space, MeasureSymbol(atoms=[(zeta, 1.0)]))
    k = space.kernel(zeta)
    outer = np.outer(k.coeffs, np.conj(k.coeffs))
    assert np.max(np.abs(op.matrix - outer)) < 1e-9


def test_measure_carleson_constant(rng):
    space = random_blaschke_space(rng, 6)
    dens = CircleFunction(space.grid,
                          1.0 + 0.5 * np.cos(space.grid.angles))
    meas = MeasureSymbol(atoms=[(BoundaryPoint(2.0), 0.7)], density=dens)
    op = measure_operator(space, meas)
    evals = np.linalg.eigvalsh(op.matrix)
    c = evals[-1]
    assert evals[0] >= -1e-9 * c  # positivity
    for _ in range(500):
        f = space.from_coeffs(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        quad = np.real(f.inner(op.apply(f).__mul__(1.0))
                       if False else np.vdot(f.coeffs, op.matrix @ f.coeffs))
        assert quad <= c * f.norm() ** 2 * (1 + 1e-12)
    top = np.linalg.eigh(op.matrix)[1][:, -1]
    rayleigh = np.real(np.vdot(top, op.matrix @ top))
    assert abs(rayleigh - c) < 1e-10


def test_measure_atom_needs_certificate():
    from ttolab.inner import BlaschkeZero
    zeros = [BlaschkeZero(2.0 ** -k, 0.0) for k in range(1, 16)]
    # exact-mode space over the truncation, but the family flag forbids the atom
    space = ModelSpace(BlaschkeProduct(zeros, truncated=True), mode=None)
    assert space.mode == "truncated"
    with pytest.raises(Exception):
        measure_operator(space, MeasureSymbol(atoms=[(BoundaryPoint(0.0), 1.0)]))


def test_hankel_factorization(rng):
    sp = ModelSpace(Monomial(2))
    op = build(sp, sym_from_coeffs(sp, {1: 1.0}))
    one = sp.from_coeffs([1.0, 0.0])
    assert hankel_factor_residual(op, one) < 1e-10

    space = random_blaschke_space(rng, 6)
    for _ in range(50):
        # the factorization through the Hankel operator needs analytic symbols
        phi = CircleFunction.from_coeffs(
            space.grid, {k: complex(rng.standard_normal(), rng.standard_normal())
                         for k in range(7)})
        op = build(space, BoundarySymbol(phi))
        f = space.from_coeffs(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert hankel_factor_residual(op, f) <= 1e-9 * f.norm() * max(
            1.0, float(np.max(np.abs(phi.samples))))


def test_toeplitz_matrix_for_monomial(rng):
    sp = ModelSpace(Monomial(6))
    phi = random_trig_poly_samples(rng, sp.grid, 5)
    op = build(sp, BoundarySymbol(phi))
    assert toeplitz_defect(op) < 1e-10
    for i in range(6):
        for j in range(6):
            assert abs(op.matrix[i, j] - phi.coeff(i - j)) < 1e-10


def test_truncated_build_matches_exact(rng):
    zeros = [0.4, -0.3 + 0.2j, 0.1j]
    sp_e = ModelSpace(BlaschkeProduct(zeros))
    sp_t = ModelSpace(BlaschkeProduct(zeros), mode="truncated")
    phi = CircleFunction.from_coeffs(sp_e.grid, {0: 0.3, 1: 1.0, -2: 0.5j})
    op_e = build(sp_e, BoundarySymbol(phi))
    op_t = build(sp_t, BoundarySymbol(phi.on_grid(sp_t.grid)))
    assert abs(operator_norm(op_e) - operator_norm(op_t)) < 1e-7
    # actions agree on a kernel
    lam = 0.3 - 0.2j
    a = op_e.apply(sp_e.kernel(lam)).as_circle().samples
    b = op_t.apply(sp_t.kernel(lam)).samples()
    assert np.sqrt(np.mean(np.abs(a - b) ** 2)) < 1e-10


def test_truncated_build_bandwidth_guard():
    from ttolab.errors import BandwidthOverflow
    sp = ModelSpace(BlaschkeProduct([0.4]), mode="truncated")
    wide = CircleFunction.from_coeffs(sp.grid, {sp.grid.n // 4: 1.0})
    with pytest.raises(BandwidthOverflow):
        build(sp, BoundarySymbol(wide))


def test_rho_scan_csv(tmp_path, rng):
    from ttolab.operators import rho_scan_rows, write_rho_scan_csv
    space = random_blaschke_space(rng, 4)
    f = random_trig_poly_samples(rng, space.grid, 4)
    op = build(space, BoundarySymbol(f))
    samples = SampleSet(np.array([0.0, 0.3 + 0.2j, -0.5j]))
    rows = rho_scan_rows(op, samples)
    assert len(rows) == 3
    assert max(r[2] for r in rows) <= operator_norm(op) + 1e-9
    path = tmp_path / "scan.csv"
    write_rho_scan_csv(op, samples, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,norm_Ah,norm_Ahd"
    assert len(lines) == 4


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_rho_scan_rows_maxima_are_rho_r_and_rho_d(rng, mode):
    theta = BlaschkeProduct([0.3, -0.2 + 0.4j, 0.5j])
    space = ModelSpace(theta, n=1024 if mode == "truncated" else None, mode=mode)
    op = build(space, BoundarySymbol(random_trig_poly_samples(rng, space.grid, 3)))
    samples = SampleSet([0.0, 0.3, 0.5j, -0.6 + 0.2j, 0.8])
    rows = rho_scan_rows(op, samples)
    assert [complex(r[0], r[1]) for r in rows] == list(samples.points)
    assert max(r[2] for r in rows) == rho_r(op, samples)
    assert max(r[3] for r in rows) == rho_d(op, samples)


@pytest.mark.parametrize("N", [1, 2, 16, 64])
def test_rotation_closed_fft_columns_match_dense(rng, N):
    # a plain copy of the points has no tensor record, so it takes the dense path
    space = ModelSpace(Monomial(N))
    op = TTOperator(space, matrix=rng.standard_normal((N, N))
                    + 1j * rng.standard_normal((N, N)))
    radii = [0.0, 0.25, 0.9, 1.0 - 2.0 ** -20]
    for J in (N // 2, N, 4 * N):  # J < N must fall back: fft(n=J) would truncate
        if J < 1:
            continue
        fast = SampleSet.rotation_closed(J, radii=radii)
        dense = SampleSet(fast.points)
        assert fast.tensor is not None and dense.tensor is None
        got = np.array(rho_scan_rows(op, fast))
        ref = np.array(rho_scan_rows(op, dense))
        assert np.array_equal(got[:, :2], ref[:, :2])
        assert np.all(np.abs(got[:, 2:] - ref[:, 2:]) <= 1e-12 * np.abs(ref[:, 2:]))
        assert got[:, 2].max() == rho_r(op, fast)
        assert got[:, 3].max() == rho_d(op, fast)
