import cmath
import functools
import gc
import math
import re
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttolab import (Atom, BlaschkeProduct, BlaschkeZero, BoundaryPoint, ModelSpace, Monomial,
                    ProductInner, SingularAtomic, cls_ratio_scan, counterex_theorem_check,
                    gen_blaschke_counterexample, gen_singular_counterexample,
                    growth_ratio, power, rkt_failure_scan)
import ttolab.inner
from ttolab.inner import cohn_terms, has_angular_derivative, one_minus_mod_sq
from ttolab.counterex import (CLS_TOL, QUADRATURE_TOL, Certificate, KernelRule,
                              blaschke_truncation, graded_norms, growth_scan, kernel_lp)
from ttolab.errors import NoAngularDerivative, NoConvergence
from ttolab.modelspace import GridSpace
from ttolab.recovery import rank_one_symbol

from conftest import zero_lists
from identities import rkt_row_per_point, sup_on_full_grids


def test_growth_ratio_at_origin():
    # Theta(0) = 0 makes k_0 the constant 1: ratio exactly one
    assert abs(growth_ratio(Monomial(4), 0.0, 3.0) - 1.0) < 1e-9


def test_growth_ratio_needs_p_above_two():
    with pytest.raises(ValueError):
        growth_ratio(Monomial(3), 0.1, 2.0)


def test_kernel_lp_closed_form_oracle():
    # z^N kernels: ||k_r||_2^2 = (1-r^{2N})/(1-r^2), sup = (1-r^N)/(1-r)
    N, r = 5, 0.8
    th = Monomial(N)
    two, _, _ = kernel_lp(th, r, 2.0, tol=1e-9)
    sup, _, _ = kernel_lp(th, r, np.inf, tol=1e-9)
    assert abs(two ** 2 - (1 - r ** (2 * N)) / (1 - r ** 2)) < 1e-8
    assert abs(sup - (1 - r ** N) / (1 - r)) < 1e-6
    # on K_z every boundary kernel is the constant 1 (and vanishes nowhere)
    assert abs(kernel_lp(Monomial(1), 1.0, 3.0)[0] - 1.0) < 1e-12


def test_blaschke_family_certificates():
    fam = gen_blaschke_counterexample(3.0, 20)
    assert fam.all_pass()
    assert fam.certificates["p2_tail_bound"].value < 1e-5
    assert fam.certificates["p_divergence_floor"].value >= 0.5
    # degenerate inputs rejected
    with pytest.raises(ValueError):
        gen_blaschke_counterexample(2.0, 20)
    with pytest.raises(ValueError):
        gen_blaschke_counterexample(3.0, 2)


def test_family_sizes_checked_up_front():
    # the largest families: 8^-358 is the least positive float, and the atom at
    # 2^-39 lies beyond the 1e-12 matching tolerance of the base point 1
    assert gen_blaschke_counterexample(3.0, 358).theta.zeros()[-1].delta > 0.0
    assert gen_singular_counterexample(3.0, 39).all_pass()
    for gen, count, valid in ((gen_blaschke_counterexample, 359, "4 <= count <= 358"),
                              (gen_blaschke_counterexample, 3, "4 <= count <= 358"),
                              (gen_singular_counterexample, 40, "1 <= count <= 39"),
                              (gen_singular_counterexample, 0, "1 <= count <= 39")):
        with pytest.raises(ValueError, match=valid):
            gen(3.0, count)


def test_blaschke_family_df3_decay():
    fam = gen_blaschke_counterexample(3.0, 20)
    df3 = fam.data["df3"]
    steps = df3[1:] / df3[:-1]
    # per-step factor approaches 8^{-2/3} * 2 = 1/2
    assert np.all(steps < 1.0)
    assert abs(steps[-1] - 0.5) < 0.01


def test_singular_family_certificates():
    fam = gen_singular_counterexample(3.0, 20)
    assert fam.all_pass()
    assert sum(a.mass for a in fam.theta.atoms()) <= 1.0 / 7.0 + 1e-12
    # p=2 terms behave like 2^-k, p=3 terms tend to one
    t2 = fam.data["p2_terms"]
    t3 = fam.data["p_terms"]
    assert np.all(t2 * 2.0 ** np.arange(1, 21) < 1.5)
    assert t3.min() >= 0.5 and abs(t3[-1] - 1.0) < 0.01


def test_truncation_is_exact_object():
    fam = gen_blaschke_counterexample(3.0, 16)
    th = blaschke_truncation(fam, 8)
    assert not th.truncated
    assert th.degree() == 8


def test_truncation_degrees_are_checked():
    fam = gen_blaschke_counterexample(3.0, 20)
    for d in (0, 21):
        with pytest.raises(ValueError, match=re.escape(f"[{d}]")):
            blaschke_truncation(fam, d)
    # one degree, degrees that do not increase, and degrees past the zero count
    for degrees, named in (((8,), "[8]"), ((16, 8), "[16, 8]"), ((8, 8), "[8, 8]"),
                           ((8, 16, 32), "[32]"), ((24, 32), "[24, 32]")):
        with pytest.raises(ValueError, match=re.escape(named)):
            counterex_theorem_check(fam, 3.0, degrees=degrees)
    with pytest.raises(ValueError, match=r"needs a Blaschke family \(singular_atoms: 0 zeros\)"):
        counterex_theorem_check(gen_singular_counterexample(3.0, 20), 3.0)


def test_theorem_check_verdicts():
    fam = gen_blaschke_counterexample(3.0, 32)
    chk = counterex_theorem_check(fam, 3.0, degrees=(8, 16, 32))
    assert chk["p_verdict"] == "diverging"
    assert chk["two_verdict"] == "stable"
    assert chk["square_comparison_ok"]
    # exact signatures: the p-sum doubles, the symbol sum is twice that
    sp = chk["cohn_p_sums"]
    assert sp[1] / sp[0] > 1.9 and sp[2] / sp[1] > 1.9
    assert np.allclose(chk["symbol_p_sums"], [2 * v for v in sp], rtol=1e-12)
    s2 = chk["cohn_2_sums"]
    assert abs(s2[2] - s2[1]) / s2[2] < 1e-3


def test_infinite_p_has_no_ahern_clark_sum_or_graded_norm():
    fam = gen_blaschke_counterexample(3.0, 32)
    with pytest.raises(ValueError, match="finite p"):
        counterex_theorem_check(fam, math.inf)
    theta = blaschke_truncation(fam, 8)
    with pytest.raises(ValueError, match="finite p"):
        graded_norms(theta, 0.5, math.inf)
    # kernel_lp itself takes p = inf on uniform grids
    assert kernel_lp(theta, 0.5, math.inf)[0] > 0.0


def test_certificate_repr():
    assert repr(Certificate("total_mass", 0.5, 1.0, False)) == \
        "Certificate(total_mass: 5.000e-01 vs 1.000e+00 [FAIL])"


def test_growth_scan_diagonal():
    fam = gen_blaschke_counterexample(3.0, 32)
    radii = (1 - 2.0 ** -5.3, 1 - 2.0 ** -7.3, 1 - 2.0 ** -11.3)
    rep = growth_scan(fam, (8, 16, 32), radii, 3.0)
    ratios = [row["growth_ratio"] for row in rep.rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))  # grows along the diagonal
    assert rep.max_ratio == max(ratios)
    # the certified diagonal ratios (the same panels at order 40 agree to 2e-12)
    assert np.allclose(ratios, [1.18977, 1.27950, 1.47778], rtol=0, atol=5e-6)
    for row in rep.rows:
        assert row["residual_p"] <= QUADRATURE_TOL and row["residual_2"] <= QUADRATURE_TOL
        assert 0 < row["grid"] <= 2 ** 17  # nodes of the graded rule


def test_growth_ratio_strict_raises_on_unresolvable():
    fam = gen_blaschke_counterexample(3.0, 16)
    th = blaschke_truncation(fam, 16)
    # the graded rule needs about 5100 nodes here; a smaller budget is unresolvable
    assert KernelRule(th, 0.99, 3.0).n > 2 ** 11
    with pytest.raises(NoConvergence):
        growth_ratio(th, 0.99, 3.0, max_n=2 ** 11)


def test_cls_scan_boundary_point_takes_its_sup_from_kernel_lp_and_its_two_norm_exactly():
    # on K_{z^4}, k_1 = 1 + z + z^2 + z^3: sup 4, ||k_1||_2^2 = |Theta'(1)| = 4
    (lam, sup, two_sq, ratio), = cls_ratio_scan(Monomial(4), [1.0]).rows
    assert (lam, sup, two_sq, ratio) == (1.0, 4.0, 4.0, 1.0)


def test_cls_scan_boundary_two_norm_is_the_ahern_clark_sum_on_a_singular_theta():
    # Theta = exp((z+1)/(z-1)): |Theta'(-1)| = 2 mass / |-1 - 1|^2 = 1/2; the p = 2
    # quadrature at RADIAL_OFFSET reads 0.4956531 with a residual of 4e-12
    th = SingularAtomic([Atom(0.0, 1.0)])
    assert cls_ratio_scan(th, [-1.0]).rows[0][2] == 0.5
    for t in (0.5, 1.0, 2.0):
        zeta = cmath.exp(1j * t)
        assert cls_ratio_scan(th, [zeta]).rows[0][2] == has_angular_derivative(th, zeta).value


def test_cls_scan_boundary_two_norm_matches_the_graded_quadrature_on_blaschke_data():
    th = BlaschkeProduct([0.5, 0.3j, -0.2, 0.9 * cmath.exp(1j)])
    zetas = [1.0, -1.0, 1j, cmath.exp(1j), cmath.exp(2.5j)]
    for (_, _, two_sq, _), zeta in zip(cls_ratio_scan(th, zetas).rows, zetas):
        assert two_sq == has_angular_derivative(th, complex(zeta)).value
        assert two_sq == pytest.approx(kernel_lp(th, zeta, 2.0)[0] ** 2, rel=1e-12, abs=0)


@settings(max_examples=25, deadline=None)
@given(zero_lists, zero_lists, st.floats(0.0, 2.0 * np.pi, exclude_max=True), st.booleans())
def test_a_boundary_point_reads_the_same_as_a_number_or_an_angle(zeros, more, t, product):
    th = BlaschkeProduct([BlaschkeZero(d, a) for d, a in zeros])
    if product:
        th = ProductInner([th, BlaschkeProduct([BlaschkeZero(d, a) for d, a in more])])
    zeta, angle = cmath.exp(1j * t), BoundaryPoint(t)
    value = has_angular_derivative(th, angle).value
    assert has_angular_derivative(th, zeta).value == pytest.approx(value, rel=1e-12, abs=0)
    for mine, theirs in zip(cohn_terms(th, zeta, 3.0), cohn_terms(th, angle, 3.0)):
        np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=0)
    space = ModelSpace(th)
    for pt in (zeta, angle):
        assert space.kernel(pt).norm() ** 2 == pytest.approx(value, rel=1e-12, abs=0)
        assert KernelRule(th, pt, 3.0).exact_sq() == pytest.approx(value, rel=1e-12, abs=0)
    # the row's two-norm is the certificate whatever the sup's tolerance, which a
    # uniform grid may not reach next to a zero (kernel_lp raises NoConvergence)
    assert cls_ratio_scan(th, [zeta], tol=1.0).rows[0][2] == pytest.approx(value, rel=1e-12, abs=0)


# (delta, angle) of a Blaschke product on which reading a point near the circle
# twice, or a BoundaryPoint's angle as the phase of its value, moves the last bit
READ_ONCE_ZEROS = [(0.3, 0.2), (0.05, 1.0), (0.5, 4.0)]


def _read_once_product():
    return BlaschkeProduct([BlaschkeZero(d, a) for d, a in READ_ONCE_ZEROS])


def test_kernel_lp_hands_its_point_to_the_graded_rule_unread():
    th = _read_once_product()
    z = 0.9885229986402918 + 0.15107045097552732j  # within EDGE of the circle
    assert kernel_lp(th, z, 3.0)[0] == graded_norms(th, z, 3.0)[0][0]


def test_a_boundary_kernel_takes_its_certificate_at_its_own_angle():
    th = _read_once_product()
    pt = BoundaryPoint(3.2158701122134374)  # cmath.phase(e^{it}) is not t
    assert KernelRule(th, pt, 2.0).exact_sq() == has_angular_derivative(th, pt).value


# (Theta, points) of the kernel_scans CLS scans, of the false convergence on
# z^512 and of boundary points, exp(2 pi i 3/4096) on a node of every grid
SUP_CASES = {
    "z8": (lambda: Monomial(8), [r * np.exp(2j * np.pi * j / 16)
                                 for r in np.linspace(0.0, 0.99, 8) for j in range(16)]),
    "atom": (lambda: SingularAtomic([Atom(0.0, 1.0)]),
             [0.5 * np.exp(2j * np.pi * (j + 0.5) / 24) for j in range(24)]),
    "z512": (lambda: Monomial(512), [0.999 * cmath.exp(0.37j)]),
    "read_once": (_read_once_product, [1.0, 1j, cmath.exp(1j), cmath.exp(2j * np.pi * 3 / 4096),
                                       0.9, 0.99 * cmath.exp(1j)]),
}


@pytest.mark.parametrize("case", SUP_CASES)
def test_the_sup_route_matches_full_grids_bit_for_bit(case):
    # each doubling evaluates only the new (odd) nodes and keeps the coarser max
    make, pts = SUP_CASES[case]
    theta = make()
    assert [kernel_lp(theta, lam, math.inf) for lam in pts] == [
        sup_on_full_grids(theta, lam) for lam in pts]
    assert [sup for _, sup, _, _ in cls_ratio_scan(theta, pts).rows] == [
        sup_on_full_grids(theta, lam, CLS_TOL)[0] for lam in pts]
    for max_n in (16, 2048):  # below DEFAULT_GRID: one grid, no residual
        assert kernel_lp(theta, pts[-1], math.inf, max_n=max_n, strict=False) == \
            sup_on_full_grids(theta, pts[-1], max_n=max_n)


def test_the_false_convergence_on_z512_keeps_its_value():
    # ROADMAP item 13: the Cauchy test passes at 8192 points, 1.04e-3 below (1 - r^N)/(1 - r)
    r = 0.999
    value, resid, n = kernel_lp(Monomial(512), r * cmath.exp(0.37j), math.inf)
    assert (value, resid, n) == (400.44085541042995, 0.0, 8192)
    assert round(1.0 - value * (1.0 - r) / (1.0 - r ** 512), 5) == 1.04e-3


def test_the_sup_route_stops_at_the_same_unconverged_point():
    theta, pts, tol, max_n = _read_once_product(), [0.3, cmath.exp(1j), 0.9, 1.0], 1e-12, 2 ** 13
    refs = [sup_on_full_grids(theta, lam, tol, max_n) for lam in pts]
    assert [kernel_lp(theta, lam, math.inf, tol=tol, max_n=max_n, strict=False)
            for lam in pts] == refs
    first = next(lam for lam, (_, resid, _) in zip(pts, refs) if not resid <= tol)
    assert first == 0.9
    with pytest.raises(NoConvergence) as err:
        kernel_lp(theta, first, math.inf, tol=tol, max_n=max_n)
    with pytest.raises(NoConvergence, match=re.escape(str(err.value))):
        cls_ratio_scan(theta, pts, tol, max_n)


def test_a_boundary_kernel_reads_its_point_once(monkeypatch):
    # the caller's ||k_zeta||_2^2 (inner._kernel_point) fills a grid node at zeta
    calls = []

    def counted(theta, pt):
        calls.append(pt)
        return has_angular_derivative(theta, pt)

    monkeypatch.setattr(ttolab.inner, "has_angular_derivative", counted)
    assert kernel_lp(Monomial(4), 1.0, math.inf) == (4.0, 0.0, 8192)
    assert len(calls) == 1
    calls.clear()
    theta = BlaschkeProduct([BlaschkeZero(0.5, 0.3), BlaschkeZero(0.2, 2.0)])
    k = GridSpace(theta, 1024).kernel(1.0).samples()
    assert len(calls) == 1 and k[0] == has_angular_derivative(theta, 1.0).value
    calls.clear()
    assert [row[1:] for row in cls_ratio_scan(Monomial(4), [1.0, 1j]).rows] == [(4.0, 4.0, 1.0)] * 2
    assert len(calls) == 4  # one per point in the scan, one per kernel_lp call
    calls.clear()
    phi = rank_one_symbol(GridSpace(Monomial(4), 1024), 1.0).f.samples
    assert len(calls) == 1 and phi[0] == 8.0  # Theta conj(z k^{z^8}_1) at z = 1


def test_cls_scan_boundary_point_without_a_certificate_raises():
    # the atom sits at the point: no angular derivative, so no ||k_1||_2
    th = SingularAtomic([Atom(0.0, 1.0)])
    with pytest.raises(NoAngularDerivative, match=r"at \(1\+0j\) \(no\)"):
        cls_ratio_scan(th, [0.5, 1.0])


def test_growth_ratio_of_a_singular_theta_is_the_kernel_lp_ratio():
    th = SingularAtomic([Atom(0.0, 1.0)])
    want = kernel_lp(th, 0.3, 3.0)[0] / kernel_lp(th, 0.3, 2.0)[0] ** 2
    assert growth_ratio(th, 0.3, 3.0) == want  # the same two strict calls, bit for bit
    # uniform doubling starts at 4096 points, so a 4096-point budget never doubles
    with pytest.raises(NoConvergence, match="residual inf not within 1e-06 at a "
                                            "budget of 4096"):
        growth_ratio(th, 0.3, 3.0, max_n=4096)


def test_cls_scan_takes_the_interior_norms_in_one_array_call(monkeypatch):
    # ||k_lam||_2^2 of every interior point from one one_minus_mod_sq call,
    # row by row the per-point closed form: |lam| may round apart by an ulp
    # or two, which 1 - |lam| turns into 4 eps / (1 - |lam|) relative
    th = BlaschkeProduct([0.3 + 0.2j, -0.5 + 0.1j, 0.9j])
    pts = [0.0, 0.5, 0.3 - 0.6j, -0.9, 0.99j]
    calls = []

    def counted(theta, lam):
        calls.append(np.size(lam))
        return one_minus_mod_sq(theta, lam)

    monkeypatch.setattr(ttolab.inner, "one_minus_mod_sq", counted)  # inner.kernel_scale calls it
    rep = cls_ratio_scan(th, pts)
    assert calls == [len(pts)]
    for (lam, _, two_sq, _), w in zip(rep.rows, pts):
        assert lam == w
        want = one_minus_mod_sq(th, w) / ((1.0 - abs(w)) * (1.0 + abs(w)))
        assert math.isclose(two_sq, want, rel_tol=4 * np.finfo(float).eps / (1.0 - abs(w)))


def test_cls_scan_monomial_capped_at_two():
    pts = [r * np.exp(2j * np.pi * j / 16)
           for r in (0.0, 0.3, 0.6, 0.9, 0.99) for j in range(16)]
    rep = cls_ratio_scan(Monomial(8), pts)
    assert rep.max_ratio <= 2.0 + 1e-9
    # closed-form oracle (1+r)/(1+r^N) at a sampled radius
    row = [r for r in rep.rows if abs(r[0] - 0.9) < 1e-12][0]
    assert abs(row[3] - 1.9 / (1.0 + 0.9 ** 8)) < 1e-5


def test_cls_scan_family_ratio_grows():
    fam = gen_blaschke_counterexample(3.0, 24)
    rows = {}
    for d in (6, 12):
        th = blaschke_truncation(fam, d)
        rep = cls_ratio_scan(th, [1.0 - 2.0 ** -(d // 2)], tol=5e-3,
                             max_n=2 ** 18)
        rows[d] = rep.max_ratio
    assert rows[12] > rows[6]


def test_rkt_scan_closed_form():
    th = SingularAtomic([Atom(0.0, 1.0)])
    rep = rkt_failure_scan(th, 0.5, [0.0], grid_n=2 ** 12)
    row = rep["rows"][0]
    assert abs(row["closed_form"] - 1.0 / (np.e + 1.0)) < 1e-12
    assert rep["all_sup_ok"]
    assert row["identity_err_doubled"] < row["identity_err"]


def test_rkt_scan_sup_bound_exact():
    th = SingularAtomic([Atom(0.0, 1.0)])
    for s in (0.25, 0.5, 0.9):
        lams = [0.0, 0.3, 0.6j, -0.5, 0.8, 0.95]
        rep = rkt_failure_scan(th, s, lams, grid_n=2 ** 12)
        assert rep["all_sup_ok"]
        assert rep["max_closed_form"] <= (1.0 - s) + 8 * np.finfo(float).eps


def test_rkt_scan_isometry_witness_reported():
    th = SingularAtomic([Atom(0.0, 1.0)])
    rep = rkt_failure_scan(th, 0.5, [0.3 + 0.2j], grid_n=2 ** 12)
    row = rep["rows"][0]
    # the exact value is 1; grid computation carries the slow-tail defect
    assert abs(row["isometry_ratio"] - 1.0) < 0.05


@pytest.mark.parametrize("grid_n", [2 ** 13, 2 ** 15])
def test_rkt_scan_rows_match_the_per_lambda_reference(grid_n):
    # the scan projects blocks of kernel rows; each row's grid fields are
    # those of its lambda alone, bit for bit, on both grids
    theta = SingularAtomic([Atom(0.0, 1.0)])
    lams = [0.0, 0.3, 0.2 + 0.4j, -0.5, 0.6j]
    rep = rkt_failure_scan(theta, 0.5, lams, grid_n=grid_n)
    for lam, row in zip(lams, rep["rows"]):
        ref = rkt_row_per_point(theta, 0.5, lam, grid_n)
        assert {key: row[key] for key in ref} == ref


def test_rkt_scan_validates_inputs():
    th = SingularAtomic([Atom(0.0, 1.0)])
    with pytest.raises(ValueError):
        rkt_failure_scan(th, 1.0, [0.0])
    with pytest.raises(ValueError):
        rkt_failure_scan(BlaschkeProduct([0.3]), 0.5, [0.0])


def test_kernel_lp_strict_rejects_nan_residual():
    # radial zeros at zeta = 1: k_1 is not in H^2 (the certificate says no), so
    # there is no norm to return, with or without a residual
    radial = _uncertified_at_one()[1]
    for strict in (True, False):
        with pytest.raises(NoAngularDerivative, match=r"\(no\)"):
            kernel_lp(radial, 1.0, 2.0, strict=strict)


def _uncertified_at_one():
    """Two truncated Theta whose certificate at 1 says no: atoms of mass 2^-k at
    the angles 2^-k, and zeros 8^-k from the circle at angle 0."""
    return (SingularAtomic([Atom(2.0 ** -k, 2.0 ** -k) for k in range(1, 21)], truncated=True),
            BlaschkeProduct([BlaschkeZero(8.0 ** -k, 0.0) for k in range(1, 12)],
                            truncated=True))


@pytest.mark.parametrize("theta", _uncertified_at_one(), ids=["singular", "radial"])
def test_no_kernel_is_formed_at_a_boundary_point_without_a_certificate(theta):
    assert has_angular_derivative(theta, 1.0).verdict == "no"
    space = ModelSpace(theta)
    calls = [lambda: space.kernel(1.0), lambda: space.kernel(BoundaryPoint(0.0)),
             lambda: graded_norms(theta, 1.0, 3.0), lambda: growth_ratio(theta, 1.0, 3.0),
             lambda: cls_ratio_scan(theta, [0.5, 1.0]), lambda: rank_one_symbol(space, 1.0)]
    calls += [functools.partial(kernel_lp, theta, 1.0, p, strict=strict)
              for p in (2.0, 3.0, math.inf) for strict in (True, False)]
    for call in calls:
        with pytest.raises(NoAngularDerivative, match=r"at \(1\+0j\) \(no\)"):
            call()


def test_kernel_norms_take_p_of_at_least_one():
    # one exponent rule on the graded route (finite p, Blaschke data) and the grid
    # route (p = inf, or a singular factor): p >= 1 or inf, anything else refused
    for theta in (Monomial(3), SingularAtomic([Atom(0.0, 1.0)])):
        for p in (0.5, 0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="p >= 1"):
                kernel_lp(theta, 0.5, p, strict=False)
    for p in (0.5, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="p >= 1"):
            graded_norms(Monomial(3), 0.5, p)
    assert kernel_lp(Monomial(3), 0.5, 1.0)[0] > 0.0


def test_malformed_tolerance_and_budget_are_rejected():
    # a negative tolerance or a budget below one node is malformed input (ValueError),
    # not a quadrature that failed to converge (NoConvergence); tol = 0 is allowed
    for kw in ({"tol": -1.0}, {"tol": math.nan}, {"max_n": 0}, {"max_n": -5}):
        with pytest.raises(ValueError):
            kernel_lp(Monomial(3), 0.5, math.inf, **kw)
        with pytest.raises(ValueError):
            cls_ratio_scan(Monomial(3), [0.5], **kw)
    assert kernel_lp(Monomial(3), 0.0, 2.0, tol=0.0, strict=False)[0] > 0.0


def test_kernel_points_outside_the_closed_disk_are_rejected():
    # the circle itself stays a valid kernel point: ||k_1||_2^2 = N on K_{z^N}
    assert abs(kernel_lp(Monomial(3), 1.0, 2.0)[0] ** 2 - 3.0) < 1e-12
    for lam in (1.5, np.nan, complex(0.2, np.inf)):
        with pytest.raises(ValueError):
            kernel_lp(Monomial(3), lam, 2.0)
        with pytest.raises(ValueError):
            ModelSpace(Monomial(3)).kernel(lam)


def _mp_blaschke(zeros):
    """Theta as an mpmath function of the (delta, angle) zeros, at the working precision."""
    data = [((1 - mpmath.mpf(z.delta)) * mpmath.expj(mpmath.mpf(z.angle)), z.mult)
            for z in zeros]

    def theta(x):
        out = mpmath.mpc(1)
        for a, mult in data:
            out *= ((a - x) / (1 - mpmath.conj(a) * x)) ** mult
        return out
    return theta


def test_graded_rule_matches_ahern_clark_at_one():
    fam = gen_blaschke_counterexample(3.0, 32)
    for d in (8, 16, 24, 32):
        th = blaschke_truncation(fam, d)
        (two, resid, n), _, _ = graded_norms(th, 1.0, 2.0)
        exact = float(cohn_terms(th, 1.0, 2.0)[0].sum())
        assert abs(two ** 2 / exact - 1.0) <= 1e-10, d
        assert resid <= 1e-10 and n <= 2 ** 15
        assert kernel_lp(th, 1.0, 2.0, tol=1e-10) == (two, resid, n)


def test_graded_rule_matches_closed_form_at_growth_radii():
    # ||k_r||_2^2 = (1 - |Theta(r)|^2)/(1 - r^2), Theta(r) in 60 digits
    fam = gen_blaschke_counterexample(3.0, 32)
    radii = (1 - 2.0 ** -5.3, 1 - 2.0 ** -7.3, 1 - 2.0 ** -11.3)
    with mpmath.workdps(60):
        for d, r in zip((8, 16, 32), radii):
            th = blaschke_truncation(fam, d)
            rr = mpmath.mpf(r)
            exact = float((1 - abs(_mp_blaschke(th.zeros())(rr)) ** 2) / (1 - rr ** 2))
            _, (two, resid, _), _ = graded_norms(th, r, 3.0)
            assert abs(two ** 2 / exact - 1.0) <= 1e-10, d
            assert resid <= 1e-10


def test_graded_lp_matches_mpmath_quadrature():
    # degree 4: mpmath's tanh-sinh quadrature, split at the zeros' windows,
    # at lam's peak and at the zeros of k_1 on the circle (kinks of |k_1|^p)
    th = blaschke_truncation(gen_blaschke_counterexample(3.0, 32), 4)
    with mpmath.workdps(20):
        theta = _mp_blaschke(th.zeros())
        for lam, p in ((0.99, 3.0), (1.0, 3.0), (1.0, 2.5)):
            conj_tl, lam_mp = mpmath.conj(theta(lam)), mpmath.mpf(lam)

            def k_abs(t):
                if lam == 1.0 and abs(t) < 1e-15:
                    return mpmath.mpf(0)  # a breakpoint only: never sampled
                z = mpmath.expj(t)
                return abs(1 - conj_tl * theta(z)) / abs(1 - lam_mp * z)

            pts = {-mpmath.pi, mpmath.pi, mpmath.mpf(0)}
            for z in th.zeros():
                pts |= {z.angle + s * j * z.delta for s in (-1, 1) for j in (0, 1, 4, 16)}
            pts |= {s * (1 - lam) * j for s in (-1, 1) for j in (1, 4, 16)}
            if lam == 1.0:  # where conj(Theta(1)) Theta(e^{it}) = 1, bracketed on a scan
                ts = np.linspace(-np.pi, np.pi, 20001)[1:-1]
                ts = np.sort(np.concatenate([ts, [z.angle + s * z.delta * 2.0 ** j
                                                  for z in th.zeros() for s in (-1, 1)
                                                  for j in range(-4, 8)]]))
                g = np.conj(th.eval(1.0)) * th.eval(np.exp(1j * ts))
                cross = np.flatnonzero((np.sign(g.imag[:-1]) != np.sign(g.imag[1:]))
                                       & (g.real[:-1] > 0) & (ts[:-1] * ts[1:] > 0))
                assert len(cross) == th.degree() - 1
                pts |= {mpmath.findroot(lambda t: mpmath.im(conj_tl * theta(mpmath.expj(t))),
                                        (ts[i], ts[i + 1]), solver="anderson")
                        for i in cross}
            pts = sorted(x for x in pts if -mpmath.pi <= x <= mpmath.pi)
            ref = float((mpmath.quad(lambda t: k_abs(t) ** p, pts) / (2 * mpmath.pi))
                        ** (1 / mpmath.mpf(p)))
            (value, resid, _), _, _ = graded_norms(th, lam, p)
            assert abs(value / ref - 1.0) <= 1e-11, (lam, p)
            assert resid <= 1e-11


def test_square_bound_on_shared_nodes():
    # |k^{Theta^2}| <= 2 |k^Theta| node by node, so the L^p bound holds on the
    # rule; at p = 2 the Theta^2 column is also the exact 2 x Ahern-Clark sum
    fam = gen_blaschke_counterexample(3.0, 32)
    for d in (8, 32):
        th = blaschke_truncation(fam, d)
        _, one, two = KernelRule(th, 1.0, 3.0).kernel_sq()
        assert np.all(two <= 4.0 * one * (1 + 1e-12))
        (kp, _, _), _, kp_square = graded_norms(th, 1.0, 3.0)
        assert kp < kp_square <= 2.0 * kp
        _, _, k2_square = graded_norms(th, 1.0, 2.0)
        exact = 2.0 * float(cohn_terms(th, 1.0, 2.0)[0].sum())
        assert abs(k2_square ** 2 / exact - 1.0) <= 1e-10


def test_rkt_scan_samples_each_power_once_per_grid():
    # Theta^s and Theta^{1-s} keep their samples on Theta, so a second scan on
    # the same Theta samples nothing new; at s = 1/2 they are one function
    theta = SingularAtomic([Atom(0.0, 1.0)])
    rkt_failure_scan(theta, 0.5, [0.3], grid_n=2 ** 10)
    caches = [theta.__dict__["_sample_cache"], power(theta, 0.5).__dict__["_sample_cache"]]
    before = [dict(cache) for cache in caches]
    assert set(before[1]) == {(2 ** 10, 1.0), (2 ** 11, 1.0)}
    rkt_failure_scan(theta, 0.5, [0.3, 0.2j], grid_n=2 ** 10)
    for cache, old in zip(caches, before):
        assert cache.keys() == old.keys()
        assert all(cache[k] is v for k, v in old.items())


def test_rkt_scan_refuses_points_on_the_circle():
    # h_lambda exists only inside the disk; the refusal names the point and
    # comes before any grid work (a grid of 2^19 points and its double)
    theta = SingularAtomic([Atom(0.0, 1.0)])
    for lams in ([-1.0], [0.3, 1j], [0.3, 1.0 - 1e-13]):
        with pytest.raises(ValueError, match="inside the disk"):
            rkt_failure_scan(theta, 0.5, lams, grid_n=2 ** 19)
    assert "_sample_cache" not in theta.__dict__


def test_rkt_scan_leaves_no_reference_cycle():
    # Theta^s refers to its base and the base to Theta^s only weakly, so a
    # scanned Theta, with every sample it and its powers took, is freed as
    # soon as it is dropped
    theta = SingularAtomic([Atom(0.0, 1.0)])
    rkt_failure_scan(theta, 0.3, [0.3], grid_n=2 ** 10)
    gone = weakref.ref(theta)
    gc.disable()
    try:
        del theta
        assert gone() is None
    finally:
        gc.enable()
