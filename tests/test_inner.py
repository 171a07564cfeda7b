import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttolab import (Atom, BlaschkeProduct, BlaschkeZero, BoundaryPoint,
                    Monomial, ProductInner, SingularAtomic, cohn_sum, divides,
                    from_json, has_angular_derivative, power)
from ttolab.circle import BoundaryGrid
from ttolab.errors import AtomAtPoint, UndefinedBoundaryValue, UnsupportedVariant
import ttolab.inner
from ttolab.inner import PowerInner, cohn_terms, kernel_scale, one_minus_mod_sq, phase_increment
from ttolab.modelspace import GridSpace
from ttolab.operators import SampleSet


def family_zeros(count):
    return [BlaschkeZero(8.0 ** -k, 2.0 ** -k) for k in range(1, count + 1)]


def test_monomial_eval():
    th = Monomial(3)
    assert abs(th.eval(0.5) - 0.125) < 1e-15
    with pytest.raises(ValueError):
        Monomial(0)


def test_blaschke_zero_eval():
    a = 0.4 + 0.3j
    th = BlaschkeProduct([a])
    assert abs(th.eval(a)) < 1e-15
    # paper normalization: b_a(0) = a
    assert abs(th.eval(0.0) - a) < 1e-15


def test_singular_at_origin():
    th = SingularAtomic([Atom(0.7, 0.8)])
    assert abs(th.eval(0.0) - np.exp(-0.8)) < 1e-15


def test_modulus_bounds(rng):
    th = ProductInner([Monomial(2), BlaschkeProduct([0.5, -0.3 + 0.2j]),
                       SingularAtomic([Atom(1.0, 0.4)])])
    for _ in range(50):
        z = 0.97 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(th.eval(z)) < 1.0
    # unimodular on the boundary away from the atom
    for t in (0.3, 2.0, 4.0):
        assert abs(abs(th.eval(cmath.exp(1j * t))) - 1.0) < 1e-12


@pytest.mark.parametrize("angle, mass", [(0.0, math.nan), (0.0, math.inf), (math.nan, 1.0),
                                         (math.inf, 1.0), (0.0, 0.0), (0.0, -1.0)])
def test_atom_needs_a_finite_angle_and_a_finite_positive_mass(angle, mass):
    # a NaN or infinite mass would make SingularAtomic([atom]).eval(0.3) return 0j
    with pytest.raises(ValueError, match="finite angle and 0 < mass < inf"):
        Atom(angle, mass)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_blaschke_zero_needs_a_finite_angle(angle):
    # a NaN angle would make BlaschkeZero(0.5, nan).value NaN
    with pytest.raises(ValueError, match="a finite angle"):
        BlaschkeZero(0.5, angle)


def test_boundary_value_at_atom_undefined():
    th = SingularAtomic([Atom(0.0, 1.0)])
    with pytest.raises(UndefinedBoundaryValue):
        th.eval(1.0 + 0j)


def test_product_multiplicativity(rng):
    a = BlaschkeProduct([0.3, -0.2 + 0.4j])
    b = SingularAtomic([Atom(2.0, 0.5)])
    prod = ProductInner([a, b])
    for _ in range(20):
        z = 0.9 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(prod.eval(z) - a.eval(z) * b.eval(z)) < 1e-12


def test_cohn_sum_single_zero():
    th = BlaschkeProduct([0.0])
    assert abs(cohn_sum(th, 1.0, 2.0, 1) - 1.0) < 1e-15


def test_cohn_sum_monotone_in_terms():
    th = BlaschkeProduct(family_zeros(20), truncated=True)
    sums = [cohn_sum(th, 1.0, 2.0, k) for k in range(1, 21)]
    assert all(b >= a for a, b in zip(sums, sums[1:]))


def test_family_p2_cauchy_p3_divergent():
    # partial-sum oracle: S_2K - S_K -> 0 at p=2, S_K >= c K at p=3
    th = BlaschkeProduct(family_zeros(40), truncated=True)
    for K in (10, 20):
        gap = cohn_sum(th, 1.0, 2.0, 2 * K) - cohn_sum(th, 1.0, 2.0, K)
        assert gap < 2.4 * 2.0 ** -K  # explicit termwise bound
    s3 = [cohn_sum(th, 1.0, 3.0, K) for K in (10, 20, 40)]
    for K, s in zip((10, 20, 40), s3):
        assert s >= 0.5 * K
    # each p=3 term individually sits in [0.5, 2.2]
    bl, _ = cohn_terms(th, 1.0, 3.0)
    assert bl.min() >= 0.5 and bl.max() <= 2.2


def test_cohn_atom_at_point():
    th = SingularAtomic([Atom(0.0, 1.0)])
    with pytest.raises(AtomAtPoint):
        cohn_sum(th, 1.0, 2.0, 1)


def test_angular_derivative_monomial():
    for n in (1, 2, 7):
        cert = has_angular_derivative(Monomial(n), 1.0)
        assert cert.verdict == "yes"
        assert abs(cert.value - n) < 1e-14


def test_angular_derivative_divergent_family():
    zeros = [BlaschkeZero(2.0 ** -k, 0.0) for k in range(1, 21)]  # 1 - 2^-k real
    th = BlaschkeProduct(zeros, truncated=True)
    assert has_angular_derivative(th, 1.0).verdict == "no"


def test_angular_derivative_convergent_family():
    th = BlaschkeProduct(family_zeros(64), truncated=True)
    cert = has_angular_derivative(th, 1.0)
    assert cert.verdict == "yes"
    # limit value agrees with the plain partial sum
    assert abs(cert.value - cohn_sum(th, 1.0, 2.0, 64)) < 1e-12


def test_angular_derivative_singular_factor_two():
    # |Theta'(zeta)| = 2 c / |zeta - atom|^2 for one atom
    th = SingularAtomic([Atom(0.0, 1.0)])
    cert = has_angular_derivative(th, -1.0)  # zeta = -1
    assert cert.verdict == "yes"
    assert abs(cert.value - 2.0 * 1.0 / 4.0) < 1e-14


def test_angular_derivative_squared_agrees():
    # E(Theta^2) = E(Theta); the certificate value doubles
    th = BlaschkeProduct(family_zeros(64), truncated=True)
    c1 = has_angular_derivative(th, 1.0)
    c2 = has_angular_derivative(ProductInner([th, th]), 1.0)
    assert c1.verdict == c2.verdict == "yes"
    assert abs(c2.value - 2.0 * c1.value) < 1e-10
    # termwise: each zero is doubled
    b1, _ = cohn_terms(th, 1.0, 2.0)
    b2, _ = cohn_terms(ProductInner([th, th]), 1.0, 2.0)
    assert len(b2) == 2 * len(b1)


def test_divides_monomials():
    assert divides(Monomial(3), ProductInner([Monomial(1), Monomial(4)]))
    assert not divides(Monomial(5), Monomial(4))


def test_divides_blaschke():
    a, b = 0.3 + 0.1j, -0.5
    assert divides(BlaschkeProduct([a]), BlaschkeProduct([a, b]))
    assert not divides(BlaschkeProduct([b, b]), BlaschkeProduct([a, b]))


def test_divides_singular_mass():
    th = SingularAtomic([Atom(0.0, 1.0)])
    half = power(th, 0.5)
    assert not divides(th, half)
    assert divides(half, th)


def test_divides_power_mismatched_bases():
    p1 = power(SingularAtomic([Atom(0.0, 1.0)]), 0.5)
    p2 = power(SingularAtomic([Atom(1.0, 1.0)]), 0.5)
    with pytest.raises(UnsupportedVariant):
        divides(p1, p2)


def test_power_basics(rng):
    th = SingularAtomic([Atom(0.0, 0.8), Atom(2.0, 0.3)])
    assert power(th, 1.0) is th
    half = power(th, 0.5)
    assert abs(half.eval(0.0) - np.exp(-0.55)) < 1e-15
    with pytest.raises(UnsupportedVariant):
        power(BlaschkeProduct([0.5]), 0.5)
    for _ in range(100):
        z = 0.95 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
        assert abs(abs(half.eval(z)) - abs(th.eval(z)) ** 0.5) < 1e-12


def test_json_roundtrip():
    specs = [
        {"type": "monomial", "degree": 4},
        {"type": "blaschke", "zeros": [{"re": 0.3, "im": -0.2, "mult": 2}]},
        {"type": "singular", "atoms": [{"angle": 0.5, "mass": 1.2}]},
        {"type": "product", "factors": [{"type": "monomial", "degree": 1},
                                        {"type": "singular",
                                         "atoms": [{"angle": 0.0, "mass": 1.0}]}]},
        {"type": "power", "base": {"type": "singular",
                                   "atoms": [{"angle": 0.0, "mass": 1.0}]},
         "s": 0.5},
    ]
    for spec in specs:
        th = from_json(spec)
        again = from_json(th.to_json())
        z = 0.4 + 0.2j
        assert abs(th.eval(z) - again.eval(z)) < 1e-15


def test_json_delta_zeros():
    # high-precision zeros survive the delta/angle form
    spec = {"type": "blaschke",
            "zeros": [{"delta": 8.0 ** -20, "angle": 2.0 ** -20, "mult": 1}],
            "truncated": True}
    th = from_json(spec)
    assert th.zeros()[0].delta == 8.0 ** -20
    assert th.truncated


@pytest.mark.parametrize("spec", [
    {"type": "monomial", "degree": math.inf},  # int() of an infinity overflows
    {"type": "monomial", "degree": 10 ** 400},
    {"type": "blaschke", "zeros": [{"delta": 0.5, "angle": "nan"}]},
    {"type": "blaschke", "zeros": [{"re": math.nan, "im": 0.0}]},
    {"type": "singular", "atoms": [{"angle": 0.0, "mass": "inf"}]},
    {"type": "power", "base": {"type": "monomial", "degree": 2}, "s": -math.inf}])
def test_json_numbers_must_be_finite(spec):
    with pytest.raises(ValueError, match="must be a finite number"):
        from_json(spec)


@pytest.mark.parametrize("spec", [
    {"type": "monomial", "degree": True},
    {"type": "monomial", "degree": 3.9},
    {"type": "blaschke", "zeros": [{"re": 0.5, "im": 0.0, "mult": 2.7}]},
    {"type": "blaschke", "zeros": [{"delta": 0.5, "angle": True}]},
    {"type": "singular", "atoms": [{"angle": 0.0, "mass": True}]}])
def test_json_numbers_are_not_bools_and_integer_fields_are_whole(spec):
    with pytest.raises(ValueError, match="must be a finite number"):
        from_json(spec)
    assert from_json({"type": "monomial", "degree": 3.0}).n == 3


def test_boundary_point():
    p = BoundaryPoint(np.pi)
    assert abs(p.value + 1.0) < 1e-15
    assert repr(BoundaryPoint(0.5)) == "BoundaryPoint(angle=0.5)"


def test_cohn_termwise_p3_vs_p2():
    # for |zeta - a| <= 2 each p=3 term dominates half the p=2 term
    th = BlaschkeProduct(family_zeros(20), truncated=True)
    t2, _ = cohn_terms(th, 1.0, 2.0)
    t3, _ = cohn_terms(th, 1.0, 3.0)
    assert np.all(t3 >= 0.5 * t2)


def test_json_round_trip_keeps_delta_bits():
    from ttolab import gen_blaschke_counterexample
    theta = gen_blaschke_counterexample().theta
    again = from_json(theta.to_json())
    assert again.truncated
    assert [(z.delta, z.angle, z.mult) for z in again.zeros()] == \
        [(z.delta, z.angle, z.mult) for z in theta.zeros()]


# -- 1 - |Theta(lam)|^2 against a 50-digit oracle ---------------------------

def _oracle_one_minus_mod_sq(theta, lam):
    """1 - |Theta(lam)|^2 in 50-digit arithmetic, from the same binary lam and
    the same stored (delta, angle) zeros and (angle, mass) atoms."""
    with mpmath.workdps(50):
        w = mpmath.mpc(lam.real, lam.imag)
        mod_sq = mpmath.mpf(1)
        for z in theta.zeros():
            a = (1 - mpmath.mpf(z.delta)) * mpmath.expj(mpmath.mpf(z.angle))
            mod_sq *= abs((a - w) / (1 - mpmath.conj(a) * w)) ** (2 * z.mult)
        for at in theta.atoms():
            zeta = mpmath.expj(mpmath.mpf(at.angle))
            mod_sq *= mpmath.exp(2 * mpmath.mpf(at.mass) * mpmath.re((w + zeta) / (w - zeta)))
        return 1 - mod_sq


_angles = st.floats(0.0, 2.0 * np.pi)
_gap = st.floats(-6.0, 0.0).map(lambda e: 10.0 ** e)  # 1 - |lam|
_points = st.builds(lambda g, t: (1.0 - g) * cmath.exp(1j * t), _gap, _angles)
_zeros = st.builds(lambda e, t, m: BlaschkeZero(10.0 ** e, t, m),
                   st.floats(-6.0, np.log10(0.9)), _angles, st.integers(1, 3))
_blaschke = st.lists(_zeros, min_size=1, max_size=6).map(BlaschkeProduct)
_atom = st.builds(lambda t, m: SingularAtomic([Atom(t, m)]), _angles, st.floats(0.01, 3.0))
_thetas = st.one_of(
    st.integers(1, 300).map(Monomial), _blaschke, _atom,
    st.builds(lambda n, b, a: ProductInner([Monomial(n), b, a]),
              st.integers(1, 8), _blaschke, _atom))


@settings(max_examples=300, deadline=None)
@given(_thetas, _points)
def test_one_minus_mod_sq_matches_mpmath(theta, lam):
    got = one_minus_mod_sq(theta, lam)
    ref = _oracle_one_minus_mod_sq(theta, lam)
    assert abs(got - ref) <= 1e-9 * ref


def test_one_minus_mod_sq_is_one_on_a_zero():
    # at lam = a the simple zero's 1 - |b_a(lam)|^2 rounds to 1 + 1.3e-15
    simple = BlaschkeZero(0.046466436303213274, 0.10379355111916272)
    double = BlaschkeZero(0.6, 2.0, 2)
    theta = ProductInner([BlaschkeProduct([BlaschkeZero(0.5, 0.5), simple, double]),
                          SingularAtomic([Atom(3.0, 0.5)])])
    for zero in (simple, double):
        assert one_minus_mod_sq(theta, zero.value) == 1.0


def _per_zero_formula(theta, lam):
    """1 - |Theta(lam)|^2 by the general per-zero loop and the singular join."""
    mod = abs(lam)
    one_minus_lam2 = (1.0 - mod) * (1.0 + mod)
    q = 0.0
    for z in theta.zeros():
        d = abs(1.0 - z.value.conjugate() * lam)
        u = one_minus_lam2 * (z.delta * (2.0 - z.delta)) / (d * d)
        if z.mult > 1:
            u = -math.expm1(z.mult * math.log1p(-u)) if u < 1.0 else 1.0
        q += u * (1.0 - q)
    exponent = sum(2.0 * a.mass * ((lam + cmath.exp(1j * a.angle))
                                   / (lam - cmath.exp(1j * a.angle))).real
                   for a in theta.atoms())
    return min(q - (1.0 - q) * math.expm1(exponent), 1.0)


def test_monomial_closed_form_is_the_per_zero_formula():
    # real and imaginary points keep |lam| exact, so the oracle sees the same gap
    lams = [0.0, 1e-9, 0.5, -0.3, 0.6j, 0.3 + 0.4j, 0.99 * cmath.exp(2j),
            1.0 - 1e-12, -(1.0 - 1e-12) * 1j]
    for n in (1, 2, 3, 16, 256):
        theta = Monomial(n)
        for lam in lams:
            got = one_minus_mod_sq(theta, lam)
            assert got == _per_zero_formula(theta, complex(lam))
            ref = _oracle_one_minus_mod_sq(theta, complex(lam))
            assert abs(got - ref) <= 1e-12 * ref
    # the atom-free shortcut is the same arithmetic on any Blaschke product
    theta = BlaschkeProduct([BlaschkeZero(1e-3, 1.0), BlaschkeZero(0.5, 2.0, 3)])
    for lam in lams:
        assert one_minus_mod_sq(theta, lam) == _per_zero_formula(theta, complex(lam))


_on_circle = st.sampled_from([1.0, -1.0, 1j, -1j])  # |lam| = 1 exactly
_factored = st.one_of(  # no bare z^N, whose single points take the closed form
    _blaschke, _atom,
    st.builds(lambda n, b: ProductInner([Monomial(n), b]), st.integers(1, 8), _blaschke),
    st.builds(lambda n, b, a: ProductInner([Monomial(n), b, a]),
              st.integers(1, 8), _blaschke, _atom))


@st.composite
def _point_arrays(draw):
    """(Theta, points): interior points, 0, some of Theta's zeros and points
    on the circle, shuffled."""
    theta = draw(_factored)
    on_zeros = [z.value for z in theta.zeros() if draw(st.booleans())]
    pts = (draw(st.lists(_points, min_size=1, max_size=12)) + [0.0] + on_zeros
           + draw(st.lists(_on_circle, max_size=2)))
    return theta, np.array(draw(st.permutations(pts)), dtype=complex)


@settings(max_examples=200, deadline=None)
@given(_point_arrays())
def test_one_minus_mod_sq_over_a_point_array(case):
    theta, pts = case
    got = one_minus_mod_sq(theta, pts)
    assert got.shape == pts.shape
    for lam, value in zip(pts.tolist(), got.tolist()):
        assert value == one_minus_mod_sq(theta, lam)  # one-element arrays, the same pass
        if abs(lam) >= 1.0:
            assert value == 0.0
            continue
        ref = _oracle_one_minus_mod_sq(theta, lam)
        assert abs(value - ref) <= 1e-9 * ref  # 1.0 on a zero, up to the oracle's bound
        if not theta.atoms():  # numpy's log1p, expm1 and hypot against libm's
            assert abs(value - _per_zero_formula(theta, lam)) <= 4 * math.ulp(value)


def test_one_minus_mod_sq_factor_data_is_per_instance():
    near = BlaschkeProduct([BlaschkeZero(1e-3, 1.0)])
    far = BlaschkeProduct([BlaschkeZero(0.5, 1.0)])
    lam = 0.99 * cmath.exp(1j)
    thetas = [near, far, Monomial(3), Monomial(5), ProductInner([near, far]),
              from_json(near.to_json())]
    for _ in range(2):  # the second pass reads what the first stored
        for theta in thetas:
            got = one_minus_mod_sq(theta, lam)
            ref = _oracle_one_minus_mod_sq(theta, lam)
            assert abs(got - ref) <= 1e-12 * ref
    # z^N has its closed form and stores no factor data
    assert not any("_zero_arrays" in vars(theta) for theta in thetas[2:4])
    data = [vars(theta)["_zero_arrays"] for theta in thetas[:2] + thetas[4:]]
    assert len({id(d) for d in data}) == len(data)
    assert len({id(x) for d in data for x in d}) == 4 * len(data)


def test_phase_increment_matches_samples(rng):
    # e^{i Delta} = conj(Theta(zeta)) Theta(e^{it}) at nodes given as anchor +
    # offset, with anchors on the zeros (offsets crossing a half turn), and
    # Delta is the continuous increment from tau: 2 pi N after a full turn
    zeros = [BlaschkeZero(0.3, 0.4), BlaschkeZero(0.05, 2.0, 2), BlaschkeZero(0.6, 4.0)]
    theta = ProductInner([BlaschkeProduct(zeros), Monomial(2)])
    tau = 5.5
    anchors = rng.choice([0.4, 2.0, 4.0, 0.0], size=400)
    offsets = rng.uniform(-3.0, 3.0, size=400)
    delta, w = phase_increment(theta, tau, anchors, offsets)
    t = anchors + offsets
    want = np.conj(theta.eval(np.exp(1j * tau))) * theta.eval(np.exp(1j * t))
    assert np.max(np.abs(np.exp(1j * delta) - want)) < 1e-13
    assert np.max(np.abs(np.exp(1j * w) - np.exp(1j * (t - tau)))) < 1e-13
    turn = tau + np.linspace(1e-9, 2.0 * np.pi - 1e-9, 2001)
    delta, _ = phase_increment(theta, tau, tau, turn - tau)
    assert np.all(np.diff(delta) > 0) and delta[0] > 0
    assert abs(delta[-1] - 2.0 * np.pi * theta.degree()) < 1e-6


def test_phase_increment_resolves_zeros_below_rounding():
    # 1 - |a| = 1e-30 rounds a onto the circle in any sample of Theta, yet
    # the phase crosses half a turn within +-delta of the zero's angle
    delta, angle = 1e-30, 0.3
    theta = BlaschkeProduct([BlaschkeZero(delta, angle)], truncated=True)
    d, _ = phase_increment(theta, angle + 1.0, angle, np.array([-delta, delta]))
    assert abs((d[1] - d[0]) - 4.0 * math.atan(1.0 - 0.5 * delta)) < 1e-12


def test_angular_derivative_inconclusive_on_few_slow_terms():
    # four truncated zeros: a tail far above the Cauchy tolerance, yet too
    # few terms for a divergence verdict
    th = BlaschkeProduct([BlaschkeZero(0.5, t) for t in (0.5, 1.5, 2.5, 3.5)], truncated=True)
    cert = has_angular_derivative(th, 1.0)
    assert cert.verdict == "inconclusive" and not cert
    assert repr(cert) == "AngularDerivative(inconclusive)"


def test_divides_merges_atoms_at_one_angle():
    big = SingularAtomic([Atom(0.5, 1.0), Atom(0.5, 0.5)])  # mass 1.5 at one angle
    assert divides(SingularAtomic([Atom(0.5, 1.25)]), big)
    assert not divides(SingularAtomic([Atom(0.5, 2.0)]), big)  # mass not dominated
    assert not divides(SingularAtomic([Atom(1.5, 0.1)]), big)  # no atom at that angle


def test_one_minus_mod_sq_vanishes_on_the_circle():
    for theta in (Monomial(3), BlaschkeProduct([0.5, 0.3j]), SingularAtomic([Atom(0.0, 1.0)])):
        assert one_minus_mod_sq(theta, 1.0) == 0.0
        assert one_minus_mod_sq(theta, -1j) == 0.0


def test_cohn_terms_need_a_finite_p():
    theta = BlaschkeProduct([0.5, 0.3j])
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite p"):
            cohn_terms(theta, 0.5, p)


def test_a_real_number_is_a_point_of_the_disk_in_the_ahern_clark_functions():
    # -1.0 is the point -1, as for every kernel function, not the angle -1
    # (which reads 2.1753, |Theta'| at e^{-i})
    th = SingularAtomic([Atom(0.0, 1.0)])
    assert has_angular_derivative(th, -1.0).value == 0.5
    for zeta in (-1.0, -1 + 0j, BoundaryPoint(math.pi)):
        assert cohn_sum(th, zeta, 2.0, 1) == 0.25


def test_ahern_clark_functions_refuse_a_point_inside_the_disk():
    theta = BlaschkeProduct([0.5, 0.3j])
    for call in (lambda: cohn_terms(theta, 0.3, 2), lambda: cohn_sum(theta, 0.3j, 2.0, 1),
                 lambda: has_angular_derivative(theta, 1 - 2e-12)):
        with pytest.raises(ValueError, match="need a point of the circle"):
            call()


def test_eval_within_the_edge_of_an_atom_is_undefined():
    # |z| = 1 - 5e-13 is on the circle by _point's rule, as in every kernel function
    th = SingularAtomic([Atom(1.0, 1.0)])
    with pytest.raises(UndefinedBoundaryValue):
        th.eval((1 - 5e-13) * cmath.exp(1j))


# -- evaluation and JSON over the factor arrays -----------------------------

@pytest.mark.parametrize("theta", [
    BlaschkeProduct([0.3 + 0.1j, -0.2 + 0.4j, -0.5j, 0.7]),
    BlaschkeProduct([(0.3 + 0.1j, 2), -0.5j, (0.6, 3)]),
    BlaschkeProduct(family_zeros(20), truncated=True),
    SingularAtomic([Atom(0.0, 1.0), Atom(2.0, 0.4)]),
    power(SingularAtomic([Atom(0.5, 1.0), Atom(3.0, 0.7)]), 0.3),
    Monomial(7),
    ProductInner([Monomial(2), BlaschkeProduct([0.5, 0.3j]), SingularAtomic([Atom(1.0, 0.4)])])],
    ids=["blaschke", "multiple_zero", "family", "singular", "power", "monomial", "product"])
def test_eval_of_a_point_does_not_depend_on_the_batch(theta):
    # Theta(lam) has the same bits alone as among the default sample set's points
    pts = SampleSet.default(GridSpace(theta, 2 ** 9)).points
    single = np.array([theta.eval(lam) for lam in pts.tolist()])
    assert np.array_equal(theta.eval(pts), single)


_atom_lists = st.lists(st.tuples(_angles, st.floats(0.01, 3.0)), min_size=1, max_size=3)
_powers = st.builds(PowerInner, _atom_lists.map(SingularAtomic), st.floats(0.05, 1.0))
_specs = st.one_of(
    st.integers(1, 300).map(Monomial),
    st.builds(BlaschkeProduct, st.lists(_zeros, min_size=1, max_size=6), st.booleans()),
    st.builds(SingularAtomic, _atom_lists, st.booleans()),
    st.builds(lambda n, b, a: ProductInner([Monomial(n), b, a]),
              st.integers(1, 8), _blaschke, _atom),
    _powers,
    st.builds(PowerInner, _powers, st.floats(0.05, 1.0)))


@settings(max_examples=100, deadline=None)
@given(_specs, st.lists(_points, min_size=1, max_size=8))
def test_json_round_trip_keeps_every_factor(theta, pts):
    again = from_json(theta.to_json())
    assert type(again) is type(theta) and again.truncated == theta.truncated
    for mine, theirs in ((theta._zero_data, again._zero_data),
                         (theta._atom_data, again._atom_data)):
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(mine, theirs))
    assert again.unimodular == theta.unimodular
    pts = np.array(pts)
    assert np.array_equal(again.eval(pts), theta.eval(pts))


# -- the kernel scale sqrt((1-|lam|^2)/(1-|Theta(lam)|^2)) ------------------

_SCALE_THETAS = (Monomial(16), BlaschkeProduct([0.3 + 0.1j, -0.2 + 0.4j, -0.95j]),
                 SingularAtomic([Atom(0.0, 1.0)]),
                 ProductInner([Monomial(2), BlaschkeProduct([0.5j]), SingularAtomic([Atom(2.0, 0.5)])]))


@pytest.mark.parametrize("theta", _SCALE_THETAS, ids=["z16", "blaschke3", "atom", "product"])
def test_kernel_scale_on_points_and_arrays_matches_mpmath(theta):
    # 1 - |lam| from 1e-1 down to 1e-6, at angles off the atoms: one call on
    # the array gives what each point gives alone, bit for bit, and both are
    # the 50-digit value to 1e-12
    pts = np.array([(1.0 - 10.0 ** -e) * cmath.exp(1j * t)
                    for e in range(1, 7) for t in (0.5, 1.3, 2.9, 4.4)] + [0.0, 0.3 - 0.2j])
    got = kernel_scale(theta, pts)
    assert got.shape == pts.shape
    for lam, value in zip(pts.tolist(), got.tolist()):
        alone = kernel_scale(theta, lam)
        assert type(alone) is float and alone == value
        with mpmath.workdps(50):
            w = mpmath.mpc(lam.real, lam.imag)
            ref = mpmath.sqrt((1 - abs(w) ** 2) / _oracle_one_minus_mod_sq(theta, lam))
            assert abs(value - ref) <= 1e-12 * ref, lam
    assert kernel_scale(theta, pts.reshape(2, -1)).shape == (2, pts.size // 2)


def test_kernel_scale_on_z_n_takes_one_closed_form_call_per_point(monkeypatch):
    calls = []

    def counted(theta, lam):
        calls.append(np.shape(lam))
        return one_minus_mod_sq(theta, lam)

    monkeypatch.setattr(ttolab.inner, "one_minus_mod_sq", counted)
    pts = np.array([0.0, 0.5j, 0.9 - 0.1j, -0.99])
    kernel_scale(Monomial(16), pts)
    assert calls == [()] * pts.size
    calls.clear()
    kernel_scale(BlaschkeProduct([0.5]), pts)  # any other Theta: one array call
    assert calls == [pts.shape]


def test_samples_are_one_array_per_grid_and_radius():
    # the caches live in attributes, set on first use; a power's samples on its base
    th = SingularAtomic([Atom(0.0, 1.0)])
    g = BoundaryGrid(64)
    assert th.samples_at(g) is th.samples_at(g)
    assert th.samples_at(g, 0.5) is th.samples_at(g, 0.5) is not th.samples_at(g)
    half = power(th, 0.5)
    assert half.samples_at(g) is half.samples_at(g) is th._power_samples[0.5][(64, 1.0)]
    b = BlaschkeProduct([0.3 + 0.1j, -0.5j])
    assert b.samples_at(g) is b.samples_at(g) is b._sample_cache[(64, 1.0)]


def test_power_is_one_object_per_base_and_exponent():
    th = SingularAtomic([Atom(0.0, 1.0), Atom(2.0, 0.5)])
    a, b = 0.3, 0.7
    assert power(th, 0.5) is power(th, 0.5)
    assert power(power(th, a), b) is power(th, a * b)
    assert power(th, 0.5) is not power(SingularAtomic([Atom(0.0, 1.0), Atom(2.0, 0.5)]), 0.5)
    assert power(th, 0.25).base is th and power(th, 0.25).s == 0.25
