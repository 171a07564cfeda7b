"""Kernel-growth scans and the negative-result families.

Everything here studies finite truncations of infinite objects, so every
report carries its truncation degree and grid, growth verdicts are based
on non-stabilization across successive doublings, and the shipped default
families certify their summability/divergence through explicit termwise
bounds rather than fitted curves.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import BoundaryGrid, CircleFunction, cauchy_refine, lp_norm
from .errors import NoConvergence
from .inner import (Atom, BlaschkeProduct, BlaschkeZero, InnerFunction,
                    SingularAtomic, cohn_terms, power, square)
from .modelspace import _kernel_samples, _kernel_scale, _point, project_theta

RADIAL_OFFSET = 1.0 - 2.0 ** -12  # boundary kernels of singular Theta are
                                  # sampled at this radius (atoms have no
                                  # boundary values)


# ---------------------------------------------------------------------------
# kernel norms by quadrature

def kernel_lp(theta: InnerFunction, lam: complex, p: float,
              start_n: int = 4096, tol: float = 1e-6, max_n: int = 2 ** 17,
              strict: bool = True):
    """||k_lam||_p by uniform quadrature with grid-doubling Cauchy control.

    Singular factors are sampled at a fixed radial offset.  Returns
    (value, residual, n); when strict, raises NoConvergence if doubling
    stalls above the tolerance (otherwise the last value is returned with
    its achieved residual, which scan reports carry per row).
    """
    lam, _ = _point(lam)
    radius = RADIAL_OFFSET if theta.has_singular_part() else 1.0

    def compute(n):
        return lp_norm(_kernel_samples(theta, lam, BoundaryGrid(n), radius), p)

    value, resid, n = cauchy_refine(compute, start_n, tol, max_n)
    if strict and not resid <= tol:  # a NaN residual is not convergence
        raise NoConvergence(f"kernel L^{p} quadrature not stable within n <= {max_n}")
    return value, resid, n


RATIO_TOL = 1e-6  # Cauchy tolerance of growth_ratio's two kernel norms


def growth_ratio(theta: InnerFunction, lam: complex, p: float, max_n: int = 2 ** 17) -> float:
    """||k_lam||_p / ||k_lam||_2^2, the quantity whose boundedness a
    bounded-symbol theorem forces for every p > 2."""
    if not 2 < p:
        raise ValueError("p must exceed 2")
    (num, _, _), (den, _, _) = _lp_and_l2(theta, lam, p, tol=RATIO_TOL, max_n=max_n)
    return num / den ** 2


def _lp_and_l2(theta: InnerFunction, lam: complex, p: float, **kw):
    """kernel_lp at p and at 2, each (value, residual, n), for ||k||_p / ||k||_2^2."""
    return kernel_lp(theta, lam, p, **kw), kernel_lp(theta, lam, 2.0, **kw)


# ---------------------------------------------------------------------------
# the shipped counterexample families

class Certificate:
    """A named measured quantity with its pass threshold."""

    __slots__ = ("name", "value", "threshold", "passed")

    def __init__(self, name, value, threshold, passed):
        self.name = name
        self.value = value
        self.threshold = threshold
        self.passed = bool(passed)

    def __repr__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"Certificate({self.name}: {self.value:.3e} vs {self.threshold:.3e} [{status}])"


class CounterexampleFamily:
    """A truncated family with its defining data and certificates."""

    def __init__(self, kind, theta, p, certificates, data):
        self.kind = kind
        self.theta = theta
        self.p = p
        self.certificates = {c.name: c for c in certificates}
        self.data = data

    def all_pass(self) -> bool:
        return all(c.passed for c in self.certificates.values())


def gen_blaschke_counterexample(p: float = 3.0, count: int = 20) -> CounterexampleFamily:
    """Zeros a_k = (1 - 8^{-k}) e^{i 2^{-k}}, k = 1..count.

    The Ahern-Clark sum at 1 converges for exponent 2 (termwise bound
    (16/7) 2^{-k} gives the explicit tail estimate) and diverges linearly
    for the target exponent (each term at least 1/2), so the boundary
    kernel at 1 exists but leaves L^p: the rank-one operator there is
    bounded with no bounded symbol.
    """
    if p <= 2:
        raise ValueError("p must exceed 2")
    if count < 4:
        raise ValueError("need at least 4 zeros")
    ks = np.arange(1, count + 1)
    zeros = [BlaschkeZero(8.0 ** -k, 2.0 ** -k) for k in ks]
    theta = BlaschkeProduct(zeros, truncated=True)
    bl2, _ = cohn_terms(theta, 0.0, 2.0)
    blp, _ = cohn_terms(theta, 0.0, p)
    tail_bound = (16.0 / 7.0) * 2.0 ** -count
    certs = [
        Certificate("p2_tail_bound", tail_bound, 1e-5, tail_bound < 1e-5),
        Certificate("p2_termwise_bound",
                    float(np.max(bl2 / ((16.0 / 7.0) * 2.0 ** -ks))), 1.0,
                    bool(np.all(bl2 <= (16.0 / 7.0) * 2.0 ** -ks))),
        Certificate("p_divergence_floor", float(np.min(blp)), 0.5,
                    bool(np.min(blp) >= 0.5)),
    ]
    data = {"p2_terms": bl2, "p_terms": blp}
    if p == 3.0:
        df3 = (8.0 ** -ks) ** (1.0 - 1.0 / p) / np.sqrt(
            np.array([z.dist2_to_boundary_angle(0.0) for z in zeros]))
        certs.append(Certificate("df3_decay", float(df3[-1] / df3[0]), 1.0,
                                 bool(np.all(np.diff(df3) < 0))))
        data["df3"] = df3
    return CounterexampleFamily("blaschke_tangential", theta, p, certs, data)


DOMINANCE = 0.9  # least share of the exponent-2 sum a selected zero carries at its point


def gen_tangential_family(gamma: float, p: float, count: int = 12) -> CounterexampleFamily:
    """Greedy tangential-zero family for a given approach exponent gamma.

    Candidates w_k approach 1 with (1-|w_k|)^gamma / |w_k - 1| -> 0; a
    subsequence is selected so that at each test point (the radial
    projection of the selected zero) the nearest zero contributes at least
    the DOMINANCE fraction of the exponent-2 Ahern-Clark sum, which is
    the operational form of the single-zero-dominance condition.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if p <= max(2.0, 1.0 / (1.0 - gamma)):
        raise ValueError("p must exceed max(2, 1/(1-gamma))")
    # candidate geometry: delta_k = 4^{-k}, angle_k = delta_k^{gamma'} with
    # gamma' slightly below gamma so the tangential ratio still vanishes
    gprime = 0.9 * gamma
    selected: list[BlaschkeZero] = []
    dominances = []
    k = 1
    attempts = 0
    while len(selected) < count and attempts < 80:
        attempts += 1
        delta = 4.0 ** -k
        angle = delta ** gprime
        cand = BlaschkeZero(delta, angle)
        trial = selected + [cand]
        t = angle  # test point: radial projection of the candidate
        terms = np.array([z.one_minus_mod2() / z.dist2_to_boundary_angle(t)
                          for z in trial])
        share = terms[-1] / terms.sum()
        if share >= DOMINANCE:
            selected.append(cand)
            dominances.append(float(share))
            k += 1
        else:
            k += 2  # skip ahead: later candidates are better separated
    if len(selected) < 4:
        raise ValueError("could not select enough dominated zeros")
    theta = BlaschkeProduct(selected, truncated=True)
    tang = np.array([z.delta ** gamma / math.sqrt(z.dist2_to_boundary_angle(0.0))
                     for z in selected])
    df3 = np.array([z.delta ** (1 - 1 / p) / math.sqrt(z.dist2_to_boundary_angle(0.0))
                    for z in selected])
    certs = [
        Certificate("dominance_floor", float(min(dominances)), DOMINANCE,
                    min(dominances) >= DOMINANCE),
        Certificate("tangential_ratio_decay", float(tang[-1] / tang[0]), 1.0,
                    bool(np.all(np.diff(tang) < 0))),
        Certificate("df3_decay", float(df3[-1] / df3[0]), 1.0,
                    bool(np.all(np.diff(df3) < 0))),
    ]
    return CounterexampleFamily("blaschke_tangential", theta, p, certs,
                                {"dominances": np.array(dominances), "df3": df3})


def gen_singular_counterexample(p: float = 3.0, count: int = 20) -> CounterexampleFamily:
    """Atoms of mass 8^{-k} at angles 2^{-k}: the singular twin of the
    Blaschke family, with masses playing the role of 1 - |a_k|^2."""
    if p <= 2:
        raise ValueError("p must exceed 2")
    ks = np.arange(1, count + 1)
    atoms = [Atom(2.0 ** -k, 8.0 ** -k) for k in ks]
    theta = SingularAtomic(atoms, truncated=True)
    _, at2 = cohn_terms(theta, 0.0, 2.0)
    _, atp = cohn_terms(theta, 0.0, p)
    total = float(sum(a.mass for a in atoms))
    tail_bound = float(np.sum(at2[3 * count // 4:]))
    certs = [
        Certificate("total_mass", total, 1.0 / 7.0 + 1e-6, total <= 1.0 / 7.0 + 1e-6),
        Certificate("p2_increment_scale",
                    float(np.max(at2 * 2.0 ** ks)), 1.5,
                    bool(np.max(at2 * 2.0 ** ks) <= 1.5)),
        Certificate("p_divergence_floor", float(np.min(atp)), 0.5,
                    bool(np.min(atp) >= 0.5)),
    ]
    return CounterexampleFamily("singular_atoms", theta, p, certs,
                                {"p2_terms": at2, "p_terms": atp})


def blaschke_truncation(family: CounterexampleFamily, degree: int) -> BlaschkeProduct:
    """The first ``degree`` zeros of a Blaschke family, as an exact finite
    product (per-degree reports treat each truncation as its own object).
    Raises ValueError unless 1 <= degree <= the family's zero count."""
    _check_degrees(family, (degree,))
    return BlaschkeProduct(family.theta.zeros()[:degree], truncated=False)


def _check_degrees(family: CounterexampleFamily, degrees):
    count = len(family.theta.zeros())
    bad = [d for d in degrees if not 1 <= d <= count]
    if bad:
        raise ValueError(f"truncation degrees {bad} are not in 1..{count} "
                         f"(the {family.kind} family has {count} zeros)")


# ---------------------------------------------------------------------------
# scans

class ScanReport:
    """Rows plus the running maximum of a scanned ratio."""

    def __init__(self, columns, rows, max_ratio):
        self.columns = columns
        self.rows = rows
        self.max_ratio = max_ratio


def cls_ratio_scan(theta: InnerFunction, points, tol: float = 1e-8,
                   max_n: int = 2 ** 17) -> ScanReport:
    """Rows (lambda, ||k||_inf, ||k||_2^2, ratio); the connected-level-set
    test: the supremum of the ratio is finite iff Theta is one-component."""
    rows = []
    best = 0.0
    for lam in np.asarray(points, dtype=complex):
        (sup, _, _), (two, _, _) = _lp_and_l2(theta, lam, np.inf, tol=tol, max_n=max_n)
        ratio = sup / two ** 2
        best = max(best, ratio)
        rows.append((complex(lam), sup, two ** 2, ratio))
    return ScanReport(("lambda", "sup_norm", "l2_norm_sq", "ratio"), rows, best)


QUADRATURE_TOL = 5e-3  # best-effort Cauchy tolerance of the growth reports' quadrature
SCAN_MAX_N = 2 ** 21  # largest grid of a growth_scan row


def growth_scan(family: CounterexampleFamily, degrees, radii, p: float) -> ScanReport:
    """Kernel growth along a joint (degree, radius) refinement diagonal.

    degrees and radii are zipped: each row refines both the truncation and
    the approach to the family's base point.  Quadrature is best-effort at
    QUADRATURE_TOL with per-row achieved residuals: zeros at distance
    8^{-k} from the circle put phase features of width 8^{-k} on the
    integrand that no affordable uniform grid resolves, while the scan only
    tracks growth by factors.  The starting grid is chosen to resolve the
    kernel peak of width 1 - r.
    """
    rows = []
    best = 0.0
    for d, r in zip(degrees, radii):
        theta_d = blaschke_truncation(family, d)
        start = 4096
        while start * (1.0 - r) < 16 and start < SCAN_MAX_N:
            start *= 2  # resolve the kernel peak of width 1-r
        (num, res_p, n_used), (den, res_2, _) = _lp_and_l2(
            theta_d, r, p, start_n=start, tol=QUADRATURE_TOL, max_n=SCAN_MAX_N, strict=False)
        ratio = num / den ** 2
        best = max(best, ratio)
        rows.append({"degree": d, "radius": float(r), "growth_ratio": ratio,
                     "kernel_p": num, "kernel_2_sq": den ** 2,
                     "residual_p": res_p, "residual_2": res_2, "grid": n_used})
    return ScanReport(("degree", "radius", "growth_ratio", "kernel_p",
                       "kernel_2_sq", "residual_p", "residual_2", "grid"),
                      rows, best)


GROW_TOL = 0.10  # least relative growth per degree step of a "diverging" signature
STABLE_TOL = 0.05  # largest relative move in the last step of a "stable" one
CHECK_MAX_N = 2 ** 17  # largest grid of the theorem check's quadrature columns


def counterex_theorem_check(family: CounterexampleFamily, p: float,
                            degrees=(8, 16, 32)) -> dict:
    """Certify, per truncation degree, that the boundary kernel stays in L^2
    while leaving L^p, together with the matching rank-one symbol growth.

    The L^p membership criterion is the Ahern-Clark sum, which the zero
    parametrization evaluates exactly; ||k_1||_2^2 equals the exponent-2
    sum exactly, and the rank-one symbol's norm equals ||k_1^{Theta^2}||_p
    whose sum doubles term by term.  Those exact signatures drive the
    verdicts.  Uniform-grid quadrature values are reported alongside, but
    the divergent L^p mass of this family sits in phase windows of width
    8^{-k}, which no affordable uniform grid resolves, so the quadrature
    columns saturate at the resolution wall and are labeled best-effort.

    Verdicts: 'diverging' when every step to the next degree grows the
    signature by at least GROW_TOL relative, 'stable' when the last step
    moves it by at most STABLE_TOL.  ValueError unless the degrees are at
    least two, strictly increasing and within the family's zero count.
    """
    degrees = tuple(degrees)
    if len(degrees) < 2 or any(a >= b for a, b in zip(degrees, degrees[1:])):
        raise ValueError(f"the theorem check needs at least two strictly "
                         f"increasing degrees, got {list(degrees)}")
    _check_degrees(family, degrees)
    sums_p, sums_2, sums_sq = [], [], []
    quad_p, quad_2 = [], []
    bound_ok = True
    common = BoundaryGrid(2 ** 15)
    for d in degrees:
        th = blaschke_truncation(family, d)
        th2 = square(th)
        bl_p, at_p = cohn_terms(th, 0.0, p)
        bl_2, at_2 = cohn_terms(th, 0.0, 2.0)
        sums_p.append(float(bl_p.sum() + at_p.sum()))
        sums_2.append(float(bl_2.sum() + at_2.sum()))
        sums_sq.append(2.0 * sums_p[-1])  # zeros of Theta^2 are doubled
        (kp, _, _), (k2, _, _) = _lp_and_l2(th, 1.0, p, tol=QUADRATURE_TOL,
                                            max_n=CHECK_MAX_N, strict=False)
        quad_p.append(kp)
        quad_2.append(k2)
        # the pointwise bound |k^{Theta^2}| <= 2 |k^Theta| survives any common
        # quadrature exactly, so compare the two on one shared grid
        a = lp_norm(_kernel_samples(th, 1.0, common), p)
        b = lp_norm(_kernel_samples(th2, 1.0, common), p)
        bound_ok = bound_ok and not b > 2.0 * a * (1 + 1e-12)

    def verdict(seq):
        rel = [abs(b - a) / abs(b) for a, b in zip(seq, seq[1:])]
        if all(b > a and r >= GROW_TOL for a, b, r in zip(seq, seq[1:], rel)):
            return "diverging"
        if rel[-1] <= STABLE_TOL:
            return "stable"
        return "inconclusive"

    return {
        "degrees": degrees,
        "p": p,
        "cohn_p_sums": sums_p,
        "cohn_2_sums": sums_2,
        "symbol_p_sums": sums_sq,
        "kernel_p_quadrature": quad_p,
        "kernel_2_quadrature": quad_2,
        "p_verdict": verdict(sums_p),
        "two_verdict": verdict(sums_2),
        "square_comparison_ok": bound_ok,
    }


# ---------------------------------------------------------------------------
# RKT failure for fractional powers of a singular inner function

def rkt_failure_scan(theta: SingularAtomic, s: float, lams,
                     grid_n: int = 2 ** 13) -> dict:
    """Numerical study of A = A^Theta_{conj(Theta^s)} on sampled kernels.

    Per sample point: (i) the residual of the closed-form action
    A k_lam = conj(Theta(lam)^s) k_lam^{Theta^{1-s}} between the honest
    multiply-then-project grid computation and the direct right-hand side,
    on the grid and on its double (the defect of a uniform grid against a
    boundary essential singularity decays slowly; both values are
    reported); (ii) ||A h_lam||_2^2 from the grid against the closed form
    (y^s - y)/(1 - y), y = |Theta(lam)|^2; (iii) the exact inequality
    (y^s - y)/(1 - y) <= 1 - s at the sampled y; (iv) the isometry witness
    ratio ||A f||/||f|| for f = Theta^s k_lam^{Theta^{1-s}}.
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    if not isinstance(theta, SingularAtomic):
        raise ValueError("the scan needs an atomic singular inner function")
    th_s = power(theta, s)
    th_1ms = power(theta, 1.0 - s)
    rows = []
    for lam in np.asarray(lams, dtype=complex):
        y = abs(complex(theta.eval(complex(lam)))) ** 2
        tv_s = complex(th_s.eval(complex(lam)))
        closed = (y ** s - y) / (1.0 - y)
        ident = []
        for n in (grid_n, 2 * grid_n):
            g = BoundaryGrid(n)
            th = theta.boundary_samples(g)
            ths = th_s.boundary_samples(g)
            k_1ms = _kernel_samples(th_1ms, lam, g)  # k_lam^{Theta^{1-s}}
            k_lam = _kernel_samples(theta, lam, g)
            lhs = project_theta(th, CircleFunction(g, np.conj(ths) * k_lam)).samples
            rhs = np.conj(tv_s) * k_1ms
            ident.append(lp_norm(lhs - rhs, 2) / lp_norm(rhs, 2))
            if n == grid_n:
                norm_sq = (_kernel_scale(theta, lam) * lp_norm(lhs, 2)) ** 2
                f = ths * k_1ms
                af = project_theta(th, CircleFunction(g, np.conj(ths) * f)).samples
                iso = lp_norm(af, 2) / lp_norm(f, 2)
        rows.append({
            "lambda": complex(lam),
            "y": y,
            "closed_form": closed,
            "identity_err": ident[0],
            "identity_err_doubled": ident[1],
            "identity_order": math.log2(ident[0] / ident[1]) if ident[1] > 0 else float("inf"),
            "norm_sq_grid": norm_sq,
            "norm_sq_err": abs(norm_sq - closed),
            "sup_bound_ok": closed <= (1.0 - s) + 8 * np.finfo(float).eps,
            "isometry_ratio": iso,
        })
    return {
        "s": s,
        "grid": grid_n,
        "rows": rows,
        "max_closed_form": max(r["closed_form"] for r in rows),
        "sup_bound": 1.0 - s,
        "all_sup_ok": all(r["sup_bound_ok"] for r in rows),
    }
