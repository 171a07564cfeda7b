"""Kernel-growth scans and the negative-result families.

Everything here studies finite truncations of infinite objects, so every
report carries its truncation degree, growth verdicts are based on exact
Ahern-Clark signatures across truncation degrees, and the shipped default
families certify their summability/divergence through explicit termwise
bounds rather than fitted curves.  Kernel L^p norms of Blaschke data are
integrated on graded Gauss-Legendre nodes (``KernelRule``) and checked
against exact p = 2 values; only singular factors and p = inf still use
uniform grids.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

import numpy as np

from .circle import BoundaryGrid, DEFAULT_GRID, cauchy_refine, lp_norm
from .errors import NoConvergence, UnsupportedVariant
from .inner import (Atom, BlaschkeProduct, BlaschkeZero, InnerFunction, SingularAtomic,
                    _MATCH_TOL, _boundary_dist2, _kernel_point, _point, cohn_sum,
                    cohn_terms, kernel_scale, one_minus_mod_sq, phase_increment, power)
from .modelspace import PROJECT_BLOCK, _kernel_samples, project_theta

RADIAL_OFFSET = 1.0 - 2.0 ** -12  # boundary kernels of singular Theta are
                                  # sampled at this radius (atoms have no
                                  # boundary values)
RKT_GRID = 2 ** 13  # default grid of rkt_failure_scan (and of the rkt-scan command)
MAX_NODES = 2 ** 17  # default budget of a kernel norm: graded nodes or uniform grid points
KERNEL_TOL = 1e-6  # default largest residual of kernel_lp; growth_ratio's for both norms


# ---------------------------------------------------------------------------
# kernel norms on graded nodes

GL_ORDER = 12  # Gauss-Legendre nodes per panel of KernelRule
CHECK_ORDER = 16  # nodes per panel of the second rule that gives p != 2 norms their residual
GRADE = 4.0  # width ratio of consecutive panels graded toward a singularity
LEVEL_DEPTH = 2  # grading levels toward a point where |k_lam|^p is not analytic


@functools.lru_cache(maxsize=None)
def _gauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _graded_panels(centre, scale, lo, hi):
    """Panels of [lo, hi] around a centre inside it (one interval per row),
    split at the centre and at centre -+ (scale/4) GRADE^j.
    Returns (row, lo, hi) of every panel."""
    left, right = centre - lo, hi - centre
    levels = np.maximum(np.log(4.0 * np.maximum(left, right) / scale) / math.log(GRADE), 0)
    steps = 0.25 * scale[:, None] * GRADE ** np.arange(int(np.ceil(levels.max())) + 1)
    below = np.where(steps < left[:, None], centre[:, None] - steps, np.nan)[:, ::-1]
    above = np.where(steps < right[:, None], centre[:, None] + steps, np.nan)
    points = np.column_stack([lo, below, centre, above, hi])
    keep = ~np.isnan(points)
    row = np.broadcast_to(np.arange(len(centre))[:, None], points.shape)[keep]
    points = points[keep]
    inside = row[:-1] == row[1:]
    return row[:-1][inside], points[:-1][inside], points[1:][inside]


def _interior_phase(theta: InnerFunction, lam: complex) -> float:
    """arg Theta(lam) - arg Theta(e^{i arg lam}) from the zeros, summed per zero.

    With a = (1 - delta) e^{i angle}, E = e^{i(arg lam - angle)}, V = 1 - E
    and W = 1 - |lam| E, b_a(lam)/b_a(e^{i arg lam}) is
    (delta - W)(V + delta E) / ((W + delta |lam| E)(delta - V)): no factor
    rounds 1 - |a| away.
    """
    _, delta, angle, mult = theta._zero_data
    r = abs(lam)
    v = cmath.phase(lam) - angle
    E = np.exp(1j * v)
    V = -2j * np.sin(0.5 * v) * np.exp(0.5j * v)
    W = (1.0 - r) + r * V
    return float(np.angle((delta - W) * (V + delta * E)
                          / ((W + delta * r * E) * (delta - V))) @ mult)


class KernelRule:
    """Graded Gauss-Legendre panels for ||k_lam||_p, Theta without singular part.

    At e^{it}, |k_lam|^2 = ((1-rho)^2 + 4 rho sin^2((Delta - beta)/2))
    / ((1-|lam|)^2 + 4|lam| sin^2(w/2)), with rho = |Theta(lam)|, Delta the
    phase increment of Theta from arg lam (``inner.phase_increment``),
    beta = arg Theta(lam) - arg Theta(e^{i arg lam}) and w = t - arg lam;
    for lam on the circle (rho = |lam| = 1, beta = 0) this is
    sin^2(Delta/2)/sin^2(w/2).  No sample of Theta is formed.

    Panels are intervals of offsets from an anchor angle, t = anchor +
    offset, so a node next to a zero 1e-30 from the circle keeps its
    distance to it.  Every zero (scale 1 - |a|) and lam (scale 1 - |lam|
    inside, its distance to the nearest zero on the circle) is a centre
    owning the arc halfway to its neighbours, graded from scale/4 by
    factors GRADE; a panel over which the phase grows by more than pi is
    split evenly.  For p != 2, |k_lam|^p is not analytic where Delta - beta
    is a multiple of 2 pi (k_zeta vanishes there, with a kink; inside the
    disk |k_lam| is near its minimum), so each such point is a breakpoint,
    graded toward from LEVEL_DEPTH levels below its panel's width.  ``point``
    is (lam, ||k_lam||_2^2 or None) as ``inner._kernel_point`` read it.
    """

    def __init__(self, theta: InnerFunction, point, p: float):
        lam, self.boundary_sq = point
        if theta.has_singular_part():
            raise UnsupportedVariant("graded kernel nodes need Theta without singular part")
        self.theta, self.lam = theta, lam
        self.tau = cmath.phase(lam)
        _, delta, angle, _ = theta._zero_data
        if self.boundary_sq is not None:
            self.radius, self.q, self.beta = 1.0, 0.0, 0.0
            scale = math.sqrt(np.min(_boundary_dist2(delta, angle, self.tau)))
        else:
            self.radius = abs(lam)
            self.q = one_minus_mod_sq(theta, lam)  # 1 - rho^2
            self.beta = _interior_phase(theta, lam)
            scale = 1.0 - self.radius
        centres, where = np.unique(np.append(angle, self.tau % (2.0 * math.pi)),
                                   return_inverse=True)
        scales = np.full(len(centres), np.inf)
        np.minimum.at(scales, where, np.append(delta, scale))
        right = 0.5 * np.diff(centres, append=centres[0] + 2.0 * math.pi)
        left = np.roll(right, 1)
        row, self.lo, self.hi = _graded_panels(np.zeros_like(scales), scales, -left, right)
        self.anchor = centres[row]
        ends = self._split_by_phase()
        if p != 2:
            self._split_at_levels(*ends)

    @property
    def n(self) -> int:
        """Nodes of the rule at GL_ORDER."""
        return self.lo.size * GL_ORDER

    def _phase_at_ends(self):
        m = self.lo.size
        d, _ = phase_increment(self.theta, self.tau, np.concatenate([self.anchor] * 2),
                               np.concatenate([self.lo, self.hi]))
        return d[:m], d[m:]

    def _split_by_phase(self):
        """Split panels evenly until the phase grows by at most pi over each;
        returns the phase at the final panel ends."""
        while True:
            d_lo, d_hi = self._phase_at_ends()
            pieces = np.maximum(np.ceil((d_hi - d_lo) / math.pi), 1).astype(int)
            if (pieces == 1).all():
                return d_lo, d_hi
            i = np.repeat(np.arange(pieces.size), pieces)
            k = np.arange(i.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
            width = (self.hi - self.lo)[i] / pieces[i]
            lo = self.lo[i] + k * width
            self.hi = np.where(k == pieces[i] - 1, self.hi[i], lo + width)
            self.lo, self.anchor = lo, self.anchor[i]

    def _split_at_levels(self, d_lo, d_hi):
        """Split and grade each panel at the point where Delta - beta crosses
        a multiple of 2 pi (at most one per panel, as it grows by <= pi)."""
        level = 2.0 * math.pi * np.floor((d_hi - self.beta) / (2.0 * math.pi)) + self.beta
        hit = np.flatnonzero((d_lo < level) & (level < d_hi))
        if not hit.size:  # k_zeta of a single zero has no zero on the circle
            return
        a, b, anchor, target = self.lo[hit], self.hi[hit], self.anchor[hit], level[hit]
        rows = np.arange(hit.size)
        fractions = np.arange(1, 16) / 16.0
        for _ in range(13):  # 16-section: the bracket shrinks by 2^-52
            x = a[:, None] + (b - a)[:, None] * fractions
            d, _ = phase_increment(self.theta, self.tau, np.repeat(anchor, 15), x.ravel())
            below = (d.reshape(x.shape) < target[:, None]).sum(axis=1)
            a = np.where(below > 0, x[rows, np.maximum(below - 1, 0)], a)
            b = np.where(below < 15, x[rows, np.minimum(below, 14)], b)
        star = 0.5 * (a + b)
        lo, hi = self.lo[hit], self.hi[hit]
        row, lo, hi = _graded_panels(star, (hi - lo) * GRADE ** -LEVEL_DEPTH, lo, hi)
        keep = np.ones(self.lo.size, dtype=bool)
        keep[hit] = False
        self.anchor = np.concatenate([self.anchor[keep], anchor[row]])
        self.lo = np.concatenate([self.lo[keep], lo])
        self.hi = np.concatenate([self.hi[keep], hi])

    def nodes(self, order: int = GL_ORDER):
        """(anchors, offsets, weights) of the rule: nodes t = anchor + offset,
        and sum(weights * f) approximates the integral of f over the circle."""
        x, w = _gauss(order)
        half = 0.5 * (self.hi - self.lo)[:, None]
        offsets = (0.5 * (self.hi + self.lo)[:, None] + half * x).ravel()
        return np.repeat(self.anchor, order), offsets, (half * w).ravel()

    def kernel_sq(self, order: int = GL_ORDER):
        """(weights, |k_lam|^2, |k_lam^{Theta^2}|^2) at the nodes."""
        anchors, offsets, weights = self.nodes(order)
        delta, w = phase_increment(self.theta, self.tau, anchors, offsets)
        r, q = self.radius, self.q
        rho = math.sqrt(1.0 - q)
        den = (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * w) ** 2
        half = 0.5 * (delta - self.beta)
        one = ((q / (1.0 + rho)) ** 2 + 4.0 * rho * np.sin(half) ** 2) / den
        two = (q * q + 4.0 * (1.0 - q) * np.sin(2.0 * half) ** 2) / den  # rho^2 = 1 - q
        return weights, one, two

    def exact_sq(self) -> float:
        """||k_lam||_2^2 in closed form: the kernel scale to the power -2
        inside (``inner.kernel_scale``), the certified Ahern-Clark sum
        |Theta'(zeta)| on the circle (``inner._kernel_point``)."""
        return kernel_scale(self.theta, self.lam) ** -2 if self.radius < 1.0 else self.boundary_sq


def _rule_norm(weights, k_sq, p: float) -> float:  # finite p
    return float((weights @ k_sq ** (0.5 * p) / (2.0 * math.pi)) ** (1.0 / p))


def graded_norms(theta: InnerFunction, lam, p: float, max_n: int = MAX_NODES):
    """||k_lam||_p and ||k_lam||_2, each (value, residual, nodes), and
    ||k_lam^{Theta^2}||_p, all on one KernelRule.

    The p = 2 residual is the relative distance of the quadrature value
    to the exact norm (``KernelRule.exact_sq``); for p != 2 it is the
    relative distance to the same panels at CHECK_ORDER.  A rule of more
    than ``max_n`` nodes is not evaluated (values NaN, residuals inf).
    ValueError unless 1 <= p < inf (``kernel_lp`` takes p = inf on uniform
    grids); NoAngularDerivative as in ``inner._kernel_point``.
    """
    if not 1 <= p < math.inf:  # False for NaN too
        raise ValueError(f"graded kernel norms need a finite p >= 1, got {p}")
    return _graded_norms(theta, _kernel_point(theta, lam), p, max_n)


def _graded_norms(theta: InnerFunction, point, p: float, max_n: int):
    """``graded_norms`` at a point ``inner._kernel_point`` read, for a finite p >= 1."""
    rule = KernelRule(theta, point, p)
    n = rule.n
    if n > max_n:
        return (math.nan, math.inf, n), (math.nan, math.inf, n), math.nan
    exact = rule.exact_sq()
    weights, one, two = rule.kernel_sq()
    norm_2 = _rule_norm(weights, one, 2.0)
    res_2 = abs(norm_2 / math.sqrt(exact) - 1.0)
    if p == 2:
        return (norm_2, res_2, n), (norm_2, res_2, n), _rule_norm(weights, two, 2.0)
    norm_p = _rule_norm(weights, one, p)
    weights_c, one_c, _ = rule.kernel_sq(CHECK_ORDER)
    res_p = abs(norm_p / _rule_norm(weights_c, one_c, p) - 1.0)
    return (norm_p, res_p, n), (norm_2, res_2, n), _rule_norm(weights, two, p)


def _require(resid, tol, p, max_n):
    if not resid <= tol:  # a NaN residual is not convergence
        raise NoConvergence(f"kernel L^{p} quadrature residual {resid:.3g} not within "
                            f"{tol} at a budget of {max_n} nodes or grid points")


def _check_inputs(p, tol, max_n):
    if not (p >= 1 and tol >= 0 and max_n >= 1):  # malformed input (NaN too), not unconverged
        raise ValueError(f"need p >= 1, tol >= 0 and max_n >= 1, got {p}, {tol}, {max_n}")


def _uniform_lp(theta: InnerFunction, point, p: float, tol: float, max_n: int):
    """||k_w||_p, as (value, residual, n), by uniform quadrature with grid
    doubling from DEFAULT_GRID to at most max_n points (n the last grid,
    residual the last Cauchy change), singular factors sampled at a fixed
    radial offset.  ``point`` is (w, ||k_w||_2^2 or None) as
    ``inner._kernel_point`` read it: the point is not read again."""
    w, sq = point
    radius = RADIAL_OFFSET if theta.has_singular_part() else 1.0
    sups = {}  # p = inf: the sup on each grid; grid 2m's even nodes are grid m's

    def compute(m):
        if p < np.inf:  # a mean over 2m nodes does not reuse the sum over m bit for bit
            return lp_norm(_kernel_samples(theta, w, BoundaryGrid(m), radius, sq), p)
        odd = slice(1, None, 2) if m // 2 in sups else slice(None)
        sup = lp_norm(_kernel_samples(theta, w, BoundaryGrid(m), radius, sq, odd), p)
        sups[m] = float(np.maximum(sups.get(m // 2, sup), sup))  # NaN-propagating
        return sups[m]

    return cauchy_refine(compute, DEFAULT_GRID, tol, max_n)


def _kernel_norm(theta: InnerFunction, point, p: float, tol: float, max_n: int):
    """||k_w||_p, ||k_w||_2 and ||k_w^{Theta^2}||_p at a point
    ``inner._kernel_point`` read: the one choice between ``_graded_norms``
    (Theta without singular part, finite p: all three on one rule) and
    ``_uniform_lp`` (the p-norm alone; then None and NaN for the others)."""
    if p == np.inf or theta.has_singular_part():
        return _uniform_lp(theta, point, p, tol, max_n), None, math.nan
    return _graded_norms(theta, point, p, max_n)


def kernel_lp(theta: InnerFunction, lam: complex, p: float, *,
              tol: float = KERNEL_TOL, max_n: int = MAX_NODES, strict: bool = True):
    """||k_lam||_p, as (value, residual, n).

    For Theta without singular part and finite p the value comes from
    graded nodes (``KernelRule``; n nodes, at most max_n), otherwise from
    uniform grids (``_uniform_lp``), as ``_kernel_norm`` chooses.  When
    strict, raises NoConvergence unless the residual is at most tol;
    otherwise the value is returned with its residual, which scan reports
    carry per row.  ValueError unless p >= 1 (inf included), tol >= 0 and
    max_n >= 1; NoAngularDerivative at a boundary point without a
    certificate (``inner._kernel_point``).
    """
    _check_inputs(p, tol, max_n)
    value, resid, n = _kernel_norm(theta, _kernel_point(theta, lam), p, tol, max_n)[0]
    if strict:
        _require(resid, tol, p, max_n)
    return value, resid, n


def _norm_pair(theta: InnerFunction, lam, p: float, tol: float, max_n: int):
    """||k_lam||_p and ||k_lam||_2, each (value, residual, n), and
    ||k_lam^{Theta^2}||_p, from one read of lam: one graded rule when
    ``_kernel_norm`` grades p, else ||k_lam||_2 as it takes p = 2, and NaN.
    ValueError as in ``kernel_lp``; NoConvergence unless both residuals are
    at most tol, the p-norm's checked before the 2-norm is taken."""
    _check_inputs(p, tol, max_n)
    point = _kernel_point(theta, lam)
    norm_p, norm_2, square = _kernel_norm(theta, point, p, tol, max_n)
    _require(norm_p[1], tol, p, max_n)
    if norm_2 is None:
        norm_2 = _kernel_norm(theta, point, 2.0, tol, max_n)[0]
    _require(norm_2[1], tol, 2.0, max_n)
    return norm_p, norm_2, square


def growth_ratio(theta: InnerFunction, lam: complex, p: float, max_n: int = MAX_NODES) -> float:
    """||k_lam||_p / ||k_lam||_2^2 (both within KERNEL_TOL), the quantity
    whose boundedness a bounded-symbol theorem forces for every p > 2."""
    if not 2 < p:
        raise ValueError("p must exceed 2")
    (num, _, _), (den, _, _), _ = _norm_pair(theta, lam, p, KERNEL_TOL, max_n)
    return num / den ** 2


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
    bounded with no bounded symbol.  ValueError unless 4 <= count <= 358.
    """
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and exceed 2")
    most = int(-math.log2(math.ulp(0.0))) // 3  # 1 - |a_count| = 8^-count stays positive
    if not 4 <= count <= most:
        raise ValueError(f"the Blaschke family takes 4 <= count <= {most}, got {count}")
    ks = np.arange(1, count + 1)
    zeros = [BlaschkeZero(8.0 ** -k, 2.0 ** -k) for k in ks]
    theta = BlaschkeProduct(zeros, truncated=True)
    bl2, _ = cohn_terms(theta, 1.0, 2.0)
    blp, _ = cohn_terms(theta, 1.0, p)
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
        _, delta, angle, _ = theta._zero_data
        df3 = (8.0 ** -ks) ** (1.0 - 1.0 / p) / np.sqrt(_boundary_dist2(delta, angle, 0.0))
        certs.append(Certificate("df3_decay", float(df3[-1] / df3[0]), 1.0,
                                 bool(np.all(np.diff(df3) < 0))))
        data["df3"] = df3
    return CounterexampleFamily("blaschke_tangential", theta, p, certs, data)


def gen_singular_counterexample(p: float = 3.0, count: int = 20) -> CounterexampleFamily:
    """Atoms of mass 8^{-k} at angles 2^{-k}: the singular twin of the
    Blaschke family, with masses playing the role of 1 - |a_k|^2.
    ValueError unless 1 <= count <= 39."""
    if not 2 < p < math.inf:
        raise ValueError("p must be finite and exceed 2")
    most = int(-math.log2(_MATCH_TOL))  # the atom at 2^-count keeps apart from the point 1
    if not 1 <= count <= most:
        raise ValueError(f"the singular family takes 1 <= count <= {most}, got {count}")
    ks = np.arange(1, count + 1)
    atoms = [Atom(2.0 ** -k, 8.0 ** -k) for k in ks]
    theta = SingularAtomic(atoms, truncated=True)
    _, at2 = cohn_terms(theta, 1.0, 2.0)
    _, atp = cohn_terms(theta, 1.0, p)
    total = float(sum(a.mass for a in atoms))
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
    if not isinstance(family.theta, BlaschkeProduct):
        raise ValueError(f"theorem check needs a Blaschke family ({family.kind}: {count} zeros)")
    bad = [d for d in degrees if not 1 <= d <= count]
    if bad:
        raise ValueError(f"truncation degrees {bad} are not in 1..{count} "
                         f"(the {family.kind} family has {count} zeros)")


# ---------------------------------------------------------------------------
# scans

ScanReport = namedtuple("ScanReport", "rows max_ratio")  # max_ratio: the rows' largest ratio
CLS_TOL = 1e-8  # default residual bound of cls_ratio_scan (and of the cls-scan command)
QUADRATURE_TOL = 1e-10  # largest residual a quadrature column of growth_scan or
                        # counterex_theorem_check may carry; beyond it they raise


def cls_ratio_scan(theta: InnerFunction, points, tol: float = CLS_TOL,
                   max_n: int = MAX_NODES) -> ScanReport:
    """Rows (lambda, ||k||_inf, ||k||_2^2, ratio); the connected-level-set
    test: the supremum of the ratio is finite iff Theta is one-component.

    ||k_lam||_2^2 is a closed form: inside the disk the kernel scale to the
    power -2, one ``inner.kernel_scale`` call for all interior points; on
    the circle the Ahern-Clark sum |Theta'(zeta)|, NoAngularDerivative,
    before any row, unless its certificate says yes (``inner._kernel_point``).
    Only the sup is refined, as ``kernel_lp`` refines it, from the point
    read here (``_uniform_lp`` at tol and max_n; ValueError for tol < 0 or
    max_n < 1 after the point errors, with no points too; NoConvergence
    beyond tol).
    """
    lams = [complex(lam) for lam in np.asarray(points, dtype=complex)]
    pts = [_kernel_point(theta, lam) for lam in lams]
    inside = np.array([w for w, two_sq in pts if two_sq is None], dtype=complex)
    two_sq_inside = iter((kernel_scale(theta, inside) ** -2).tolist())
    _check_inputs(np.inf, tol, max_n)
    rows = []
    best = 0.0
    for lam, pt in zip(lams, pts):
        two_sq = next(two_sq_inside) if pt[1] is None else pt[1]
        sup, resid, _ = _uniform_lp(theta, pt, np.inf, tol, max_n)
        _require(resid, tol, np.inf, max_n)
        ratio = sup / two_sq
        best = max(best, ratio)
        rows.append((lam, sup, two_sq, ratio))
    return ScanReport(rows, best)


def growth_scan(family: CounterexampleFamily, degrees, radii, p: float) -> ScanReport:
    """Kernel growth along a joint (degree, radius) refinement diagonal.

    degrees and radii are zipped: each row refines both the truncation and
    the approach to the family's base point.  For finite p both kernel
    norms come from one graded rule (``graded_norms``): ``grid`` is its
    node count, ``residual_2`` the relative distance of ||k_r||_2 to the
    closed form and ``residual_p`` that of ||k_r||_p to the same panels at
    CHECK_ORDER (p = inf takes ``kernel_lp``'s uniform grids).  Raises
    NoConvergence when either residual exceeds QUADRATURE_TOL; ValueError,
    before any row, unless there are as many radii as degrees.
    """
    degrees, radii = list(degrees), list(radii)
    if len(degrees) != len(radii):
        raise ValueError(f"growth_scan needs one radius per degree, got {len(radii)} "
                         f"for {len(degrees)} degrees")
    rows = []
    best = 0.0
    for d, r in zip(degrees, radii):
        (num, res_p, n_used), (den, res_2, _), _ = _norm_pair(
            blaschke_truncation(family, d), r, p, QUADRATURE_TOL, MAX_NODES)
        ratio = num / den ** 2
        best = max(best, ratio)
        rows.append({"degree": d, "radius": float(r), "growth_ratio": ratio,
                     "kernel_p": num, "kernel_2_sq": den ** 2,
                     "residual_p": res_p, "residual_2": res_2, "grid": n_used})
    return ScanReport(rows, best)


GROW_TOL = 0.10  # least relative growth per degree step of a "diverging" signature
STABLE_TOL = 0.05  # largest relative move in the last step of a "stable" one


def counterex_theorem_check(family: CounterexampleFamily, p: float,
                            degrees=(8, 16, 32)) -> dict:
    """Certify, per truncation degree, that the boundary kernel stays in L^2
    while leaving L^p, together with the matching rank-one symbol growth.

    The L^p membership criterion is the Ahern-Clark sum, which the zero
    parametrization evaluates exactly; ||k_1||_2^2 equals the exponent-2
    sum exactly, and the rank-one symbol's norm equals ||k_1^{Theta^2}||_p
    whose sum doubles term by term.  Those exact signatures drive the
    verdicts.  The quadrature columns ||k_1||_p and ||k_1||_2 come from one
    graded rule per degree (``graded_norms``), with their residuals
    (``kernel_2`` against the Ahern-Clark sum, ``kernel_p`` against the
    same panels at CHECK_ORDER; NoConvergence beyond QUADRATURE_TOL).  On
    the same nodes ||k_1^{Theta^2}||_p <= 2 ||k_1||_p must hold, as the
    pointwise bound |k^{Theta^2}| <= 2 |k^Theta| does under any rule with
    positive weights.

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
    quad_p, quad_2, res_p, res_2 = [], [], [], []
    bound_ok = True
    for d in degrees:
        th = blaschke_truncation(family, d)
        sums_p.append(cohn_sum(th, 1.0, p, d))
        sums_2.append(cohn_sum(th, 1.0, 2.0, d))
        sums_sq.append(2.0 * sums_p[-1])  # zeros of Theta^2 are doubled
        (kp, rp, _), (k2, r2, _), kp_square = _norm_pair(th, 1.0, p, QUADRATURE_TOL,
                                                          MAX_NODES)
        quad_p.append(kp)
        quad_2.append(k2)
        res_p.append(rp)
        res_2.append(r2)
        bound_ok = bound_ok and not kp_square > 2.0 * kp * (1 + 1e-12)

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
        "kernel_p_residual": res_p,
        "kernel_2_residual": res_2,
        "p_verdict": verdict(sums_p),
        "two_verdict": verdict(sums_2),
        "square_comparison_ok": bound_ok,
    }


# ---------------------------------------------------------------------------
# RKT failure for fractional powers of a singular inner function

def rkt_failure_scan(theta: SingularAtomic, s: float, lams,
                     grid_n: int = RKT_GRID) -> dict:
    """Numerical study of A = A^Theta_{conj(Theta^s)} on sampled kernels.

    Per sample point: (i) the residual of the closed-form action
    A k_lam = conj(Theta(lam)^s) k_lam^{Theta^{1-s}} between the honest
    multiply-then-project grid computation and the direct right-hand side,
    on the grid and on its double (the defect of a uniform grid against a
    boundary essential singularity decays slowly; both values are
    reported); (ii) ||A h_lam||_2^2 from the grid against the closed form
    (y^s - y)/(1 - y), y = |Theta(lam)|^2; (iii) the exact inequality
    (y^s - y)/(1 - y) <= 1 - s at the sampled y; (iv) the isometry witness
    ratio ||A f||/||f|| for f = Theta^s k_lam^{Theta^{1-s}}.  The grid work
    runs on stacks of kernel rows, up to PROJECT_BLOCK grid samples at a time:
    one projection per stack for A k_lam and one for A f.  No lam, or a lam
    that ``_point`` puts on the circle, raises ValueError before any grid work.
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    if not isinstance(theta, SingularAtomic):
        raise ValueError("the scan needs an atomic singular inner function")
    lams = np.asarray(lams, dtype=complex).ravel()
    if not lams.size:
        raise ValueError("the scan needs at least one point, got none")
    edge = [lam for lam in lams.tolist() if _point(lam)[1]]
    if edge:
        raise ValueError(f"the scan needs points inside the disk, got {edge}")
    th_s = power(theta, s)
    th_1ms = power(theta, 1.0 - s)
    grids = (BoundaryGrid(grid_n), BoundaryGrid(2 * grid_n))  # both sizes checked first
    tv_s = th_s.eval(lams)
    ident = np.empty((2, lams.size))
    lhs_norm = np.empty(lams.size)
    iso = np.empty(lams.size)
    for i, g in enumerate(grids):
        th = theta.samples_at(g)
        ths = th_s.samples_at(g)
        ths_bar = np.conj(ths)
        step = max(1, PROJECT_BLOCK // g.n)
        for k in range(0, lams.size, step):
            block = slice(k, k + step)
            k_1ms = _kernel_samples(th_1ms, lams[block], g)  # k_lam^{Theta^{1-s}}
            kern = _kernel_samples(theta, lams[block], g)
            lhs = project_theta(th, np.multiply(ths_bar, kern, out=kern))
            if i == 0:  # the scan's own grid
                lhs_norm[block] = lp_norm(lhs, 2)
                f = ths * k_1ms
                iso[block] = lp_norm(project_theta(th, ths_bar * f), 2) / lp_norm(f, 2)
            rhs = np.multiply(np.conj(tv_s[block])[:, None], k_1ms, out=k_1ms)
            ident[i, block] = lp_norm(np.subtract(lhs, rhs, out=lhs), 2) / lp_norm(rhs, 2)
    rows = []
    for lam, err, err2, a_norm, scale, ratio in zip(
            lams.tolist(), *ident.tolist(), lhs_norm.tolist(),
            kernel_scale(theta, lams).tolist(), iso.tolist()):
        y = abs(complex(theta.eval(lam))) ** 2
        closed = (y ** s - y) / (1.0 - y)
        norm_sq = (scale * a_norm) ** 2
        rows.append({
            "lambda": lam,
            "y": y,
            "closed_form": closed,
            "identity_err": err,
            "identity_err_doubled": err2,
            "identity_order": math.log2(err / err2) if err2 > 0 else float("inf"),
            "norm_sq_grid": norm_sq,
            "norm_sq_err": abs(norm_sq - closed),
            "sup_bound_ok": closed <= (1.0 - s) + 8 * np.finfo(float).eps,
            "isometry_ratio": ratio,
        })
    return {
        "s": s,
        "grid": grid_n,
        "rows": rows,
        "max_closed_form": max(r["closed_form"] for r in rows),
        "sup_bound": 1.0 - s,
        "all_sup_ok": all(r["sup_bound_ok"] for r in rows),
    }
