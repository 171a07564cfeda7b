"""Recovering the (phi_plus, phi_minus) symbol pair from kernel actions.

A truncated Toeplitz operator is determined by its action on reproducing
kernels.  The resolvent route reads phi_minus off differences of shifted
conjugated kernel actions and phi_plus through the conjugation; the k_0
route solves one complex N x N system fed by the actions on the kernel and
difference quotient at the origin.  Both normalize the pair by a vanishing
condition on phi_minus.
"""

from __future__ import annotations

import numpy as np

from .circle import CircleFunction
from .errors import DegenerateMu, InconsistentOracle, UnsupportedVariant
from .inner import EDGE, _kernel_point
from .modelspace import ModelFunction, ModelSpace, _kernel_samples
from .operators import (DEFAULT_RADII, BoundarySymbol, PairSymbol, SampleSet,
                        TTOperator, _polar_grid, _spend_gauge, build, rho_r)


class KernelActionOracle:
    """Access to the kernel actions lambda -> A k_lambda (and optionally
    A k~_0) of an unknown A, in Takenaka-Malmquist (TM) coefficients: the
    action maps a 1-D array of L points to the (L, N) array whose row i
    holds the coefficients of A k_{lams[i]}."""

    def __init__(self, space: ModelSpace, action, dq0_action=None, sample_points=None):
        self.space = space
        self._action = action
        self._dq0 = dq0_action
        self.sample_points = sample_points

    @classmethod
    def from_operator(cls, op: TTOperator) -> "KernelActionOracle":
        """Row i is M k_{lams[i]}: k_lam has the coefficients conj(e(lam)), so
        the rows are conj(E) M^T with E = ``_tm_eval(lams)``."""
        space = op.space
        return cls(space, lambda lams: np.conj(space._tm_eval(lams)) @ op.matrix.T,
                   dq0_action=op.apply(space.difference_quotient(0.0)).coeffs)

    @classmethod
    def from_table(cls, space: ModelSpace, rows) -> "KernelActionOracle":
        """rows: iterable of (lambda, coefficient vector) pairs (exact mode), all finite."""
        table = {}
        for lam, c in rows:  # a lambda given twice must repeat its coefficients
            if not np.array_equal(table.setdefault(complex(lam), c), c, equal_nan=True):
                raise ValueError(f"the kernel-action table gives two rows at lambda {complex(lam)}")
        points = np.array(sorted(table, key=lambda z: (z.real, z.imag)), dtype=complex)
        stack = np.array([table[z] for z in points.tolist()], dtype=complex)
        if not np.all(np.isfinite(stack)):
            raise ValueError("kernel-action table coefficients must be finite")

        def act(lams):
            hit = lams[:, None] == points[None, :]
            missing = ~hit.any(axis=1)
            if missing.any():
                raise KeyError(f"kernel action at {complex(lams[missing][0])} not in table")
            return stack[hit.argmax(axis=1)]

        return cls(space, act, sample_points=points)

    def act(self, lams):
        """The (L, N) coefficient rows of A k_lambda at the L points ``lams``."""
        self.space.require_basis("kernel-action rows")
        return self._action(np.asarray(lams, dtype=complex).ravel())

    @property
    def dq0_action(self):
        """The coefficients of A k~_0."""
        if self._dq0 is None:
            raise UnsupportedVariant("oracle does not provide the k~_0 action")
        return self._dq0


class RecoveredSymbol:
    """Result of a recovery: the pair, its gauge point, and diagnostics.

    ``operator`` is the operator rebuilt from the pair, against which the
    oracle was checked (``residual``).  ``rho_ratio`` is measured on
    demand: each read runs one rho_r scan over ``SampleSet.default``.
    """

    __slots__ = ("phi_plus", "phi_minus", "mu", "residual", "operator")

    def __init__(self, phi_plus, phi_minus, mu, residual, operator):
        self.phi_plus = phi_plus
        self.phi_minus = phi_minus
        self.mu = mu
        self.residual = residual
        self.operator = operator

    def pair(self) -> PairSymbol:
        return PairSymbol(self.phi_plus, self.phi_minus)

    @property
    def rho_ratio(self) -> float:
        """Measured constant of the norm bound max(||phi+-||_2) <= C rho_r."""
        rr = rho_r(self.operator, SampleSet.default(self.operator.space))
        if rr == 0.0:
            return 0.0
        return max(self.phi_plus.norm(), self.phi_minus.norm()) / rr


# ---------------------------------------------------------------------------
# elementary pieces

def _resolvent_kernel_action(space: ModelSpace, rows, lams):
    """(I - lam S*) omega(A k_lam) in K_Theta coefficients, one row per point
    of ``lams`` from the kernel-action rows: omega is c -> W conj(c) and
    S* the matrix ``sstar_matrix``, each applied to the rows at once."""
    w = np.conj(rows) @ space.omega_matrix.T
    return w - np.asarray(lams, dtype=complex)[:, None] * (w @ space.sstar_matrix.T)


def _minus_values(oracle: KernelActionOracle, mu, theta_mu, psi_base, lams):
    """phi_minus(lam) at each lam, for the pair normalized by phi_minus(mu) = 0.

    phi_minus(lam) = <(z - mu) x, k_mu> / denom with x = (I - mu S*)^{-1} F_lam
    and F_lam = (I - lam S*) omega(A k_lam) - psi_base.  The inner product is
    k_mu^H (S_Theta - mu I) x in K_Theta coefficients, so one row vector (one
    solve with (I - mu S*)^T) applied to the rows F_lam (``psi_base`` is the
    row of mu) gives every value.
    """
    space = oracle.space
    theta0 = complex(space.theta.eval(0.0))
    denom = theta_mu * (np.conj(theta0) * theta_mu - 1.0)
    I = np.eye(space.dim)
    row = np.linalg.solve((I - mu * space.sstar_matrix).T, np.conj(space.kernel(mu).coeffs)
                          @ (space.shift_matrix - mu * I)) / denom
    F = _resolvent_kernel_action(space, oracle.act(lams), lams)
    return (F - psi_base) @ row


MU_TOL = 1e-8  # least |Theta(mu)| at the gauge point mu of recover (default_mu's target)


def _best_mu(space: ModelSpace, pts):
    """The maximizer of |Theta(mu)| dist(mu, zeros) over ``pts``, and whether it clears MU_TOL."""
    mod = np.abs(space.theta.eval(pts))
    i = int(np.argmax(mod * np.min(np.abs(pts[:, None] - space.zeros[None, :]), axis=1)))
    return complex(pts[i]), mod[i] >= MU_TOL


def default_mu(space: ModelSpace, cand=None) -> complex:
    """``_best_mu`` over ``cand``, by default over a coarse grid of |mu| <= 0.75;
    where its point has |Theta(mu)| < MU_TOL (a product of high degree is tiny
    there), over the first ring 1 - 2^-k of 16 angles, k = 3 .. DEFAULT_RADII
    outward, whose point clears it."""
    if cand is not None:
        return _best_mu(space, cand)[0]
    mu, clears = _best_mu(space, np.unique(_polar_grid([0.0, 0.15, 0.3, 0.45, 0.6, 0.75], 16)))
    rings = (_best_mu(space, _polar_grid([1.0 - 0.5 ** k], 16))
             for k in range(3, DEFAULT_RADII + 1))
    return mu if clears else next((m for m, ok in rings if ok), mu)


def _lambda_grid(space: ModelSpace, factor: int = 4):
    """factor*N interior points: dyadic rings moved to the zeros of Theta.

    Point j of ring k, r_k e^{2 pi i (j + k/factor)/N} with r_k = 1 - 2^-(k+1),
    is moved next to the zero a_j by z -> (a_j + z)/(1 + conj(a_j) z).  On
    K_{z^N} this is the ring grid itself; near a cluster of zeros it samples
    at the cluster's hyperbolic scale, where fixed rings leave the fit to the
    basis ill-conditioned (cond ~1e11 for 12 zeros within 0.05 of a point).
    """
    N = space.dim
    a = space.zeros
    pts = []
    for k, r in enumerate(1.0 - 0.5 ** np.arange(1, factor + 1)):
        z = r * np.exp(2j * np.pi * (np.arange(N) + k / float(factor)) / N)
        pts.append((a + z) / (1.0 + np.conj(a) * z))
    return np.concatenate(pts)


# ---------------------------------------------------------------------------
# recovery routes

RESIDUAL_TOL = 1e-6  # worst relative kernel-action residual a recovered pair may leave


def recover(oracle: KernelActionOracle, mu: complex | None = None,
            grid_factor: int = 4) -> RecoveredSymbol:
    """Recover the pair with phi_minus(mu) = 0 from kernel actions alone
    (mu by default: ``default_mu`` over the oracle's sample points, if any).

    phi_minus is evaluated pointwise on a lambda grid of grid_factor*N
    spread points (or the oracle's own sample points), least-squares fitted
    to the basis, and phi_plus is then produced through the conjugation.
    Every value is computed in K_Theta coefficients from the kernel actions
    and the compressed shift S_Theta (see ``_minus_values``); no grid
    quadrature is involved.  The rebuild residual against the
    oracle is reported; an oracle inconsistent with every truncated
    Toeplitz operator is rejected.
    """
    space = oracle.space
    _check_table(oracle)
    if mu is None:
        mu = default_mu(space, oracle.sample_points)
    theta_mu = complex(space.theta.eval(mu))
    if abs(theta_mu) < MU_TOL:
        raise DegenerateMu(f"|Theta(mu)| = {abs(theta_mu):.2e} at mu = {mu}")
    psi_base = _resolvent_kernel_action(space, oracle.act([mu]), [mu])[0]
    lams = oracle.sample_points if oracle.sample_points is not None \
        else _lambda_grid(space, grid_factor)
    vals = _minus_values(oracle, mu, theta_mu, psi_base, lams)
    E = space._tm_eval(lams)
    minus_coeffs, *_ = np.linalg.lstsq(E, vals, rcond=None)
    psi_plus = psi_base + theta_mu * (space.sstar_matrix @ minus_coeffs)
    plus_coeffs = space.omega_matrix @ np.conj(psi_plus)
    return _certify(oracle, ModelFunction(space, plus_coeffs),
                    ModelFunction(space, minus_coeffs), mu)


def recover_via_k0(oracle: KernelActionOracle) -> RecoveredSymbol:
    """Recovery from the actions on k_0 and k~_0 alone.

    The two kernel-action identities at the origin read, for the pair
    normalized by phi_minus(0) = 0,

        A k_0        = phi_plus - conj(Theta(0)) z omega(phi_minus),
        omega(A k~_0) = phi_minus + conj(phi_plus(0)) 1
                        - conj(Theta(0)) z omega(phi_plus),

    in coefficients c+ - G conj(c-) = a and H conj(c+) + c- = b, with
    G = conj(Theta(0)) S_Theta W and H = k_0 k_0^T - G.  Two antilinear maps
    compose to a linear one, so c+ = a + G conj(c-) leaves one complex N x N
    system, (I + H conj(G)) c- = b - H conj(a).  It is uniquely solvable:
    with t = |Theta(0)|, ||G|| <= t and ||k_0||^2 = 1 - t^2 give
    ||H conj(G)|| <= t (1 + t - t^2) < 1.  For Theta(0) = 0, phi_plus = A k_0.
    """
    space = oracle.space
    _check_table(oracle)
    a = oracle.act([0.0])[0]
    b = space.omega_matrix @ np.conj(oracle.dq0_action)
    k0 = space.kernel(0.0).coeffs
    G = np.conj(complex(space.theta.eval(0.0))) * (space.shift_matrix @ space.omega_matrix)
    H = np.outer(k0, k0) - G
    c_minus = np.linalg.solve(np.eye(space.dim) + H @ np.conj(G), b - H @ np.conj(a))
    c_plus = a + G @ np.conj(c_minus)
    phi_plus, phi_minus = _spend_gauge(space, ModelFunction(space, c_plus),
                                       ModelFunction(space, c_minus), 0.0)
    return _certify(oracle, phi_plus, phi_minus, 0.0)


def _check_table(oracle: KernelActionOracle) -> None:
    """Raise UnsupportedVariant on a space without a basis, and ValueError
    unless the oracle's own sample points, if any, determine a pair: at
    least N = dim distinct points of the closed disk (``_point``'s rule)
    whose kernels span K_Theta.  With fewer, the fit and the certification
    read only those points, and any pair matching them there passes."""
    space = oracle.space
    space.require_basis("recovery")
    if oracle.sample_points is None:
        return
    pts = np.unique(np.asarray(oracle.sample_points, dtype=complex))
    if not np.all(np.abs(pts) <= 1.0 + EDGE):  # False for NaN too
        raise ValueError("kernel-action table points must satisfy |lambda| <= 1")
    if pts.size < space.dim:
        raise ValueError(f"the kernel-action table has {pts.size} distinct lambda, "
                         f"fewer than dim K_Theta = {space.dim}")
    rank = int(np.linalg.matrix_rank(space._tm_eval(pts)))
    if rank < space.dim:
        raise ValueError(f"the kernels at the table's {pts.size} distinct lambda "
                         f"span {rank} of dim K_Theta = {space.dim}")


def _certify(oracle: KernelActionOracle, phi_plus, phi_minus, mu) -> RecoveredSymbol:
    """Rebuild the operator from the pair and check it against the oracle.

    Raises InconsistentOracle unless the worst relative difference of the kernel
    actions at the probe points is at most RESIDUAL_TOL (NaN is not): row i of
    ``kernels`` holds k at probe i, so row i of ``kernels @ M^T`` is M k.
    """
    space = oracle.space
    rebuilt = build(space, PairSymbol(phi_plus, phi_minus))
    probes = (oracle.sample_points[:8] if oracle.sample_points is not None
              else np.array([0.0, 0.31, -0.52 + 0.2j, 0.11 - 0.6j, 0.77j]))
    kernels = np.conj(space._tm_eval(probes))
    diff = oracle.act(probes) - kernels @ rebuilt.matrix.T
    resid = float(np.max(np.linalg.norm(diff, axis=1)
                         / np.maximum(np.linalg.norm(kernels, axis=1), 1.0)))
    if not resid <= RESIDUAL_TOL:
        raise InconsistentOracle(f"rebuild residual {resid:.2e} not within {RESIDUAL_TOL:.0e}")
    return RecoveredSymbol(phi_plus, phi_minus, mu, resid, rebuilt)


# ---------------------------------------------------------------------------
# rank-one symbols

def rank_one_symbol(space: ModelSpace, pt) -> BoundarySymbol:
    """The explicit symbol Theta conj(z k_pt^{Theta^2}) of k~_pt (x) k_pt (``_kernel_point``)."""
    w, sq = _kernel_point(space.theta, pt)
    th = space.theta_samples
    # k^{Theta^2} = (1 + conj(Theta(pt)) Theta) k^Theta, from Theta's cached samples
    k = _kernel_samples(space.theta, w, space.grid, sq=sq)
    k2 = (1.0 + np.conj(space.theta.eval(w)) * th) * k
    phi = th * np.conj(space.grid.points * k2)
    return BoundarySymbol(CircleFunction(space.grid, phi))
