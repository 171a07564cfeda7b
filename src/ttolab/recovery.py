"""Recovering the (phi_plus, phi_minus) symbol pair from kernel actions.

A truncated Toeplitz operator is determined by its action on reproducing
kernels.  Two constructive routes are implemented: the resolvent route,
which reads phi_minus off a family of differences of shifted conjugated
kernel actions and then reconstructs phi_plus through the conjugation,
and the k_0 route, which solves a 2x2 system fed by the actions on the
kernel and difference quotient at the origin.  Both produce a pair
normalized by a vanishing condition on phi_minus.
"""

from __future__ import annotations

import numpy as np

from .circle import CircleFunction
from .errors import DegenerateMu, InconsistentOracle, UnsupportedVariant
from .modelspace import ModelFunction, ModelSpace, _kernel_samples, _point
from .operators import (BoundarySymbol, PairSymbol, SampleSet, TTOperator,
                        _polar_grid, build, rho_r)


class KernelActionOracle:
    """Access to lambda -> A k_lambda (and optionally A k~_0) for an unknown A."""

    def __init__(self, space: ModelSpace, action, dq0_action: ModelFunction | None = None,
                 sample_points=None):
        self.space = space
        self._action = action
        self._dq0 = dq0_action
        self.sample_points = sample_points

    @classmethod
    def from_operator(cls, op: TTOperator) -> "KernelActionOracle":
        space = op.space
        return cls(space, lambda lam: op.apply(space.kernel(lam)),
                   dq0_action=op.apply(space.difference_quotient(0.0)))

    @classmethod
    def from_table(cls, space: ModelSpace, rows) -> "KernelActionOracle":
        """rows: iterable of (lambda, coefficient vector) pairs (exact mode)."""
        table = {complex(lam): space.from_coeffs(c) for lam, c in rows}

        def act(lam):
            key = complex(lam)
            if key not in table:
                raise KeyError(f"kernel action at {key} not in table")
            return table[key]

        return cls(space, act, sample_points=np.array(sorted(table, key=lambda z: (z.real, z.imag))))

    def act(self, lam) -> ModelFunction:
        return self._action(lam)

    @property
    def dq0_action(self) -> ModelFunction:
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

def _resolvent_kernel_action(space: ModelSpace, af: ModelFunction, lam) -> ModelFunction:
    """(I - lam S*) omega(A k_lam) in K_Theta coefficients."""
    w = space.omega(af)
    shifted = space.backward_shift(w)
    return w - lam * shifted


def _minus_values(oracle: KernelActionOracle, mu, theta_mu, psi_base: ModelFunction,
                  lams):
    """phi_minus(lam) at each lam, for the pair normalized by phi_minus(mu) = 0.

    phi_minus(lam) = <(z - mu) x, k_mu> / denom with x = (I - mu S*)^{-1} F_lam
    and F_lam = (I - lam S*) omega(A k_lam) - psi_base.  The inner product is
    k_mu^H (S_Theta - mu I) x in K_Theta coefficients, so one row vector
    applied to the stacked F_lam gives every value.
    """
    space = oracle.space
    theta0 = complex(space.theta.eval(0.0))
    denom = theta_mu * (np.conj(theta0) * theta_mu - 1.0)
    I = np.eye(space.dim)
    row = (np.conj(space.kernel(mu).coeffs) @ (space.shift_matrix - mu * I)
           @ np.linalg.inv(I - mu * space.sstar_matrix)) / denom
    F = np.array([_resolvent_kernel_action(space, oracle.act(lam), lam).coeffs
                  for lam in lams])
    return (F - psi_base.coeffs) @ row


def default_mu(space: ModelSpace) -> complex:
    """Coarse-grid maximizer of |Theta(mu)| * dist(mu, zeros of Theta) (exact mode)."""
    cand = np.unique(_polar_grid([0.0, 0.15, 0.3, 0.45, 0.6, 0.75], 16))
    dist = np.min(np.abs(cand[:, None] - space.zeros[None, :]), axis=1)
    return complex(cand[int(np.argmax(np.abs(space.theta.eval(cand)) * dist))])


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
    """Recover the pair with phi_minus(mu) = 0 from kernel actions alone.

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
        mu = default_mu(space)
    theta_mu = complex(space.theta.eval(mu))
    if abs(theta_mu) < 1e-8:
        raise DegenerateMu(f"|Theta(mu)| = {abs(theta_mu):.2e} at mu = {mu}")
    psi_base = _resolvent_kernel_action(space, oracle.act(mu), mu)
    lams = oracle.sample_points if oracle.sample_points is not None \
        else _lambda_grid(space, grid_factor)
    lams = np.asarray(lams, dtype=complex)
    vals = _minus_values(oracle, mu, theta_mu, psi_base, lams)
    E = space._tm_eval(lams)
    minus_coeffs, *_ = np.linalg.lstsq(E, vals, rcond=None)
    phi_minus = ModelFunction(space, coeffs=minus_coeffs)

    psi_plus = psi_base + theta_mu * space.backward_shift(phi_minus)
    phi_plus = space.omega(psi_plus)

    return _certify(oracle, phi_plus, phi_minus, mu)


def _antilinear_block(M):
    """Real 2Nx2N block of the antilinear map c -> M conj(c)."""
    return np.block([[M.real, M.imag], [M.imag, -M.real]])


def recover_via_k0(oracle: KernelActionOracle) -> RecoveredSymbol:
    """Recovery from the actions on k_0 and k~_0 alone.

    The two kernel-action identities at the origin read, for the pair
    normalized by phi_minus(0) = 0,

        A k_0        = phi_plus - conj(Theta(0)) z omega(phi_minus),
        omega(A k~_0) = phi_minus + conj(phi_plus(0)) 1
                        - conj(Theta(0)) z omega(phi_plus),

    which is an affine system in the coefficient pair (antilinear in each
    unknown through the conjugation, hence solved in real form).  It is
    uniquely solvable: the coupling has operator norm at most |Theta(0)|
    times a contraction, mirroring the positivity of the determinant in
    the scalar case.  For Theta(0) = 0 it collapses to phi_plus = A k_0.
    """
    space = oracle.space
    _check_table(oracle)
    ak0 = oracle.act(0.0)
    akt0 = oracle.dq0_action
    k0 = space.kernel(0.0)
    theta0 = complex(space.theta.eval(0.0))
    N = space.dim

    a = ak0.coeffs
    b = space.omega(akt0).coeffs
    W = space.omega_matrix
    G = np.conj(theta0) * (space.shift_matrix @ W)
    E0 = space._tm_eval([0.0])[0]
    Mk = np.outer(k0.coeffs, np.conj(E0))

    I2 = np.eye(2 * N)
    top = np.hstack([I2, -_antilinear_block(G)])
    bottom = np.hstack([_antilinear_block(Mk - G), I2])
    rhs = np.concatenate([a.real, a.imag, b.real, b.imag])
    sol = np.linalg.solve(np.vstack([top, bottom]), rhs)
    c_plus = sol[:N] + 1j * sol[N:2 * N]
    c_minus = sol[2 * N:3 * N] + 1j * sol[3 * N:]
    phi_plus = ModelFunction(space, coeffs=c_plus)
    phi_minus = ModelFunction(space, coeffs=c_minus)
    # spend the gauge (c k_0, -conj(c) k_0) on phi_minus(0) = 0
    cbar = phi_minus.eval(0.0) / k0.eval(0.0)
    phi_plus = phi_plus + np.conj(cbar) * k0
    phi_minus = phi_minus - cbar * k0

    return _certify(oracle, phi_plus, phi_minus, 0.0)


def _check_table(oracle: KernelActionOracle) -> None:
    """Raise UnsupportedVariant on a space without a basis, and ValueError
    unless the oracle's own sample points, if any, determine a pair: at
    least N = dim distinct points whose kernels span K_Theta.  With fewer,
    the fit and the certification read only those points, and any pair
    matching them there passes."""
    space = oracle.space
    space.require_basis("recovery")
    if oracle.sample_points is None:
        return
    pts = np.unique(np.asarray(oracle.sample_points, dtype=complex))
    if pts.size < space.dim:
        raise ValueError(f"the kernel-action table has {pts.size} distinct lambda, "
                         f"fewer than dim K_Theta = {space.dim}")
    rank = int(np.linalg.matrix_rank(space._tm_eval(pts)))
    if rank < space.dim:
        raise ValueError(f"the kernels at the table's {pts.size} distinct lambda "
                         f"span {rank} of dim K_Theta = {space.dim}")


def _certify(oracle: KernelActionOracle, phi_plus, phi_minus, mu) -> RecoveredSymbol:
    """Rebuild the operator from the pair and check it against the oracle.

    Raises InconsistentOracle when the worst relative difference of the
    kernel actions at the probe points exceeds RESIDUAL_TOL.
    """
    space = oracle.space
    rebuilt = build(space, PairSymbol(phi_plus, phi_minus))
    probes = (oracle.sample_points[:8] if oracle.sample_points is not None
              else np.array([0.0, 0.31, -0.52 + 0.2j, 0.11 - 0.6j, 0.77j]))
    resid = 0.0
    for lam in probes:
        k = space.kernel(lam)
        diff = oracle.act(lam) - rebuilt.apply(k)
        resid = max(resid, diff.norm() / max(k.norm(), 1.0))
    if resid > RESIDUAL_TOL:
        raise InconsistentOracle(f"rebuild residual {resid:.2e} > {RESIDUAL_TOL:.0e}")
    return RecoveredSymbol(phi_plus, phi_minus, mu, resid, rebuilt)


# ---------------------------------------------------------------------------
# rank-one symbols

def rank_one_symbol(space: ModelSpace, pt) -> BoundarySymbol:
    """The explicit symbol Theta conj(z k_pt^{Theta^2}) of k~_pt (x) k_pt."""
    w, _ = _point(pt)
    th = space.theta_samples
    # k^{Theta^2} = (1 + conj(Theta(pt)) Theta) k^Theta, from Theta's cached samples
    k2 = (1.0 + np.conj(space.theta.eval(w)) * th) * _kernel_samples(space.theta, w, space.grid)
    phi = th * np.conj(space.grid.points * k2)
    return BoundarySymbol(CircleFunction(space.grid, phi))
