"""Identities the tests check the library against.

Each function computes one side of an identity of the theory (a
factorization, a covariance, a lemma on products, a comparison bound) by a
route independent of the code under test, so that a test can assert the
residual.  They are oracles, not library API: nothing in ``src/`` calls them.
"""

import math

import numpy as np

from ttolab.circle import DEFAULT_GRID, BoundaryGrid, CircleFunction, lp_norm
from ttolab.counterex import KERNEL_TOL, MAX_NODES, RADIAL_OFFSET
from ttolab.errors import TTOLabError
from ttolab.inner import _kernel_point, kernel_scale, power
from ttolab.modelspace import ModelFunction, ModelSpace, ToeplitzSpace, _kernel_samples
from ttolab.operators import (DEFAULT_ANGLES, DEFAULT_RADII, BoundarySymbol, TTOperator,
                              _polar_grid, build)
from ttolab.recovery import _resolvent_kernel_action


# ---------------------------------------------------------------------------
# operators

def hankel_factor_residual(op: TTOperator, phi, f: ModelFunction) -> float:
    """|| A_phi f - Theta P_-(conj(Theta) phi f) ||_2 on the grid, for the
    operator built from phi's samples ``phi`` on the space's grid.

    The factorization through the Hankel operator with symbol
    conj(Theta) phi holds exactly; the residual is quadrature noise.
    """
    space = op.space
    fs = f.as_circle().samples
    lhs = op.apply(f).as_circle().samples
    co = np.fft.fft(np.conj(space.theta_samples) * phi * fs) / space.grid.n
    co[:space.grid.n // 2] = 0.0  # P_-: the strictly negative frequencies, bins n/2..n-1
    rhs = space.theta_samples * CircleFunction._from_fft(space.grid, co).samples
    return lp_norm(lhs - rhs, 2)


def toeplitz_defect(op: TTOperator) -> float:
    """Max deviation of the matrix from constant diagonals (z^N sanity check)."""
    M = op.matrix
    N = M.shape[0]
    worst = 0.0
    for d in range(-(N - 1), N):
        diag = np.diagonal(M, offset=-d)
        if diag.size > 1:
            worst = max(worst, float(np.max(np.abs(diag - diag.mean()))))
    return worst


# ---------------------------------------------------------------------------
# model spaces

def product_into(space_big: ModelSpace, f1: ModelFunction, f2: ModelFunction,
                 with_z: bool = False) -> ModelFunction:
    """Project f1*f2 (or z f1 f2) onto a larger model space, returning the projection.

    Used to exercise the product and nesting lemmas: for f1 in K_Theta1 and
    bounded f2 in K_Theta2 the product already lies in K_{Theta1 Theta2},
    so the projection residual is a pure quadrature defect.
    """
    grid = space_big.grid
    a = f1.as_circle().on_grid(grid).samples
    b = f2.as_circle().on_grid(grid).samples
    prod = a * b
    if with_z:
        prod = grid.points * prod
    return space_big.project(CircleFunction(grid, prod))


# ---------------------------------------------------------------------------
# Blaschke transport and rotation covariance on K_{z^N}

def transport_function(f: CircleFunction, alpha: complex) -> CircleFunction:
    """(U f)(z) = sqrt(1-|alpha|^2)/(1 - conj(alpha) z) f(b_alpha(z)).

    f must be analytic (given by its Taylor coefficients on the grid band).
    """
    z = f.grid.points
    b = (alpha - z) / (1.0 - np.conj(alpha) * z)
    co = f.coeffs
    ks = np.fft.fftfreq(f.grid.n, d=1.0 / f.grid.n).astype(int)
    pos = np.where(ks >= 0)[0]
    vals = np.zeros(f.grid.n, dtype=complex)
    for i in pos[np.argsort(ks[pos])][::-1]:
        vals = vals * b + co[i]
    vals *= math.sqrt(1.0 - abs(alpha) ** 2) / (1.0 - np.conj(alpha) * z)
    return CircleFunction(f.grid, vals)


def rotation_covariance_residual(space: ModelSpace, t: float, lam: complex) -> float:
    """Residual of tau_t h_lam = h_{e^{-it} lam} and its difference-quotient twin."""
    if not isinstance(space, ToeplitzSpace):
        raise ValueError("rotation covariance is a K_{z^N} identity")
    N = space.dim
    h = space.normalized_kernel(lam)
    ht = space.omega(h)  # h~_lam = omega h_lam
    phases = np.exp(1j * t * np.arange(N))
    lhs1 = h.coeffs * phases
    rhs1 = space.normalized_kernel(np.exp(-1j * t) * lam).coeffs
    lhs2 = ht.coeffs * phases
    rhs2 = (np.exp(1j * (N - 1) * t)
            * space.omega(space.normalized_kernel(np.exp(-1j * t) * lam)).coeffs)
    return float(max(np.max(np.abs(lhs1 - rhs1)), np.max(np.abs(lhs2 - rhs2))))


# ---------------------------------------------------------------------------
# symbols

SAME_OPERATOR_TOL = 1e-8  # relative matrix difference below which two builds agree


class SymbolsDiffer(TTOLabError):
    """Two alleged symbols of the same operator build different operators."""


def symbol_lp_bound_check(space: ModelSpace, phi: CircleFunction,
                          psi: CircleFunction, p: float):
    """Return (||phi||_p, ||psi||_p + ||phi||_2) for two symbols of one operator.

    Raises SymbolsDiffer when the two builds disagree beyond SAME_OPERATOR_TOL.
    The ratio lhs/rhs is the empirical constant of the comparison bound.
    """
    a = build(space, BoundarySymbol(phi))
    b = build(space, BoundarySymbol(psi))
    scale = max(1.0, float(np.linalg.norm(a.matrix)))
    if float(np.linalg.norm(a.matrix - b.matrix)) > SAME_OPERATOR_TOL * scale:
        raise SymbolsDiffer("the two symbols build different operators")
    lhs = lp_norm(phi.on_grid(space.grid), p)
    rhs = lp_norm(psi.on_grid(space.grid), p) + lp_norm(phi.on_grid(space.grid), 2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# one function at a time: references of the stacked grid paths

def project_one(theta_samples, samples, grid) -> np.ndarray:
    """P_Theta of one function, each P_+ by its own FFT pair with the bins of
    the negative frequencies masked, on CircleFunctions."""
    def plus(f):
        co = f.coeffs.copy()
        co[grid.n // 2:] = 0.0  # bins n/2..n-1 hold the frequencies -n/2..-1
        return CircleFunction._from_fft(grid, co).samples

    inner = plus(CircleFunction(grid, np.conj(theta_samples) * samples))
    return plus(CircleFunction(grid, samples)) - theta_samples * inner


def kernel_norms_per_point(op: TTOperator, samples, quotient: bool = False) -> np.ndarray:
    """||A k_lambda||_2, or ||A k~_lambda||_2 when quotient, one kernel at a
    time through ``op.apply``: the rho columns before the kernel scale, which
    ``_unit_kernel_norms`` gives on a ``GridSpace`` and on rotation-closed
    sets of K_{z^N} (a ``TMSpace`` divides by ||e(lambda)|| instead)."""
    kernel = op.space.difference_quotient if quotient else op.space.kernel
    return np.array([op.apply(kernel(lam)).norm() for lam in samples.points.tolist()])


def rkt_row_per_point(theta, s: float, lam: complex, grid_n: int) -> dict:
    """The grid fields of one ``rkt_failure_scan`` row, lambda by lambda:
    the kernels at one point and each projection by ``project_one``."""
    th_s, th_1ms = power(theta, s), power(theta, 1.0 - s)
    tv_s = complex(th_s.eval(lam))
    out = {}
    for key, g in (("identity_err", BoundaryGrid(grid_n)),
                   ("identity_err_doubled", BoundaryGrid(2 * grid_n))):
        th, ths = theta.samples_at(g), th_s.samples_at(g)
        k_1ms = _kernel_samples(th_1ms, lam, g)
        lhs = project_one(th, np.conj(ths) * _kernel_samples(theta, lam, g), g)
        rhs = np.conj(tv_s) * k_1ms
        out[key] = lp_norm(lhs - rhs, 2) / lp_norm(rhs, 2)
        if g.n == grid_n:
            out["norm_sq_grid"] = (kernel_scale(theta, lam) * lp_norm(lhs, 2)) ** 2
            f = ths * k_1ms
            out["isometry_ratio"] = lp_norm(project_one(th, np.conj(ths) * f, g), 2) / lp_norm(f, 2)
    return out


def sup_on_full_grids(theta, lam, tol: float = KERNEL_TOL, max_n: int = MAX_NODES):
    """``kernel_lp``'s p = inf triple (value, residual, n) with every grid
    evaluated in full: the kernel's sample maximum on n = DEFAULT_GRID, 2n,
    ... points until the relative change |v(2n) - v(n)| / max(1, |v(2n)|) is
    at most tol or 2n would exceed max_n (``circle.cauchy_refine``'s rule)."""
    lam, sq = _kernel_point(theta, lam)
    radius = RADIAL_OFFSET if theta.has_singular_part() else 1.0

    def sup(n):
        return lp_norm(_kernel_samples(theta, lam, BoundaryGrid(n), radius, sq), math.inf)

    n, prev, resid = DEFAULT_GRID, sup(DEFAULT_GRID), math.inf
    while 2 * n <= max_n:
        n *= 2
        cur = sup(n)
        resid = abs(cur - prev) / max(1.0, abs(cur))
        if resid <= tol:
            return cur, resid, n
        prev = cur
    return prev, resid, n


def default_points_by_loop(space: ModelSpace) -> np.ndarray:
    """The points of ``SampleSet.default``, zero by zero from ``theta.zeros()``:
    the polar grid, then for each zero a with |a| < 1 - 1e-12 its ray over the
    nonzero radii (for a != 0) and a itself, each by one np.append."""
    radii = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, DEFAULT_RADII + 1)])
    pts = _polar_grid(radii, DEFAULT_ANGLES)
    for a in [z.value for z in space.theta.zeros() if abs(z.value) < 1 - 1e-12]:
        if abs(a) > 0:
            pts = np.append(pts, radii[1:, None] * (a / abs(a)))
        pts = np.append(pts, a)
    return np.unique(pts)


# ---------------------------------------------------------------------------
# recovery: the systems in real and inverse form

def k0_pair_by_real_block(oracle):
    """The k_0 route's pair with phi_minus(0) = 0, from the real 4N x 4N form
    of c+ - G conj(c-) = a and H conj(c+) + c- = b (G = conj(Theta(0)) S W,
    H = k_0 k_0^T - G): the antilinear c -> M conj(c) is the real block
    [[Re M, Im M], [Im M, -Re M]] on (Re c, Im c).  Returns (c+, c-)."""
    space = oracle.space
    N = space.dim
    a = oracle.act([0.0])[0]
    b = space.omega_matrix @ np.conj(oracle.dq0_action)
    k0 = np.conj(space._tm_eval([0.0])[0])
    G = np.conj(complex(space.theta.eval(0.0))) * (space.shift_matrix @ space.omega_matrix)

    def block(M):
        return np.block([[M.real, M.imag], [M.imag, -M.real]])

    I2 = np.eye(2 * N)
    system = np.vstack([np.hstack([I2, -block(G)]),
                        np.hstack([block(np.outer(k0, k0) - G), I2])])
    sol = np.linalg.solve(system, np.concatenate([a.real, a.imag, b.real, b.imag]))
    c_plus, c_minus = sol[:N] + 1j * sol[N:2 * N], sol[2 * N:3 * N] + 1j * sol[3 * N:]
    cbar = np.vdot(k0, c_minus) / np.vdot(k0, k0)  # the gauge (c k_0, -conj(c) k_0)
    return c_plus + np.conj(cbar) * k0, c_minus - cbar * k0


def minus_values_by_inverse(oracle, mu, theta_mu, psi_base, lams):
    """``recovery._minus_values`` with its row vector formed through the
    explicit inverse: k_mu^H (S_Theta - mu I) (I - mu S*)^{-1} / denom."""
    space = oracle.space
    theta0 = complex(space.theta.eval(0.0))
    denom = theta_mu * (np.conj(theta0) * theta_mu - 1.0)
    I = np.eye(space.dim)
    row = (np.conj(space.kernel(mu).coeffs) @ (space.shift_matrix - mu * I)
           @ np.linalg.inv(I - mu * space.sstar_matrix)) / denom
    F = _resolvent_kernel_action(space, oracle.act(lams), lams)
    return (F - psi_base) @ row
