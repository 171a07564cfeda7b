"""Truncated Toeplitz operators A_phi f = P_Theta(phi f) on K_Theta.

An operator is a matrix or a closure, whichever the space's representation
builds (``modelspace``).  Includes symbol normalization onto the canonical
symbol space, the analytic/coanalytic pair decomposition, the rho quantities
(suprema over normalized kernels / difference quotients, sampled), and
operators induced by boundary measures.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleFunction, inner_product, lp_norm
from .errors import NoConvergence, UnsupportedVariant
from .inner import BoundaryPoint
from .modelspace import ModelFunction, ModelSpace, project_theta


# ---------------------------------------------------------------------------
# symbols

class BoundarySymbol:
    """A symbol given by boundary samples."""

    def __init__(self, f: CircleFunction):
        self.f = f

    def samples_on(self, space: ModelSpace):
        return self.f.on_grid(space.grid).samples

    def conjugate(self):
        return BoundarySymbol(self.f.conj())


class PairSymbol:
    """phi = phi_plus + conj(phi_minus) with both components in K_Theta."""

    def __init__(self, phi_plus: ModelFunction, phi_minus: ModelFunction):
        self.phi_plus = phi_plus
        self.phi_minus = phi_minus

    def samples_on(self, space: ModelSpace):
        return (self.phi_plus.as_circle().on_grid(space.grid).samples
                + np.conj(self.phi_minus.as_circle().on_grid(space.grid).samples))

    def conjugate(self):
        return PairSymbol(self.phi_minus, self.phi_plus)


class MeasureSymbol:
    """A positive measure: point masses on the circle plus an a.c. density."""

    def __init__(self, atoms=(), density: CircleFunction | None = None):
        self.atoms = [(a if isinstance(a, BoundaryPoint) else BoundaryPoint(a), float(m))
                      for a, m in atoms]
        if any(m <= 0 for _, m in self.atoms):
            raise ValueError("measure atoms must have positive mass")
        self.density = density


# ---------------------------------------------------------------------------
# the operator

class TTOperator:
    """A truncated Toeplitz operator, as a matrix (exact) or a closure."""

    def __init__(self, space: ModelSpace, matrix=None, apply_fn=None, symbol=None):
        if (matrix is None) == (apply_fn is None):
            raise ValueError("exactly one of matrix/apply_fn required")
        self.space = space
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self.apply_fn = apply_fn
        self.symbol = symbol

    def apply(self, f: ModelFunction) -> ModelFunction:
        if self.matrix is not None:
            return ModelFunction(self.space, coeffs=self.matrix @ f.coeffs)
        return self.apply_fn(f)


def build(space: ModelSpace, symbol) -> TTOperator:
    """Construct A_phi on the given space, by the space's own construction for
    a ``PairSymbol`` phi_plus + conj(phi_minus) (on an exact space Sarason's
    phi_plus(S_Theta) + phi_minus(S_Theta)^H) and for a sampled symbol."""
    if isinstance(symbol, CircleFunction):
        symbol = BoundarySymbol(symbol)
    if isinstance(symbol, MeasureSymbol):
        return measure_operator(space, symbol)
    if isinstance(symbol, PairSymbol):
        # A_phi = A_{P_Theta phi} for analytic phi: phi - P_Theta phi is in Theta H^2
        action = space._pair_multiplier(space.project(symbol.phi_plus),
                                        space.project(symbol.phi_minus))
    else:
        action = space._multiplier(symbol.samples_on(space), symbol.f.bandwidth)
    return TTOperator(space, *action, symbol=symbol)


def adjoint(op: TTOperator) -> TTOperator:
    """(A_phi)^* = A_conj(phi); conjugate-transpose matrix in exact mode."""
    sym = op.symbol.conjugate() if op.symbol is not None and hasattr(op.symbol, "conjugate") else None
    if op.matrix is not None:
        return TTOperator(op.space, matrix=op.matrix.conj().T, symbol=sym)
    if sym is None:
        raise UnsupportedVariant("closure adjoint needs a conjugable symbol")
    return build(op.space, sym)


def rank_one_operator(space: ModelSpace, pt) -> TTOperator:
    """The rank-one truncated Toeplitz operator k~_pt (x) k_pt."""
    k = space.kernel(pt)
    return TTOperator(space, *space._outer(space.omega(k), k))


# ---------------------------------------------------------------------------
# canonical symbols

def q_theta(space: ModelSpace) -> CircleFunction:
    """The unit vector q spanning the gap between K+conj(zK) and the symbol space."""
    grid = space.grid
    th = space.theta_samples
    qraw = _apply_q(space, CircleFunction(grid, np.conj(th)))
    return (1.0 / lp_norm(qraw, 2)) * qraw


def _apply_q(space: ModelSpace, f: CircleFunction) -> CircleFunction:
    """Q = P_Theta + M_conj(Theta) P_Theta M_Theta, the projection onto
    K_Theta + conj(z K_Theta)."""
    th = space.theta_samples
    first = project_theta(th, f)
    second = project_theta(th, CircleFunction(space.grid, th * f.samples))
    return CircleFunction(space.grid, first.samples + np.conj(th) * second.samples)


def standard_symbol(space: ModelSpace, phi: CircleFunction) -> CircleFunction:
    """Projection of phi onto the canonical symbol space (kills the zero class)."""
    q = q_theta(space)
    qphi = _apply_q(space, phi.on_grid(space.grid))
    coef = inner_product(qphi, q)
    return qphi - coef * q


def decompose(space: ModelSpace, phi: CircleFunction, mu: complex) -> PairSymbol:
    """Split a boundary symbol as phi_plus + conj(phi_minus), phi_minus(mu) = 0.

    The analytic part is the K_Theta component of phi; the coanalytic part
    comes from the conj(z K_Theta) component via the conjugation, and the
    gauge freedom (c k_0, -conj(c) k_0) is spent on the normalization.
    """
    phi = phi.on_grid(space.grid)
    u = space.project(phi)
    th = space.theta_samples
    w = space.project(CircleFunction(space.grid, th * phi.samples))
    v = space.omega(w)
    zv = CircleFunction(space.grid, space.grid.points * v.as_circle().samples)
    minus_raw = space.project(zv)
    k0 = space.kernel(0.0)
    cbar = minus_raw.eval(mu) / k0.eval(mu)
    plus = u + np.conj(cbar) * k0
    minus = minus_raw - cbar * k0
    return PairSymbol(plus, minus)


# ---------------------------------------------------------------------------
# rho quantities

def _polar_grid(radii, angles: int):
    """The points r e^{2 pi i m / angles}, radius-major (m fastest)."""
    th = np.exp(2j * np.pi * np.arange(angles) / angles)
    return (np.asarray(radii, dtype=float)[:, None] * th[None, :]).ravel()


DEFAULT_RADII = 24  # radii 1 - 2^-k, k = 1..24, besides 0, of SampleSet.default
DEFAULT_ANGLES = 64  # equispaced angles per radius of SampleSet.default


class SampleSet:
    """A finite set of interior points standing in for the supremum over D."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size == 0:
            raise ValueError("sample set must be nonempty")
        if np.any(np.abs(pts) >= 1.0):
            raise ValueError("sample points must lie strictly inside the disk")
        self.points = pts
        self.tensor = None  # (radii, angles) of a rotation-closed tensor grid

    @classmethod
    def default(cls, space: ModelSpace | None = None) -> "SampleSet":
        radii = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, DEFAULT_RADII + 1)])
        pts = _polar_grid(radii, DEFAULT_ANGLES)
        if space is not None:
            extra = [z.value for z in space.theta.zeros() if abs(z.value) < 1 - 1e-12]
            for a in extra:
                if abs(a) > 0:
                    pts = np.append(pts, radii[1:, None] * (a / abs(a)))
                pts = np.append(pts, a)
        return cls(np.unique(pts))

    @classmethod
    def rotation_closed(cls, angles: int, radii=None) -> "SampleSet":
        """Tensor grid r e^{2 pi i m / angles}, closed under rotation by 2 pi / angles.

        Points run radius-major (m fastest) over ``radii`` (default
        1 - 2^-k, k = 1..12).  The set keeps ``tensor = (radii, angles)``,
        which lets the rho columns on K_{z^N} be taken by one DFT per radius.
        """
        if radii is None:
            radii = 1.0 - 0.5 ** np.arange(1, 13)
        radii = np.asarray(radii, dtype=float).ravel()
        out = cls(_polar_grid(radii, angles))
        out.tensor = (radii, int(angles))
        return out

    def refine(self) -> "SampleSet":
        """A strict superset: doubled angle count plus radial midpoints."""
        pts = self.points
        radii = np.unique(np.abs(pts))
        mid = (radii[:-1] + radii[1:]) / 2.0
        angles = max(len(np.unique(np.round(np.angle(pts), 12))) * 2, 8)
        newpts = _polar_grid(np.concatenate([radii, mid]), angles)
        return SampleSet(np.unique(np.concatenate([pts, newpts])))


def rho_r(op: TTOperator, samples: SampleSet) -> float:
    """max over the sample set of ||A h_lambda||_2 (a lower bound for rho_r)."""
    return float(np.max(op.space._kernel_norms(op, samples, quotient=False)))


def rho_d(op: TTOperator, samples: SampleSet) -> float:
    """max over the sample set of ||A h~_lambda||_2."""
    return float(np.max(op.space._kernel_norms(op, samples, quotient=True)))


def rho(op: TTOperator, samples: SampleSet) -> float:
    return max(rho_r(op, samples), rho_d(op, samples))


def rho_scan_rows(op: TTOperator, samples: SampleSet):
    """Rows (re lambda, im lambda, ||A h_lambda||_2, ||A h~_lambda||_2)."""
    nr = op.space._kernel_norms(op, samples, quotient=False)
    nd = op.space._kernel_norms(op, samples, quotient=True)
    return [(float(lam.real), float(lam.imag), float(a), float(b))
            for lam, a, b in zip(samples.points, nr, nd)]


def write_rho_scan_csv(op: TTOperator, samples: SampleSet, path) -> None:
    """CSV export of a rho scan, one row per sample point."""
    rows = rho_scan_rows(op, samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_lambda,im_lambda,norm_Ah,norm_Ahd\n")
        for row in rows:
            fh.write(",".join("%.12e" % v for v in row) + "\n")


LANCZOS_STEPS = 64  # Krylov dimension budget of the top singular pair
LANCZOS_TOL = 1e-13  # Ritz residual ||T^H T v - theta v|| / theta accepted
DEGENERATE_GAP = 1e-8  # relative gap sigma_0 - sigma_1 at or below which sigma is multiple


def _lanczos_top_pair(T):
    """(sigma, v, T v) for the top right singular vector v of T, or None.

    Lanczos on T^H T with dense matvecs, full reorthogonalisation and a
    fixed pseudo-random start vector (so reruns are bitwise identical).
    The pair is certified when its Ritz residual is below LANCZOS_TOL
    relative to the Ritz value theta_0, the second Ritz value is separated
    from it by more than DEGENERATE_GAP sigma_0 in sigma = sqrt(theta), and
    J conj(T v) lies on v's line.  Where T is persymmetric (J T^T J = T, J
    the exchange), as every Toeplitz matrix is, J conj(T v) is a top right
    singular vector too: off v's line it exposes a multiple sigma that one
    Krylov sequence cannot see.  Other matrices generally fail this test.
    None when the Krylov space would span C^N within the step budget, stops
    growing (an invariant subspace hides the rest of the spectrum, so the
    gap is unknown), or a test fails or is not met within LANCZOS_STEPS
    steps.
    """
    N = T.shape[1]
    if LANCZOS_STEPS >= N:
        return None

    def gram(x):  # T^H T x, with no conjugated copy of T
        return np.conj(T.T @ np.conj(T @ x))

    rng = np.random.default_rng(0)
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    Q = np.zeros((LANCZOS_STEPS + 1, N), dtype=complex)
    Q[0] = q / np.linalg.norm(q)
    alpha = np.zeros(LANCZOS_STEPS)
    beta = np.zeros(LANCZOS_STEPS)
    for k in range(LANCZOS_STEPS):
        w = gram(Q[k])
        alpha[k] = np.vdot(Q[k], w).real
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= Q[:k + 1].T @ np.conj(Q[:k + 1] @ np.conj(w))
        beta[k] = np.linalg.norm(w)
        if beta[k] <= 1e-12 * alpha[:k + 1].max():
            return None
        Q[k + 1] = w / beta[k]
        if (k + 1) % 4:  # the eigensolve costs more than a step
            continue
        tri = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta, Y = np.linalg.eigh(tri)
        if beta[k] * abs(Y[-1, -1]) > LANCZOS_TOL * theta[-1]:
            continue
        s0, s1 = np.sqrt(np.maximum(theta[-2:][::-1], 0.0))
        if s0 - s1 <= DEGENERATE_GAP * s0:
            return None
        v = Q[:k + 1].T @ Y[:, -1]
        num = T @ v
        sigma = float(np.linalg.norm(num))
        # the explicit residual at the Rayleigh quotient sigma^2, and the symmetry
        if (np.linalg.norm(gram(v) - sigma ** 2 * v) > LANCZOS_TOL * sigma ** 2
                or abs(np.vdot(v, np.conj(num[::-1]))) < (1.0 - 1e-8) * sigma):
            return None
        return sigma, v, num
    return None


POWER_TOL = 1e-8  # relative change of the estimate that ends power iteration
POWER_STEPS = 500  # power-iteration steps before NoConvergence


def operator_norm(op: TTOperator) -> float:
    """Spectral norm: largest singular value, or power iteration on closures.

    A matrix that is exactly persymmetric (M = J M^T J), as every Toeplitz
    matrix and so every compression on K_{z^N} is, takes sigma from the
    certified Lanczos pair (``_lanczos_top_pair``, N > LANCZOS_STEPS), whose
    certificate relies on that symmetry; any other, or an uncertified pair,
    from the dense SVD.
    """
    M = op.matrix
    if M is not None:
        if M.size == 1:
            return float(abs(M[0, 0]))
        if np.isfinite(M).all() and np.array_equal(M, M[::-1, ::-1].T):
            pair = _lanczos_top_pair(M)
            if pair is not None:
                return pair[0]
        return float(np.linalg.svd(M, compute_uv=False)[0])
    space = op.space
    rng = np.random.default_rng(7)
    f = space.project(CircleFunction(space.grid, rng.standard_normal(space.grid.n)
                                     + 1j * rng.standard_normal(space.grid.n)))
    f = (1.0 / f.norm()) * f  # not 0: K_Theta is not {0}
    adj = adjoint(op)
    prev = 0.0
    for _ in range(POWER_STEPS):
        g = adj.apply(op.apply(f))
        gn = g.norm()
        val = math.sqrt(gn)
        if gn == 0:
            return 0.0
        f = (1.0 / gn) * g
        if abs(val - prev) <= POWER_TOL * max(1.0, val):
            return val
        prev = val
    raise NoConvergence(f"power iteration did not stabilize within {POWER_STEPS} steps")


# ---------------------------------------------------------------------------
# measures

def measure_operator(space: ModelSpace, measure: MeasureSymbol) -> TTOperator:
    """A_mu with <A_mu f, g> = int f conj(g) d mu.

    Point masses must sit at points with an angular-derivative certificate;
    an inconclusive certificate is rejected with a diagnostic.
    """
    space.require_basis("measure operators")
    M = np.zeros((space.dim, space.dim), dtype=complex)
    for pt, mass in measure.atoms:
        k = space.kernel(pt)  # NoAngularDerivative without a certificate at pt
        M += mass * space._outer(k, k)[0]
    if measure.density is not None:
        M += space.compress(measure.density.on_grid(space.grid).samples)
    return TTOperator(space, matrix=M, symbol=measure)

