"""Truncated Toeplitz operators A_phi f = P_Theta(phi f) on K_Theta.

An operator is a matrix or a closure, whichever the space's representation
builds (``modelspace``).  Includes symbol normalization onto the canonical
symbol space, the analytic/coanalytic pair decomposition, the rho quantities
(suprema over normalized kernels / difference quotients, sampled), the
operator norm by one Lanczos recurrence, and boundary-measure operators.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleFunction, inner_product, lp_norm
from .errors import NoConvergence
from .inner import EDGE, _point
from .modelspace import ModelFunction, ModelSpace, project_theta


# ---------------------------------------------------------------------------
# symbols

class BoundarySymbol:
    """A symbol given by boundary samples."""

    def __init__(self, f: CircleFunction):
        self.f = f


class PairSymbol:
    """phi = phi_plus + conj(phi_minus) with both components in K_Theta."""

    def __init__(self, phi_plus: ModelFunction, phi_minus: ModelFunction):
        self.phi_plus = phi_plus
        self.phi_minus = phi_minus


class MeasureSymbol:
    """A positive measure: point masses on the circle (where ``_point`` puts a
    point; an angle is a BoundaryPoint) plus an a.c. density, whose samples
    must be real and nonnegative to within 8 ulps of the largest one."""

    def __init__(self, atoms=(), density: CircleFunction | None = None):
        self.atoms = [(a, float(m)) for a, m in atoms]
        if not all(_point(a)[1] and m > 0 for a, m in self.atoms):  # NaN mass too
            raise ValueError("measure atoms must sit on the unit circle with positive mass")
        if density is not None:
            s = density.samples
            slack = 8 * np.spacing(np.max(np.abs(s)))
            if not (np.max(np.abs(s.imag)) <= slack and np.min(s.real) >= -slack):  # NaN too
                raise ValueError("a measure density must be real and nonnegative")
        self.density = density


# ---------------------------------------------------------------------------
# the operator

class TTOperator:
    """A truncated Toeplitz operator, as a matrix (exact) or a pair of
    closures, A and A*: each a function from an (..., n) stack of grid sample
    rows to the stack of their images (a ``GridSpace``'s, see there)."""

    def __init__(self, space: ModelSpace, matrix=None, apply_fn=None, adjoint_fn=None):
        if (matrix is None) == (apply_fn is None) or (apply_fn is None) != (adjoint_fn is None):
            raise ValueError("a matrix, or apply_fn with its adjoint_fn, required")
        self.space = space
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self.apply_fn = apply_fn
        self.adjoint_fn = adjoint_fn

    def apply(self, f: ModelFunction) -> ModelFunction:
        return ModelFunction(self.space, (self.apply_fn or self.matrix.__matmul__)(f.vec))


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
        action = space._multiplier(symbol.f.on_grid(space.grid).samples, symbol.f.bandwidth)
    return TTOperator(space, *action)


def adjoint(op: TTOperator) -> TTOperator:
    """A*: the conjugate-transpose matrix, or the two closures swapped
    ((A_phi)^* = A_conj(phi))."""
    if op.matrix is not None:
        return TTOperator(op.space, matrix=op.matrix.conj().T)
    return TTOperator(op.space, apply_fn=op.adjoint_fn, adjoint_fn=op.apply_fn)


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
    first = project_theta(th, f.samples)
    second = project_theta(th, th * f.samples)
    return CircleFunction(space.grid, first + np.conj(th) * second)


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
    zv = CircleFunction(space.grid, space.grid.points * v.samples())
    minus_raw = space.project(zv)
    return PairSymbol(*_spend_gauge(space, u, minus_raw, mu))


def _spend_gauge(space: ModelSpace, plus: ModelFunction, minus: ModelFunction, mu):
    """The pair (plus + conj(c) k_0, minus - c k_0) with minus(mu) = 0: the
    gauge (c k_0, -conj(c) k_0) adds nothing to the operator."""
    k0, k_mu = space.kernel(0.0), space.kernel(mu)
    cbar = minus.inner(k_mu) / k0.inner(k_mu)
    return plus + np.conj(cbar) * k0, minus - cbar * k0


# ---------------------------------------------------------------------------
# rho quantities

def _polar_grid(radii, angles: int):
    """The points r e^{2 pi i m / angles}, radius-major (m fastest)."""
    th = np.exp(2j * np.pi * np.arange(angles) / angles)
    return (np.asarray(radii, dtype=float)[:, None] * th[None, :]).ravel()


DEFAULT_RADII = 24  # radii 1 - 2^-k, k = 1..24, besides 0, of SampleSet.default
DEFAULT_ANGLES = 64  # equispaced angles per radius of SampleSet.default


class SampleSet:
    """Interior points, |z| <= 1 - EDGE as ``_point`` decides, standing in for the sup over D."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=complex).ravel()
        if pts.size == 0:
            raise ValueError("sample set must be nonempty")
        if not np.all(np.hypot(pts.real, pts.imag) <= 1.0 - EDGE):  # as Python's abs; NaN fails
            raise ValueError(f"sample points must satisfy |z| <= 1 - {EDGE}")
        self.points = pts
        self.tensor = None  # (radii, angles) of a rotation-closed tensor grid

    @classmethod
    def default(cls, space: ModelSpace) -> "SampleSet":
        """The polar grid, and each interior zero a (|a| <= 1 - EDGE) with, for
        a != 0, its ray r a/|a| over the grid's nonzero radii."""
        radii = np.concatenate([[0.0], 1.0 - 0.5 ** np.arange(1, DEFAULT_RADII + 1)])
        a = space.theta._zero_data[0]
        mod = np.hypot(a.real, a.imag)  # as Python's abs; np.abs can round apart
        a, mod = a[mod <= 1.0 - EDGE], mod[mod <= 1.0 - EDGE]
        ray = mod > 0
        # a/|a| part by part, as Python divides; numpy's complex division multiplies by 1/|a|
        unit = (a[ray].view(float).reshape(-1, 2) / mod[ray, None]).view(complex)
        return cls(np.unique(np.concatenate(
            [_polar_grid(radii, DEFAULT_ANGLES), (radii[1:] * unit).ravel(), a])))

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


LANCZOS_STEPS = 64  # Krylov dimension budget of every Lanczos run
LANCZOS_TOL = 1e-13  # Ritz residual ||T^H T v - theta v|| / theta accepted
DEGENERATE_GAP = 1e-8  # relative gap sigma_0 - sigma_1 at or below which sigma is multiple
SETTLE_TOL = 1e-8  # relative change of a closure's top Ritz sigma that ends its Lanczos


def _lanczos(gram, q):
    """Lanczos on the Hermitian map ``gram`` from q, reorthogonalised in full.  Step k
    yields views (alpha[:k+1], beta[:k+1], Q[:k+1]): the tridiagonal's diagonal, its
    off-diagonal then beta[k], the coupling to the next Krylov vector, and the basis.
    It stops after LANCZOS_STEPS steps or at the step where the Krylov space closes
    (beta_k <= 1e-12 max alpha), yielded with beta[k] = 0 (its Ritz pairs are exact)."""
    Q = np.zeros((LANCZOS_STEPS + 1, q.size), dtype=complex)
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
            beta[k] = 0.0  # closed
        else:
            Q[k + 1] = w / beta[k]
        yield alpha[:k + 1], beta[:k + 1], Q[:k + 1]
        if not beta[k]:
            return


def _tridiagonal(alpha, beta):
    return np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1)


def _lanczos_top_pair(T):
    """(sigma, v, T v) for the top right singular vector v of T, or None.

    ``_lanczos`` on T^H T with dense matvecs from a fixed pseudo-random start
    vector (so reruns are bitwise identical).
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
    for alpha, beta, Q in _lanczos(gram, rng.standard_normal(N) + 1j * rng.standard_normal(N)):
        if not beta[-1]:  # closed
            return None
        if len(alpha) % 4:  # the eigensolve costs more than a step
            continue
        theta, Y = np.linalg.eigh(_tridiagonal(alpha, beta))
        if beta[-1] * abs(Y[-1, -1]) > LANCZOS_TOL * theta[-1]:
            continue
        s0, s1 = np.sqrt(np.maximum(theta[-2:][::-1], 0.0))
        if s0 - s1 <= DEGENERATE_GAP * s0:
            return None
        v = Q.T @ Y[:, -1]
        num = T @ v
        sigma = float(np.linalg.norm(num))
        # the explicit residual at the Rayleigh quotient sigma^2, and the symmetry
        if (np.linalg.norm(gram(v) - sigma ** 2 * v) > LANCZOS_TOL * sigma ** 2
                or abs(np.vdot(v, np.conj(num[::-1]))) < (1.0 - 1e-8) * sigma):
            return None
        return sigma, v, num
    return None


def operator_norm(op: TTOperator) -> float:
    """Spectral norm: largest singular value, by Lanczos on closures.

    A matrix that is exactly persymmetric (M = J M^T J), as every Toeplitz
    matrix and so every compression on K_{z^N} is, takes sigma from the
    certified Lanczos pair (``_lanczos_top_pair``, N > LANCZOS_STEPS), whose
    certificate relies on that symmetry; any other, or an uncertified pair,
    from the dense SVD.  A closure's sigma is the top Ritz value of ``_lanczos`` on A*A,
    uncertified, once a step moves it by at most SETTLE_TOL or the space closes.
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
    prev = 0.0
    for alpha, beta, _ in _lanczos(lambda x: op.adjoint_fn(op.apply_fn(x)), f.vec):  # f != 0
        val = math.sqrt(max(np.linalg.eigvalsh(_tridiagonal(alpha, beta))[-1], 0.0))
        if not beta[-1] or abs(val - prev) <= SETTLE_TOL * max(1.0, val):
            return val
        prev = val
    raise NoConvergence(f"Lanczos on A*A did not settle within {LANCZOS_STEPS} steps")


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
    return TTOperator(space, matrix=M)

