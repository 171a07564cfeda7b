"""Truncated Toeplitz operators A_phi f = P_Theta(phi f) on K_Theta.

Exact-mode operators are dense matrices in the Takenaka-Malmquist basis;
truncated-mode operators are multiply-then-project closures over the
boundary grid.  Includes symbol normalization onto the canonical symbol
space, the analytic/coanalytic pair decomposition, the rho quantities
(suprema over normalized kernels / difference quotients, sampled), and
operators induced by boundary measures.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import CircleFunction, inner_product, riesz_minus
from .errors import (BandwidthOverflow, NoAngularDerivative, NoConvergence,
                     UnsupportedVariant)
from .inner import (BoundaryPoint, Monomial, has_angular_derivative,
                    one_minus_mod_sq)
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

    def __matmul__(self, f):
        return self.apply(f)

    def __add__(self, other):
        if self.matrix is not None and other.matrix is not None:
            return TTOperator(self.space, matrix=self.matrix + other.matrix)
        return TTOperator(self.space, apply_fn=lambda f: self.apply(f) + other.apply(f))

    def __sub__(self, other):
        if self.matrix is not None and other.matrix is not None:
            return TTOperator(self.space, matrix=self.matrix - other.matrix)
        return TTOperator(self.space, apply_fn=lambda f: self.apply(f) - other.apply(f))

    def __mul__(self, c):
        if self.matrix is not None:
            return TTOperator(self.space, matrix=c * self.matrix)
        return TTOperator(self.space, apply_fn=lambda f: c * self.apply(f))

    __rmul__ = __mul__


def build(space: ModelSpace, symbol) -> TTOperator:
    """Construct A_phi on the given space.

    Exact mode assembles the matrix M[i, j] = <phi e_j, e_i> by boundary
    quadrature; truncated mode returns a multiply-then-project closure.
    """
    if isinstance(symbol, CircleFunction):
        symbol = BoundarySymbol(symbol)
    if isinstance(symbol, MeasureSymbol):
        return measure_operator(space, symbol)
    phi = symbol.samples_on(space)
    if space.mode == "exact":
        return TTOperator(space, matrix=space.compress(phi), symbol=symbol)

    if (isinstance(symbol, BoundarySymbol) and symbol.f.bandwidth is not None
            and symbol.f.bandwidth >= space.grid.n // 4):
        raise BandwidthOverflow(
            f"symbol bandwidth {symbol.f.bandwidth} >= grid/4; enlarge the grid")

    def apply_fn(f: ModelFunction) -> ModelFunction:
        g = CircleFunction(space.grid, phi * f.as_circle().samples)
        return space.project(g)

    return TTOperator(space, apply_fn=apply_fn, symbol=symbol)


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
    kt = space.omega(k)
    if space.mode == "exact":
        return TTOperator(space, matrix=np.outer(kt.coeffs, np.conj(k.coeffs)))
    return TTOperator(space, apply_fn=lambda f: f.inner(k) * kt)


# ---------------------------------------------------------------------------
# canonical symbols

def q_theta(space: ModelSpace) -> CircleFunction:
    """The unit vector q spanning the gap between K+conj(zK) and the symbol space."""
    grid = space.grid
    th = space.theta_samples
    qraw = _apply_q(space, CircleFunction(grid, np.conj(th)))
    nrm = math.sqrt(float(np.mean(np.abs(qraw.samples) ** 2)))
    return (1.0 / nrm) * qraw


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
    def default(cls, space: ModelSpace | None = None, radii_count: int = 24,
                angles: int = 64) -> "SampleSet":
        radii = 1.0 - 0.5 ** np.arange(1, radii_count + 1)
        radii = np.concatenate([[0.0], radii])
        th = np.exp(2j * np.pi * np.arange(angles) / angles)
        pts = np.concatenate([(radii[:, None] * th[None, :]).ravel()])
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
        which lets the rho columns on K_{z^N} be taken by FFT along m.
        """
        if radii is None:
            radii = 1.0 - 0.5 ** np.arange(1, 13)
        radii = np.asarray(radii, dtype=float).ravel()
        th = np.exp(2j * np.pi * np.arange(angles) / angles)
        out = cls((radii[:, None] * th[None, :]).ravel())
        out.tensor = (radii, int(angles))
        return out

    def refine(self) -> "SampleSet":
        """A strict superset: doubled angle count plus radial midpoints."""
        pts = self.points
        radii = np.unique(np.abs(pts))
        mid = (radii[:-1] + radii[1:]) / 2.0
        angles = max(len(np.unique(np.round(np.angle(pts), 12))) * 2, 8)
        th = np.exp(2j * np.pi * np.arange(angles) / angles)
        newpts = (np.concatenate([radii, mid])[:, None] * th[None, :]).ravel()
        return SampleSet(np.unique(np.concatenate([pts, newpts])))


def _kernel_norms(op: TTOperator, samples: SampleSet, quotient: bool):
    """||A h_lambda||_2 at each sample point, or ||A h~_lambda||_2 when quotient.

    Exact mode: h_lambda has coefficients s conj(e(lambda)) and h~_lambda =
    omega h_lambda has W s e(lambda), where e(lambda) is the TM basis at
    lambda, s = sqrt((1-|lambda|^2)/(1-|Theta(lambda)|^2)) the kernel
    scale (one ``one_minus_mod_sq`` call per point) and W the conjugation
    matrix; the columns are M conj(e) or (M W) e, scaled by s.  On K_{z^N}
    (e_j = z^j) with a rotation-closed set of J >= N angles these columns
    are, radius by radius, a length-J DFT (quotient: J times an inverse
    DFT) of M diag(r^j): an exact identity, taken by FFT.  Every other
    exact case forms the dense product.
    """
    space = op.space
    if space.mode != "exact":
        kernel = ((lambda lam: space.difference_quotient(lam, normalized=True))
                  if quotient else space.normalized_kernel)
        return np.array([op.apply(kernel(lam)).norm() for lam in samples.points])
    pts = samples.points
    denom = np.array([one_minus_mod_sq(space.theta, w) for w in pts])
    scale = np.sqrt((1.0 - np.abs(pts)) * (1.0 + np.abs(pts)) / denom)
    A = op.matrix @ space.omega_matrix if quotient else op.matrix
    N = space.dim
    if (isinstance(space.theta, Monomial) and samples.tensor is not None
            and samples.tensor[1] >= N):  # fft(n=J < N) would truncate
        radii, J = samples.tensor
        powers = np.arange(N)
        norms = []
        for r in radii:
            Ar = A * r ** powers
            cols = (J * np.fft.ifft(Ar, n=J, axis=1) if quotient
                    else np.fft.fft(Ar, n=J, axis=1))
            norms.append(np.linalg.norm(cols, axis=0))
        return np.concatenate(norms) * scale
    E = space._tm_eval(pts)  # (L, N)
    return np.linalg.norm(A @ (E.T if quotient else E.conj().T), axis=0) * scale


def rho_r(op: TTOperator, samples: SampleSet) -> float:
    """max over the sample set of ||A h_lambda||_2 (a lower bound for rho_r)."""
    return float(np.max(_kernel_norms(op, samples, quotient=False)))


def rho_d(op: TTOperator, samples: SampleSet) -> float:
    """max over the sample set of ||A h~_lambda||_2."""
    return float(np.max(_kernel_norms(op, samples, quotient=True)))


def rho(op: TTOperator, samples: SampleSet) -> float:
    return max(rho_r(op, samples), rho_d(op, samples))


def rho_scan_rows(op: TTOperator, samples: SampleSet):
    """Rows (re lambda, im lambda, ||A h_lambda||_2, ||A h~_lambda||_2)."""
    nr = _kernel_norms(op, samples, quotient=False)
    nd = _kernel_norms(op, samples, quotient=True)
    return [(float(lam.real), float(lam.imag), float(a), float(b))
            for lam, a, b in zip(samples.points, nr, nd)]


def write_rho_scan_csv(op: TTOperator, samples: SampleSet, path) -> None:
    """CSV export of a rho scan, one row per sample point."""
    rows = rho_scan_rows(op, samples)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re_lambda,im_lambda,norm_Ah,norm_Ahd\n")
        for row in rows:
            fh.write(",".join("%.12e" % v for v in row) + "\n")


def operator_norm(op: TTOperator, tol: float = 1e-8, budget: int = 500) -> float:
    """Spectral norm: largest singular value, or power iteration on closures."""
    if op.matrix is not None:
        if op.matrix.size == 1:
            return float(abs(op.matrix[0, 0]))
        return float(np.linalg.svd(op.matrix, compute_uv=False)[0])
    space = op.space
    rng = np.random.default_rng(7)
    f = ModelFunction(space, circle=CircleFunction(
        space.grid, rng.standard_normal(space.grid.n)
        + 1j * rng.standard_normal(space.grid.n)))
    f = space.project(f.as_circle())
    nrm = f.norm()
    if nrm == 0:
        return 0.0
    f = (1.0 / nrm) * f
    adj = adjoint(op)
    prev = 0.0
    for _ in range(budget):
        g = adj.apply(op.apply(f))
        val = math.sqrt(max(g.norm(), 0.0))
        if g.norm() == 0:
            return 0.0
        f = (1.0 / g.norm()) * g
        if abs(val - prev) <= tol * max(1.0, val):
            return val
        prev = val
    raise NoConvergence(f"power iteration did not stabilize within {budget} steps")


# ---------------------------------------------------------------------------
# measures

def measure_operator(space: ModelSpace, measure: MeasureSymbol,
                     budget: int = 4096) -> TTOperator:
    """A_mu with <A_mu f, g> = int f conj(g) d mu.

    Point masses must sit at points with an angular-derivative certificate;
    an inconclusive certificate is rejected with a diagnostic.
    """
    if space.mode != "exact":
        raise UnsupportedVariant("measure operators are assembled in exact mode")
    N = space.dim
    M = np.zeros((N, N), dtype=complex)
    for pt, mass in measure.atoms:
        cert = has_angular_derivative(space.theta, pt, budget=budget)
        if not cert:
            raise NoAngularDerivative(
                f"atom at angle {pt.angle}: certificate is '{cert.verdict}'")
        v = space._tm_eval([pt.value])[0]
        M += mass * np.outer(np.conj(v), v)
    if measure.density is not None:
        M += space.compress(measure.density.on_grid(space.grid).samples)
    return TTOperator(space, matrix=M, symbol=measure)


# ---------------------------------------------------------------------------
# diagnostics

def hankel_factor_residual(op: TTOperator, f: ModelFunction) -> float:
    """|| A_phi f - Theta P_-(conj(Theta) phi f) ||_2 on the grid.

    The factorization through the Hankel operator with symbol
    conj(Theta) phi holds exactly; the residual is quadrature noise.
    """
    space = op.space
    if not isinstance(op.symbol, (BoundarySymbol, PairSymbol)):
        raise UnsupportedVariant("needs a boundary or pair symbol")
    phi = op.symbol.samples_on(space)
    fs = f.as_circle().samples
    lhs = op.apply(f).as_circle().samples
    hank = riesz_minus(CircleFunction(space.grid,
                                      np.conj(space.theta_samples) * phi * fs))
    rhs = space.theta_samples * hank.samples
    return float(np.sqrt(np.mean(np.abs(lhs - rhs) ** 2)))


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
