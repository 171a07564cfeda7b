"""Model spaces K_Theta and their elements.

Finite Blaschke products (no singular part, degree <= 512, not a family
truncation) get an exact orthonormal Takenaka-Malmquist (TM) basis;
everything else is represented by truncated Fourier data on a boundary
grid.  In exact mode the kernels, the compressed shift S_Theta, the
conjugation matrix W and every operator phi(S_Theta) with phi in K_Theta
are closed forms in the zeros, so they are accurate for any interior
point, including points far closer to the circle than a grid resolves.
The boundary grid of an exact space serves only grid consumers
(projections of sampled functions, ``compress`` of sampled symbols,
boundary samples of elements); its arrays are computed on first read.
On K_{z^N}, where the basis is e_j = z^j, a projection is the first N
Fourier coefficients and a compression the Toeplitz matrix of the
symbol's coefficients, both from one FFT, with no basis array.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .circle import (BoundaryGrid, CircleFunction, DEFAULT_GRID,
                     cauchy_refine, lp_norm, pow2_at_least, riesz_plus)
from .errors import (BoundaryPointNotNormalizable, NoAngularDerivative,
                     UnsupportedVariant)
from .inner import (BoundaryPoint, InnerFunction, Monomial,
                    has_angular_derivative, one_minus_mod_sq, phase_increment)

EXACT_DEGREE_CAP = 512
TM_BLOCK = 4096  # points per block of ModelSpace._tm_eval


def _point(pt):
    """(value, is_boundary) of a kernel point: |z| < 1, |z| = 1 to 1e-12 or a
    BoundaryPoint.  Any other point, NaN included, raises ValueError."""
    z = pt.value if isinstance(pt, BoundaryPoint) else complex(pt)
    if not abs(z) <= 1.0 + 1e-12:  # False for NaN too
        raise ValueError(f"kernel points must satisfy |z| < 1 or |z| = 1, got {z}")
    if isinstance(pt, BoundaryPoint):
        return z, True
    if abs(z) > 1.0 - 1e-12:
        return z / abs(z), True
    return z, False


def _kernel_samples(theta: InnerFunction, lam: complex, grid: BoundaryGrid,
                    radius: float = 1.0):
    """k_lam(z) = (1 - conj(Theta(lam)) Theta(z))/(1 - conj(lam) z), z = radius * grid.

    For a boundary lam = e^{i tau} and Theta without singular part the
    samples are e^{i(Delta - w)/2} sin(Delta/2)/sin(w/2), w = t - tau, with
    Delta the phase increment of Theta from tau (``inner.phase_increment``),
    so nothing cancels next to lam.
    """
    lam = complex(lam)
    if radius == 1.0 and abs(lam) > 1.0 - 1e-12 and not theta.has_singular_part():
        delta, w = phase_increment(theta, cmath.phase(lam), 0.0, grid.angles)
        den = np.sin(0.5 * w)
        num = np.exp(0.5j * (delta - w)) * np.sin(0.5 * delta)
    else:
        z = grid.points if radius == 1.0 else radius * grid.points
        den = 1.0 - np.conj(lam) * z
        num = 1.0 - np.conj(complex(theta.eval(lam))) * theta.samples_at(grid, radius)
    hit = np.abs(den) < 1e-13
    if np.any(hit):
        # boundary kernel evaluated at its own point: the limit is
        # ||k_zeta||_2^2 = |Theta'(zeta)|, from the Ahern-Clark certificate
        cert = has_angular_derivative(theta, lam)
        vals = num / np.where(hit, 1.0, den)
        vals[hit] = cert.value if cert else np.nan
        return vals
    return num / den


def _kernel_scale(theta: InnerFunction, lam: complex) -> float:
    """sqrt((1-|lam|^2)/(1-|Theta(lam)|^2)): k_lam times it is a unit vector."""
    return math.sqrt((1.0 - abs(lam)) * (1.0 + abs(lam))
                     / one_minus_mod_sq(theta, lam))


def _one_minus_abs2(a):
    """1 - |a|^2 to a few ulps relative, even for |a| near 1.

    Dekker's split makes each square exact as p + e, and 1 - p of the
    larger one is kept exact as a pair (Fast2Sum); the difference with the
    smaller square then cancels exactly (Sterbenz) wherever the result is
    small, so only the final sums round.
    """
    x, y = np.abs(a.real), np.abs(a.imag)

    def square(v):
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        lo = v - hi
        p = v * v
        return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo

    big, big_err = square(np.maximum(x, y))
    small, small_err = square(np.minimum(x, y))
    rest = 1.0 - big
    rest_err = (1.0 - rest) - big
    return ((rest - small) + rest_err) - (big_err + small_err)


def project_theta(theta_samples, f: CircleFunction) -> CircleFunction:
    """P_Theta f = P_+ f - Theta P_+(conj(Theta) f) on f's grid.

    ``theta_samples`` are Theta's values on that grid; f's cached Fourier
    coefficients, if any, are reused.
    """
    plus = riesz_plus(f)
    inner_part = riesz_plus(CircleFunction(f.grid, np.conj(theta_samples) * f.samples))
    return CircleFunction(f.grid, plus.samples - theta_samples * inner_part.samples)


class ModelSpace:
    """K_Theta together with a computational representation."""

    def __init__(self, theta: InnerFunction, n: int | None = None,
                 mode: str | None = None):
        self.theta = theta
        if mode is None:
            mode = ("exact" if theta.is_finite_blaschke()
                    and theta.degree() <= EXACT_DEGREE_CAP else "truncated")
        if mode == "exact" and not theta.is_finite_blaschke():
            raise UnsupportedVariant("exact mode needs a finite Blaschke product")
        self.mode = mode
        if n is None:
            n = DEFAULT_GRID
            if mode == "exact":
                dmin = min(z.delta for z in theta.zeros())
                if dmin < 0.05:
                    n = min(2 ** 16, pow2_at_least(int(96.0 / dmin)))
                n = max(n, pow2_at_least(8 * theta.degree()))
        self.grid = BoundaryGrid(n)
        if mode == "exact":
            self._init_exact()

    @functools.cached_property
    def theta_samples(self):
        """Theta on the grid, computed on first read."""
        return self.theta.boundary_samples(self.grid)

    @functools.cached_property
    def basis_samples(self):
        """(n, N) TM basis on the grid (exact mode), computed on first read."""
        return self._tm_eval(self.grid.points)

    # -- exact-mode internals -------------------------------------------

    def _init_exact(self):
        zeros = []
        for z in self.theta.zeros():
            zeros.extend([z.value] * z.mult)
        self.zeros = np.asarray(zeros, dtype=complex)
        self.dim = len(zeros)
        self.scales = np.sqrt(_one_minus_abs2(self.zeros))  # s_j of the TM basis
        self.shift_matrix = self._compressed_shift()
        self.sstar_matrix = self.shift_matrix.conj().T  # S* restricted to K_Theta
        self.omega_matrix = self._conjugation_matrix()

    def _compressed_shift(self):
        """Matrix of S_Theta = P_Theta M_z in the basis, in closed form.

        It is lower triangular: a_i on the diagonal and, below it, entry
        (i, j) = s_i s_j prod_{j<k<i} (-conj(a_k)) with s = sqrt(1-|a|^2).
        """
        a, s = self.zeros, self.scales
        prods = np.zeros((self.dim, self.dim), dtype=complex)
        for i in range(1, self.dim):  # row i from row i-1: one more factor
            prods[i, :i - 1] = prods[i - 1, :i - 1] * -np.conj(a[i - 1])
            prods[i, i - 1] = 1.0
        return np.diag(a) + s[:, None] * s[None, :] * prods

    def _conjugation_matrix(self):
        """W with omega(sum c_j e_j) = W conj(c), in closed form.

        With Theta = u prod_a (a - z)/(1 - conj(a) z), |u| = 1, omega e_j =
        u (-1)^N e~_{N-1-j}, where e~ is the TM basis of the zeros in reverse
        order.  Swapping two adjacent zeros (a, c) changes only their two
        basis functions, by the unitary
        U = [[s_a s_c, a - c], [conj(c) - conj(a), s_a s_c]] / (1 - conj(c) a),
        so the reversal is N rounds of disjoint swaps (odd-even
        transposition), each round one vectorised update of the rows of
        ``basis``.  A swap of equal zeros is the identity: it is skipped,
        and a round of only such swaps (all of K_{z^N}) costs nothing.
        """
        a, s, N = self.zeros, self.scales, self.dim
        basis = np.eye(N, dtype=complex)  # row k: the function at position k, in e
        order = np.arange(N)  # order[k]: index of the zero at position k
        for r in range(N):
            k = r % 2
            m = (N - k) // 2  # swaps (k, k+1), (k+2, k+3), ...
            p, q = order[k:k + 2 * m:2], order[k + 1:k + 2 * m:2]
            za, zc = a[p], a[q]
            order[k:k + 2 * m] = order[k:k + 2 * m].reshape(m, 2)[:, ::-1].ravel()
            same = za == zc
            if same.all():
                continue
            den = 1.0 - np.conj(zc) * za
            diag = np.where(same, 1.0, s[p] * s[q] / den)[:, None]
            lower = ((np.conj(zc) - np.conj(za)) / den)[:, None]
            upper = ((za - zc) / den)[:, None]
            pair = basis[k:k + 2 * m].reshape(m, 2, N)
            first = pair[:, 0] * diag
            first += pair[:, 1] * lower
            pair[:, 1] *= diag
            pair[:, 1] += pair[:, 0] * upper
            pair[:, 0] = first
        # u = Theta / prod_a b_a at a boundary point in the widest gap of the
        # zeros' angles, where every factor is far from 0/0
        t = np.sort(np.angle(a))
        gaps = np.diff(t, append=t[0] + 2.0 * math.pi)
        z0 = np.exp(1j * (t[np.argmax(gaps)] + 0.5 * np.max(gaps)))
        u = complex(self.theta.eval(z0)) / np.prod((a - z0) / (1.0 - np.conj(a) * z0))
        return (-1) ** N * u * basis[::-1].T

    def analytic_operators(self, coeffs):
        """phi(S_Theta), the matrix of A_phi, for phi = sum_j c_j e_j: one
        N x N matrix per column c of ``coeffs`` (an (N,) or (N, K) array).

        Column j of phi(S_Theta) is phi(S_Theta) e_j = e_j(S_Theta) c, and
        the TM recurrence gives e_0(S) c = s_0 (I - conj(a_0) S)^{-1} c and
        e_j(S) c = r_j (S - a_{j-1}) (I - conj(a_j) S)^{-1} e_{j-1}(S) c,
        r_j = s_j/s_{j-1}.  Below its diagonal S has the entries
        s_i s_k prod_{k<l<i} (-conj(a_l)), so S y and the solve of
        (I - conj(b) S) x = z are forward substitutions, each with one
        carried sum v_{i+1} = -conj(a_i) v_i + s_i y_i.  Step j merges its
        two sums into one, g = r_j v(y) + conj(a_j) v(x) (r_0 v(y) left
        out), and entry i is x_i = (r_j (a_i - a_{j-1}) y_i + s_i g_i) /
        (1 - conj(a_j) a_i), with a_i - a_{-1} read as 1.  Entry i of
        column j needs only entries <= i of column j - 1, so all columns
        advance together along the anti-diagonals i + j = d: 2N - 1
        vectorised steps and O(N^2) work per column of ``coeffs``, with no
        inverse, quadrature or grid.
        """
        a, s, N = self.zeros, self.scales, self.dim
        c = np.asarray(coeffs, dtype=complex).reshape(N, -1)
        K = c.shape[1]
        ab = np.conj(a)
        ratio = np.concatenate([s[:1], s[1:] / s[:-1]])[:, None]
        den = 1.0 - ab[:, None] * a[None, :]  # [j, i], as every array below
        den[np.diag_indices(N)] = s * s  # 1 - |a_i|^2 as the basis has it
        diff = np.ones((N, N), dtype=complex)
        diff[1:] = a[None, :] - a[:-1, None]
        carry_y = ratio * s[None, :]
        carry_y[0] = 0.0
        P, G, H, A = (x.reshape(N * N, 1) for x in (
            ratio * diff / den, s[None, :] / den, carry_y, ab[:, None] * s[None, :]))
        decay = np.broadcast_to(-ab[None, :], (N, N)).reshape(N * N, 1)
        # table row 0 is c, row j + 1 column j of the result; with rows of
        # length N, entry (j, i = d - j) sits at j (N - 1) + d, so an
        # anti-diagonal is a slice of stride N - 1, and so is its output
        table = np.empty((N + 1, N, K), dtype=complex)
        table[0] = c
        flat = table.reshape(-1, K)
        g = np.zeros((N, K), dtype=complex)
        step = max(N - 1, 1)
        for d in range(2 * N - 1):
            j0, j1 = max(0, d - N + 1), min(d, N - 1)
            at = slice(j0 * (N - 1) + d, j1 * (N - 1) + d + 1, step)
            y, gj = flat[at], g[j0:j1 + 1]
            x = P[at] * y
            x += G[at] * gj
            flat[at.start + N:at.stop + N:step] = x
            gj *= decay[at]
            gj += H[at] * y
            gj += A[at] * x
        return table[1:].transpose(2, 1, 0)

    def _tm_eval(self, w):
        """Takenaka-Malmquist basis functions evaluated at points w (vectorized).

        e_j(w) = sqrt(1-|a_j|^2)/(1 - conj(a_j) w) * prod_{i<j} (w-a_i)/(1-conj(a_i) w)

        Returns an (L, N) array for L points: the transpose of the (N, L)
        array whose row j holds e_j.  Points go in blocks of TM_BLOCK, so
        each pass over an N x block temporary stays in cache.
        """
        w = np.asarray(w, dtype=complex).ravel()
        a, scale = self.zeros[:, None], self.scales[:, None]
        out = np.empty((self.dim, w.size), dtype=complex)
        for k in range(0, w.size, TM_BLOCK):
            wk = w[k:k + TM_BLOCK]
            block = out[:, k:k + TM_BLOCK]
            np.divide(1.0, 1.0 - np.conj(a) * wk, out=block)  # 1/(1 - conj(a_j) w)
            prefix = (wk - a[:-1]) * block[:-1]  # row j: the j-th Blaschke factor
            # row j becomes prod_{i<=j} of the factors: row by row, or for the
            # few points of a kernel in one accumulate instead of N - 1 calls
            if wk.size > 64:
                for j in range(1, len(prefix)):
                    prefix[j] *= prefix[j - 1]
            else:
                np.multiply.accumulate(prefix, axis=0, out=prefix)
            block[1:] *= prefix
            block *= scale
        return out.T

    # -- constructors of elements ----------------------------------------

    def from_coeffs(self, c) -> "ModelFunction":
        if self.mode != "exact":
            raise UnsupportedVariant("coefficient vectors need exact mode")
        return ModelFunction(self, coeffs=np.asarray(c, dtype=complex))

    def zero(self) -> "ModelFunction":
        if self.mode == "exact":
            return ModelFunction(self, coeffs=np.zeros(self.dim, dtype=complex))
        return ModelFunction(self, circle=CircleFunction(
            self.grid, np.zeros(self.grid.n, dtype=complex)))

    # -- core operations ---------------------------------------------------

    def project(self, f) -> "ModelFunction":
        """Orthogonal projection P_Theta = P_+ - Theta P_+ conj(Theta) applied to f."""
        if isinstance(f, ModelFunction):
            if f.space is self:
                return f
            f = f.as_circle()
        if f.grid is not self.grid:
            f = f.on_grid(self.grid)
        if self.mode == "exact":
            if isinstance(self.theta, Monomial):  # e_j = z^j: c_j = hat f(j mod n)
                c = f.coeffs[np.arange(self.dim) % self.grid.n]
            else:
                c = self.basis_samples.conj().T @ f.samples / self.grid.n
            return ModelFunction(self, coeffs=c)
        return ModelFunction(self, circle=project_theta(self.theta_samples, f))

    def kernel(self, pt) -> "ModelFunction":
        """Reproducing kernel k_pt(z) = (1 - conj(Theta(pt)) Theta(z))/(1 - conj(pt) z)."""
        w, boundary = _point(pt)
        if boundary:
            cert = has_angular_derivative(self.theta, w)
            if not cert:
                raise NoAngularDerivative(
                    f"no angular-derivative certificate at {w} ({cert.verdict})")
        if self.mode == "exact":
            return ModelFunction(self, coeffs=np.conj(self._tm_eval([w])[0]))
        return ModelFunction(self, circle=CircleFunction(
            self.grid, _kernel_samples(self.theta, w, self.grid)))

    def normalized_kernel(self, pt) -> "ModelFunction":
        """h_pt = sqrt((1-|pt|^2)/(1-|Theta(pt)|^2)) k_pt; unit norm at interior points."""
        w, boundary = _point(pt)
        if boundary:
            raise BoundaryPointNotNormalizable("|Theta| = 1 on the boundary")
        return _kernel_scale(self.theta, w) * self.kernel(w)

    def omega(self, f):
        """Conjugation (omega f)(zeta) = conj(zeta f(zeta)) Theta(zeta); same kind out."""
        if isinstance(f, ModelFunction):
            if self.mode == "exact" and f.coeffs is not None:
                return ModelFunction(self, coeffs=self.omega_matrix @ np.conj(f.coeffs))
            g = self.omega(f.as_circle())
            return ModelFunction(self, circle=g)
        samples = np.conj(self.grid.points * f.samples) * self.theta_samples
        return CircleFunction(self.grid, samples)

    def difference_quotient(self, pt, normalized: bool = False) -> "ModelFunction":
        """k~_pt(z) = (Theta(z) - Theta(pt))/(z - pt) = omega(k_pt)."""
        w, boundary = _point(pt)
        out = self.omega(self.kernel(pt))
        if normalized:
            if boundary:
                raise BoundaryPointNotNormalizable("|Theta| = 1 on the boundary")
            out = _kernel_scale(self.theta, w) * out
        return out

    def backward_shift(self, f: "ModelFunction") -> "ModelFunction":
        """S* f = (f - f(0))/z, which leaves K_Theta invariant."""
        if self.mode == "exact" and f.coeffs is not None:
            return ModelFunction(self, coeffs=self.sstar_matrix @ f.coeffs)
        g = f.as_circle()
        value = complex(np.mean(g.samples))  # zeroth Fourier coefficient
        samples = (g.samples - value) * np.conj(self.grid.points)
        return ModelFunction(self, circle=CircleFunction(self.grid, samples))

    def compress(self, w):
        """Matrix of f -> P_Theta(w f) in the basis, B^H (w B) / n by the
        uniform rule on the grid (exact mode; w holds samples on the grid).

        On K_{z^N} (e_j = z^j) the same rule is the Toeplitz matrix
        c[(i - j) mod n] with c = fft(w) / n, and no n x N array is formed.
        Only for symbols known by their samples and for measure densities;
        a symbol phi_plus + conj(phi_minus) with phi_+- in K_Theta has the
        closed form of ``analytic_operators``.  Raises OverflowError when
        the matrix is not finite.
        """
        n = self.grid.n
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            if isinstance(self.theta, Monomial):
                c = np.fft.fft(w) / n
                i = np.arange(self.dim)
                out = c[(i[:, None] - i[None, :]) % n]
            else:
                weighted = self.basis_samples.conj()  # one n x N temporary
                weighted *= w[:, None]
                out = weighted.T @ self.basis_samples / n
        if not np.isfinite(out).all():
            raise OverflowError("compressed symbol is not finite")
        return out

    def gram_residual(self) -> float:
        """Max deviation of the basis Gram matrix from the identity (exact mode)."""
        g = self.basis_samples.conj().T @ self.basis_samples / self.grid.n
        return float(np.max(np.abs(g - np.eye(self.dim))))


PROJECTION_TOL = 1e-8  # relative L^2 change that ends projection_residual's doubling


def projection_residual(theta: InnerFunction, sampler, max_n: int = 2 ** 16):
    """Grid-doubling Cauchy residual of a truncated-mode projection.

    ``sampler(grid)`` produces the boundary data on any grid; the
    projection is computed on DEFAULT_GRID and doublings until the L^2
    difference of consecutive results (compared on the coarse grid) drops
    below PROJECTION_TOL.  Returns (ModelFunction on the final grid,
    achieved residual, final grid size).
    """
    def compute(m):
        space = ModelSpace(theta, n=m, mode="truncated")
        return space.project(sampler(space.grid))

    def distance(prev, cur):
        down = cur.as_circle().on_grid(prev.space.grid)
        diff = down.samples - prev.as_circle().samples
        return lp_norm(diff, 2) / max(1.0, prev.norm())

    return cauchy_refine(compute, DEFAULT_GRID, PROJECTION_TOL, max_n, distance)


def tm_basis(theta: InnerFunction, n: int | None = None) -> list[CircleFunction]:
    """Orthonormal Takenaka-Malmquist basis of K_Theta as boundary functions."""
    space = ModelSpace(theta, n=n, mode="exact")
    return [CircleFunction(space.grid, space.basis_samples[:, j])
            for j in range(space.dim)]


class ModelFunction:
    """An element of K_Theta: basis coefficients (exact) or grid samples."""

    __slots__ = ("space", "coeffs", "circle")

    def __init__(self, space: ModelSpace, coeffs=None, circle=None):
        if (coeffs is None) == (circle is None):
            raise ValueError("exactly one of coeffs/circle must be given")
        self.space = space
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=complex)
        self.circle = circle

    # -- representations ---------------------------------------------------

    def as_circle(self) -> CircleFunction:
        if self.circle is not None:
            return self.circle
        return CircleFunction(self.space.grid,
                              self.space.basis_samples @ self.coeffs)

    def samples(self):
        return self.as_circle().samples

    def eval(self, w):
        """Value at an interior point (reproducing evaluation)."""
        if self.coeffs is not None:
            return complex(self.space._tm_eval([w])[0] @ self.coeffs)
        k = self.space.kernel(w)
        return self.inner(k)

    def __call__(self, w):
        return self.eval(w)

    # -- Hilbert-space operations ------------------------------------------

    def inner(self, other: "ModelFunction") -> complex:
        if self.coeffs is not None and other.coeffs is not None:
            return complex(np.vdot(other.coeffs, self.coeffs))
        a, b = self.samples(), other.samples()
        return complex(np.vdot(b, a) / self.space.grid.n)

    def norm(self) -> float:
        if self.coeffs is not None:
            return float(np.linalg.norm(self.coeffs))
        return lp_norm(self.samples(), 2)

    def __add__(self, other):
        if self.coeffs is not None and other.coeffs is not None:
            return ModelFunction(self.space, coeffs=self.coeffs + other.coeffs)
        return ModelFunction(self.space,
                             circle=self.as_circle() + other.as_circle())

    def __sub__(self, other):
        if self.coeffs is not None and other.coeffs is not None:
            return ModelFunction(self.space, coeffs=self.coeffs - other.coeffs)
        return ModelFunction(self.space,
                             circle=self.as_circle() - other.as_circle())

    def __mul__(self, scalar):
        if self.coeffs is not None:
            return ModelFunction(self.space, coeffs=scalar * self.coeffs)
        return ModelFunction(self.space, circle=scalar * self.as_circle())

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


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
