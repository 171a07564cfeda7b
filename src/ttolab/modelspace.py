"""Model spaces K_Theta and their elements.

``ModelSpace`` picks one representation per class of Theta (see the class
docstrings); a ``ModelFunction`` is an element, by basis coefficients or
grid samples.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .circle import (BoundaryGrid, CircleFunction, DEFAULT_GRID, fold, lp_norm,
                     pow2_at_least, riesz_plus, toeplitz)
from .errors import (BandwidthOverflow, BoundaryPointNotNormalizable,
                     NoAngularDerivative, UnsupportedVariant)
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
    """K_Theta in the representation that ``ModelSpace(theta, n)`` chooses
    from Theta alone: ``ToeplitzSpace`` for z^N and ``TMSpace`` for other
    finite Blaschke products up to degree EXACT_DEGREE_CAP (mode "exact"),
    ``GridSpace`` (mode "truncated") otherwise.  A representation named
    directly, as ``GridSpace(theta, n)`` for the grid twin of an exact
    space, is taken as named.  The methods below run on every
    representation over its hooks: ``_setup(n)`` builds the grid and the
    rest, ``_multiplier``, ``_pair_multiplier`` and ``_outer`` give the
    (matrix, apply_fn) of an operator, ``_unit_kernel_norms`` the rho columns
    before the kernel scale."""

    mode: str  # "exact" or "truncated", set by each representation

    def __new__(cls, theta, n=None):
        if cls is ModelSpace:
            cls = (GridSpace if not theta.is_finite_blaschke()
                   or theta.degree() > EXACT_DEGREE_CAP
                   else ToeplitzSpace if isinstance(theta, Monomial) else TMSpace)
        return super().__new__(cls)

    def __init__(self, theta: InnerFunction, n: int | None = None):
        self.theta = theta
        self._setup(n)

    @functools.cached_property
    def theta_samples(self):
        """Theta on the grid, computed on first read."""
        return self.theta.boundary_samples(self.grid)

    def require_basis(self, what: str) -> None:
        """Raise UnsupportedVariant, naming ``what``, on a space without a basis."""

    def from_coeffs(self, c) -> "ModelFunction":
        self.require_basis("coefficient vectors")
        return ModelFunction(self, coeffs=np.asarray(c, dtype=complex))

    # -- core operations ---------------------------------------------------

    def project(self, f) -> "ModelFunction":
        """Orthogonal projection P_Theta = P_+ - Theta P_+ conj(Theta) applied to f."""
        if isinstance(f, ModelFunction):
            if f.space is self:
                return f
            f = f.as_circle()
        if f.grid is not self.grid:
            f = f.on_grid(self.grid)
        return self._project_grid(f)

    def kernel(self, pt) -> "ModelFunction":
        """Reproducing kernel k_pt(z) = (1 - conj(Theta(pt)) Theta(z))/(1 - conj(pt) z)."""
        w, boundary = _point(pt)
        if boundary:
            cert = has_angular_derivative(self.theta, w)
            if not cert:
                raise NoAngularDerivative(
                    f"no angular-derivative certificate at {w} ({cert.verdict})")
        return self._kernel_at(w)

    def normalized_kernel(self, pt) -> "ModelFunction":
        """h_pt = sqrt((1-|pt|^2)/(1-|Theta(pt)|^2)) k_pt; unit norm at interior points."""
        w, boundary = _point(pt)
        if boundary:
            raise BoundaryPointNotNormalizable("|Theta| = 1 on the boundary")
        return _kernel_scale(self.theta, w) * self.kernel(w)

    def omega(self, f):
        """Conjugation (omega f)(zeta) = conj(zeta f(zeta)) Theta(zeta); same kind out."""
        if isinstance(f, ModelFunction):
            return self._omega(f)
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
        return self._backward_shift(f)

    def _kernel_norms(self, op, samples, quotient: bool):
        """||A h_lambda||_2, or ||A h~_lambda||_2 when quotient, at every sample
        point: ``_unit_kernel_norms`` times the kernel scale
        sqrt((1-|lambda|^2)/(1-|Theta(lambda)|^2)), its denominators in one pass."""
        pts = samples.points
        mod = np.hypot(pts.real, pts.imag)  # |lambda| as one_minus_mod_sq takes it
        scale = np.sqrt((1.0 - mod) * (1.0 + mod) / self._one_minus_theta_sq(pts))
        return self._unit_kernel_norms(op, samples, quotient) * scale

    def _one_minus_theta_sq(self, pts):
        return one_minus_mod_sq(self.theta, pts)


class GridSpace(ModelSpace):
    """Any Theta, by samples on the boundary grid: P_Theta is ``project_theta``
    and an operator a multiply-then-project closure.  There is no basis."""

    mode = "truncated"

    def _setup(self, n):
        self.grid = BoundaryGrid(DEFAULT_GRID if n is None else n)

    def require_basis(self, what: str) -> None:
        raise UnsupportedVariant(f"{what} needs an exact model space (a finite Blaschke product)")

    def zero(self) -> "ModelFunction":
        return ModelFunction(self, circle=CircleFunction(self.grid, np.zeros(self.grid.n, complex)))

    def _project_grid(self, f):
        return ModelFunction(self, circle=project_theta(self.theta_samples, f))

    def _kernel_at(self, w):
        return ModelFunction(self, circle=CircleFunction(
            self.grid, _kernel_samples(self.theta, w, self.grid)))

    def _omega(self, f):
        return ModelFunction(self, circle=self.omega(f.as_circle()))

    def _backward_shift(self, f):
        g = f.as_circle()
        value = complex(np.mean(g.samples))  # zeroth Fourier coefficient
        samples = (g.samples - value) * np.conj(self.grid.points)
        return ModelFunction(self, circle=CircleFunction(self.grid, samples))

    def _multiplier(self, phi, bandwidth):
        """f -> P_Theta(phi f); a known bandwidth must stay below n/4."""
        if bandwidth is not None and bandwidth >= self.grid.n // 4:
            raise BandwidthOverflow(f"symbol bandwidth {bandwidth} >= grid/4; enlarge the grid")
        return None, lambda f: self.project(CircleFunction(self.grid, phi * f.as_circle().samples))

    def _pair_multiplier(self, plus, minus):
        return self._multiplier(plus.samples() + np.conj(minus.samples()), None)

    def _outer(self, x, y):
        return None, lambda f: f.inner(y) * x

    def _unit_kernel_norms(self, op, samples, quotient: bool):
        """||A k_lambda||_2, or ||A k~_lambda||_2 when quotient, point by point."""
        kernel = self.difference_quotient if quotient else self.kernel
        return np.array([op.apply(kernel(lam)).norm() for lam in samples.points])


class TMSpace(ModelSpace):
    """A finite Blaschke product, in its orthonormal Takenaka-Malmquist basis.

    The kernels, S_Theta, the conjugation matrix W and every phi(S_Theta),
    phi in K_Theta, are closed forms in the zeros, accurate however close to
    the circle.  Elements carry coefficients; the grid serves only sampled
    data, its arrays computed on first read."""

    mode = "exact"

    def _setup(self, n):
        if n is None:
            n = DEFAULT_GRID
            dmin = min(z.delta for z in self.theta.zeros())
            if dmin < 0.05:
                n = min(2 ** 16, pow2_at_least(int(96.0 / dmin)))
            n = max(n, pow2_at_least(8 * self.theta.degree()))
        self.grid = BoundaryGrid(n)
        self.zeros = np.array([z.value for z in self.theta.zeros() for _ in range(z.mult)],
                              dtype=complex)
        self.dim = len(self.zeros)
        self.scales = np.sqrt(_one_minus_abs2(self.zeros))  # s_j of the TM basis
        self.shift_matrix = self._compressed_shift()
        self.sstar_matrix = self.shift_matrix.conj().T  # S* restricted to K_Theta
        self.omega_matrix = self._conjugation_matrix()

    @functools.cached_property
    def basis_samples(self):
        """(n, N) TM basis on the grid, computed on first read."""
        return self._tm_eval(self.grid.points)

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

    def zero(self) -> "ModelFunction":
        return ModelFunction(self, coeffs=np.zeros(self.dim, dtype=complex))

    def _project_grid(self, f):
        return ModelFunction(self, coeffs=self.basis_samples.conj().T @ f.samples / self.grid.n)

    def _kernel_at(self, w):
        return ModelFunction(self, coeffs=np.conj(self._tm_eval([w])[0]))

    def _omega(self, f):
        return ModelFunction(self, coeffs=self.omega_matrix @ np.conj(f.coeffs))

    def _backward_shift(self, f):
        return ModelFunction(self, coeffs=self.sstar_matrix @ f.coeffs)

    def _multiplier(self, phi, bandwidth):
        return self.compress(phi), None

    def _pair_multiplier(self, plus, minus):  # phi_plus(S) + phi_minus(S)^H
        a, b = self.analytic_operators(np.stack([plus.coeffs, minus.coeffs], axis=1))
        return a + b.conj().T, None

    def _outer(self, x, y):
        return np.outer(x.coeffs, np.conj(y.coeffs)), None

    def _unit_kernel_norms(self, op, samples, quotient: bool):
        """||M conj(e(lambda))||, or ||M W e(lambda)||, by one dense product."""
        M = op.matrix
        A = M @ self.omega_matrix if quotient else M
        E = self._tm_eval(samples.points)  # (L, N)
        # ||M conj(e)|| = ||conj(M) e||: conjugate the N x N matrix, not the L x N one
        return np.linalg.norm((A if quotient else np.conj(A)) @ E.T, axis=0)

    def compress(self, w):
        """Matrix of f -> P_Theta(w f) in the basis for w sampled on the grid (a
        pair symbol has ``analytic_operators``); OverflowError if not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            out = self._compress(w)
        if not np.isfinite(out).all():
            raise OverflowError("compressed symbol is not finite")
        return out

    def _compress(self, w):  # B^H (w B) / n, the uniform rule on the grid
        weighted = self.basis_samples.conj()  # one n x N temporary
        weighted *= w[:, None]
        return weighted.T @ self.basis_samples / self.grid.n

    def gram_residual(self) -> float:
        """Max deviation of the basis Gram matrix from the identity."""
        g = self.basis_samples.conj().T @ self.basis_samples / self.grid.n
        return float(np.max(np.abs(g - np.eye(self.dim))))


class ToeplitzSpace(TMSpace):
    """K_{z^N}: e_j = z^j, so a projection is the first N Fourier coefficients
    and a compression the Toeplitz matrix of the symbol's, both by one FFT
    with no basis array.  W is the exchange matrix, 1 - |Theta(lambda)|^2 is
    1 - |lambda|^{2N} (``inner.one_minus_mod_sq``), and rho on a
    rotation-closed set takes one DFT per radius."""

    def _project_grid(self, f):  # c_j = hat f(j mod n)
        return ModelFunction(self, coeffs=f.coeffs[np.arange(self.dim) % self.grid.n])

    def _compress(self, w):  # the same rule: c[(i - j) mod n], c = fft(w) / n
        c = np.fft.fft(w) / self.grid.n
        return toeplitz(c[np.arange(1 - self.dim, self.dim) % self.grid.n])

    def _one_minus_theta_sq(self, pts):
        # one scalar closed-form call per rho point: on K_{z^16},
        # bench/test_bench.py::test_traced_run_reports_every_layer_metric
        # asserts as many inner.one_minus_mod_sq calls as operators.rho_points
        return np.array([one_minus_mod_sq(self.theta, w) for w in pts.tolist()])

    def _unit_kernel_norms(self, op, samples, quotient: bool):
        """The dense product's columns over a rotation-closed set lambda = r w^m,
        w = e^{2 pi i/J} (radius-major): with G = M^H M,
        ||M conj(e)||^2 = sum_{j,k} r^{j+k} G_jk w^{(j-k)m}.
        G is Hermitian, so with x_e(r) = r^e sum_j G[j, j+e] r^{2j} this is
        2 Re sum_e x_e w^{-em} - x_0: one length-J DFT per radius of x
        folded mod J, exact for any J since w^J = 1.  W is the exchange, so
        the quotient Gram is G reversed and its sum runs with the opposite
        sign (J times an inverse DFT).  The squares carry rounding of about
        eps ||M||^2; negative rounding is clamped to 0.
        """
        if samples.tensor is None:
            return super()._unit_kernel_norms(op, samples, quotient)
        radii, J = samples.tensor
        M = op.matrix
        N = M.shape[0]
        G = M.conj().T @ M
        G = G[::-1, ::-1] if quotient else G
        # U[j, e] = G[j, j + e] (0 past N): G in an N x 2N block read with row length 2N + 1
        flat = np.zeros(N * (2 * N + 1), dtype=complex)
        flat[:2 * N * N].reshape(N, 2 * N)[:, N:] = G
        U = flat.reshape(N, 2 * N + 1)[:, N:2 * N]
        j = np.arange(N)
        x = U.T @ (radii[None, :] ** (2 * j)[:, None]) * radii[None, :] ** j[:, None]
        folded = fold(x, J)
        sums = J * np.fft.ifft(folded, axis=0) if quotient else np.fft.fft(folded, axis=0)
        return np.sqrt(np.maximum(2.0 * sums.real - x[0].real, 0.0)).T.ravel()


def tm_basis(theta: InnerFunction) -> list[CircleFunction]:
    """Orthonormal Takenaka-Malmquist basis of K_Theta as boundary functions."""
    space = ModelSpace(theta)
    space.require_basis("the Takenaka-Malmquist basis")
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
