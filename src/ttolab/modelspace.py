"""Model spaces K_Theta and their elements.

``ModelSpace`` picks one representation per class of Theta (see the class
docstrings); a ``ModelFunction`` is an element, one vector in its space's
coordinates: basis coefficients or grid samples.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

from .circle import (BoundaryGrid, CircleFunction, DEFAULT_GRID, fold, lp_norm,
                     pow2_at_least, riesz_plus_rows, toeplitz)
from .errors import (BandwidthOverflow, BoundaryPointNotNormalizable, NoConvergence,
                     UnsupportedVariant)
from .inner import (EDGE, InnerFunction, Monomial, _kernel_point, _point, kernel_scale,
                    phase_increment)

EXACT_DEGREE_CAP = 512
TM_BLOCK = 4096  # points per block of ModelSpace._tm_eval
GRAM_TOL = 1e-10  # largest Gram residual of the TM basis on its grid at which an exact
                  # space integrates sampled data (compress, project); beyond it NoConvergence


def _kernel_samples(theta: InnerFunction, lam, grid: BoundaryGrid, radius: float = 1.0,
                    sq=None, nodes=slice(None)):
    """k_lam(z) = (1 - conj(Theta(lam)) Theta(z))/(1 - conj(lam) z), z = radius * grid,
    at one point lam, or one row per point of a 1-D array lam, as ``_point`` gives;
    only at the grid nodes ``nodes`` (a slice), whose values are those of the full row.

    For a boundary lam = e^{i tau} (|lam| > 1 - EDGE) and Theta without singular
    part the samples are e^{i(Delta - w)/2} sin(Delta/2)/sin(w/2), w = t - tau, with
    Delta the phase increment of Theta from tau (``inner.phase_increment``), so
    nothing cancels next to lam; at lam itself, sq: the caller's ||k_lam||_2^2
    (``inner._kernel_point``).  Only boundary rows are tested for a node at lam:
    elsewhere |1 - conj(lam) z| >= 1 - |lam| >= EDGE.
    """
    lam = np.asarray(lam, dtype=complex)
    pts = np.atleast_1d(lam)
    z = grid.points[nodes] if radius == 1.0 else radius * grid.points[nodes]
    den = np.conj(pts)[:, None] * z
    num = np.conj(theta.eval(pts))[:, None] * theta.samples_at(grid, radius)[nodes]
    np.subtract(1.0, den, out=den)
    np.subtract(1.0, num, out=num)
    edge = np.flatnonzero(np.hypot(pts.real, pts.imag) > 1.0 - EDGE)  # as Python's abs
    if radius == 1.0 and not theta.has_singular_part():
        for i in edge:
            delta, w = phase_increment(theta, cmath.phase(pts[i]), 0.0, grid.angles[nodes])
            den[i] = np.sin(0.5 * w)
            num[i] = np.exp(0.5j * (delta - w)) * np.sin(0.5 * delta)
    hits = [(i, np.abs(den[i]) < 1e-13) for i in edge]
    for i, hit in hits:  # a boundary lam on the grid
        den[i, hit] = 1.0
    vals = np.divide(num, den, out=num)
    for i, hit in hits:
        vals[i, hit] = sq
    return vals if lam.ndim else vals[0]


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


PROJECT_BLOCK = 2 ** 15  # grid samples per stack that the rho columns of a GridSpace and
                         # rkt_failure_scan project at once (512 kB of complex samples)


def project_theta(theta_samples, rows):
    """P_Theta f = P_+ f - Theta P_+(conj(Theta) f) on a grid, for a stack of f.

    ``rows`` is an (..., n) array, each row the samples of one f on the grid
    where ``theta_samples`` are Theta's values, and so is the result: each
    P_+ is one FFT pair along the last axis for the whole stack
    (``riesz_plus_rows``).  The products run in place, in the formula's operand
    order: under FMA a complex product's bits depend on it.
    """
    second = riesz_plus_rows(np.multiply(np.conj(theta_samples), rows))
    first = riesz_plus_rows(rows)
    return np.subtract(first, np.multiply(theta_samples, second, out=second), out=first)


class ModelSpace:
    """K_Theta in the representation that ``ModelSpace(theta, n)`` chooses
    from Theta alone: ``ToeplitzSpace`` for z^N and ``TMSpace`` for other
    finite Blaschke products up to degree EXACT_DEGREE_CAP (mode "exact"),
    ``GridSpace`` (mode "truncated") otherwise.  A representation named
    directly, as ``GridSpace(theta, n)`` for the grid twin of an exact
    space, is taken as named.  The methods below run on every
    representation over its hooks: ``_setup(n)`` builds the grid and the
    rest, ``_multiplier``, ``_pair_multiplier`` and ``_outer`` give the
    (matrix, apply_fn, adjoint_fn) of an operator, ``_kernel_norms`` the rho
    columns (``TMSpace`` from its basis rows; elsewhere ``_unit_kernel_norms``,
    the columns before the kernel scale); ``_project_grid``, ``_kernel_at``,
    ``_omega`` and ``_backward_shift`` the vector of an element, which
    ``_samples``, ``_norm``, ``_weight`` and ``_coeffs`` read."""

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
        return self.theta.samples_at(self.grid)

    def require_basis(self, what: str) -> None:
        """Raise UnsupportedVariant, naming ``what``, on a space without a basis."""

    def zero(self) -> "ModelFunction":
        """The zero element: a zero vector shaped as a kernel's."""
        return ModelFunction(self, np.zeros_like(self._kernel_at(0.0)))

    def from_coeffs(self, c) -> "ModelFunction":
        self.require_basis("coefficient vectors")
        return ModelFunction(self, c)

    # -- core operations ---------------------------------------------------

    def project(self, f) -> "ModelFunction":
        """Orthogonal projection P_Theta = P_+ - Theta P_+ conj(Theta) applied to f."""
        if isinstance(f, ModelFunction):
            if f.space is self:
                return f
            f = f.as_circle()
        if f.grid is not self.grid:
            f = f.on_grid(self.grid)
        return ModelFunction(self, self._project_grid(f))

    def kernel(self, pt) -> "ModelFunction":
        """Reproducing kernel k_pt(z) = (1 - conj(Theta(pt)) Theta(z))/(1 - conj(pt) z) at
        pt, as ``inner._kernel_point`` reads it (NoAngularDerivative at an uncertified one)."""
        return ModelFunction(self, self._kernel_at(*_kernel_point(self.theta, pt)))

    def normalized_kernel(self, pt) -> "ModelFunction":
        """h_pt = sqrt((1-|pt|^2)/(1-|Theta(pt)|^2)) k_pt; unit norm at interior points."""
        w, boundary = _point(pt)
        if boundary:
            raise BoundaryPointNotNormalizable("|Theta| = 1 on the boundary")
        return kernel_scale(self.theta, w) * self.kernel(w)

    def omega(self, f):
        """Conjugation (omega f)(zeta) = conj(zeta f(zeta)) Theta(zeta); same kind out."""
        if isinstance(f, ModelFunction):
            return ModelFunction(self, self._omega(f.vec))
        return CircleFunction(self.grid, self._omega_rows(f.samples))

    def _omega_rows(self, rows):
        """omega of each row of an (..., n) stack of grid samples."""
        out = np.multiply(self.grid.points, rows)
        return np.multiply(np.conj(out, out=out), self.theta_samples, out=out)

    def difference_quotient(self, pt) -> "ModelFunction":
        """k~_pt(z) = (Theta(z) - Theta(pt))/(z - pt) = omega(k_pt)."""
        return self.omega(self.kernel(pt))

    def backward_shift(self, f: "ModelFunction") -> "ModelFunction":
        """S* f = (f - f(0))/z, which leaves K_Theta invariant."""
        return ModelFunction(self, self._backward_shift(f.vec))

    def _kernel_norms(self, op, samples, quotient: bool):
        """||A h_lambda||_2, or ||A h~_lambda||_2 when quotient, at every sample
        point: ``_unit_kernel_norms`` times the kernel scale of the whole
        sample set (``inner.kernel_scale``); ``TMSpace`` takes its own."""
        return self._unit_kernel_norms(op, samples, quotient) * kernel_scale(
            self.theta, samples.points)


class GridSpace(ModelSpace):
    """Any Theta, by samples on the boundary grid: P_Theta is ``project_theta``
    and an operator a multiply-then-project closure.  There is no basis.

    An operator is two closures, A and A* (``_multiplier``,
    ``_pair_multiplier``, ``_outer``), each mapping an (..., n) stack of grid
    sample rows to the stack of their images, so the rho columns apply A once
    per block of kernel rows."""

    mode = "truncated"

    def _setup(self, n):
        self.grid = BoundaryGrid(DEFAULT_GRID if n is None else n)
        self._weight = 1.0 / self.grid.n  # <f, g> = vdot(g, f) / n on the samples

    def require_basis(self, what: str) -> None:
        raise UnsupportedVariant(f"{what} needs an exact model space (a finite Blaschke product)")

    def _samples(self, vec):
        return vec

    def _norm(self, vec):
        return lp_norm(vec, 2)

    def _coeffs(self, vec):  # no basis
        return None

    def _project_grid(self, f):
        return project_theta(self.theta_samples, f.samples)

    def _kernel_at(self, w, sq=None):
        return _kernel_samples(self.theta, w, self.grid, sq=sq)

    _omega = ModelSpace._omega_rows  # an element's vector is one row of samples

    def _backward_shift(self, vec):  # np.mean: the zeroth Fourier coefficient
        return (vec - complex(np.mean(vec))) * np.conj(self.grid.points)

    def _multiplier(self, phi, bandwidth):
        """rows -> P_Theta(phi rows) and rows -> P_Theta(conj(phi) rows); a
        known bandwidth must stay below n/4."""
        if bandwidth is not None and bandwidth >= self.grid.n // 4:
            raise BandwidthOverflow(f"symbol bandwidth {bandwidth} >= grid/4; enlarge the grid")
        phi_bar = np.conj(phi)
        return (None, lambda rows: project_theta(self.theta_samples, phi * rows),
                lambda rows: project_theta(self.theta_samples, phi_bar * rows))

    def _pair_multiplier(self, plus, minus):
        return self._multiplier(plus.samples() + np.conj(minus.samples()), None)

    def _outer(self, x, y):
        """rows -> <row, y> x and rows -> <row, x> y, each inner product by
        one matrix product per stack."""
        xs, ys = x.samples(), y.samples()
        xc, yc = np.conj(xs), np.conj(ys)
        n = self.grid.n
        return (None, lambda rows: xs * (rows @ yc / n)[..., None],
                lambda rows: ys * (rows @ xc / n)[..., None])

    def _unit_kernel_norms(self, op, samples, quotient: bool):
        """||A k_lambda||_2, or ||A k~_lambda||_2 when quotient: the kernel (or
        quotient) rows of up to PROJECT_BLOCK grid samples at a time go through
        the closure as one stack; sample points are interior (``SampleSet``)."""
        pts = samples.points
        step = max(1, PROJECT_BLOCK // self.grid.n)
        out = np.empty(pts.size)
        for k in range(0, pts.size, step):
            rows = _kernel_samples(self.theta, pts[k:k + step], self.grid)
            if quotient:
                rows = self._omega_rows(rows)
            out[k:k + step] = lp_norm(op.apply_fn(rows), 2)
        return out


class TMSpace(ModelSpace):
    """A finite Blaschke product, in its orthonormal Takenaka-Malmquist basis.

    The kernels, S_Theta, the conjugation matrix W and every phi(S_Theta),
    phi in K_Theta, are closed forms in the zeros, accurate however close to
    the circle.  Elements carry coefficients; the grid serves only sampled
    data, its arrays computed on first read."""

    mode = "exact"
    _weight = 1.0  # the basis is orthonormal: <f, g> = vdot(g, f)

    def _setup(self, n):
        a, delta, _, mult = self.theta._zero_data
        if n is None:
            n = DEFAULT_GRID
            if (dmin := float(np.min(delta))) < 0.05:
                n = min(2 ** 16, pow2_at_least(int(96.0 / dmin)))
            n = max(n, pow2_at_least(8 * self.theta.degree()))
        self.grid = BoundaryGrid(n)
        self.zeros = np.repeat(a, mult)
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

        With Theta = u prod_a (a - z)/(1 - conj(a) z), u = ``theta.unimodular``
        (+-1 here), omega e_j = u (-1)^N e~_{N-1-j}, where e~ is the TM basis
        of the zeros in reverse order.  Swapping two adjacent zeros (a, c)
        changes only their two basis functions, by the unitary
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
        return (-1) ** N * self.theta.unimodular * basis[::-1].T

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
        array whose row j holds e_j.  Points go in blocks of TM_BLOCK, built
        in place: each pass over the block's slice of the output, or over the
        one work array of Blaschke factors, stays in cache.
        """
        w = np.asarray(w, dtype=complex).ravel()
        a, scale = self.zeros[:, None], self.scales[:, None]
        out = np.empty((self.dim, w.size), dtype=complex)
        work = np.empty((self.dim - 1, min(w.size, TM_BLOCK)), dtype=complex)
        for k in range(0, w.size, TM_BLOCK):
            wk = w[k:k + TM_BLOCK]
            block = out[:, k:k + TM_BLOCK]
            np.subtract(1.0, np.multiply(np.conj(a), wk, out=block), out=block)
            np.divide(1.0, block, out=block)  # 1/(1 - conj(a_j) w)
            prefix = np.subtract(wk, a[:-1], out=work[:, :wk.size])
            prefix *= block[:-1]  # row j: the j-th Blaschke factor
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

    def _samples(self, vec):
        return self.basis_samples @ vec

    def _norm(self, vec):
        return float(np.linalg.norm(vec))

    def _coeffs(self, vec):
        return vec

    def _project_grid(self, f):
        self._require_resolved()
        return self.basis_samples.conj().T @ f.samples / self.grid.n

    def _kernel_at(self, w, sq=None):
        return np.conj(self._tm_eval([w])[0])

    def _omega(self, vec):
        return self.omega_matrix @ np.conj(vec)

    def _backward_shift(self, vec):
        return self.sstar_matrix @ vec

    def _multiplier(self, phi, bandwidth):
        return self.compress(phi), None, None

    def _pair_multiplier(self, plus, minus):  # phi_plus(S) + phi_minus(S)^H
        a, b = self.analytic_operators(np.stack([plus.coeffs, minus.coeffs], axis=1))
        return a + b.conj().T, None, None

    def _outer(self, x, y):
        return np.outer(x.coeffs, np.conj(y.coeffs)), None, None

    def _kernel_norms(self, op, samples, quotient: bool):
        """||M conj(e)||/||e||, or ||M W e||/||e||, e = e(lambda), by one dense
        product: k_lambda = conj(e), so no 1 - |lambda|^2 or 1 - |Theta|^2 enters."""
        M = op.matrix
        E = self._tm_eval(samples.points)  # (L, N)
        # ||M conj(e)|| = ||conj(M) e||: conjugate the N x N matrix, not the L x N one
        A = M @ self.omega_matrix if quotient else np.conj(M)
        return np.linalg.norm(A @ E.T, axis=0) / np.linalg.norm(E, axis=1)

    def compress(self, w):
        """Matrix of f -> P_Theta(w f) in the basis for w sampled on the grid (a
        pair symbol has ``analytic_operators``); OverflowError if not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
            out = self._compress(w)
        if not np.isfinite(out).all():
            raise OverflowError("compressed symbol is not finite")
        return out

    def _compress(self, w):  # B^H (w B) / n, the uniform rule on the grid
        self._require_resolved()
        weighted = self.basis_samples.conj()  # one n x N temporary
        weighted *= w[:, None]
        return weighted.T @ self.basis_samples / self.grid.n

    @functools.cached_property
    def gram_residual(self) -> float:
        """Max deviation of the basis Gram matrix on the grid from the
        identity, computed on first read."""
        g = self.basis_samples.conj().T @ self.basis_samples / self.grid.n
        return float(np.max(np.abs(g - np.eye(self.dim))))

    def _require_resolved(self) -> None:
        """NoConvergence unless the uniform rule on the grid integrates the
        basis to GRAM_TOL: past it, sampled data would be integrated wrong."""
        if not self.gram_residual <= GRAM_TOL:
            raise NoConvergence(f"a grid of n = {self.grid.n} points does not resolve the "
                                f"basis: Gram residual {self.gram_residual:.3g} > {GRAM_TOL:g}")


class ToeplitzSpace(TMSpace):
    """K_{z^N}: e_j = z^j, so a projection is the first N Fourier coefficients
    and a compression the Toeplitz matrix of the symbol's, both by one FFT
    with no basis array.  W is the exchange matrix, 1 - |Theta(lambda)|^2 is
    1 - |lambda|^{2N} (``inner.one_minus_mod_sq``), and rho on a
    rotation-closed set takes one DFT per radius."""

    def _project_grid(self, f):  # c_j = hat f(j mod n)
        return f.coeffs[np.arange(self.dim) % self.grid.n]

    def _compress(self, w):  # the same rule: c[(i - j) mod n], c = fft(w) / n
        c = np.fft.fft(w) / self.grid.n
        return toeplitz(c[np.arange(1 - self.dim, self.dim) % self.grid.n])

    def _kernel_norms(self, op, samples, quotient: bool):
        """A rotation-closed set forms no basis rows: its DFT columns take the
        kernel scale (``ModelSpace``); any other set the rows of ``TMSpace``."""
        owner = TMSpace if samples.tensor is None else ModelSpace
        return owner._kernel_norms(self, op, samples, quotient)

    def _unit_kernel_norms(self, op, samples, quotient: bool):
        """||M conj(e)||, or ||M W e||, over a rotation-closed set lambda = r w^m,
        w = e^{2 pi i/J} (radius-major): with G = M^H M,
        ||M conj(e)||^2 = sum_{j,k} r^{j+k} G_jk w^{(j-k)m}.
        G is Hermitian, so with x_e(r) = r^e sum_j G[j, j+e] r^{2j} this is
        2 Re sum_e x_e w^{-em} - x_0: one length-J DFT per radius of x
        folded mod J, exact for any J since w^J = 1.  W is the exchange, so
        the quotient Gram is G reversed and its sum runs with the opposite
        sign (J times an inverse DFT).  The squares carry rounding of about
        eps ||M||^2; negative rounding is clamped to 0.
        """
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
    """An element of K_Theta: one vector ``vec`` in its space's coordinates,
    TM coefficients on an exact space and grid samples on a ``GridSpace``,
    which the space reads (``_samples``, ``_norm``, ``_weight``, ``_coeffs``)."""

    __slots__ = ("space", "vec")

    def __init__(self, space: ModelSpace, vec):
        self.space = space
        self.vec = np.asarray(vec, dtype=complex)

    @property
    def coeffs(self):
        """The basis coefficients, ``vec`` itself; None on a ``GridSpace``."""
        return self.space._coeffs(self.vec)

    def as_circle(self) -> CircleFunction:
        return CircleFunction(self.space.grid, self.samples())

    def samples(self):
        return self.space._samples(self.vec)

    def eval(self, w):
        """Value at a point of the disk: <f, k_w>."""
        return self.inner(self.space.kernel(w))

    def _peer(self, other: "ModelFunction"):
        """The vector of ``other``; ValueError unless it is in the same coordinates."""
        if other.space.mode != self.space.mode or other.vec.shape != self.vec.shape:
            raise ValueError("the two elements are in different coordinates of K_Theta")
        return other.vec

    def inner(self, other: "ModelFunction") -> complex:
        return complex(np.vdot(self._peer(other), self.vec) * self.space._weight)

    def norm(self) -> float:
        return self.space._norm(self.vec)

    def __add__(self, other):
        return ModelFunction(self.space, self.vec + self._peer(other))

    def __sub__(self, other):
        return ModelFunction(self.space, self.vec - self._peer(other))

    def __mul__(self, scalar):
        # array first, as CircleFunction scales: numpy's vector complex
        # product can round s * v and v * s apart
        return ModelFunction(self.space, self.vec * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self
