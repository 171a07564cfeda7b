"""Constructive bounded-symbol machinery for K_{z^N} and Blaschke transports.

The three-way Fejer-window split keeps its window coefficients as exact
rationals, so the partition of unity is checked in exact arithmetic.  The
commutant-lifting step is realized by the Carathéodory-Fejér solution:
the minimal sup-norm analytic extension of prescribed Taylor data equals
the top singular value of the lower-triangular Toeplitz matrix, and the
extremal function is the quotient of the corresponding Schmidt pair.  That
pair comes from Lanczos on T^H T (``operators._lanczos_top_pair``, which
``operator_norm`` shares) when a Krylov space smaller than C^N certifies
it (Ritz residual and gap), and from the dense SVD otherwise.
"""

from __future__ import annotations

import cmath
import functools
from fractions import Fraction

import numpy as np

from .circle import (BoundaryGrid, CircleFunction, FourierPolynomial,
                     lp_norm, polynomial_values, pow2_at_least, toeplitz)
from .errors import DivisibilityViolated, SupportOverflow
from .inner import (BlaschkeProduct, InnerFunction, Monomial, ProductInner,
                    divides)
from .modelspace import ModelSpace, ToeplitzSpace
from .operators import (DEGENERATE_GAP, BoundarySymbol, SampleSet, TTOperator,
                        _lanczos_top_pair, build, rho, rho_r)


class QComplex:
    """Complex number with exact rational real/imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @classmethod
    def of(cls, z):
        if isinstance(z, QComplex):
            return z
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        other = QComplex.of(other)
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __mul__(self, q: Fraction):  # a rational scalar: all the windows need
        return QComplex(self.re * q, self.im * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        other = QComplex.of(other)
        return self.re == other.re and self.im == other.im

    def conjugate(self):
        return QComplex(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QComplex({self.re}, {self.im})"


def fejer_kernel(m: int) -> FourierPolynomial:
    """F_m with hat F_m(k) = 1 - |k|/m for |k| <= m; nonnegative, unit L^1 norm."""
    if m < 1:
        raise ValueError("Fejer order must be >= 1")
    return FourierPolynomial(
        {k: Fraction(m - abs(k), m) for k in range(-m + 1, m)})


class FejerWindowSet:
    """The three windows eta_1, eta_2, eta_3 splitting symbols on K_{z^N}.

    eta_1 = F_M, eta_2 = e^{2iMt}(2 F_{2M} - F_M), eta_3 = conj(eta_2),
    with M = floor((N+1)/3).  Their coefficient sum is exactly one on
    |n| <= min(3M, N); that range always contains the operator-relevant
    band |n| <= N-1 (for N = 1 mod 3 the identity genuinely fails at
    |n| = N, which no symbol of an operator on K_{z^N} ever uses).
    """

    def __init__(self, N: int):
        if N < 2:
            raise ValueError("window construction needs N >= 2")
        self.N = int(N)
        self.M = (N + 1) // 3
        M = self.M
        f_m = fejer_kernel(M)
        f_2m = fejer_kernel(2 * M)
        self.eta1 = f_m
        self.eta2 = (2 * f_2m - f_m).shift(2 * M)
        self.eta3 = self.eta2.conjugate()
        self.partition_range = min(3 * M, N)

    def windows(self):
        return self.eta1, self.eta2, self.eta3

    def partition_defect(self, upto: int):
        """Indices |n| <= upto where the coefficient sum differs from one."""
        bad = []
        for n in range(-upto, upto + 1):
            s = (Fraction(self.eta1.coeff(n)) + Fraction(self.eta2.coeff(n))
                 + Fraction(self.eta3.coeff(n)))
            if s != 1:
                bad.append(n)
        return bad

    def l1_norms(self, J: int | None = None):
        """Discrete L^1 norms (1/J) sum |eta(t_j)| over J uniform angles.

        For J beyond twice the window degree the mean of each Fejer kernel
        is exactly its zeroth coefficient, so the first norm is exactly one
        and the others are provably at most three.
        """
        if J is None:
            J = self.closure_angles()
        t = np.exp(2j * np.pi * np.arange(J) / J)
        return tuple(lp_norm(eta.evaluate(t), 1)
                     for eta in (self.eta1, self.eta2, self.eta3))

    def closure_angles(self) -> int:
        """Angle count making the discrete rotation-average identity exact."""
        return max(64, pow2_at_least(4 * self.M + self.N + 2))


def fejer_split(phi: FourierPolynomial, N: int):
    """Split phi = phi_1 + phi_2 + phi_3 through the windows (exact arithmetic).

    phi_1 lives on |n| < M, phi_2 is analytic, phi_3 coanalytic; the sum
    reproduces phi coefficient-exactly on the partition range.
    """
    if phi.degree() > N:
        raise SupportOverflow(f"symbol support {phi.degree()} exceeds N = {N}")
    exact = FourierPolynomial({k: QComplex.of(v) for k, v in phi.coeffs.items()})
    return tuple(FourierPolynomial({k: v * window[k] for k, v in exact.coeffs.items()
                                    if k in window})
                 for window in _window_coeffs(N))


@functools.lru_cache(maxsize=8)
def _window_coeffs(N: int):
    """The three windows' exact coefficients {k: Fraction} on K_{z^N}.

    Built once per N (one entry per distinct N, at most 8 kept); callers
    only read the dicts.
    """
    return tuple(eta.coeffs for eta in FejerWindowSet(N).windows())


# ---------------------------------------------------------------------------
# Carathéodory-Fejér minimal extension

CF_TAYLOR_MIN = 8  # least count of Taylor coefficients a CF extension divides out


class CFExtension:
    """Minimal-norm analytic extension of Taylor data c_0..c_{N-1}.

    ``taylor`` holds the extension's first max(N, CF_TAYLOR_MIN) Taylor
    coefficients, of which the assembly reads N, ``norm`` its sup norm
    (= top singular value of the Toeplitz matrix), and ``suboptimal`` flags
    the degenerate fallback that keeps the raw polynomial instead of the
    extremal all-pass quotient.
    """

    __slots__ = ("data", "norm", "taylor", "num", "den", "suboptimal",
                 "taylor_defect", "modulus_defect")

    def __init__(self, data, norm, taylor, num, den, suboptimal,
                 taylor_defect, modulus_defect):
        self.data = data
        self.norm = norm
        self.taylor = taylor
        self.num = num
        self.den = den
        self.suboptimal = suboptimal
        self.taylor_defect = taylor_defect
        self.modulus_defect = modulus_defect

    def boundary(self, grid: BoundaryGrid) -> CircleFunction:
        vals = polynomial_values(self.num, grid)
        if self.den is not None:
            vals /= polynomial_values(self.den, grid)
        return CircleFunction(grid, vals)


def _series_division(num, den, length):
    """First ``length`` Taylor coefficients of num/den (den[0] != 0).

    out[k] = (num[k] - sum_{j=1}^{min(k, m)} den[j] out[k-j]) / den[0], one
    dot product per coefficient, with m = len(den) - 1.
    """
    out = np.zeros(length, dtype=complex)
    rev = np.asarray(den[:0:-1])  # den[m], ..., den[1]
    m = len(rev)
    for k in range(length):
        top = min(k, m)
        acc = num[k] if k < len(num) else 0.0
        out[k] = (acc - np.dot(rev[m - top:], out[k - top:k])) / den[0]
    return out


def minimal_analytic_extension(coeffs) -> CFExtension:
    """Solve the Carathéodory-Fejér problem for the given Taylor data.

    The minimal sup norm equals the largest singular value sigma of the
    lower-triangular Toeplitz matrix T of the data; in the generic case of
    a simple sigma the extremal function sigma u(z)/w(z) built from the top
    Schmidt pair has constant modulus sigma and matches the data.  The pair
    comes from ``_lanczos_top_pair``, with numerator T w: (T w)(z) =
    c(z) w(z) mod z^N, so the quotient reproduces the data up to division
    rounding.  Where Lanczos does not certify the pair the dense SVD gives
    it, and a numerically multiple sigma there falls back to the raw
    polynomial, flagged suboptimal (the compression is then still
    reproduced exactly).
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    N = len(c)
    if N == 0:
        raise ValueError("need at least one coefficient")
    scale = float(np.max(np.abs(c)))
    if scale == 0.0:
        return CFExtension(c, 0.0, np.zeros(max(N, CF_TAYLOR_MIN), dtype=complex),
                           np.zeros(1, dtype=complex), None, False, 0.0, 0.0)
    if np.all(np.abs(c[1:]) <= 1e-15 * scale):
        taylor = np.zeros(max(N, CF_TAYLOR_MIN), dtype=complex)
        taylor[0] = c[0]
        return CFExtension(c, float(abs(c[0])), taylor,
                           np.array([c[0]]), None, False, 0.0, 0.0)
    T = toeplitz(np.concatenate([np.zeros(N - 1, dtype=complex), c]))
    pair = _lanczos_top_pair(T)
    if pair is None:
        U, s, Vh = np.linalg.svd(T)
        sigma = float(s[0])
        degenerate = N > 1 and (s[0] - s[1]) <= DEGENERATE_GAP * s[0]
        w = np.conj(Vh[0])
        num = sigma * U[:, 0]
    else:
        sigma, w, num = pair
        degenerate = False
    grid = _check_grid(N)
    if not (degenerate or abs(w[0]) < 1e-13):
        taylor = _series_division(num, w, max(N, CF_TAYLOR_MIN))
        ext = CFExtension(c, sigma, taylor, num, w, False,
                          float(np.max(np.abs(taylor[:N] - c))), 0.0)
        vals = ext.boundary(grid).samples
        ext.modulus_defect = float(np.max(np.abs(np.abs(vals) - sigma)))
        if (ext.taylor_defect <= 1e-8 * max(1.0, scale)
                and ext.modulus_defect <= 1e-6 * max(1.0, sigma)):
            return ext
    # fallback: ship the polynomial itself; norm is its sup, compression exact
    taylor = np.zeros(max(N, CF_TAYLOR_MIN), dtype=complex)
    taylor[:N] = c
    ext = CFExtension(c, 0.0, taylor, c.copy(), None, True, 0.0, float("nan"))
    ext.norm = lp_norm(ext.boundary(grid), np.inf)
    return ext


def _check_grid(N: int) -> BoundaryGrid:  # checks an extension of N coefficients
    return BoundaryGrid(max(4096, pow2_at_least(16 * N)))


# ---------------------------------------------------------------------------
# the central (neither analytic nor coanalytic) bound

def central_bound_check(space: ModelSpace, small: InnerFunction,
                        phi: CircleFunction, samples: SampleSet | None = None):
    """Return (||phi||_inf, 2 rho_r-hat) for phi in K_theta + conj(K_theta).

    Requires theta^3 | z Theta and Theta | theta^4; the sup bound by twice
    the kernel supremum then holds, and a sampled rho_r certifies it up to
    the sampling slack.
    """
    big = space.theta
    if not divides(ProductInner([small] * 3), ProductInner([Monomial(1), big])):
        raise DivisibilityViolated("theta^3 does not divide z Theta")
    if not divides(big, ProductInner([small] * 4)):
        raise DivisibilityViolated("Theta does not divide theta^4")
    if samples is None:
        samples = SampleSet.default(space)
    op = build(space, BoundarySymbol(phi))
    fine = BoundaryGrid(max(space.grid.n, 2 ** 14))
    sup = lp_norm(phi.on_grid(fine), np.inf)
    return sup, 2.0 * rho_r(op, samples)


# ---------------------------------------------------------------------------
# end-to-end assembly on K_{z^N}

class BoundedSymbolResult:
    """phi_0 = phi_1 + CF(phi_2) + conj(CF-data of phi_3): a bounded symbol."""

    __slots__ = ("phi1", "cf2", "cf3", "sup_norm", "rho_hat",
                 "measured_constant", "build_residual", "suboptimal")

    def __init__(self, phi1, cf2, cf3, sup_norm, rho_hat, measured_constant,
                 build_residual, suboptimal):
        self.phi1 = phi1
        self.cf2 = cf2
        self.cf3 = cf3
        self.sup_norm = sup_norm
        self.rho_hat = rho_hat
        self.measured_constant = measured_constant
        self.build_residual = build_residual
        self.suboptimal = suboptimal

    def boundary(self, grid: BoundaryGrid) -> CircleFunction:
        f = self.phi1.to_circle(grid)
        f = f + self.cf2.boundary(grid)
        f = f + self.cf3.boundary(grid).conj()
        return f


def symbol_from_matrix(M) -> FourierPolynomial:
    """Read the canonical symbol of a Toeplitz matrix off its diagonals;
    OverflowError where a diagonal's mean overflows."""
    M = np.asarray(M, dtype=complex)
    N = M.shape[0]
    coeffs = {}
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        for d in range(-(N - 1), N):  # the entries M[i, j] with i - j = d
            val = complex(np.diagonal(M, offset=-d).mean())
            if cmath.isinf(val):
                raise OverflowError(f"the mean of diagonal {d} is not finite")
            if val != 0:
                coeffs[d] = val
    return FourierPolynomial(coeffs)


def _toeplitz_from_taylor(plus_taylor, minus_taylor, central, N):
    """Matrix of A_phi on K_{z^N} from the parts' coefficient data.

    plus_taylor feeds frequencies 0..N-1; the coanalytic part is the
    conjugate of the function with Taylor data minus_taylor, so it feeds
    frequency -d with conj(minus_taylor[d]).
    """
    diag = np.zeros(2 * N - 1, dtype=complex)  # index d+N-1 holds hat(phi)(d)
    diag[N - 1:] += plus_taylor[:N]
    diag[N - 1::-1] += np.conj(minus_taylor[:N])
    for k, v in central.coeffs.items():
        if -(N - 1) <= k <= N - 1:
            diag[k + N - 1] += complex(v)
    return toeplitz(diag)


def assemble_bounded_symbol(op: TTOperator,
                            samples: SampleSet | None = None) -> BoundedSymbolResult:
    """Produce a bounded symbol for an operator on K_{z^N}.

    The Fejer split isolates a low-frequency central part (kept verbatim:
    it is a trigonometric polynomial, bounded by the central-bound
    machinery), an analytic part and a coanalytic part; the latter two are
    replaced by their minimal-norm extensions, which leaves the compression
    untouched because only Taylor data below N enters the matrix.
    """
    if not isinstance(op.space, ToeplitzSpace):
        raise ValueError("assembly is defined on K_{z^N}")
    N = op.space.dim
    phi = symbol_from_matrix(op.matrix)
    phi1, phi2, phi3 = fejer_split(phi, N)
    plus_data = np.array([complex(phi2.coeff(k)) for k in range(N)])
    minus_data = np.array([complex(phi3.coeff(-k)).conjugate() for k in range(N)])
    cf2 = minimal_analytic_extension(plus_data)
    cf3 = minimal_analytic_extension(minus_data)

    central = FourierPolynomial({k: complex(v) for k, v in phi1.coeffs.items()})
    rebuilt = _toeplitz_from_taylor(cf2.taylor, cf3.taylor, central, N)
    scale = max(1.0, float(np.linalg.norm(op.matrix)))
    build_residual = float(np.linalg.norm(rebuilt - op.matrix)) / scale

    grid = _check_grid(N)
    result = BoundedSymbolResult(central, cf2, cf3, 0.0, 0.0, 0.0,
                                 build_residual, cf2.suboptimal or cf3.suboptimal)
    sup = lp_norm(result.boundary(grid), np.inf)
    if samples is None:
        ws = FejerWindowSet(N)
        samples = SampleSet.rotation_closed(min(ws.closure_angles(), 512))
    rh = rho(op, samples)
    result.sup_norm = sup
    result.rho_hat = rh
    result.measured_constant = sup / rh if rh > 0 else float("inf")
    return result


# ---------------------------------------------------------------------------
# Blaschke transport

def blaschke_transport(op: TTOperator, alpha: complex) -> TTOperator:
    """Carry an operator on K_{z^N} to K_{b_alpha^N} by the canonical unitary.

    In Takenaka-Malmquist coordinates the unitary is the alternating sign
    diagonal, since U z^{j} is (-1)^j times the j-th basis function of the
    target space.
    """
    if not isinstance(op.space, ToeplitzSpace):
        raise ValueError("transport starts from K_{z^N}")
    alpha = complex(alpha)
    if not abs(alpha) < 1:
        raise ValueError("|alpha| < 1 required")
    N = op.space.dim
    target = ModelSpace(BlaschkeProduct([(alpha, N)]))
    D = np.diag((-1.0) ** np.arange(N))
    return TTOperator(target, matrix=D @ op.matrix @ D, symbol=None)
