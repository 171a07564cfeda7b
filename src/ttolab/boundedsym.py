"""Constructive bounded-symbol machinery for K_{z^N} and Blaschke transports.

The three-way Fejer-window split multiplies each coefficient of a symbol by
its window coefficients, integer tents over M, in exact rationals, so the
partition of unity is checked in exact arithmetic.  The
commutant-lifting step is realized by the Carathéodory-Fejér solution:
the minimal sup-norm analytic extension of prescribed Taylor data equals
the top singular value of the lower-triangular Toeplitz matrix, and the
extremal function is the quotient of the corresponding Schmidt pair.  That
pair comes from ``operators._lanczos_top_pair`` on T^H T (``operator_norm``'s
route for persymmetric matrices) when a Krylov space smaller than C^N
certifies it (Ritz residual and gap), and from the dense SVD otherwise.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .circle import (BoundaryGrid, CircleFunction, FourierPolynomial, fold,
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

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        other = QComplex.of(other)
        return self.re == other.re and self.im == other.im

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


def _tent(width, j):  # (width - |j|)_+, for an int or an integer array j
    return (width - abs(j)) * (abs(j) < width)


class FejerWindowSet:
    """The three windows eta_1, eta_2, eta_3 splitting symbols on K_{z^N}.

    eta_1 = F_M, eta_2 = e^{2iMt}(2 F_{2M} - F_M), eta_3 = conj(eta_2),
    with M = max(1, floor((N+1)/3)); nothing is tabulated (``tents``).
    Their coefficient sum is exactly one on |n| <= min(3M, N); that range
    always contains the operator-relevant band |n| <= N-1 (for N = 1 mod 3
    the identity genuinely fails at |n| = N, which no symbol of an
    operator on K_{z^N} ever uses).
    """

    def __init__(self, N: int):
        if N < 1:
            raise ValueError("window construction needs N >= 1")
        self.N = int(N)
        self.M = max(1, (self.N + 1) // 3)
        self.partition_range = min(3 * self.M, self.N)

    def tents(self, n):
        """M times the windows' coefficients at the index n (exact ints, of any
        size) or at each index of an integer array n: (M - |n|)_+ for eta_1, and
        (2M - |j|)_+ - (M - |j|)_+ at j = n - 2M for eta_2, j = -n - 2M for eta_3."""
        M = self.M
        j2, j3 = n - 2 * M, -n - 2 * M
        return (_tent(M, n), _tent(2 * M, j2) - _tent(M, j2), _tent(2 * M, j3) - _tent(M, j3))

    def partition_defect(self, upto: int):
        """Indices |n| <= upto where the coefficient sum differs from one."""
        return [n for n in range(-upto, upto + 1) if sum(self.tents(n)) != self.M]

    def l1_norms(self, J: int | None = None):
        """Discrete L^1 norms (1/J) sum |eta(t_j)| over J uniform angles.

        Each window's values, one inverse FFT of its tents over M folded mod J
        (t_j^J = 1) from its lowest nonzero index lo, carry a factor t_j^-lo of
        modulus one; the roll by lo only reorders the samples the mean adds up.
        For J beyond twice the window degree each Fejer kernel's mean is its
        zeroth coefficient: the first norm is one to rounding, the others <= 3.
        """
        if J is None:
            J = self.closure_angles()
        n = np.arange(1 - 4 * self.M, 4 * self.M)  # every window's support
        norms = []
        for tent in self.tents(n):
            lo, hi = np.flatnonzero(tent)[[0, -1]]
            vals = np.fft.ifft(fold(tent[lo:hi + 1] / self.M, J))
            norms.append(lp_norm(np.roll(vals, n[lo]) * J, 1))
        return tuple(norms)

    def closure_angles(self) -> int:
        """Angle count making the discrete rotation-average identity exact."""
        return max(64, pow2_at_least(4 * self.M + self.N + 2))


def fejer_split(phi: FourierPolynomial, N: int):
    """Split phi = phi_1 + phi_2 + phi_3 through the windows (exact arithmetic).

    phi_1 lives on |n| < M, phi_2 is analytic, phi_3 coanalytic; the sum
    reproduces phi coefficient-exactly, each coefficient times its windows'
    tents over M, so the work follows phi's support, not N.  SupportOverflow
    for support beyond the partition range, where the windows do not sum to one.
    """
    ws = FejerWindowSet(N)
    if phi.degree() > ws.partition_range:
        raise SupportOverflow(f"symbol support {phi.degree()} exceeds the partition "
                              f"range |n| <= {ws.partition_range} of N = {N}")
    parts = ({}, {}, {})
    for k, v in phi.coeffs.items():
        exact = QComplex.of(v)
        for part, tent in zip(parts, ws.tents(k)):
            if tent:  # tent = M is the factor 1
                part[k] = exact if tent == ws.M else exact * Fraction(tent, ws.M)
    return tuple(map(FourierPolynomial, parts))


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
    OverflowError if the sup norm, rho-hat or build residual is not finite.
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
    grid = _check_grid(N)
    if samples is None:
        samples = SampleSet.rotation_closed(min(FejerWindowSet(N).closure_angles(), 512))
    with np.errstate(over="ignore", invalid="ignore"):  # raised below instead
        scale = max(1.0, float(np.linalg.norm(op.matrix)))
        build_residual = float(np.linalg.norm(rebuilt - op.matrix)) / scale
        result = BoundedSymbolResult(central, cf2, cf3, 0.0, 0.0, 0.0,
                                     build_residual, cf2.suboptimal or cf3.suboptimal)
        sup = lp_norm(result.boundary(grid), np.inf)
        rh = rho(op, samples)
    if not np.isfinite([sup, rh, build_residual]).all():
        raise OverflowError(f"bounded-symbol assembly is not finite: sup norm {sup}, "
                            f"rho-hat {rh}, build residual {build_residual}")
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
    return TTOperator(target, matrix=D @ op.matrix @ D)
