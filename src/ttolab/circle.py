"""Function calculus on uniform grids of the unit circle.

Boundary functions are stored by their samples at the n-th roots of unity
(n a power of two).  Fourier analysis/synthesis is exact for band-limited
data; Riesz projections act on the coefficient side; products optionally
zero-pad to avoid aliasing when bandwidth metadata is available; integrals
use the uniform quadrature rule, which is spectrally accurate for smooth
boundary data.
"""

from __future__ import annotations

import numpy as np

from .errors import BandwidthOverflow

DEFAULT_GRID = 4096
MAX_GRID = 2 ** 20  # largest grid size: 16 MB of points, and at most 17 cached grids

_GRID_CACHE: dict[int, "BoundaryGrid"] = {}


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class BoundaryGrid:
    """Uniform grid zeta_j = exp(2*pi*i*j/n) on the unit circle.

    n must be a power of two from 16 to MAX_GRID.  Instances are cached
    and immutable; ``points`` are exactly the n-th roots of unity.
    """

    __slots__ = ("n", "points", "angles", "freqs")

    def __new__(cls, n: int = DEFAULT_GRID):
        if n in _GRID_CACHE:
            return _GRID_CACHE[n]
        if not _is_pow2(n) or not 16 <= n <= MAX_GRID:
            raise ValueError(f"grid size must be a power of two from 16 to {MAX_GRID}, got {n}")
        self = object.__new__(cls)
        self.n = n
        self.angles = 2.0 * np.pi * np.arange(n) / n
        self.points = np.exp(1j * self.angles)
        # frequency of FFT bin i: i for i < n/2, i - n otherwise
        self.freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        self.angles.setflags(write=False)
        self.points.setflags(write=False)
        self.freqs.setflags(write=False)
        _GRID_CACHE[n] = self
        return self

    def double(self) -> "BoundaryGrid":
        return BoundaryGrid(2 * self.n)

    def __repr__(self):
        return f"BoundaryGrid(n={self.n})"


class CircleFunction:
    """A boundary function given by samples on a BoundaryGrid.

    Fourier coefficients (normalized, c_k = (1/n) sum f(zeta_j) zeta_j^{-k})
    are cached on first use.  ``bandwidth`` is optional caller-declared
    metadata: the function promises |c_k| = 0 for |k| > bandwidth, which
    lets ``multiply`` guarantee alias-free products.
    """

    __slots__ = ("grid", "samples", "bandwidth", "_coeffs")

    def __init__(self, grid: BoundaryGrid, samples, bandwidth: int | None = None):
        samples = np.asarray(samples, dtype=complex)
        if samples.shape != (grid.n,):
            raise ValueError("sample count does not match grid size")
        self.grid = grid
        self.samples = samples
        self.bandwidth = bandwidth
        self._coeffs = None

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_fft(cls, grid, co, bandwidth=None):
        """Synthesize from coefficients in FFT bin order, keeping them cached."""
        f = cls(grid, np.fft.ifft(co) * grid.n, bandwidth=bandwidth)
        f._coeffs = co
        return f

    @classmethod
    def from_coeffs(cls, grid, coeffs: dict, bandwidth=None):
        """Build from a sparse {index: coefficient} map (indices in [-n/2, n/2))."""
        vec = np.zeros(grid.n, dtype=complex)
        for k, c in coeffs.items():
            if not -grid.n // 2 <= k < grid.n // 2:
                raise BandwidthOverflow(f"index {k} outside grid band of n={grid.n}")
            vec[k % grid.n] = complex(c)
        if bandwidth is None and coeffs:
            bandwidth = max(abs(int(k)) for k in coeffs)
        return cls._from_fft(grid, vec, bandwidth)

    # -- coefficient access -------------------------------------------

    @property
    def coeffs(self):
        """Fourier coefficients in FFT bin order (bin i holds frequency freqs[i])."""
        if self._coeffs is None:
            self._coeffs = np.fft.fft(self.samples) / self.grid.n
        return self._coeffs

    def coeff(self, k: int) -> complex:
        n = self.grid.n
        if not -n // 2 <= k < n // 2:
            return 0.0 + 0.0j
        return complex(self.coeffs[k % n])

    def shifted_coeffs(self):
        """Coefficients ordered by frequency -n/2 .. n/2-1."""
        return np.fft.fftshift(self.coeffs)

    # -- algebra -------------------------------------------------------

    def _like(self, samples, bandwidth=None):
        return CircleFunction(self.grid, samples, bandwidth=bandwidth)

    def __add__(self, other):
        if isinstance(other, CircleFunction):
            bw = None
            if self.bandwidth is not None and other.bandwidth is not None:
                bw = max(self.bandwidth, other.bandwidth)
            return self._like(self.samples + other.samples, bw)
        return self._like(self.samples + other, None)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, CircleFunction):
            bw = None
            if self.bandwidth is not None and other.bandwidth is not None:
                bw = max(self.bandwidth, other.bandwidth)
            return self._like(self.samples - other.samples, bw)
        return self._like(self.samples - other, None)

    def __mul__(self, scalar):
        if isinstance(scalar, CircleFunction):
            return multiply(self, scalar)
        return self._like(self.samples * scalar, self.bandwidth)

    __rmul__ = __mul__

    def conj(self):
        return self._like(np.conj(self.samples), self.bandwidth)

    def on_grid(self, grid: BoundaryGrid):
        """Re-represent on another power-of-two grid via the coefficient side."""
        if grid is self.grid:
            return self
        co = self.coeffs
        n, m = self.grid.n, grid.n
        out = np.zeros(m, dtype=complex)
        half = min(n, m) // 2
        out[:half] = co[:half]
        out[m - half:] = co[n - half:]
        return CircleFunction._from_fft(grid, out, self.bandwidth)


def analyze(f: CircleFunction):
    """Discrete Fourier coefficients of f, ordered by frequency -n/2..n/2-1."""
    return f.shifted_coeffs()


def synthesize(grid: BoundaryGrid, shifted_coeffs) -> CircleFunction:
    """Inverse of :func:`analyze`."""
    co = np.fft.ifftshift(np.asarray(shifted_coeffs, dtype=complex))
    return CircleFunction._from_fft(grid, co)


def riesz_plus(f: CircleFunction) -> CircleFunction:
    """Riesz projection onto nonnegative frequencies (L^2 -> H^2)."""
    co = f.coeffs.copy()
    co[f.grid.freqs < 0] = 0.0
    return CircleFunction._from_fft(f.grid, co, f.bandwidth)


def riesz_minus(f: CircleFunction) -> CircleFunction:
    """Complementary projection I - riesz_plus (strictly negative frequencies)."""
    co = f.coeffs.copy()
    co[f.grid.freqs >= 0] = 0.0
    return CircleFunction._from_fft(f.grid, co, f.bandwidth)


def multiply(f: CircleFunction, g: CircleFunction) -> CircleFunction:
    """Pointwise product.

    When both factors declare a bandwidth, the product is formed on a
    zero-padded double grid and reduced back, so it is alias-free as long
    as the combined bandwidth fits in the band; otherwise BandwidthOverflow
    is raised to request a larger grid.  Without metadata the product is
    the plain samplewise one.
    """
    if f.grid is not g.grid:
        raise ValueError("operands live on different grids")
    if f.bandwidth is not None and g.bandwidth is not None:
        combined = f.bandwidth + g.bandwidth
        if combined >= f.grid.n // 2:
            raise BandwidthOverflow(
                f"combined bandwidth {combined} >= n/2 = {f.grid.n // 2}")
        big = f.grid.double()
        prod = f.on_grid(big).samples * g.on_grid(big).samples
        return CircleFunction(big, prod, bandwidth=combined).on_grid(f.grid)
    return CircleFunction(f.grid, f.samples * g.samples)


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """Quadrature of the L^2 pairing: (1/n) sum f(zeta_j) conj(g(zeta_j))."""
    if f.grid is not g.grid:
        raise ValueError("operands live on different grids")
    return complex(np.vdot(g.samples, f.samples) / f.grid.n)


def lp_norm(f, p) -> float:
    """L^p norm by uniform quadrature of a CircleFunction or of its samples;
    p = inf gives the sample maximum."""
    a = np.abs(f.samples if isinstance(f, CircleFunction) else f)
    if p == np.inf or p == float("inf"):
        return float(a.max())
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    if p == 2:
        return float(np.sqrt(np.mean(a * a)))
    return float(np.mean(a ** p) ** (1.0 / p))


def fold(x, n: int):
    """x summed mod n along axis 0: on the n-th roots of unity z^n = 1, so
    sum_k x_k z^k has the n coefficients fold(x, n), exactly, for any n."""
    x = np.asarray(x, dtype=complex)
    out = np.zeros((n,) + x.shape[1:], dtype=complex)
    for start in range(0, len(x), n):
        out[:min(n, len(x) - start)] += x[start:start + n]
    return out


def polynomial_values(coeffs, grid: BoundaryGrid):
    """sum_k coeffs[k] zeta^k at the grid points: one inverse FFT of the
    coefficients folded mod n."""
    return np.fft.ifft(fold(coeffs, grid.n)) * grid.n


def h2_eval(f: CircleFunction, z) -> complex:
    """Evaluate the analytic part of f at an interior point via its Taylor series."""
    co = f.coeffs
    ks = f.grid.freqs
    pos = ks >= 0
    k = ks[pos]
    return complex(np.sum(co[pos] * np.asarray(z) ** k))


class FourierPolynomial:
    """Trigonometric polynomial with finite sparse coefficient support.

    Coefficients may be exact ``fractions.Fraction`` values (the Fejer
    windows keep them rational so partition-of-unity checks are exact) or
    complex numbers; zero coefficients are dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {int(k): v for k, v in coeffs.items() if v != 0}

    def __eq__(self, other):
        return isinstance(other, FourierPolynomial) and self.coeffs == other.coeffs

    def coeff(self, k: int):
        return self.coeffs.get(int(k), 0)

    @property
    def support(self):
        return sorted(self.coeffs)

    def degree(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def shift(self, m: int) -> "FourierPolynomial":
        """Multiply by z^m (index shift)."""
        return FourierPolynomial({k + m: v for k, v in self.coeffs.items()})

    def conjugate(self) -> "FourierPolynomial":
        out = {}
        for k, v in self.coeffs.items():
            out[-k] = v.conjugate() if isinstance(v, complex) else v
        return FourierPolynomial(out)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FourierPolynomial(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return FourierPolynomial(out)

    def __mul__(self, scalar):
        return FourierPolynomial({k: scalar * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for k, v in self.coeffs.items():
            out = out + complex(v) * z ** k
        return out

    def to_circle(self, grid: BoundaryGrid) -> CircleFunction:
        return CircleFunction.from_coeffs(
            grid, {k: complex(v) for k, v in self.coeffs.items()})


def pow2_at_least(m) -> int:
    """The smallest power of two that is at least m and at least 16."""
    n = 16
    while n < m:
        n *= 2
    return n


def _relative_change(prev, cur) -> float:
    cur = np.atleast_1d(cur)
    change = float(np.max(np.abs(cur - np.atleast_1d(prev))))
    return change / max(1.0, float(np.max(np.abs(cur))))


def cauchy_refine(compute, start_n, tol, max_n, distance=_relative_change):
    """Grid-doubling Cauchy control.

    ``compute(n)`` maps a grid size to a result; doubling stops once
    distance(v(n), v(2n)) <= tol, by default |v(2n) - v(n)| / max(1, |v(2n)|)
    in the max norm.  Returns (value, achieved_residual, n_used).  Raises
    nothing: the caller decides what a non-converged residual means.
    """
    n = start_n
    prev = compute(n)
    resid = float("inf")
    while 2 * n <= max_n:
        n *= 2
        cur = compute(n)
        resid = distance(prev, cur)
        if resid <= tol:
            return cur, resid, n
        prev = cur
    return prev, resid, n
