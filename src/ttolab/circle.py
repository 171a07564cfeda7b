"""Function calculus on uniform grids of the unit circle.

Boundary functions are stored by their samples at the n-th roots of unity
(n a power of two).  Fourier coefficients are exact for band-limited data;
the Riesz projection acts on the coefficient side; integrals use the
uniform quadrature rule, which is spectrally accurate for smooth boundary
data.
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

    def __repr__(self):
        return f"BoundaryGrid(n={self.n})"


class CircleFunction:
    """A boundary function given by samples on a BoundaryGrid.

    Fourier coefficients (normalized, c_k = (1/n) sum f(zeta_j) zeta_j^{-k})
    are cached on first use.  ``bandwidth`` is optional caller-declared
    metadata: the function promises |c_k| = 0 for |k| > bandwidth, which
    lets a grid operator refuse a symbol its grid cannot resolve.
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

    # -- algebra -------------------------------------------------------

    def _like(self, samples, bandwidth=None):
        return CircleFunction(self.grid, samples, bandwidth=bandwidth)

    def _bandwidth(self, other):  # of a sum: the larger, when both are known
        if self.bandwidth is None or other.bandwidth is None:
            return None
        return max(self.bandwidth, other.bandwidth)

    def __add__(self, other: "CircleFunction"):
        return self._like(self.samples + other.samples, self._bandwidth(other))

    def __sub__(self, other: "CircleFunction"):
        return self._like(self.samples - other.samples, self._bandwidth(other))

    def __mul__(self, scalar):
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


def riesz_plus(f: CircleFunction) -> CircleFunction:
    """Riesz projection onto nonnegative frequencies (L^2 -> H^2)."""
    co = f.coeffs.copy()
    co[f.grid.freqs < 0] = 0.0
    return CircleFunction._from_fft(f.grid, co, f.bandwidth)


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """Quadrature of the L^2 pairing: (1/n) sum f(zeta_j) conj(g(zeta_j))."""
    if f.grid is not g.grid:
        raise ValueError("operands live on different grids")
    return complex(np.vdot(g.samples, f.samples) / f.grid.n)


def lp_norm(f, p) -> float:
    """L^p norm by uniform quadrature of a CircleFunction or of its samples;
    p = inf gives the sample maximum."""
    a = np.abs(f.samples if isinstance(f, CircleFunction) else f)
    if p == np.inf:
        return float(a.max())
    if p < 1:
        raise ValueError("p must be >= 1 or inf")
    if p == 2:
        return float(np.sqrt(np.mean(a * a)))
    return float(np.mean(a ** p) ** (1.0 / p))


def toeplitz(diag):
    """The N x N Toeplitz matrix whose entry (i, j) is diag[i - j + N - 1]."""
    N = (len(diag) + 1) // 2
    i = np.arange(N)
    return diag[i[:, None] - i[None, :] + N - 1]


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


class FourierPolynomial:
    """Trigonometric polynomial with finite sparse coefficient support.

    Coefficients may be exact ``fractions.Fraction`` values (the Fejer
    windows keep them rational so partition-of-unity checks are exact) or
    complex numbers; zero coefficients are dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {int(k): v for k, v in coeffs.items() if v != 0}

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
        """The conjugate function: coefficient -k is conj(c_k), of any exact or float type."""
        return FourierPolynomial({-k: v.conjugate() for k, v in self.coeffs.items()})

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


def cauchy_refine(compute, start_n, tol, max_n):
    """Grid-doubling Cauchy control.

    ``compute(n)`` maps a grid size to a result; doubling stops once
    |v(2n) - v(n)| / max(1, |v(2n)|) <= tol in the max norm.  Returns
    (value, achieved_residual, n_used).  Raises nothing: the caller decides
    what a non-converged residual means.
    """
    n = start_n
    prev = compute(n)
    resid = float("inf")
    while 2 * n <= max_n:
        n *= 2
        cur = compute(n)
        resid = _relative_change(prev, cur)
        if resid <= tol:
            return cur, resid, n
        prev = cur
    return prev, resid, n
