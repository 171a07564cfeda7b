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

    __slots__ = ("n", "points", "angles")

    def __new__(cls, n: int = DEFAULT_GRID):
        if n in _GRID_CACHE:
            return _GRID_CACHE[n]
        if not _is_pow2(n) or not 16 <= n <= MAX_GRID:
            raise ValueError(f"grid size must be a power of two from 16 to {MAX_GRID}, got {n}")
        self = object.__new__(cls)
        self.n = n
        self.angles = 2.0 * np.pi * np.arange(n) / n
        self.points = np.exp(1j * self.angles)
        self.angles.setflags(write=False)
        self.points.setflags(write=False)
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
    def from_coeffs(cls, grid, coeffs: dict):
        """Build from a sparse {index: coefficient} map (indices in [-n/2, n/2)),
        whose largest |index| is the bandwidth."""
        vec = np.zeros(grid.n, dtype=complex)
        for k, c in coeffs.items():
            if not -grid.n // 2 <= k < grid.n // 2:
                raise BandwidthOverflow(f"index {k} outside grid band of n={grid.n}")
            vec[k % grid.n] = complex(c)
        return cls._from_fft(grid, vec, max((abs(int(k)) for k in coeffs), default=None))

    # -- coefficient access -------------------------------------------

    @property
    def coeffs(self):
        """Fourier coefficients in FFT bin order: bin i holds frequency i for
        i < n/2 and i - n from n/2 on."""
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


def riesz_plus_rows(rows):
    """The Riesz projection onto nonnegative frequencies (L^2 -> H^2) of each
    row of an (..., n) stack of grid samples: one FFT pair along the last
    axis for the whole stack.  For the power-of-two n of a grid,
    norm="forward" scales as /n and *n do, bit for bit."""
    co = np.fft.fft(rows, norm="forward")
    co[..., co.shape[-1] // 2:] = 0.0  # bins n/2..n-1 hold the frequencies -n/2..-1
    return np.fft.ifft(co, norm="forward", out=co)


def inner_product(f: CircleFunction, g: CircleFunction) -> complex:
    """Quadrature of the L^2 pairing: (1/n) sum f(zeta_j) conj(g(zeta_j))."""
    if f.grid is not g.grid:
        raise ValueError("operands live on different grids")
    return complex(np.vdot(g.samples, f.samples) / f.grid.n)


def lp_norm(f, p):
    """L^p norm by uniform quadrature of a CircleFunction or of its samples,
    a float, or of each row of an (..., n) stack of samples, an (...) array;
    p = inf gives the sample maximum."""
    a = np.abs(f.samples if isinstance(f, CircleFunction) else f)
    if p == np.inf:
        out = a.max(axis=-1)
    elif not p >= 1:  # NaN too
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    elif p == 2:
        out = np.sqrt(np.mean(np.multiply(a, a, out=a), axis=-1))
    else:
        out = np.mean(np.power(a, p, out=a), axis=-1) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


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

    Coefficients are complex numbers, or exact rational values: only the
    parts of a Fejer split (``boundedsym.fejer_split``) hold ``Fraction``s,
    in ``QComplex`` coefficients.  Zero coefficients are dropped.
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

    def to_circle(self, grid: BoundaryGrid) -> CircleFunction:
        return CircleFunction.from_coeffs(
            grid, {k: complex(v) for k, v in self.coeffs.items()})


def pow2_at_least(m) -> int:
    """The smallest power of two that is at least m and at least 16."""
    n = 16
    while n < m:
        n *= 2
    return n


def _relative_change(prev: float, cur: float) -> float:
    return abs(cur - prev) / max(1.0, abs(cur))  # NaN in, NaN out: max(1.0, nan) is 1.0


def cauchy_refine(compute, start_n, tol, max_n):
    """Grid-doubling Cauchy control.

    ``compute(n)`` maps a grid size to a float; doubling stops once
    |v(2n) - v(n)| / max(1, |v(2n)|) <= tol.  Returns
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
