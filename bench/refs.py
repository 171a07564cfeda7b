"""Independent references for the benchmark's correctness checks.

Everything here is plain numpy/math on the raw inputs, written apart from
the library, so a check never compares ttolab against itself.
"""

from __future__ import annotations

import math

import numpy as np


def random_toeplitz(rng, N):
    """Dense N x N Toeplitz matrix with complex Gaussian diagonals."""
    col = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    row = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    row[0] = col[0]
    i = np.arange(N)
    return np.where(i[:, None] >= i[None, :],
                    col[np.maximum(i[:, None] - i[None, :], 0)],
                    row[np.maximum(i[None, :] - i[:, None], 0)])


def toeplitz_diagonals(M):
    """hat(phi)(d) for d = -(N-1)..N-1 read off M[i, j] = hat(phi)(i - j)."""
    N = M.shape[0]
    return np.array([M[N - 1, N - 1 - d] if d >= 0 else M[N - 1 + d, N - 1]
                     for d in range(-(N - 1), N)])


def taylor_quotient(num, den, length):
    """First ``length`` Taylor coefficients of num(z)/den(z) (den None: num).

    Solves the lower-triangular Toeplitz system den * t = num (mod z^length)
    densely, independent of any series-division loop.
    """
    num = np.asarray(num, dtype=complex)
    rhs = np.zeros(length, dtype=complex)
    rhs[:min(length, len(num))] = num[:length]
    if den is None:
        return rhs
    den = np.asarray(den, dtype=complex)
    i = np.arange(length)
    d = i[:, None] - i[None, :]
    L = np.where((d >= 0) & (d < len(den)), den[np.clip(d, 0, len(den) - 1)], 0.0)
    return np.linalg.solve(L, rhs)


def spectral_norm(M):
    return float(np.linalg.svd(np.asarray(M), compute_uv=False)[0])


def blaschke_one_minus_mod_sq(zeros, lam):
    """1 - |B(lam)|^2 for zeros given as (delta, angle, mult), cancellation-free.

    Uses 1 - |b_a(lam)|^2 = (1-|lam|^2)(1-|a|^2)/|1 - conj(a) lam|^2 and a
    log1p/expm1 product, from the (delta, angle) data directly.
    """
    lam = complex(lam)
    one_minus_lam2 = (1.0 - abs(lam)) * (1.0 + abs(lam))
    log_mod_sq = 0.0
    for delta, angle, mult in zeros:
        a = (1.0 - delta) * complex(math.cos(angle), math.sin(angle))
        u = one_minus_lam2 * delta * (2.0 - delta) / abs(1.0 - a.conjugate() * lam) ** 2
        if u >= 1.0:
            return 1.0  # lam sits on a zero
        log_mod_sq += mult * math.log1p(-u)
    return -math.expm1(log_mod_sq)


def blaschke_kernel_norm_sq(zeros, lam):
    """||k_lam||_2^2 = (1 - |B(lam)|^2)/(1 - |lam|^2) at an interior point."""
    lam = complex(lam)
    return blaschke_one_minus_mod_sq(zeros, lam) / ((1.0 - abs(lam)) * (1.0 + abs(lam)))


def ahern_clark_sum(zeros, t, p=2.0):
    """sum_k mult (1-|a_k|^2)/|e^{it} - a_k|^p from (delta, angle, mult)."""
    total = 0.0
    for delta, angle, mult in zeros:
        s = math.sin(0.5 * (t - angle))
        d2 = delta * delta + 4.0 * (1.0 - delta) * s * s
        total += mult * delta * (2.0 - delta) / d2 ** (p / 2.0)
    return total


def atom_log_mod_sq(atoms, lam):
    """log |S(lam)|^2 for S = exp(sum c (z + zeta)/(z - zeta)), atoms (angle, mass)."""
    lam = complex(lam)
    expo = 0.0
    for angle, mass in atoms:
        zeta = complex(math.cos(angle), math.sin(angle))
        expo -= 2.0 * mass * (1.0 - abs(lam) ** 2) / abs(lam - zeta) ** 2
    return expo


def atom_kernel_norm_sq(atoms, lam):
    lam = complex(lam)
    return -math.expm1(atom_log_mod_sq(atoms, lam)) / (1.0 - abs(lam) ** 2)


def monomial_kernel_norm_sq(N, lam):
    r2 = abs(complex(lam)) ** 2
    return sum(r2 ** j for j in range(N))


def rkt_closed_form(atoms, s, lam):
    """||A h_lam||^2 = (y^s - y)/(1 - y), y = |Theta(lam)|^2, for A = A_conj(Theta^s)."""
    y = math.exp(atom_log_mod_sq(atoms, lam))
    return (y ** s - y) / (1.0 - y)


def rel_err(value, ref):
    ref_scale = float(np.max(np.abs(ref))) if np.ndim(ref) else abs(ref)
    diff = float(np.max(np.abs(np.asarray(value) - np.asarray(ref))))
    return diff / ref_scale if ref_scale > 0 else diff
