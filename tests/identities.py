"""Identities the tests check the library against.

Each function computes one side of an identity of the theory (a
factorization, a covariance, a lemma on products, a comparison bound) by a
route independent of the code under test, so that a test can assert the
residual.  They are oracles, not library API: nothing in ``src/`` calls them.
"""

import math

import numpy as np

from ttolab.circle import CircleFunction, lp_norm
from ttolab.errors import TTOLabError, UnsupportedVariant
from ttolab.modelspace import ModelFunction, ModelSpace, ToeplitzSpace
from ttolab.operators import BoundarySymbol, PairSymbol, TTOperator, build


# ---------------------------------------------------------------------------
# operators

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
    co = np.fft.fft(np.conj(space.theta_samples) * phi * fs) / space.grid.n
    co[space.grid.freqs >= 0] = 0.0  # P_-: the strictly negative frequencies
    rhs = space.theta_samples * CircleFunction._from_fft(space.grid, co).samples
    return lp_norm(lhs - rhs, 2)


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


# ---------------------------------------------------------------------------
# model spaces

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


# ---------------------------------------------------------------------------
# Blaschke transport and rotation covariance on K_{z^N}

def transport_function(f: CircleFunction, alpha: complex) -> CircleFunction:
    """(U f)(z) = sqrt(1-|alpha|^2)/(1 - conj(alpha) z) f(b_alpha(z)).

    f must be analytic (given by its Taylor coefficients on the grid band).
    """
    z = f.grid.points
    b = (alpha - z) / (1.0 - np.conj(alpha) * z)
    co = f.coeffs
    ks = f.grid.freqs
    pos = np.where(ks >= 0)[0]
    vals = np.zeros(f.grid.n, dtype=complex)
    for i in pos[np.argsort(ks[pos])][::-1]:
        vals = vals * b + co[i]
    vals *= math.sqrt(1.0 - abs(alpha) ** 2) / (1.0 - np.conj(alpha) * z)
    return CircleFunction(f.grid, vals)


def rotation_covariance_residual(space: ModelSpace, t: float, lam: complex) -> float:
    """Residual of tau_t h_lam = h_{e^{-it} lam} and its difference-quotient twin."""
    if not isinstance(space, ToeplitzSpace):
        raise ValueError("rotation covariance is a K_{z^N} identity")
    N = space.dim
    h = space.normalized_kernel(lam)
    ht = space.difference_quotient(lam, normalized=True)
    phases = np.exp(1j * t * np.arange(N))
    lhs1 = h.coeffs * phases
    rhs1 = space.normalized_kernel(np.exp(-1j * t) * lam).coeffs
    lhs2 = ht.coeffs * phases
    rhs2 = (np.exp(1j * (N - 1) * t)
            * space.difference_quotient(np.exp(-1j * t) * lam, normalized=True).coeffs)
    return float(max(np.max(np.abs(lhs1 - rhs1)), np.max(np.abs(lhs2 - rhs2))))


# ---------------------------------------------------------------------------
# symbols

SAME_OPERATOR_TOL = 1e-8  # relative matrix difference below which two builds agree


class SymbolsDiffer(TTOLabError):
    """Two alleged symbols of the same operator build different operators."""


def symbol_lp_bound_check(space: ModelSpace, phi: CircleFunction,
                          psi: CircleFunction, p: float):
    """Return (||phi||_p, ||psi||_p + ||phi||_2) for two symbols of one operator.

    Raises SymbolsDiffer when the two builds disagree beyond SAME_OPERATOR_TOL.
    The ratio lhs/rhs is the empirical constant of the comparison bound.
    """
    a = build(space, BoundarySymbol(phi))
    b = build(space, BoundarySymbol(psi))
    scale = max(1.0, float(np.linalg.norm(a.matrix)))
    if float(np.linalg.norm(a.matrix - b.matrix)) > SAME_OPERATOR_TOL * scale:
        raise SymbolsDiffer("the two symbols build different operators")
    lhs = lp_norm(phi.on_grid(space.grid), p)
    rhs = lp_norm(psi.on_grid(space.grid), p) + lp_norm(phi.on_grid(space.grid), 2)
    return lhs, rhs
