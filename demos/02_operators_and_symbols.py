"""Truncated Toeplitz operators: construction, symbols, and rho scans.

Run:  python demos/02_operators_and_symbols.py
"""

import os
import tempfile

import numpy as np

from ttolab import (BlaschkeProduct, BoundaryPoint, CircleFunction,
                    MeasureSymbol, ModelSpace, Monomial, SampleSet, adjoint,
                    build, decompose, measure_operator, operator_norm, rho_d,
                    rho_r, standard_symbol)
from ttolab.modelspace import GridSpace
from ttolab.operators import BoundarySymbol, write_rho_scan_csv

print("== the compressed shift on K_{z^2} ==")
sp = ModelSpace(Monomial(2))
op = build(sp, BoundarySymbol(CircleFunction.from_coeffs(sp.grid, {1: 1.0})))
print(np.round(op.matrix.real, 12))
print("adjoint:")
print(np.round(adjoint(op).matrix.real, 12))

print()
print("== symbols are classes modulo Theta H^2 + conj(Theta H^2) ==")
space = ModelSpace(BlaschkeProduct([0.5, -0.2 + 0.3j, 0.4j]))
g = space.grid
rng = np.random.default_rng(1)
phi = CircleFunction.from_coeffs(
    g, {k: complex(rng.standard_normal(), rng.standard_normal())
        for k in range(-4, 5)})
# adding Theta z changes the symbol but not the operator
shifted = CircleFunction(g, phi.samples + space.theta_samples * g.points)
d = np.max(np.abs(build(space, BoundarySymbol(phi)).matrix
                  - build(space, BoundarySymbol(shifted)).matrix))
print(f"operator change under a zero-class shift: {d:.2e}")
canon = standard_symbol(space, shifted)
d2 = np.max(np.abs(build(space, BoundarySymbol(canon)).matrix
                   - build(space, BoundarySymbol(phi)).matrix))
print(f"canonical symbol rebuilds the operator: {d2:.2e}")

pair = decompose(space, phi, mu=0.1)
print("pair decomposition phi = phi_+ + conj(phi_-), phi_-(mu) = 0:",
      f"|phi_-(0.1)| = {abs(pair.phi_minus.eval(0.1)):.2e}")

print()
print("== rho: the operator on normalized kernels ==")
op = build(space, BoundarySymbol(phi))
samples = SampleSet.default(space)
rr, rd, nrm = rho_r(op, samples), rho_d(op, samples), operator_norm(op)
print(f"rho_r = {rr:.6f}, rho_d = {rd:.6f}, ||A|| = {nrm:.6f}")
twin = GridSpace(space.theta, space.grid.n)  # the same Theta by grid samples
print(f"on its grid twin (Lanczos on A*A): ||A|| = "
      f"{operator_norm(build(twin, BoundarySymbol(phi))):.6f}")
print("refinement can only increase the sampled suprema:",
      rho_r(op, samples.refine()) >= rr)
csv_path = os.path.join(tempfile.gettempdir(), "rho_scan_demo.csv")
write_rho_scan_csv(op, SampleSet(np.array([0.0, 0.3, 0.5j, -0.4])), csv_path)
print(f"wrote {csv_path}:")
with open(csv_path) as fh:
    print(fh.read().strip())

print()
print("== measures give positive operators; the top eigenvalue is the")
print("   best Carleson embedding constant ==")
meas = MeasureSymbol(atoms=[(BoundaryPoint(2.0), 0.5)],
                     density=CircleFunction(g, 1.0 + 0.3 * np.cos(g.angles)))
am = measure_operator(space, meas)
evals = np.linalg.eigvalsh(am.matrix)
print("spectrum:", np.round(evals, 6))
