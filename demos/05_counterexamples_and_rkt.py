"""The negative results: rank-one operators without bounded symbols, and
failure of the one-sided Reproducing Kernel Thesis.

Run:  python demos/05_counterexamples_and_rkt.py
"""

import numpy as np

from ttolab import (Atom, Monomial, SingularAtomic, cls_ratio_scan,
                    counterex_theorem_check, gen_blaschke_counterexample,
                    gen_singular_counterexample, rkt_failure_scan)

print("== family (1): tangential Blaschke zeros ==")
fam = gen_blaschke_counterexample(3.0, 32)
for name, cert in sorted(fam.certificates.items()):
    print(" ", cert)
print("interpretation: the exponent-2 sum converges (the boundary kernel")
print("exists) while the exponent-3 sum grows linearly (it is not in L^3),")
print("so the rank-one operator at the base point has no bounded symbol.")

print()
chk = counterex_theorem_check(fam, 3.0, degrees=(8, 16, 32))
print("exact Ahern-Clark signatures across truncation degrees 8 / 16 / 32:")
print("  exponent-3 sums:", [round(v, 2) for v in chk["cohn_p_sums"]],
      "->", chk["p_verdict"])
print("  exponent-2 sums:", [round(v, 5) for v in chk["cohn_2_sums"]],
      "->", chk["two_verdict"])
print("  rank-one symbol sums (doubled):",
      [round(v, 2) for v in chk["symbol_p_sums"]])
print("  ||k_1||_3 on graded Gauss-Legendre nodes:",
      [round(v, 3) for v in chk["kernel_p_quadrature"]])
print("  ||k_1||_2^2 on the same nodes, against the exponent-2 sums:",
      [round(v * v, 5) for v in chk["kernel_2_quadrature"]],
      "(largest residual", f"{max(chk['kernel_2_residual']):.0e})")

print()
print("== the singular twin ==")
sfam = gen_singular_counterexample(3.0, 20)
for name, cert in sorted(sfam.certificates.items()):
    print(" ", cert)

print()
print("== one-component check: z^N has CLS ratio capped at 2 ==")
pts = [r * np.exp(2j * np.pi * j / 16)
       for r in (0.0, 0.5, 0.9, 0.99) for j in range(16)]
rep = cls_ratio_scan(Monomial(8), pts)
print(f"max ||k||_inf / ||k||_2^2 over the scan: {rep.max_ratio:.6f}")

print()
print("== RKT failure for conj(Theta^s) on a singular inner function ==")
theta = SingularAtomic([Atom(0.0, 1.0)])
rep = rkt_failure_scan(theta, 0.5, [0.0, 0.3, 0.2 + 0.4j], grid_n=2 ** 13)
print(f"s = {rep['s']}: closed form (y^s - y)/(1 - y) stays below "
      f"1 - s = {rep['sup_bound']}")
for row in rep["rows"]:
    print(f"  lambda = {row['lambda']:+.2f}: closed form {row['closed_form']:.6f},"
          f" grid norm^2 {row['norm_sq_grid']:.6f},"
          f" isometry witness {row['isometry_ratio']:.4f}")
print("yet the operator acts isometrically on Theta^s K_{Theta^{1-s}}, so its")
print("norm is 1: boundedness on kernels alone does not control the norm.")
print("(grid columns carry the slow k^(-3/4) Fourier tail of the singular")
print("function; identity errors shrink under doubling but slowly)")
