"""Tour of model spaces: kernels, conjugation, and the orthonormal basis.

Run:  python demos/01_model_space_tour.py
"""

import numpy as np

from ttolab import (BlaschkeProduct, BoundaryPoint, ModelSpace, Monomial,
                    has_angular_derivative, tm_basis)

print("== K_{z^4}: the polynomial model space ==")
space = ModelSpace(Monomial(4))
print(f"dimension {space.dim}, grid {space.grid.n}")
basis = tm_basis(Monomial(4))
print("basis functions are the monomials 1, z, z^2, z^3:")
for j, e in enumerate(basis):
    print(f"  e_{j}: coefficient at z^{j} =", round(abs(e.coeff(j)), 12))

print()
print("== a degree-5 Blaschke space ==")
space = ModelSpace(BlaschkeProduct([0.5, -0.3 + 0.4j, 0.2j, 0.6, -0.45]))
print("Gram matrix deviation from the identity:", f"{space.gram_residual:.2e}")

lam = 0.3 - 0.2j
k = space.kernel(lam)
f = space.from_coeffs(np.arange(1.0, 6.0))
print(f"reproducing property at {lam}: |<f,k> - f({lam})| =",
      f"{abs(f.inner(k) - f.eval(lam)):.2e}")

h = space.normalized_kernel(lam)
print("normalized kernel norm:", round(h.norm(), 12))

print()
print("== the conjugation omega ==")
w = space.omega(f)
ww = space.omega(w)
print("omega is an involution: ||omega^2 f - f|| =",
      f"{(ww - f).norm():.2e}")
dq = space.difference_quotient(lam)
om = space.omega(space.kernel(lam))
print("omega(kernel) = difference quotient: ||diff|| =",
      f"{(dq - om).norm():.2e}")

print()
print("== boundary points need an angular derivative ==")
zeta = BoundaryPoint(1.0)
cert = has_angular_derivative(space.theta, zeta)
print(f"certificate at angle 1.0: {cert}")
kb = space.kernel(zeta)
print("boundary kernel norm^2 vs |Theta'(zeta)|:",
      round(kb.norm() ** 2, 9), "vs", round(cert.value, 9))
