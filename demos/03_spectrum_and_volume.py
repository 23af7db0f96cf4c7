"""Contact volumes by quadrature and the Galerkin spectrum of box_b.

The rule integrates theta ^ (d theta)^n exactly (to roundoff) for the
sphere family: v(S^3) = 4 pi^2 by Stokes, and 16 pi^2 when the contact
form is doubled.  The Ritz values of the monomial trial space reproduce
the exact sphere spectrum q(p + n) on bidegree-(p, q) harmonics with the
right multiplicities, and the kernel dimension counts the restrictions of
holomorphic monomials.  A rule holds the defining function it was built
for and its CR frame, so ``assemble`` takes the rule alone.
"""

from collections import Counter

import numpy as np

from crspectra import (
    MonomialBasis,
    QuadratureSettings,
    assemble,
    build_quadrature,
    parse,
    solve,
)

sphere = parse("abs2(z1)+abs2(z2)-1", 1)
rule = build_quadrature(sphere, QuadratureSettings("hopf_product", resolution=32))
print(f"v(S^3)      = {rule.volume:.12f}   (4 pi^2 = {4 * np.pi ** 2:.12f})")

squared = parse("(abs2(z1)+abs2(z2))^2-1", 1)
rule2 = build_quadrature(squared, QuadratureSettings("hopf_product", resolution=32))
print(f"v, doubled  = {rule2.volume:.12f}   (16 pi^2 = {16 * np.pi ** 2:.12f})")

print("\n== degree-3 Ritz table on the round sphere ==")
problem = assemble(rule, MonomialBasis.build(2, 3))
result = solve(problem)
print(f"basis 35, surface relations dropped: {result.dropped_dim}")
print(f"kernel dimension (CR functions in the basis): {result.kernel_dim}")
counts = Counter(round(float(v), 8) for v in result.eigenvalues if v > 1e-6)
for ev in sorted(counts):
    print(f"  eigenvalue {ev:5.2f}  multiplicity {counts[ev]}")
print("expected: q(p+1) on bidegree-(p, q) harmonics ->",
      "{1: 2, 2: 6, 3: 8, 4: 4}")

print("\n== doubled contact form: every eigenvalue halves ==")
problem2 = assemble(rule2, MonomialBasis.build(2, 2))
result2 = solve(problem2)
print(f"lambda1 = {result2.lambda1:.9f}  (exactly one half)")

print("\n== adjoint consistency diagnostic ==")
print(f"max |S - S'| where S'_uv = quad(box_b phi_u conj(phi_v)): "
      f"{problem.ibp_deviation:.2e}")
