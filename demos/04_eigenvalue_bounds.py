"""The four eigenvalue bounds, sandwiching the Galerkin spectrum.

On the ellipsoid family |z1|^2 + |z2|^2 + a Re(z1^2) - 1 the decomposition

    (rho + 1) - a Re(z1^2) = |z1|^2 + |z2|^2

is exact with psi = a Re(z1^2) pluriharmonic, so the upper bound applies,
and the lower bound comes from the minimum of the normalized Webster
scalar.  Both collapse to lambda1 = n at a = 0 (sphere sharpness).  The
immersion bound is evaluated on the quadratic sphere immersion, where the
bound is strict even though the transverse curvature is constant.  The
upper bounds and the spectrum take the quadrature rule alone: it holds its
defining function, params and CR frame, so a bound and a spectrum on one
rule are about one structure.
"""

from crspectra import (
    Decomposition,
    MonomialBasis,
    QuadratureSettings,
    assemble,
    build_quadrature,
    lower_bound,
    parse,
    points_on_surface,
    reilly_bound,
    solve,
    special_bound,
    upper_bound,
)

print("== sandwich on the ellipsoid family ==")
print(f"{'a':>5} {'lower':>12} {'lambda1':>12} {'upper':>12}")
for a in (0.0, 0.05, 0.1):
    text = f"abs2(z1)+abs2(z2)+{a}*re(z1^2)-1" if a else "abs2(z1)+abs2(z2)-1"
    rho = parse(text, 1)
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=32))
    dec = Decomposition(
        N=1.0, nu=1.0,
        psi=parse(f"{a}*re(z1^2)", 1) if a else None,
        f_maps=[parse("z1", 1), parse("z2", 1)],
    )
    up = upper_bound(dec, rule)
    lo = lower_bound(rho, points_on_surface(rho, 50, seed=11), paneitz_positive=True)
    lam1 = solve(assemble(rule, MonomialBasis.build(2, 4))).lambda1
    print(f"{a:5.2f} {lo.value:12.8f} {lam1:12.8f} {up.value:12.8f}")

print("\n== immersion bound for the quadratic sphere immersion ==")
squared = parse("(abs2(z1)+abs2(z2))^2-1", 1)
rule2 = build_quadrature(squared, QuadratureSettings("hopf_product", resolution=32))
maps = [parse("z1^2", 1), parse("pow(2,0.5)*z1*z2", 1), parse("z2^2", 1)]
rb = reilly_bound(maps, rule2)
lam1 = solve(assemble(rule2, MonomialBasis.build(2, 2))).lambda1
print(f"bound = {rb.value:.9f}, true lambda1 = {lam1:.9f}")
print("constant transverse curvature does not force equality.")

print("\n== coordinate sign-condition bound on the sphere ==")
sphere = parse("abs2(z1)+abs2(z2)-1", 1)
sp = special_bound(sphere, 1, points_on_surface(sphere, 50, seed=3))
print(f"condition max = {sp.diagnostics['condition_max']:.2e} "
      f"(applicable: {sp.diagnostics['condition_ok']})")
print(f"bound n * max r = {sp.value:.9f}; max r - min r = "
      f"{sp.diagnostics['r_spread']:.2e}")

print("\n== pointwise identities behind the upper bound (N = 2 case) ==")
rule = build_quadrature(sphere, QuadratureSettings("hopf_product", resolution=24))
dec2 = Decomposition(N=2.0, nu=1.0, psi=None, f_maps=maps)
up2 = upper_bound(dec2, rule)
print(f"value = {up2.value:.9f}")
print(f"sum |box_b conj(f)|^2 vs n^2 N nu^(N-2) (nu r + N - 1): "
      f"rel err {up2.diagnostics['box_identity_rel_err']:.2e}")
print(f"sum |dbar_b conj(f)|^2 vs n N nu^(N-1):                 "
      f"rel err {up2.diagnostics['pairing_identity_rel_err']:.2e}")
