"""Built-in verification suite: every shipped accuracy claim as an executable check.

Each check returns a CheckResult; the CLI ``verify`` subcommand prints one
pass/fail line per check and exits nonzero on any failure.  The pytest
acceptance module asserts the same results, so the suite runs identically
inside and outside CI.

The derivative reference is Cauchy's integral formula: with z and conj(z)
independent, an expression is holomorphic in 2m variables, and the FFT of
its values on a small polycircle, taken by the plain value evaluator and not
by the jets it checks, gives its Taylor coefficients.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .bounds import Decomposition, lower_bound, special_bound, upper_bound
from .expressions import BinOp, Call, Expression, Literal, Neg, Param, PowInt, Var, parse
from .frames import build_frame
from .operators import curvature_quantities, kohn_laplacian, sub_laplacian
from .quadrature import QuadratureSettings, build_quadrature, points_on_surface
from .reporting import canonical_json, run_job_data
from .spectral import MonomialBasis, assemble, solve


@dataclass
class CheckResult:
    key: str
    description: str
    passed: bool
    detail: str
    seconds: float


# --- the jet reference: Cauchy's formula by FFT -----------------------------

# the polycircle: terms of order >= 8 alias onto orders <= 4 at relative
# size ~radius^8; the rounding of the values grows by radius^-4 at order 4
CAUCHY_RADIUS = 0.05
CAUCHY_SAMPLES = 8


def _split_conj(node, m, conj=False):
    """The tree of ``node`` (of ``conj(node)`` when ``conj``) as a
    holomorphic function of 2m variables (z, w), where z_{m+k} = w_k stands
    for conj(z_k): conjugation moves down to the leaves, and the real-valued
    calls re, im, abs2 expand through the tree of conj(a)."""
    if isinstance(node, Literal):
        return Literal(node.value.conjugate()) if conj else node
    if isinstance(node, Param):
        return node
    if isinstance(node, Var):
        barred = node.conj != conj
        return Var(node.index + m if barred else node.index)
    if isinstance(node, Neg):
        return Neg(_split_conj(node.arg, m, conj))
    if isinstance(node, BinOp):
        return BinOp(node.op, _split_conj(node.left, m, conj), _split_conj(node.right, m, conj))
    if isinstance(node, PowInt):
        return PowInt(_split_conj(node.base, m, conj), node.exponent)
    a = node.args[0]
    if node.name == "conj":
        return _split_conj(a, m, not conj)
    if node.name in ("pow", "log", "exp"):
        return Call(node.name, (_split_conj(a, m, conj),) + node.args[1:])
    # a real value is its own conjugate, so the flag drops here
    f, fbar = _split_conj(a, m), _split_conj(a, m, True)
    if node.name == "re":
        return BinOp("*", Literal(0.5), BinOp("+", f, fbar))
    if node.name == "im":
        return BinOp("*", Literal(-0.5j), BinOp("-", f, fbar))
    if node.name == "abs2":
        return BinOp("*", f, fbar)
    raise TypeError(f"unknown node {node!r}")


def cauchy_partials(expr, params, point, max_order=4):
    """All mixed Wirtinger partials up to max_order, {(alpha, beta): complex},
    by Cauchy's integral formula (Lyness & Moler 1967; Fornberg 1981): the
    FFT of the split tree's values on a polycircle about (point, conj(point))
    gives its Taylor coefficients c, and the partial is alpha! beta! c."""
    m = expr.m
    point = np.asarray(point, dtype=np.complex128)
    circle = CAUCHY_RADIUS * np.exp(2j * np.pi * np.arange(CAUCHY_SAMPLES) / CAUCHY_SAMPLES)
    grid = np.stack(np.meshgrid(*[circle] * (2 * m), indexing="ij"), axis=-1)
    split = Expression(_split_conj(expr.root, m), 2 * m - 1)
    values = split.value(params, grid + np.concatenate([point, np.conj(point)]))
    coeffs = np.fft.fftn(values) / values.size
    return {
        (k[:m], k[m:]): complex(coeffs[k] * math.prod(map(math.factorial, k))
                                / CAUCHY_RADIUS ** sum(k))
        for k in itertools.product(range(max_order + 1), repeat=2 * m)
        if sum(k) <= max_order
    }


def random_expression(rng, n):
    """A random composed expression (polynomials, exp, log, division), its
    parameter bindings, and a tame base point."""
    m = n + 1

    def cnum():
        re_, im_ = rng.normal(scale=0.4), rng.normal(scale=0.4)
        return f"({re_:.4f}+{im_:.4f}*i)"

    def poly(max_terms, max_factors):
        terms = []
        for _ in range(rng.integers(1, max_terms + 1)):
            factors = [cnum()]
            for _ in range(rng.integers(1, max_factors + 1)):
                j = int(rng.integers(1, m + 1))
                name = f"z{j}" if rng.random() < 0.5 else f"conj(z{j})"
                p = int(rng.integers(1, 3))
                factors.append(name if p == 1 else f"{name}^{p}")
            terms.append("*".join(factors))
        return "(" + "+".join(terms) + ")"

    pieces = [poly(4, 3)]
    style = rng.random()
    if style < 0.3:
        pieces.append(f"exp(0.2*{poly(2, 2)})")
    elif style < 0.55:
        pieces.append(f"log(1.5+abs2({poly(2, 2)}))*{cnum()}")
    elif style < 0.75:
        pieces.append(f"{poly(2, 2)}/(2+abs2(z1))")
    elif style < 0.9:
        pieces.append(f"pow(1.5+abs2({poly(1, 2)}),0.5)")
    text = "+".join(pieces)
    point = (rng.uniform(-0.55, 0.55, size=m) + 1j * rng.uniform(-0.55, 0.55, size=m))
    return parse(text, n), {}, point


# --- the acceptance checks --------------------------------------------------

SPHERE1 = "abs2(z1)+abs2(z2)-1"
SPHERE2 = "abs2(z1)+abs2(z2)+abs2(z3)-1"
SQUARED = "(abs2(z1)+abs2(z2))^2-1"
NORMAL_FORM = (
    "-im(z2) + abs2(z1) + kappa*abs2(z1)^2 "
    "+ gamma*(z1*conj(z1)^3 + z1^3*conj(z1))"
)


def _ellipsoid(a):
    return f"abs2(z1)+abs2(z2)+{a}*re(z1^2)-1" if a else SPHERE1


# hopf_product resolution of every rule the checks build
RESOLUTION = 32


class _Context:
    """Caches quadrature rules (n = 1) and their Galerkin pencils shared
    between checks."""

    def __init__(self):
        self._rules = {}
        self._problems = {}

    def rule(self, text, seed=0):
        key = (text, seed)
        if key not in self._rules:
            settings = QuadratureSettings("hopf_product", resolution=RESOLUTION, seed=seed)
            self._rules[key] = build_quadrature(parse(text, 1), settings)
        return self._rules[key]

    def problem(self, text, degree):
        """The pencil of the seed-0 rule of ``text`` at this basis degree."""
        key = (text, degree)
        if key not in self._problems:
            self._problems[key] = assemble(self.rule(text), MonomialBasis.build(2, degree))
        return self._problems[key]


def check_sphere_invariants(ctx):
    """Round spheres (n = 1, 2): r = J = 1, both scalar curvatures = n(n+1)."""
    worst = {"r": 0.0, "J": 0.0, "R_theta": 0.0, "R_Theta": 0.0}
    for n, text in ((1, SPHERE1), (2, SPHERE2)):
        expr = parse(text, n)
        pts = points_on_surface(expr, 100, seed=101 + n)
        q = curvature_quantities(expr, pts)
        worst["r"] = max(worst["r"], float(np.max(np.abs(q["r"] - 1.0))))
        worst["J"] = max(worst["J"], float(np.max(np.abs(q["J"] - 1.0))))
        worst["R_theta"] = max(
            worst["R_theta"], float(np.max(np.abs(q["R_theta"] - n * (n + 1))))
        )
        worst["R_Theta"] = max(
            worst["R_Theta"], float(np.max(np.abs(q["R_Theta"] - n * (n + 1))))
        )
    ok = (
        worst["r"] <= 1e-10
        and worst["J"] <= 1e-10
        and worst["R_theta"] <= 1e-9
        and worst["R_Theta"] <= 1e-9
    )
    detail = (
        f"|r-1|<={worst['r']:.2e} |J-1|<={worst['J']:.2e} "
        f"|R_theta-n(n+1)|<={worst['R_theta']:.2e} |R_Theta-n(n+1)|<={worst['R_Theta']:.2e}"
    )
    return ok, detail


def check_normal_form_curvature(ctx):
    """Quartic normal form at the origin: J = 1/4, D = 4k, R_Theta = 2^(4/3) k."""
    expr = parse(NORMAL_FORM, 1)
    worst_j = worst_d = worst_r = 0.0
    for kappa, gamma in ((1.0, 0.0), (1.0, 0.3), (-0.5, 0.2)):
        q = curvature_quantities(expr, [0.0, 0.0], {"kappa": kappa, "gamma": gamma})
        worst_j = max(worst_j, abs(float(q["J"]) - 0.25))
        worst_d = max(worst_d, abs(float(q["D"]) - 4.0 * kappa))
        worst_r = max(worst_r, abs(float(q["R_Theta"]) - 2.0 ** (4.0 / 3.0) * kappa))
    ok = worst_j <= 1e-10 and worst_d <= 1e-8 and worst_r <= 1e-8
    return ok, f"|J-1/4|<={worst_j:.2e} |D-4k|<={worst_d:.2e} |R_Theta-2^(4/3)k|<={worst_r:.2e}"


def check_rescaled_sphere_spectrum(ctx):
    """rho = (|z1|^2+|z2|^2)^2 - 1: lambda1 = 1/2, det H = 8; J and r differ
    from the values printed alongside the worked example (4 and 2) -- the
    bordered-determinant computation gives 8 and 1, and both are reported."""
    expr = parse(SQUARED, 1)
    lam1 = solve(ctx.problem(SQUARED, 2)).lambda1
    pts = points_on_surface(expr, 50, seed=33)
    frame = build_frame(expr, pts)
    det_err = float(np.max(np.abs(frame.detH - 8.0)))
    j_err = float(np.max(np.abs(frame.J - 8.0)))
    r_err = float(np.max(np.abs(frame.r - 1.0)))
    ok = abs(lam1 - 0.5) <= 1e-6 and det_err <= 1e-9 and j_err <= 1e-9 and r_err <= 1e-9
    detail = (
        f"lambda1={lam1:.9f} |detH-8|<={det_err:.2e}; "
        f"discrepancy diagnostic: computed J=8, r=1 vs printed J=4, r=2 "
        f"(|J-8|<={j_err:.2e}, |r-1|<={r_err:.2e})"
    )
    return ok, detail


def check_defining_function_invariance(ctx):
    """Normalized Webster scalar agrees across defining functions of one M."""
    variants = [
        SPHERE1,
        "((abs2(z1)+abs2(z2))^2-1)/2",
        "(abs2(z1)+abs2(z2)-1)*(1+(abs2(z1)+abs2(z2)-1)/2)",
    ]
    sphere = parse(SPHERE1, 1)
    pts = points_on_surface(sphere, 25, seed=7)
    values = [curvature_quantities(parse(t, 1), pts)["R_Theta"] for t in variants]
    worst = max(
        float(np.max(np.abs(values[i] - values[j])))
        for i in range(3)
        for j in range(i + 1, 3)
    )
    return worst <= 1e-6, f"max pairwise |R_Theta difference| = {worst:.2e}"


def _harmonic_dim(p, q, n):
    """Dimension of the bidegree-(p, q) harmonic space on the (2n+1)-sphere."""
    c = math.comb
    return c(p + n, n) * c(q + n, n) - c(p + n - 1, n) * c(q + n - 1, n)


def sphere_spectrum_oracle(degree, n):
    """Expected (eigenvalue -> multiplicity) for monomials of total degree
    <= degree on the unit sphere: q(p + n) on the (p, q) harmonic space."""
    table = {}
    kernel = 0
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            d = _harmonic_dim(p, q, n)
            if q == 0:
                kernel += d
            else:
                ev = q * (p + n)
                table[ev] = table.get(ev, 0) + d
    return table, kernel


def check_sphere_spectrum_table(ctx):
    """Degree-3 Ritz values on the round 3-sphere against the exact table."""
    problem = ctx.problem(SPHERE1, 3)
    result = solve(problem)
    table, kernel = sphere_spectrum_oracle(3, 1)
    ok = result.kernel_dim == kernel
    details = [f"kernel {result.kernel_dim} (expect {kernel})"]
    nonzero = np.sort(result.eigenvalues[result.eigenvalues > 1e-6])
    expected = np.sort(
        np.concatenate([[ev] * mult for ev, mult in sorted(table.items())])
    )
    if nonzero.shape == expected.shape:
        worst = float(np.max(np.abs(nonzero - expected)))
        ok = ok and worst <= 1e-8
        details.append(f"max |Ritz - exact| = {worst:.2e} over {table}")
    else:
        ok = False
        details.append(f"got {len(nonzero)} nonzero values, expected {len(expected)}")
    return ok, "; ".join(details)


def check_bound_sandwich(ctx):
    """lower <= Galerkin lambda1 <= upper on the ellipsoid family, with both
    bounds sharp at the round sphere."""
    details = []
    ok = True
    for a in (0.0, 0.05, 0.1):
        text = _ellipsoid(a)
        expr = parse(text, 1)
        rule = ctx.rule(text)
        dec = Decomposition(
            N=1.0, nu=1.0,
            psi=parse(f"{a}*re(z1^2)", 1) if a else None,
            f_maps=[parse("z1", 1), parse("z2", 1)],
        )
        up = upper_bound(dec, rule)
        pts = points_on_surface(expr, 50, seed=11)
        lo = lower_bound(expr, pts, paneitz_positive=True)
        lam1 = solve(ctx.problem(text, 4)).lambda1
        ok = ok and (lo.value - 1e-6 <= lam1 <= up.value + 1e-6)
        ok = ok and up.diagnostics["identities_ok"]
        if a == 0.0:
            ok = ok and abs(up.value - 1.0) <= 1e-6 and abs(lo.value - 1.0) <= 1e-6
            ok = ok and abs(lam1 - 1.0) <= 1e-6
        details.append(f"a={a}: {lo.value:.6f} <= {lam1:.6f} <= {up.value:.6f}")
    return ok, "; ".join(details)


def check_volume_by_stokes(ctx):
    """Contact volumes: 4 pi^2 for the round sphere, 16 pi^2 when theta
    doubles, and 8 pi^3 for S^5, where the density is exactly 8, so a Monte
    Carlo rule has zero variance."""
    v1 = ctx.rule(SPHERE1).volume
    v2 = ctx.rule(SQUARED).volume
    settings = QuadratureSettings("monte_carlo", samples=500, seed=0)
    v3 = build_quadrature(parse(SPHERE2, 2), settings).volume
    e1 = abs(v1 - 4.0 * np.pi**2)
    e2 = abs(v2 - 16.0 * np.pi**2)
    e3 = abs(v3 - 8.0 * np.pi**3)
    ok = e1 <= 1e-8 and e2 <= 1e-7 and e3 <= 1e-8
    return ok, f"|v-4pi^2|={e1:.2e} |v-16pi^2|={e2:.2e} |v-8pi^3|={e3:.2e}"


def check_operator_identities(ctx):
    """(a) integration by parts, (b) box_b kills holomorphic polynomials,
    (c) delta_b u = box_b u + conj(box_b u)."""
    text = _ellipsoid(0.1)
    expr = parse(text, 1)
    problem = ctx.problem(text, 4)
    scale = max(1.0, float(np.max(np.abs(problem.stiffness))))
    ibp_ok = problem.ibp_deviation <= 1e-7 * scale

    rng = np.random.default_rng(17)
    pts = points_on_surface(expr, 20, seed=19)
    frame = build_frame(expr, pts)
    worst_holo = 0.0
    for _ in range(20):
        c = rng.standard_normal(6)
        text_h = (
            f"({c[0]:.3f}+{c[1]:.3f}*i)*z1^2"
            f"+({c[2]:.3f}+{c[3]:.3f}*i)*z1*z2"
            f"+({c[4]:.3f}+{c[5]:.3f}*i)*z2^3"
        )
        hol = parse(text_h, 1)
        vals = kohn_laplacian(frame, hol.jet({}, pts, 2))
        worst_holo = max(worst_holo, float(np.max(np.abs(vals))))

    worst_real = 0.0
    for k in range(20):
        c = rng.standard_normal(3)
        text_u = (
            f"{c[0]:.3f}*abs2(z1)+{c[1]:.3f}*re(z1^2*conj(z2))+{c[2]:.3f}*im(z2)"
        )
        u = parse(text_u, 1)
        uj = u.jet({}, pts, 2)
        lhs = sub_laplacian(frame, uj)
        box = kohn_laplacian(frame, uj)
        worst_real = max(worst_real, float(np.max(np.abs(lhs - (box + np.conj(box))))))
    ok = ibp_ok and worst_holo <= 1e-12 and worst_real <= 1e-10
    detail = (
        f"ibp dev {problem.ibp_deviation:.2e} (scale {scale:.1f}); "
        f"box on holomorphic <= {worst_holo:.2e}; "
        f"delta_b identity <= {worst_real:.2e}"
    )
    return ok, detail


def check_decomposition_identities(ctx):
    """Pointwise identities of the quadratic (N = 2) sphere decomposition."""
    # seed 5 picks the identity points
    rule = ctx.rule(SPHERE1, seed=5)
    dec = Decomposition(
        N=2.0, nu=1.0, psi=None,
        f_maps=[parse("z1^2", 1), parse("pow(2,0.5)*z1*z2", 1), parse("z2^2", 1)],
    )
    report = upper_bound(dec, rule)
    be = report.diagnostics["box_identity_rel_err"]
    pe = report.diagnostics["pairing_identity_rel_err"]
    ok = be <= 1e-7 and pe <= 1e-7 and abs(report.value - 2.0) <= 1e-9
    return ok, f"value={report.value:.9f}; box rel err {be:.2e}; pairing rel err {pe:.2e}"


def check_coordinate_bound_gate(ctx):
    """Sign-condition bound on the round sphere: condition 0, bound n, r constant."""
    expr = parse(SPHERE1, 1)
    pts = points_on_surface(expr, 50, seed=3)
    report = special_bound(expr, 1, pts)
    cond = report.diagnostics["condition_max"]
    spread = report.diagnostics["r_spread"]
    ok = (
        report.diagnostics["condition_ok"]
        and cond <= 1e-10
        and abs(report.value - 1.0) <= 1e-10
        and spread <= 1e-10
    )
    return ok, f"condition max {cond:.2e}; value {report.value:.12f}; r spread {spread:.2e}"


def jet_engine_cases():
    """The 50 (expression, params, point) cases of the jet-engine check."""
    rng = np.random.default_rng(2024)
    # a few three-variable cases, mostly two
    return [random_expression(rng, 2 if case % 5 == 4 else 1) for case in range(50)]


def partial_errors(jet, reference):
    """|jet partial - ref| / max(1, |ref|) over a {(alpha, beta): ref} reference."""
    return [abs(complex(jet.partial(alpha, beta)) - ref) / max(1.0, abs(ref))
            for (alpha, beta), ref in reference.items()]


def check_jet_engine(ctx):
    """Mixed partials to order 4 of 50 random composed expressions against
    Cauchy's formula by FFT (radius 0.05, 8 samples per circle; rel 1e-5)."""
    errors = []
    for expr, params, point in jet_engine_cases():
        errors += partial_errors(expr.jet(params, point, 4), cauchy_partials(expr, params, point))
    worst = max(errors)
    return worst <= 1e-5, f"{len(errors)} partials over 50 expressions; worst rel err {worst:.2e}"


def check_report_determinism(ctx):
    """Two runs of one job (fixed seed) produce byte-identical reports."""
    job = {
        "dimension_n": 1,
        "defining_function": _ellipsoid(0.1),
        "params": {},
        "quadrature": {"type": "monte_carlo", "samples": 400, "seed": 42},
        "tasks": [
            {"kind": "invariants", "num_points": 8},
            {"kind": "bound_lower", "num_points": 12, "paneitz_positive": True},
        ],
    }
    r1, c1 = run_job_data(job)
    r2, c2 = run_job_data(job)
    b1, b2 = canonical_json(r1), canonical_json(r2)
    ok = b1 == b2 and c1 == c2 == 0
    return ok, f"{len(b1)} bytes, identical={b1 == b2}, exit codes {c1}/{c2}"


CHECKS = [
    ("sphere-invariants", "round-sphere invariants (n = 1 and n = 2)", check_sphere_invariants),
    ("normal-form-curvature", "quartic normal-form curvature checkpoint", check_normal_form_curvature),
    ("rescaled-sphere-spectrum", "rescaled sphere: lambda1 = 1/2, det H = 8, J/r diagnostic", check_rescaled_sphere_spectrum),
    ("invariance", "normalized scalar independent of the defining function", check_defining_function_invariance),
    ("sphere-spectrum-table", "degree-3 Ritz table with multiplicities and kernel", check_sphere_spectrum_table),
    ("bound-sandwich", "lower <= lambda1 <= upper on the ellipsoid family", check_bound_sandwich),
    ("volume-stokes", "contact volumes 4 pi^2, 16 pi^2 and 8 pi^3", check_volume_by_stokes),
    ("operator-identities", "adjoint consistency and pointwise operator identities", check_operator_identities),
    ("decomposition-identities", "pointwise identities of the N = 2 decomposition", check_decomposition_identities),
    ("coordinate-bound-gate", "sign-condition coordinate bound on the sphere", check_coordinate_bound_gate),
    ("jet-engine", "jet partials vs Cauchy's formula by FFT", check_jet_engine),
    ("determinism", "byte-identical reports for a fixed seed", check_report_determinism),
]


def run_all():
    """Run every acceptance check; returns a list of CheckResult."""
    ctx = _Context()
    results = []
    for key, description, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CheckResult(key, description, bool(passed), detail,
                        time.perf_counter() - start)
        )
    return results


def format_results(results):
    lines = []
    width = max(len(r.key) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.key.ljust(width)}  [{r.seconds:6.2f}s]  {r.detail}")
    total = sum(r.seconds for r in results)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed in {total:.1f}s")
    return "\n".join(lines)
