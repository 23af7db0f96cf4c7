import dataclasses

import numpy as np
import pytest

from chart_oracle import ChartOracle
from dense_jet import DenseJet
from crspectra.errors import DegenerateJ, NotStrictlyPseudoconvex
from crspectra.expressions import parse
from crspectra.frames import build_frame
from crspectra.operators import (
    NormalizedDefiningFunction,
    curvature_quantities,
    dbar_pairing,
    fefferman_det_jet,
    kohn_laplacian,
    log_fefferman_jet,
    ricci_tensor,
    sub_laplacian,
    webster_curvatures,
)
from crspectra.quadrature import (
    QuadratureSettings,
    build_quadrature,
    points_on_surface,
    re_densify,
)
from crspectra.spectral import estimate_lambda1

SPHERE = parse("abs2(z1)+abs2(z2)-1", 1)
SQUARED = parse("(abs2(z1)+abs2(z2))^2-1", 1)
ELLIPSOID = parse("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1)
QUARTIC_TEXT = "abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1"
QUARTIC = parse(QUARTIC_TEXT, 2)


def _sphere_frame(pts):
    return build_frame(SPHERE, pts)


def test_box_on_conjugate_coordinate():
    fr = _sphere_frame(np.array([1.0, 0.0], dtype=complex))
    f = parse("conj(z1)", 1).jet({}, np.array([1.0, 0.0], dtype=complex), 2)
    assert kohn_laplacian(fr, f) == pytest.approx(1.0)


def test_box_annihilates_holomorphic():
    pts = points_on_surface(ELLIPSOID, 15, seed=1)
    fr = build_frame(ELLIPSOID, pts)
    for text in ["z1^3", "z1*z2", "exp(0.5*z1)", "1+2*i", "z2^2-z1"]:
        vals = kohn_laplacian(fr, parse(text, 1).jet({}, pts, 2))
        assert np.max(np.abs(vals)) < 1e-12, text


def test_box_mixed_monomial_generic_point():
    pt = np.array([0.6, 0.8j], dtype=complex)
    fr = _sphere_frame(pt)
    f = parse("z1*conj(z2)", 1).jet({}, pt, 2)
    assert kohn_laplacian(fr, f) == pytest.approx(2.0 * 0.6 * np.conj(0.8j))


def test_sub_laplacian_constant_is_zero():
    pts = points_on_surface(SPHERE, 5, seed=3)
    fr = _sphere_frame(pts)
    u = parse("3.5", 1).jet({}, pts, 2)
    assert np.max(np.abs(sub_laplacian(fr, u))) == 0.0


def test_sub_laplacian_vs_box_identity():
    rng = np.random.default_rng(12)
    pts = points_on_surface(SQUARED, 20, seed=12)
    fr = build_frame(SQUARED, pts)
    for _ in range(20):
        c = rng.standard_normal(3)
        u = parse(
            f"{c[0]:.4f}*abs2(z1)+{c[1]:.4f}*re(z1*conj(z2))+{c[2]:.4f}*im(z2^2)", 1
        ).jet({}, pts, 2)
        lhs = sub_laplacian(fr, u)
        box = kohn_laplacian(fr, u)
        assert np.max(np.abs(lhs - (box + np.conj(box)))) < 1e-10


def test_sub_laplacian_of_modulus_at_pole():
    pt = np.array([1.0, 0.0], dtype=complex)
    fr = _sphere_frame(pt)
    u = parse("abs2(z1)", 1).jet({}, pt, 2)
    # delta_tilde kills |z1|^2 at the pole; N|z1|^2 = 1 there
    assert sub_laplacian(fr, u) == pytest.approx(2.0)


def test_pairing_examples():
    pt = np.array([0.0, 1.0], dtype=complex)
    fr = _sphere_frame(pt)
    u = parse("conj(z1)", 1).jet({}, pt, 1)
    assert dbar_pairing(fr, u, u) == pytest.approx(1.0)
    holo = parse("z1^2", 1).jet({}, pt, 1)
    assert dbar_pairing(fr, holo, u) == pytest.approx(0.0)


def test_pairing_hermitian_symmetry():
    rng = np.random.default_rng(5)
    pts = points_on_surface(ELLIPSOID, 10, seed=5)
    fr = build_frame(ELLIPSOID, pts)
    for _ in range(5):
        c = rng.standard_normal(4)
        u = parse(f"({c[0]:.3f}+{c[1]:.3f}*i)*conj(z1)*z2", 1).jet({}, pts, 1)
        v = parse(f"({c[2]:.3f}+{c[3]:.3f}*i)*conj(z2)^2", 1).jet({}, pts, 1)
        assert np.allclose(dbar_pairing(fr, u, v), np.conj(dbar_pairing(fr, v, u)))


def test_fefferman_jet_sphere_constant_one():
    pts = points_on_surface(SPHERE, 10, seed=8)
    jj = fefferman_det_jet(SPHERE.jet({}, pts, 4))
    assert np.max(np.abs(jj.constant_term() - 1.0)) < 1e-12
    assert np.max(np.abs(jj.coeffs[1:])) < 1e-12  # identically 1


def test_fefferman_jet_normal_form_quarter():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2 + gamma*(z1*conj(z1)^3 + z1^3*conj(z1))"
    e = parse(text, 1)
    for kappa, gamma in [(1.0, 0.0), (-0.5, 0.2)]:
        jj = fefferman_det_jet(e.jet({"kappa": kappa, "gamma": gamma},
                                     np.zeros(2, dtype=complex), 4))
        assert complex(jj.constant_term()) == pytest.approx(0.25)


def test_fefferman_scaling_multilinearity():
    pts = points_on_surface(SPHERE, 6, seed=10)
    base = fefferman_det_jet(SPHERE.jet({}, pts, 4))
    scaled = parse("2*(abs2(z1)+abs2(z2)-1)", 1)
    jj = fefferman_det_jet(scaled.jet({}, pts, 4))
    assert np.max(np.abs(jj.coeffs - 8.0 * base.coeffs)) < 1e-10


def test_ricci_sphere_is_multiple_of_levi():
    # log J vanishes identically, so the Ricci tensor is (n+1) r times the
    # Levi form; at the pole (1, 0) the tangent (1,0) space is spanned by e_2
    pts = points_on_surface(SPHERE, 10, seed=14)
    fr = build_frame(SPHERE, pts)
    logj = log_fefferman_jet(SPHERE.jet({}, pts, 4))
    ric = ricci_tensor(fr, logj)
    chart = ChartOracle(fr.grad, fr.hessian)
    assert np.max(np.abs(chart.project(ric) - 2.0 * chart.levi)) < 1e-10
    pole = build_frame(SPHERE, [1.0, 0.0])
    ric0 = ricci_tensor(pole, log_fefferman_jet(SPHERE.jet({}, np.array([1.0, 0.0], dtype=complex), 4)))
    assert np.max(np.abs(ric0 - 2.0 * np.diag([0.0, 1.0]))) < 1e-12


def test_ricci_trace_matches_webster_scalar():
    pts = points_on_surface(ELLIPSOID, 20, seed=15)
    fr = build_frame(ELLIPSOID, pts)
    logj = log_fefferman_jet(ELLIPSOID.jet({}, pts, 4))
    ric = ricci_tensor(fr, logj)
    trace = np.einsum("pba,pab->p", fr.h, ric).real
    scal, _ = webster_curvatures(fr, logj)
    assert np.max(np.abs(trace - scal)) < 1e-9
    herm = np.max(np.abs(ric - np.conj(np.swapaxes(ric, -1, -2))))
    assert herm < 1e-10


def test_webster_scalar_round_spheres():
    assert curvature_quantities(SPHERE, [[1.0, 0.0]])["R_theta"][0] == pytest.approx(2.0)
    s2 = parse("abs2(z1)+abs2(z2)+abs2(z3)-1", 2)
    assert curvature_quantities(s2, [[0.0, 0.0, 1.0]])["R_theta"][0] == pytest.approx(6.0)


def test_webster_scalar_constant_on_rescaled_sphere():
    pts = points_on_surface(SQUARED, 50, seed=16)
    vals = curvature_quantities(SQUARED, pts)["R_theta"]
    assert np.max(vals) - np.min(vals) < 1e-8


def test_functional_identity_with_webster_scalar():
    pts = points_on_surface(ELLIPSOID, 15, seed=17)
    fr = build_frame(ELLIPSOID, pts)
    logj = log_fefferman_jet(ELLIPSOID.jet({}, pts, 4))
    scal, d = webster_curvatures(fr, logj)
    delta_b = sub_laplacian(fr, logj)
    pair = dbar_pairing(fr, logj, logj).real
    n = fr.n
    assert np.max(np.abs(d - (scal - delta_b - n / (n + 1) * pair))) < 1e-9


def test_normalized_scalar_sphere_and_invariance():
    pts = points_on_surface(SPHERE, 25, seed=18)
    a = curvature_quantities(SPHERE, pts)["R_Theta"]
    b = curvature_quantities(parse("((abs2(z1)+abs2(z2))^2-1)/2", 1), pts)["R_Theta"]
    c = curvature_quantities(
        parse("(abs2(z1)+abs2(z2)-1)*(1+(abs2(z1)+abs2(z2)-1)/2)", 1), pts
    )["R_Theta"]
    assert np.max(np.abs(a - 2.0)) < 1e-9
    assert np.max(np.abs(a - b)) < 1e-6
    assert np.max(np.abs(a - c)) < 1e-6


def test_super_pseudoconvexity_flag_tracks_sign():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2"
    e = parse(text, 1)
    pos = curvature_quantities(e, [0.0, 0.0], {"kappa": 0.7})
    neg = curvature_quantities(e, [0.0, 0.0], {"kappa": -0.7})
    assert pos["D"][()] > 0.0 > neg["D"][()]


def test_first_normalization_fixed_point_and_unit_j():
    nd = NormalizedDefiningFunction(SPHERE)
    assert (nd.n, nd.m) == (1, 2)
    pts = points_on_surface(SPHERE, 10, seed=19)
    jet = nd.jet({}, pts, 2)
    base = SPHERE.jet({}, pts, 2)
    assert np.max(np.abs(jet.coeffs - base.coeffs)) < 1e-12  # J = 1 already

    nd2 = NormalizedDefiningFunction(SQUARED)
    pts2 = points_on_surface(SQUARED, 50, seed=20)
    vals = fefferman_det_jet(nd2.jet({}, pts2, 2)).constant_term().real
    assert np.max(np.abs(vals - 1.0)) < 1e-9


def test_re_densify_with_the_normalized_defining_function():
    # the volume-normalized structure of the squared sphere is that of the
    # unit sphere: volume 4 pi^2 and lambda1 = 1 (the squared sphere's own
    # structure gives 16 pi^2 and 0.5)
    rule = build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=16))
    normalized = re_densify(rule, NormalizedDefiningFunction(SQUARED))
    assert abs(normalized.volume - 4.0 * np.pi**2) < 1e-10
    assert abs(estimate_lambda1(normalized, 3).lambda1 - 1.0) < 1e-10


def test_frame_j_matches_fefferman_jet_constant():
    # two independent code paths for J: the adjugate identity in the frame
    # and the determinant of the bordered Hessian behind log_fefferman_jet
    pts = points_on_surface(ELLIPSOID, 25, seed=23)
    fr = build_frame(ELLIPSOID, pts)
    jj = fefferman_det_jet(ELLIPSOID.jet({}, pts, 4))
    assert np.max(np.abs(fr.J - jj.constant_term().real)) < 1e-12


@pytest.mark.parametrize("chart", [0, 1])
def test_chart_oracle_matches_ambient_operator_scalars(chart):
    # the chart route: R_theta is the trace of the chart Ricci tensor, and the
    # operators read the Levi inverse lifted through the chart fields
    pts = points_on_surface(SQUARED, 30, seed=31)
    keep = (np.abs(pts[:, 0]) > 0.35) & (np.abs(pts[:, 1]) > 0.35)
    pts = pts[keep]
    q = curvature_quantities(SQUARED, pts)
    fr, n = q["frame"], 1
    oracle = ChartOracle(fr.grad, fr.hessian, chart)
    inv = fr.inv.copy()
    inv[:, 1:, 1:] = oracle.ambient_levi_inverse()
    via_chart = dataclasses.replace(fr, inv=inv)
    logj = log_fefferman_jet(SQUARED.jet({}, pts, 4))
    r_theta = np.einsum("pba,pab->p", oracle.levi_inv, oracle.ricci(logj, fr.r)).real
    d = (r_theta - sub_laplacian(via_chart, logj)
         - n / (n + 1) * dbar_pairing(via_chart, logj, logj).real)
    want = {"R_theta": r_theta, "D": d, "R_Theta": fr.J ** (1.0 / (n + 2)) * d}
    for key, value in want.items():
        assert np.max(np.abs(q[key] - value)) < 1e-9, key
    u = parse("abs2(z1)-abs2(z2)+re(z1*conj(z2))", 1)
    f = parse("z1*conj(z2)^2", 1)
    for jets, op in ((u, sub_laplacian), (f, kohn_laplacian)):
        jet = jets.jet({}, pts, 2)
        assert np.max(np.abs(op(fr, jet) - op(via_chart, jet))) < 1e-9


def _random_quadric(n):
    """z^T A conj(z) + c |z1|^4 - K with A = a + i b Hermitian; the entries
    of A, c and K are parameters."""
    m = n + 1
    terms = [f"a{j}{j}*abs2(z{j})" for j in range(1, m + 1)]
    terms += [
        f"2*(a{j}{k}*re(z{j}*conj(z{k}))-b{j}{k}*im(z{j}*conj(z{k})))"
        for j in range(1, m + 1) for k in range(j + 1, m + 1)
    ]
    return parse("+".join(terms) + "+c*abs2(z1)^2-K", n)


@pytest.mark.parametrize("n", [1, 2])
def test_pseudoconvexity_and_ricci_on_random_quadrics(n):
    # each draw puts a random point p on a random quadric; A has a random
    # signature, so Levi forms of every signature occur, and at n = 2 the
    # negative definite ones have J > 0 and reach the pseudoconvexity test
    m = n + 1
    rho = _random_quadric(n)
    names = sorted(rho.parameters() - {"K"})
    rng = np.random.default_rng(n)
    verdicts = []
    for _ in range(200):
        params = {name: rng.normal() for name in names}
        p = rng.normal(size=(1, m)) + 1j * rng.normal(size=(1, m))
        params["K"] = float(rho.value({**params, "K": 0.0}, p).real[0])
        jet = rho.jet(params, p, 4)
        grad, hess = jet.gradient(), jet.mixed_hessian()
        levi_min = np.min(np.linalg.eigvalsh(ChartOracle(grad, hess).levi))
        try:
            fr = build_frame(rho, p, params)
        except DegenerateJ:
            continue
        except NotStrictlyPseudoconvex:
            verdicts.append((levi_min, False))
            continue
        verdicts.append((levi_min, True))

        # each check is relative to the size of the terms it sums
        logj = log_fefferman_jet(jet)
        ric = ricci_tensor(fr, logj)
        full = -logj.mixed_hessian() + (n + 1) * fr.r[..., None, None] * fr.hessian
        proj = np.eye(m) - fr.xi[..., :, None] * fr.grad[..., None, :]
        scale = np.max(np.abs(proj)) ** 2 * np.max(np.abs(full))
        xi_scale = np.max(np.abs(fr.xi)) * scale
        assert np.max(np.abs(np.einsum("pa,pab->pb", fr.xi, ric))) <= 1e-12 * xi_scale
        assert np.max(np.abs(np.einsum("pab,pb->pa", ric, np.conj(fr.xi)))) <= 1e-12 * xi_scale
        for chart in range(m):
            oracle = ChartOracle(grad, hess, chart)
            want = oracle.ricci(logj, fr.r)
            chart_scale = np.max(np.abs(oracle.fields)) ** 2 * scale
            assert np.max(np.abs(oracle.project(ric) - want)) <= 1e-12 * chart_scale
        r_theta, _ = webster_curvatures(fr, logj)
        trace = np.einsum("pba,pab->p", fr.h, ric).real
        assert np.max(np.abs(trace - r_theta)) <= 1e-12 * np.max(np.abs(fr.h)) * scale

    assert all((levi_min > 0.0) == built for levi_min, built in verdicts)
    assert sum(built for _, built in verdicts) >= 20
    if n == 2:
        assert sum(not built for _, built in verdicts) >= 20


def _laplace_det(rows):
    # determinant of a square matrix of jets by Laplace expansion along row 0
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j in range(len(rows)):
        minor = [[row[c] for c in range(len(rows)) if c != j] for row in rows[1:]]
        term = rows[0][j] * _laplace_det(minor)
        term = -term if j % 2 else term
        total = term if total is None else total + term
    return total


def _reference_log_fefferman(rho_jet):
    """log J from the Laplace expansion of the bordered Hessian whose entries
    are the derivative jets of rho, each truncated to the output order."""
    m, order = rho_jet.m, rho_jet.order - 2
    units = [(0,) * m] + [tuple(int(s == j) for s in range(m)) for j in range(m)]
    rows = [[DenseJet.of(rho_jet.derivative(a, b).truncate(order)) for b in units]
            for a in units]
    jj = (-_laplace_det(rows)).hermitized()
    if np.min(jj.constant_term().real) <= 1e-12:
        raise DegenerateJ("J <= 1e-12")
    return jj.log()


def _oracle_points(rho, batch):
    count = int(np.prod(batch, dtype=int))
    if rho.n == 0:
        # on the curve |z1|^2 + 0.2 re(z1^2) = 1, off it by up to 1e-2
        t = np.linspace(0.3, 5.9, count)
        pts = (np.cos(t) / np.sqrt(1.2) + 1j * np.sin(t) / np.sqrt(0.8))[:, None]
        pts = pts * (1.0 + 0.01 * np.sin(3 * t))[:, None]
    else:
        pts = points_on_surface(rho, count, seed=count)
    return pts.reshape(batch + (rho.n + 1,))


@pytest.mark.parametrize("batch", [(), (1,), (7,)])
@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("text,n", [
    ("abs2(z1)+0.2*re(z1^2)-1", 0),
    ("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1),
    ("(abs2(z1)+abs2(z2))^2-1", 1),
    (QUARTIC_TEXT, 2),
    (f"({QUARTIC_TEXT})*(2+re(z1))", 2),
])
def test_log_fefferman_jet_matches_laplace_expansion(text, n, order, batch):
    rho = parse(text, n)
    rho_jet = rho.jet({}, _oracle_points(rho, batch), order)
    got = log_fefferman_jet(rho_jet)
    ref = _reference_log_fefferman(rho_jet)
    assert got.is_real and got.order == order - 2
    assert got.coeffs.shape == ref.coeffs.shape == (ref.space.n_terms,) + batch
    # each noncanonical term is written as the conjugate of its partner, and
    # each self-conjugate term is real, so the symmetry holds bit for bit
    np.testing.assert_array_equal(got.coeffs[got.space.conj_perm], np.conj(got.coeffs))
    # log J is O(1); coefficients that vanish identically are compared
    # against that scale
    scale = max(1.0, float(np.max(np.abs(ref.coeffs))))
    np.testing.assert_allclose(got.coeffs, ref.coeffs, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("order", [2, 4])
def test_log_fefferman_jet_rejects_nonpositive_j(order):
    # J = -det [[rho, -z], [-conj(z)^T, -I]] = -1 everywhere
    rho = parse("1-abs2(z1)-abs2(z2)", 1)
    rho_jet = rho.jet({}, np.array([[0.6, 0.8j], [1.0, 0.0]]), order)
    with pytest.raises(DegenerateJ):
        _reference_log_fefferman(rho_jet)
    with pytest.raises(DegenerateJ, match="<= 1.0e-12"):
        log_fefferman_jet(rho_jet)
    with pytest.raises(DegenerateJ):
        fefferman_det_jet(rho_jet)


def test_curvature_quantities_inverts_the_bordered_hessian_once(monkeypatch):
    # the frame's J and A0^-1 also start the log J series
    from crspectra import frames, operators

    calls = []
    original = frames.bordered_inverse

    def counting(a, points):
        calls.append(a.shape)
        return original(a, points)

    for module in (frames, operators):
        monkeypatch.setattr(module, "bordered_inverse", counting)
    pts = points_on_surface(QUARTIC, 7, seed=2)
    curvature_quantities(QUARTIC, pts)
    assert calls == [(4, 4, 7)]


@pytest.mark.parametrize("text", [QUARTIC_TEXT, f"({QUARTIC_TEXT})*(2+re(z1))"])
def test_curvature_quantities_log_j_is_log_fefferman_jet(monkeypatch, text):
    from crspectra import operators

    rho = parse(text, 2)
    pts = points_on_surface(rho, 20, seed=5)
    seen = []
    original = operators.webster_curvatures

    def capture(frame, logj):
        seen.append(logj)
        return original(frame, logj)

    monkeypatch.setattr(operators, "webster_curvatures", capture)
    curvature_quantities(rho, pts)
    want = log_fefferman_jet(rho.jet({}, pts, 4))
    # the same kernel on the same J0 and A0^-1: equal to the last bit
    assert seen[0].is_real and seen[0].order == 2
    np.testing.assert_array_equal(seen[0].coeffs, want.coeffs)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("text,n", [
    ("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1),
    (f"({QUARTIC_TEXT})*(2+re(z1))", 2),
])
def test_normalized_defining_function_matches_laplace_expansion(text, n, order):
    # rho_hat = exp(-log J / (n+2)) rho, with log J from the oracle
    rho = parse(text, n)
    pts = _oracle_points(rho, (7,))
    rho_jet = rho.jet({}, pts, order + 2)
    ref = (_reference_log_fefferman(rho_jet) * (-1.0 / (n + 2))).exp()
    ref = ref * DenseJet.of(rho_jet.truncate(order))
    got = NormalizedDefiningFunction(rho).jet({}, pts, order)
    assert got.order == order
    # the constant term is rho's residual on M, about 1e-16; it and the
    # coefficients that vanish identically are compared against the scale
    scale = max(1.0, float(np.max(np.abs(ref.coeffs))))
    np.testing.assert_allclose(got.coeffs, ref.coeffs, rtol=1e-12, atol=1e-12 * scale)


def test_numerically_real_defining_function_is_hermitized_once():
    # the same function, written so that its jets are real only numerically
    # (not flagged) and as re(...) (flagged): the frame and the log J series
    # read one hermitized jet, so both spellings agree
    plain = parse("abs2(z1)+abs2(z2)+0.1*(z1*conj(z2)+conj(z1)*z2)+0.2*abs2(z1)^2-1", 1)
    flagged = parse("abs2(z1)+abs2(z2)+0.2*re(z1*conj(z2))+0.2*abs2(z1)^2-1", 1)
    pts = points_on_surface(flagged, 30, seed=17)
    assert not plain.jet({}, pts, 4).is_real and flagged.jet({}, pts, 4).is_real
    got, want = curvature_quantities(plain, pts), curvature_quantities(flagged, pts)
    for key in ("R_theta", "D", "R_Theta", "J"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-13 * np.max(np.abs(want[key])), key
    got = log_fefferman_jet(plain.jet({}, pts, 4))
    want = log_fefferman_jet(flagged.jet({}, pts, 4))
    assert got.is_real
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-13 * np.max(np.abs(want.coeffs))


def test_first_normalization_unit_j_n2():
    pts = points_on_surface(QUARTIC, 40, seed=21)
    vals = fefferman_det_jet(NormalizedDefiningFunction(QUARTIC).jet({}, pts, 2)).constant_term().real
    assert np.max(np.abs(vals - 1.0)) < 1e-10
