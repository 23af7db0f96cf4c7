import re

import numpy as np
import pytest

from chart_oracle import ChartOracle
from crspectra import frames
from crspectra.errors import (
    DegenerateFrame,
    DegenerateJ,
    InternalConsistencyError,
    NotOnSurface,
    NotRealValued,
    NotStrictlyPseudoconvex,
)
from crspectra.expressions import parse
from crspectra.frames import build_frame, frame_from_jet
from crspectra.operators import curvature_quantities, dbar_pairing
from crspectra.quadrature import QuadratureSettings, build_quadrature, points_on_surface

SPHERE = parse("abs2(z1)+abs2(z2)-1", 1)
SQUARED = parse("(abs2(z1)+abs2(z2))^2-1", 1)


def test_sphere_frame_at_pole():
    fr = build_frame(SPHERE, [1.0, 0.0])
    assert fr.J == pytest.approx(1.0)
    assert fr.detH == pytest.approx(1.0)
    assert fr.r == pytest.approx(1.0)
    assert np.allclose(fr.xi, [1.0, 0.0])
    assert np.allclose(fr.h, np.diag([0.0, 1.0]))
    chart = ChartOracle(fr.grad, fr.hessian)
    assert chart.chart.tolist() == [0]
    assert np.allclose(chart.levi, [[[1.0]]])


def test_squared_sphere_frame():
    fr = build_frame(SQUARED, [1.0, 0.0])
    assert fr.detH == pytest.approx(8.0)
    assert fr.J == pytest.approx(8.0)
    assert fr.r == pytest.approx(1.0)


@pytest.mark.parametrize("c", [1e-6, 0.5, 2.0, 3.0])
def test_scaling_laws(c):
    # the frame's thresholds are relative, so a constant factor on the
    # defining function changes no verdict, and R_Theta not at all
    for n, text in ((1, "abs2(z1)+abs2(z2)-1"), (2, "abs2(z1)+abs2(z2)+abs2(z3)-1")):
        base_rho, scaled = parse(text, n), parse(f"{c}*({text})", n)
        pts = points_on_surface(base_rho, 10, seed=4)
        base = curvature_quantities(base_rho, pts)
        q = curvature_quantities(scaled, pts)
        assert np.allclose(q["J"], c ** (n + 2) * base["J"], rtol=1e-12, atol=0.0)
        assert np.allclose(q["detH"], c ** (n + 1) * base["detH"], rtol=1e-12, atol=0.0)
        assert np.allclose(q["r"], base["r"] / c, rtol=1e-12, atol=0.0)
        assert np.allclose(q["R_Theta"], base["R_Theta"], rtol=1e-12, atol=0.0)


def _bordered(fr):
    """Fefferman's bordered Hessian [[rho, rho_kbar], [rho_j, rho_jkbar]] of
    a frame, batch axis first for LAPACK."""
    m = fr.m
    a = np.empty((m + 1, m + 1) + fr.batch_shape, dtype=np.complex128)
    a[0, 0] = fr.rho
    a[0, 1:] = np.conj(fr.grad)
    a[1:, 0] = fr.grad
    a[1:, 1:] = fr.hessian
    return np.moveaxis(a, (0, 1), (-2, -1))


@pytest.mark.parametrize(
    "text,n,params,points",
    [
        ("(abs2(z1)+abs2(z2))^2-1", 1, {}, None),
        ("abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1", 1, {}, None),
        ("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1", 2, {}, None),
        ("-im(z2) + abs2(z1) + kappa*abs2(z1)^2", 1, {"kappa": 1.0}, [[0.0, 0.0]]),
    ],
    ids=["squared", "rule_n1", "quartic_n2", "normal_form_origin"],
)
def test_frame_is_the_bordered_inverse(text, n, params, points):
    # J = -det A and A^-1 = [[-r, xi^T], [conj(xi), h]] against LAPACK
    rho = parse(text, n)
    pts = points_on_surface(rho, 40, seed=6) if points is None else np.array(points)
    fr = build_frame(rho, pts, params)
    a = _bordered(fr)
    inv = np.linalg.inv(a)
    scale = np.max(np.abs(inv), axis=(-2, -1))
    assert np.max(np.abs(fr.J + np.linalg.det(a).real) / fr.J) <= 1e-12
    assert np.max(np.abs(fr.r + inv[:, 0, 0].real) / scale) <= 1e-12
    assert np.max(np.abs(fr.xi - inv[:, 0, 1:].T) / scale) <= 1e-12
    assert np.max(np.abs(np.conj(fr.xi) - inv[:, 1:, 0].T) / scale) <= 1e-12
    assert np.max(np.abs(fr.h - np.moveaxis(inv[:, 1:, 1:], 0, -1)) / scale) <= 1e-12


@pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1)])
def test_corrupted_inverse_trips_the_residual_check(monkeypatch, entry):
    # one entry of the adjugate off by 1e-8 relative: A A^-1 = I fails by far
    # more than its rounding bound
    cofactors = frames._adjugate

    def corrupted(a):
        adj = cofactors(a)
        adj[entry] *= 1.0 + 1e-8
        return adj

    pts = points_on_surface(SQUARED, 5, seed=7)
    build_frame(SQUARED, pts)
    monkeypatch.setattr(frames, "_adjugate", corrupted)
    with pytest.raises(InternalConsistencyError, match="exceeds its rounding bound"):
        build_frame(SQUARED, pts)


def test_normal_form_frame_at_origin():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2"
    e = parse(text, 1)
    # A and A^-1 have zero entries here, so |A| |A^-1| vanishes in places:
    # the frame's checks must not divide by it
    with np.errstate(all="raise"):
        fr = build_frame(e, [0.0, 0.0], {"kappa": 1.0})
    assert fr.J == pytest.approx(0.25)
    assert fr.detH == pytest.approx(0.0)
    assert fr.r == pytest.approx(0.0)
    chart = ChartOracle(fr.grad, fr.hessian)
    assert chart.chart.tolist() == [1]
    assert np.allclose(chart.levi, [[[1.0]]])
    assert np.allclose(fr.xi, [0.0, -2.0j])


def test_frame_invariants_generic_points():
    pts = points_on_surface(SQUARED, 40, seed=9)
    fr = build_frame(SQUARED, pts)
    pair = np.einsum("kp,kp->p", fr.grad, fr.xi)
    assert np.max(np.abs(pair - 1.0)) < 1e-12
    trans = np.einsum("jp,jkp->kp", fr.xi, fr.hessian) - fr.r * np.conj(fr.grad)
    assert np.max(np.abs(trans)) < 1e-10
    # the nonchart block of h inverts the Levi form of the chart fields
    chart = ChartOracle(fr.grad, fr.hessian)
    rows = np.arange(len(pts))[:, None, None]
    block = fr.h[chart.nonchart[:, :, None], chart.nonchart[:, None, :], rows]
    ident = np.einsum("pab,pbc->pac", block, chart.levi)
    assert np.max(np.abs(ident - np.eye(fr.n))) < 1e-10


def test_reeb_and_normal_fields():
    pts = points_on_surface(SPHERE, 10, seed=2)
    fr = build_frame(SPHERE, pts)
    jet = SPHERE.jet({}, pts, 1)
    grad = np.stack([jet.partial((1, 0), (0, 0)), jet.partial((0, 1), (0, 0))], axis=-1)
    # N = (xi + conj(xi)) / 2 and T = i (xi - conj(xi)) as (1,0) parts
    n_rho = 2.0 * np.einsum("pk,kp->p", grad, 0.5 * fr.xi).real
    t_rho = 2.0 * np.einsum("pk,kp->p", grad, 1j * fr.xi).real
    assert np.max(np.abs(n_rho - 1.0)) < 1e-12   # N rho = 1
    assert np.max(np.abs(t_rho)) < 1e-12         # T rho = 0


@pytest.mark.parametrize("chart", [0, 1])
def test_chart_oracle_matches_ambient_levi_inverse(chart):
    # the Levi inverse lifted through either chart is the one ambient h
    pts = points_on_surface(SQUARED, 30, seed=21)
    keep = (np.abs(pts[:, 0]) > 0.35) & (np.abs(pts[:, 1]) > 0.35)
    pts = pts[keep]
    fr = build_frame(SQUARED, pts)
    lifted = ChartOracle(fr.grad, fr.hessian, chart).ambient_levi_inverse()
    assert np.max(np.abs(lifted - np.moveaxis(fr.h, -1, 0))) < 1e-9


def _chart_route_pairing(oracle, u_jet, v_jet):
    """Levi-inverse pairing of Z_betabar u and Z_betabar v, with Z_betabar =
    d_betabar - (rho_betabar / rho_wbar) d_wbar in the oracle's chart."""
    z_bar_u = np.einsum("pgk,kp->pg", np.conj(oracle.fields), u_jet.dbar_gradient())
    z_bar_v = np.einsum("pgk,kp->pg", np.conj(oracle.fields), v_jet.dbar_gradient())
    return np.einsum("pgs,pg,ps->p", oracle.levi_inv, z_bar_u, np.conj(z_bar_v))


@pytest.mark.parametrize("chart", [None, 0], ids=["max-gradient", "chart-0"])
@pytest.mark.parametrize(
    "text,n,u,v",
    [
        ("abs2(z1)+abs2(z2)+0.2*re(z1^2)+0.3*abs2(z1)^2-1", 1,
         "z1*conj(z2)^2+conj(z1)*z2", "conj(z1)^2-z2*conj(z2)"),
        ("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.2*abs2(z2)^2-1", 2,
         "z1*conj(z2)^2+conj(z3)*z2", "conj(z1)*conj(z3)-z2*conj(z2)"),
    ],
    ids=["n1", "n2"],
)
def test_ambient_levi_inverse(text, n, u, v, chart):
    rho = parse(text, n)
    pts = points_on_surface(rho, 60, seed=3)
    if chart is not None:
        pts = pts[np.abs(pts[:, chart]) > 0.3]
    fr = build_frame(rho, pts)
    oracle = ChartOracle(fr.grad, fr.hessian, chart)
    h, scale = fr.h, np.max(np.abs(fr.h))
    assert np.max(np.abs(h - np.conj(np.swapaxes(h, 0, 1)))) <= 1e-14 * scale
    assert np.max(np.abs(np.einsum("klp,lp->kp", h, fr.grad))) <= 1e-14 * scale
    rows = np.arange(len(pts))[:, None, None]
    block = h[oracle.nonchart[:, :, None], oracle.nonchart[:, None, :], rows]
    assert np.max(np.abs(block - oracle.levi_inv)) <= 1e-14 * scale
    u_jet, v_jet = parse(u, n).jet({}, pts, 1), parse(v, n).jet({}, pts, 1)
    want = _chart_route_pairing(oracle, u_jet, v_jet)
    got = dbar_pairing(fr, u_jet, v_jet)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_off_surface_point_rejected():
    with pytest.raises(NotOnSurface):
        build_frame(SPHERE, [1.1, 0.0])


def test_off_surface_point_rejected_on_a_large_surface():
    # the on-surface bound scales with |p| |drho| (4e8 at radius 100), so
    # rounding residuals pass but a point moved off M by 1e-6 relative does not
    rho = parse("(abs2(z1)+abs2(z2))^2-1e8", 1)
    u = points_on_surface(rho, 4, seed=0)
    build_frame(rho, u)
    with pytest.raises(NotOnSurface):
        build_frame(rho, u * (1.0 + 1e-6))


@pytest.mark.parametrize("entry, value", [((0, 0), np.inf), ((1, 1), np.inf), ((2, 1), np.nan)])
def test_non_finite_bordered_hessian_rejected(entry, value):
    # |rho| > 1e-9 x inf is false, so an infinite A0 passed the on-surface
    # check and gave a NaN frame
    pts = points_on_surface(SPHERE, 3, seed=1)
    a = build_frame(SPHERE, pts).a.copy()
    a[entry + (1,)] = value
    with pytest.raises(DegenerateFrame, match="non-finite bordered Hessian A0 at "
                                              + re.escape(str(pts[1]))):
        frames.frame_from_bordered(pts, a)


def test_negative_j_rejected():
    flipped = parse("-(abs2(z1)+abs2(z2)-1)", 1)
    with pytest.raises(DegenerateJ):
        build_frame(flipped, [1.0, 0.0])


def test_not_strictly_pseudoconvex_detected():
    # signature (-, -, +) complex Hessian: J = 2 > 0 but the Levi form is
    # negative definite at (0, 0, 1/sqrt(2))
    e = parse("-abs2(z1)-abs2(z2)+2*abs2(z3)-1", 2)
    with pytest.raises(NotStrictlyPseudoconvex):
        build_frame(e, [0.0, 0.0, 1.0 / np.sqrt(2.0)])


def test_complex_valued_rho_rejected():
    e = parse("z1*conj(z2)+z2*conj(z2)-1", 1)  # not real-valued
    with pytest.raises((NotRealValued, NotOnSurface)):
        build_frame(e, [0.0, 1.0])


def test_frame_take_subsets():
    pts = points_on_surface(SPHERE, 12, seed=5)
    fr = build_frame(SPHERE, pts)
    sub = fr.take(np.array([0, 3, 7]))
    assert sub.batch_shape == (3,)
    assert np.allclose(sub.point[1], pts[3])


def test_one_layout_batch_axes_last():
    # A0 and A0^-1 are (m+1, m+1, *batch) and C-contiguous, and the frame's
    # fields are views of their blocks; jet read-offs put the batch last too
    pts = points_on_surface(SQUARED, 20, seed=8)
    rule = build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=4))
    frames_under_test = {
        "build_frame": build_frame(SQUARED, pts.reshape(4, 5, 2)),
        "frame_from_jet": frame_from_jet(SQUARED.jet({}, pts, 3)),
        "curvature_quantities": curvature_quantities(SQUARED, pts)["frame"],
        "rule, one point per orbit": rule.frame,
        "take": rule.frame.take(np.array([0, 2, 3])),
    }
    assert rule.frame.batch_shape == (len(rule.orbits.reps),) == (4,)
    for name, fr in frames_under_test.items():
        m, batch = fr.m, fr.batch_shape
        for mat in (fr.a, fr.inv):
            assert mat.shape == (m + 1, m + 1) + batch, name
            assert mat.flags.c_contiguous, name
        for field, base, shape in ((fr.grad, fr.a, (m,)), (fr.hessian, fr.a, (m, m)),
                                   (fr.xi, fr.inv, (m,)), (fr.h, fr.inv, (m, m))):
            assert field.shape == shape + batch, name
            assert np.shares_memory(field, base), name
    for point in (pts[0], pts.reshape(4, 5, 2)):
        batch = point.shape[:-1]
        jet = SQUARED.jet({}, point, 2)
        assert jet.gradient().shape == jet.dbar_gradient().shape == (2,) + batch
        assert jet.mixed_hessian().shape == (2, 2) + batch
