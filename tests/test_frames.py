import numpy as np
import pytest

from chart_oracle import ChartOracle
from crspectra.errors import (
    DegenerateJ,
    NotOnSurface,
    NotRealValued,
    NotStrictlyPseudoconvex,
)
from crspectra.expressions import parse
from crspectra.frames import build_frame
from crspectra.operators import dbar_pairing
from crspectra.quadrature import points_on_surface

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


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_scaling_laws(c):
    scaled = parse(f"{c}*(abs2(z1)+abs2(z2)-1)", 1)
    pts = points_on_surface(SPHERE, 10, seed=4)
    base = build_frame(SPHERE, pts)
    fr = build_frame(scaled, pts)
    assert np.allclose(fr.J, c**3 * base.J, rtol=1e-12)
    assert np.allclose(fr.detH, c**2 * base.detH, rtol=1e-12)
    assert np.allclose(fr.r, base.r / c, rtol=1e-12)


def test_normal_form_frame_at_origin():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2"
    e = parse(text, 1)
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
    pair = np.einsum("pk,pk->p", fr.grad, fr.xi)
    assert np.max(np.abs(pair - 1.0)) < 1e-12
    trans = np.einsum("pj,pjk->pk", fr.xi, fr.hessian) - fr.r[:, None] * np.conj(fr.grad)
    assert np.max(np.abs(trans)) < 1e-10
    # the nonchart block of h inverts the Levi form of the chart fields
    chart = ChartOracle(fr.grad, fr.hessian)
    rows = np.arange(len(pts))[:, None, None]
    block = fr.h[rows, chart.nonchart[:, :, None], chart.nonchart[:, None, :]]
    ident = np.einsum("pab,pbc->pac", block, chart.levi)
    assert np.max(np.abs(ident - np.eye(fr.n))) < 1e-10


def test_reeb_and_normal_fields():
    pts = points_on_surface(SPHERE, 10, seed=2)
    fr = build_frame(SPHERE, pts)
    jet = SPHERE.jet({}, pts, 1)
    grad = np.stack([jet.partial((1, 0), (0, 0)), jet.partial((0, 1), (0, 0))], axis=-1)
    # N = (xi + conj(xi)) / 2 and T = i (xi - conj(xi)) as (1,0) parts
    n_rho = 2.0 * np.einsum("pk,pk->p", grad, 0.5 * fr.xi).real
    t_rho = 2.0 * np.einsum("pk,pk->p", grad, 1j * fr.xi).real
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
    assert np.max(np.abs(lifted - fr.h)) < 1e-9


def _chart_route_pairing(oracle, u_jet, v_jet):
    """Levi-inverse pairing of Z_betabar u and Z_betabar v, with Z_betabar =
    d_betabar - (rho_betabar / rho_wbar) d_wbar in the oracle's chart."""
    z_bar_u = np.einsum("pgk,pk->pg", np.conj(oracle.fields), u_jet.dbar_gradient())
    z_bar_v = np.einsum("pgk,pk->pg", np.conj(oracle.fields), v_jet.dbar_gradient())
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
    assert np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) <= 1e-14 * scale
    assert np.max(np.abs(np.einsum("pkl,pl->pk", h, fr.grad))) <= 1e-14 * scale
    rows = np.arange(len(pts))[:, None, None]
    block = h[rows, oracle.nonchart[:, :, None], oracle.nonchart[:, None, :]]
    assert np.max(np.abs(block - oracle.levi_inv)) <= 1e-14 * scale
    u_jet, v_jet = parse(u, n).jet({}, pts, 1), parse(v, n).jet({}, pts, 1)
    want = _chart_route_pairing(oracle, u_jet, v_jet)
    got = dbar_pairing(fr, u_jet, v_jet)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_off_surface_point_rejected():
    with pytest.raises(NotOnSurface):
        build_frame(SPHERE, [1.1, 0.0])


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
