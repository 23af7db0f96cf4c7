import tracemalloc

import numpy as np
import pytest

from crspectra import bounds
from crspectra.bounds import (
    Decomposition,
    _dispersion,
    lower_bound,
    pullback_defining_function,
    reilly_bound,
    special_bound,
    upper_bound,
    validate_decomposition,
)
from crspectra.errors import (
    InvalidDecomposition,
    NegativeTransverseCurvature,
    NotApplicable,
    NotOnSphereImage,
)
from crspectra.expressions import parse
from crspectra.operators import NormalizedDefiningFunction
from crspectra.quadrature import (
    QuadratureSettings, build_quadrature, points_on_surface, re_densify,
)

SPHERE = parse("abs2(z1)+abs2(z2)-1", 1)
SQUARED = parse("(abs2(z1)+abs2(z2))^2-1", 1)


@pytest.fixture(scope="module")
def sphere_rule():
    return build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=24))


@pytest.fixture(scope="module")
def squared_rule():
    return build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=24))


def _identity_dec():
    return Decomposition(N=1.0, nu=1.0, psi=None,
                         f_maps=[parse("z1", 1), parse("z2", 1)])


def _quadratic_immersion():
    return [parse("z1^2", 1), parse("pow(2,0.5)*z1*z2", 1), parse("z2^2", 1)]


def test_upper_bound_sphere_is_sharp(sphere_rule):
    report = upper_bound(_identity_dec(), sphere_rule)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert report.diagnostics["identities_ok"]


def test_upper_bound_quadratic_immersion_decomposition(squared_rule):
    dec = Decomposition(N=1.0, nu=1.0, psi=None, f_maps=_quadratic_immersion())
    report = upper_bound(dec, squared_rule)
    # the decomposition is exact: sum |f|^2 = (rho + 1); lambda1 here is 1/2,
    # so the bound is valid but strict
    assert report.diagnostics["residual_max"] < 1e-12
    assert report.value > 0.5 + 1e-6
    assert report.value == pytest.approx(1.0, abs=1e-9)


def test_upper_bound_quadratic_decomposition(sphere_rule):
    dec = Decomposition(N=2.0, nu=1.0, psi=None, f_maps=_quadratic_immersion())
    report = upper_bound(dec, sphere_rule)
    assert report.value == pytest.approx(2.0, abs=1e-9)
    assert report.diagnostics["box_identity_rel_err"] < 1e-7
    assert report.diagnostics["pairing_identity_rel_err"] < 1e-7


def test_upper_bound_with_pluriharmonic_part():
    a = 0.1
    rho = parse(f"abs2(z1)+abs2(z2)+{a}*re(z1^2)-1", 1)
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=24))
    dec = Decomposition(N=1.0, nu=1.0, psi=parse(f"{a}*re(z1^2)", 1),
                        f_maps=[parse("z1", 1), parse("z2", 1)])
    report = upper_bound(dec, rule)
    assert report.diagnostics["identities_ok"]
    assert report.value > 0.9


def test_upper_bound_refuses_a_rule_of_the_normalized_defining_function():
    rule = re_densify(build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=8)),
                      NormalizedDefiningFunction(SPHERE))
    with pytest.raises(NotApplicable, match="NormalizedDefiningFunction"):
        upper_bound(_identity_dec(), rule)


def test_invalid_decomposition_wrong_residual(sphere_rule):
    dec = Decomposition(N=1.0, nu=1.0, psi=None, f_maps=[parse("z1", 1)])
    with pytest.raises(InvalidDecomposition):
        upper_bound(dec, sphere_rule)


def test_invalid_decomposition_nonholomorphic(sphere_rule):
    dec = Decomposition(N=1.0, nu=1.0, psi=None,
                        f_maps=[parse("conj(z1)", 1), parse("z2", 1)])
    with pytest.raises(InvalidDecomposition):
        upper_bound(dec, sphere_rule)


def test_invalid_decomposition_bad_psi(sphere_rule):
    dec = Decomposition(N=1.0, nu=1.0, psi=parse("abs2(z1)", 1),
                        f_maps=[parse("z1", 1), parse("z2", 1)])
    with pytest.raises(InvalidDecomposition):
        validate_decomposition(SPHERE, dec, sphere_rule.points)


def test_pullback_defining_function_text():
    rho_f = pullback_defining_function([parse("z1", 1), parse("z2", 1)])
    assert str(rho_f) == "abs2(z1)+abs2(z2)-1"
    assert rho_f == parse("abs2(z1)+abs2(z2)-1", 1)


def test_reilly_identity_immersion(sphere_rule):
    report = reilly_bound([parse("z1", 1), parse("z2", 1)], sphere_rule)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    report0 = reilly_bound([parse("z1", 1), parse("z2", 1), parse("0", 1)], sphere_rule)
    assert report0.value == pytest.approx(report.value, abs=1e-12)


def test_reilly_quadratic_immersion_strict(squared_rule):
    report = reilly_bound(_quadratic_immersion(), squared_rule)
    assert report.value > 0.5 + 1e-6  # lambda1(M, 2 theta_std) = 1/2


def test_reilly_rejects_non_sphere_image(sphere_rule):
    with pytest.raises(NotOnSphereImage):
        reilly_bound([parse("z1", 1), parse("0.5*z2", 1)], sphere_rule)


def test_special_bound_sphere_gate():
    pts = points_on_surface(SPHERE, 50, seed=3)
    report = special_bound(SPHERE, 1, pts)
    assert report.diagnostics["condition_ok"]
    assert report.diagnostics["condition_max"] <= 1e-10
    assert report.value == pytest.approx(1.0, abs=1e-10)
    assert report.diagnostics["r_spread"] <= 1e-10


def test_special_bound_evaluates_rho_once(monkeypatch):
    from crspectra.expressions import Expression

    ellipsoid = parse("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1)
    pts = points_on_surface(ellipsoid, 20, seed=3)
    orders = []
    original = Expression.jet

    def counting(self, params, point, order):
        orders.append(order)
        return original(self, params, point, order)

    monkeypatch.setattr(Expression, "jet", counting)
    special_bound(ellipsoid, 1, pts)
    assert orders == [3]


def test_special_bound_negative_curvature_rejected():
    neg = parse("re(z1) + re(z3) - abs2(z1) + abs2(z2) + 4*abs2(z3)", 2)
    with pytest.raises(NegativeTransverseCurvature):
        special_bound(neg, 1, np.zeros((1, 3), dtype=complex))


def test_lower_bound_sphere_sharp_n1():
    pts = points_on_surface(SPHERE, 40, seed=6)
    report = lower_bound(SPHERE, pts, paneitz_positive=True)
    assert report.value == pytest.approx(1.0, abs=1e-9)
    assert report.diagnostics["super_pseudoconvex"]
    # the literally printed variant overshoots sphere sharpness by n(n+1)
    assert report.diagnostics["literal_printed_value"] == pytest.approx(2.0, abs=1e-9)


def test_lower_bound_sphere_sharp_n2():
    s2 = parse("abs2(z1)+abs2(z2)+abs2(z3)-1", 2)
    pts = points_on_surface(s2, 40, seed=7)
    report = lower_bound(s2, pts)  # n = 2: no Paneitz assertion needed
    assert report.value == pytest.approx(2.0, abs=1e-9)


def test_lower_bound_gate_n1():
    pts = points_on_surface(SPHERE, 5, seed=8)
    with pytest.raises(NotApplicable):
        lower_bound(SPHERE, pts)


def test_lower_bound_fefferman_normalized_equals_n_min_det():
    # J identically 1: the bound reduces to n * min det H = n * min r
    pts = points_on_surface(SPHERE, 30, seed=9)
    report = lower_bound(SPHERE, pts, paneitz_positive=True)
    from crspectra.frames import build_frame

    fr = build_frame(SPHERE, pts)
    assert report.value == pytest.approx(float(1 * np.min(fr.detH)), abs=1e-9)


def test_lower_bound_flags_vacuous_case():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2"
    e = parse(text, 1)
    report = lower_bound(e, np.zeros((1, 2), dtype=complex),
                         params={"kappa": -1.0}, paneitz_positive=True)
    assert not report.diagnostics["super_pseudoconvex"]
    assert "warning" in report.diagnostics


def _dense_dispersion(points):
    # the full (N, N, 2m) formula: the reference for the blocked one
    if points.shape[0] < 2:
        return 0.0
    x = np.concatenate([points.real, points.imag], axis=1)
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return float(np.mean(np.sqrt(np.min(d2, axis=1))))


def _random_points(count, m=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))


def _far_cluster(count, seed):
    # a cluster of width 1e-6 at distance 1e4: the Gram form |x_i|^2 + |x_j|^2
    # - 2 x_i.x_j cancels to far fewer digits than the distances have
    return 1e4 * (1 + 1j) + 1e-6 * _random_points(count, seed=seed)


def _duplicated(count, seed):
    # every point twice (the odd one out once): exact ties at distance 0
    pts = _random_points((count + 1) // 2, seed=seed)
    return np.concatenate([pts, pts])[:count]


@pytest.mark.parametrize("block_rows", [None, 64, 7])
@pytest.mark.parametrize("count", [1, 2, 65, 1000])
@pytest.mark.parametrize("points", [_random_points, _far_cluster, _duplicated],
                         ids=["random", "far_cluster", "duplicated"])
def test_dispersion_bit_equal_to_dense_formula(monkeypatch, points, count, block_rows):
    pts = points(count, seed=count)
    if block_rows is not None:
        # a budget of exactly block_rows rows of the 8-byte Gram matrix, so
        # 65 points take two blocks (ten at 7 rows)
        monkeypatch.setattr(bounds, "_DISPERSION_BLOCK_BYTES", block_rows * count * 8)
    assert _dispersion(pts) == _dense_dispersion(pts)


@pytest.mark.parametrize("points", [_random_points, _far_cluster],
                         ids=["random", "far_cluster"])
def test_dispersion_memory_is_bounded(points):
    # the dense (N, N, 2m) float64 array would take 432 MB here; in the far
    # cluster nearly every pair of a block is a candidate for re-measuring
    pts = points(3000, seed=0)
    tracemalloc.start()
    try:
        _dispersion(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
