import numpy as np
import pytest

import volume_form_oracle as oracle
from crspectra.bounds import Decomposition, pullback_defining_function, reilly_bound, upper_bound
from crspectra.errors import DegenerateFrame, JobValidationError, NoRootFound, NotRealValued
from crspectra.expressions import parse
from crspectra.frames import build_frame
from crspectra.quadrature import (
    QuadratureRule,
    QuadratureSettings,
    _hopf_directions,
    _Orbits,
    _monte_carlo_directions,
    _volume_density,
    build_quadrature,
    integrate,
    points_on_surface,
    project_rays,
    re_densify,
)
from crspectra.reporting import canonical_json

SPHERE = parse("abs2(z1)+abs2(z2)-1", 1)
SQUARED = parse("(abs2(z1)+abs2(z2))^2-1", 1)
ELLIPSOID = parse("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1)
# the surfaces of the rule_n1 and curvature_n2 benchmark workloads
PULLBACK = parse("abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1", 1)
QUARTIC = parse("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1", 2)


def _unit_dirs(count, m, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def test_sphere_projects_to_unit_scale():
    dirs = _unit_dirs(20, 2, 0)
    t = project_rays(SPHERE, None, dirs)
    assert np.max(np.abs(t - 1.0)) < 1e-12
    t2 = project_rays(SQUARED, None, dirs)
    assert np.max(np.abs(t2 - 1.0)) < 1e-12


def test_ellipsoid_projection_residual_and_range():
    dirs = _unit_dirs(50, 2, 1)
    t = project_rays(ELLIPSOID, None, dirs)
    pts = t[:, None] * dirs
    res = np.abs(ELLIPSOID.value(None, pts).real)
    assert np.max(res) <= 1e-12
    assert np.all(t >= 0.95) and np.all(t <= 1.06)


def test_radial_point_single():
    u = np.array([[1.0 + 0.0j, 0.0]])
    p = project_rays(SPHERE, None, u)[0] * u[0]
    assert np.allclose(p, [1.0, 0.0])


@pytest.mark.parametrize("radius", [1e-3, 70, 100, 1e3])
def test_spheres_of_any_radius_project_to_the_surface(radius):
    # the grid walk reaches t = 1e-3 and t = 1e3 from t = 1, and the residual
    # bound scales with |rho| on the bracket: near |z| = 100 the rounding of
    # rho alone exceeds 1e-12
    rho = parse(f"abs2(z1)+abs2(z2)-{radius * radius!r}", 1)
    pts = points_on_surface(rho, 20, seed=0)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) / radius - 1.0)) <= 1e-12


@pytest.mark.parametrize("power, radius",
                         [(1, 1e-3), (1, 1.0), (1, 70.0), (1, 1e3), (2, 1e-2), (2, 1e-3),
                          (2, 100.0)])
def test_sphere_rule_volume_at_any_radius(power, radius):
    # the sphere |z| = s, as |z|^(2k) = s^(2k), bounds a volume form of total
    # mass 4 pi^2 k^2 s^(4k): theta scales by the slope k s^(2k-2) of t^k at
    # t = s^2.  At k = 2 and small s every density is tiny (about 1e-15 at
    # s = 0.01), which only a relative vanishing-density check lets through;
    # at s = 100 the projected points carry |rho| = 3e-8 from rounding, which
    # only an on-surface check relative to |p| |drho| lets through
    rho = parse(f"(abs2(z1)+abs2(z2))^{power}-{radius ** (2 * power)!r}", 1)
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=8))
    want = 4.0 * np.pi**2 * power**2 * radius ** (4 * power)
    assert rule.volume == pytest.approx(want, rel=1e-12)


def test_vanishing_volume_density_is_relative():
    # the unit sphere about (1, 0) passes through the origin: near it, at
    # p = (delta^2 / 2, delta), the density 4 |p|^4 / drho(p) is 4 delta^2,
    # 4e-16 at delta = 1e-8, against 16 at (2, 0)
    rho = parse("abs2(z1-1)+abs2(z2)-1", 1)
    delta = 1e-8
    pts = np.array([[delta**2 / 2.0, delta], [2.0, 0.0]])
    frame = build_frame(rho, pts)
    with pytest.raises(DegenerateFrame,
                       match=r"vanishing volume density 4\.0\d*e-16 <= 1\.0e-14 x 1\.600e\+01"):
        _volume_density(frame)


def test_projection_evaluates_rho_a_fixed_number_of_times(monkeypatch):
    # 8 or 512 rays along the coordinate axes cost the same number of value
    # calls and no jet: the search has no per-ray loop
    from crspectra.expressions import Expression

    calls = []
    value, jet = Expression.value, Expression.jet
    monkeypatch.setattr(Expression, "value", lambda *a: calls.append("value") or value(*a))
    monkeypatch.setattr(Expression, "jet", lambda *a: calls.append("jet") or jet(*a))
    rho = parse("abs2(z1)+4*abs2(z2)-4900", 1)
    axes = np.array([[1.0, 0.0], [0.0, 1.0]]) * np.array([1.0, 1j, -1.0, -1j])[:, None, None]
    counts = []
    for copies in (4, 256):
        calls.clear()
        t = project_rays(rho, None, np.tile(axes.reshape(8, 2), (copies, 1)))
        np.testing.assert_allclose(t, np.tile([70.0, 35.0], 4 * copies), rtol=1e-15)
        assert "jet" not in calls
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_sign_change_through_a_pole_is_no_root():
    # along (1, 0), rho = 1/(0.25 - t^2) - 10 changes sign at the root
    # t = 0.387 and at the pole t = 0.5; the grid bracket nearest t = 1 holds
    # the pole, where |rho| only grows as the bracket shrinks
    rho = parse("1/(0.25-abs2(z1)-abs2(z2))-10", 1)
    with pytest.raises(NoRootFound, match=r"direction \[1\.\+0\.j 0\.\+0\.j\]"):
        project_rays(rho, None, np.array([[1.0 + 0.0j, 0.0]]))


def test_no_root_found():
    # the cylinder |z1| = 1 holds the origin but no ray along (0, 1) meets it
    cylinder = parse("abs2(z1)-1", 1)
    with pytest.raises(NoRootFound):
        project_rays(cylinder, None, np.array([[0.0, 1.0 + 0.0j]]))


def test_origin_outside_the_surface_is_a_validation_error():
    # the shifted sphere misses the origin: rho(0) = 8, checked before any ray
    shifted = parse("abs2(z1-3)+abs2(z2)-1", 1)
    with pytest.raises(JobValidationError, match=r"rho\(0\) = 8\.0"):
        project_rays(shifted, None, np.array([[-1.0 + 0.0j, 0.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, radius", [("2-pow(abs2(z1)+abs2(z2),-0.5)", 0.5),
                                          ("log(abs2(z1)+abs2(z2))-1", np.exp(0.5))])
def test_rho_singular_at_the_origin_still_projects(text, radius):
    # rho(0) is NaN or -inf: neither puts the origin on or outside M, so the
    # rays reach the sphere |z| = radius, and the origin warns of nothing
    dirs = np.array([[1.0 + 0.0j, 0.0], [0.6, 0.8j]])
    t = project_rays(parse(text, 1), None, dirs)
    np.testing.assert_allclose(t, radius, rtol=1e-12)


def test_radial_slope_must_be_positive():
    # M is the sphere |z| = 0.5 and the sphere of radius 0.9 about (2.1, 0);
    # the ray along (1, 0) enters the second at t = 1.2, the crossing in the
    # grid bracket [1, 1.5] next to t = 1, and rho falls along the ray
    shells = parse("(abs2(z1)+abs2(z2)-0.25)*(abs2(z1-2.1)+abs2(z2)-0.81)", 1)
    u = np.array([[1.0 + 0.0j, 0.0]])
    t = project_rays(shells, None, u)
    assert t[0] == pytest.approx(1.2, abs=1e-12)
    frame = build_frame(shells, t[:, None] * u)
    with pytest.raises(DegenerateFrame, match=r"drho\(p\) = -2\.570e\+00 <= 0 at \[1\.2"):
        _volume_density(frame)


def test_pfaffian_values():
    pfaffian = oracle.pfaffian
    a = np.array([[0.0, 3.0], [-3.0, 0.0]])
    assert pfaffian(a) == pytest.approx(3.0)
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 1.0, -1.0
    b[2, 3], b[3, 2] = 5.0, -5.0
    assert pfaffian(b) == pytest.approx(5.0)
    rng = np.random.default_rng(2)
    c = rng.standard_normal((6, 6))
    c = c - c.T
    assert pfaffian(c) ** 2 == pytest.approx(np.linalg.det(c))


def test_density_on_orthonormal_basis_is_two():
    # the contact volume of the round sphere is twice Euclidean area measure
    dirs = _unit_dirs(10, 2, 3)
    for u in dirs:
        ureal = np.empty(4)
        ureal[0::2], ureal[1::2] = u.real, u.imag
        basis = [v for v in np.eye(4)]
        # Gram-Schmidt the coordinate frame against u
        vecs = []
        for v in basis:
            w = v - np.dot(v, ureal) * ureal
            for q in vecs:
                w = w - np.dot(w, q) * q
            norm = np.linalg.norm(w)
            if norm > 1e-8:
                vecs.append(w / norm)
        tangents = np.array(vecs)[:3, 0::2] + 1j * np.array(vecs)[:3, 1::2]
        val = oracle.form_on(SPHERE, u[None], tangents[None])
        assert val[0] == pytest.approx(2.0, rel=1e-12)


def _hopf_tangents(rho, resolution):
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=resolution))
    tangents, _ = oracle.tangents_at(rho, rule.points, basis=oracle.hopf_tangents)
    return rule.points, tangents


def test_density_scaling_with_defining_function():
    scaled = parse("2*(abs2(z1)+abs2(z2)-1)", 1)
    points, tangents = _hopf_tangents(SPHERE, 8)
    d1 = oracle.form_on(SPHERE, points, tangents)
    d2 = oracle.form_on(scaled, points, tangents)
    assert np.allclose(d2, 4.0 * d1, rtol=1e-12)


def test_density_orientation_robustness():
    points, tangents = _hopf_tangents(SPHERE, 6)
    swapped = tangents[:, [1, 0, 2], :]
    d1 = oracle.form_on(SPHERE, points, tangents)
    d2 = oracle.form_on(SPHERE, points, swapped)
    assert np.allclose(d1, d2, rtol=1e-12)


def test_density_change_of_basis_ratio():
    rng = np.random.default_rng(4)
    points, tangents = _hopf_tangents(SPHERE, 6)
    mix = rng.standard_normal((3, 3))
    mixed = np.einsum("ab,pbm->pam", mix, tangents)
    d1 = oracle.form_on(SPHERE, points, tangents)
    d2 = oracle.form_on(SPHERE, points, mixed)
    assert np.allclose(d2, abs(np.linalg.det(mix)) * d1, rtol=1e-10)


@pytest.mark.parametrize("case", ["hopf-n1", "monte-carlo-n2", "re-densified"])
def test_rule_density_matches_form_on_pushed_forward_tangents(case):
    # J and the radial slope against the Pfaffian of theta ^ (d theta)^n on
    # tangents pushed forward from the Hopf or Householder sphere bases
    basis = oracle.householder_tangents
    if case == "monte-carlo-n2":
        rule = build_quadrature(QUARTIC, QuadratureSettings("monte_carlo", samples=2000, seed=3))
    else:
        rule = build_quadrature(PULLBACK, QuadratureSettings("hopf_product", resolution=16))
        basis = oracle.hopf_tangents
    if case == "re-densified":
        rule = re_densify(rule, parse(f"({PULLBACK})*(2+re(z1))", 1))
    expected = oracle.density(rule.rho, rule.points, basis=basis)
    assert np.max(np.abs(rule.density[rule.orbits.orbit] / expected - 1.0)) <= 1e-13


def test_hopf_volume_sphere():
    rule = build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=32))
    assert rule.volume == pytest.approx(4.0 * np.pi**2, abs=1e-8)
    rule2 = build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=32))
    assert rule2.volume == pytest.approx(16.0 * np.pi**2, abs=1e-7)


def test_hopf_requires_n_equal_one():
    s2 = parse("abs2(z1)+abs2(z2)+abs2(z3)-1", 2)
    with pytest.raises(JobValidationError):
        build_quadrature(s2, QuadratureSettings("hopf_product", resolution=8))


def test_monte_carlo_reproducible_and_consistent():
    settings = QuadratureSettings("monte_carlo", samples=4000, seed=7)
    r1 = build_quadrature(SPHERE, settings)
    r2 = build_quadrature(SPHERE, settings)
    assert np.array_equal(r1.weights, r2.weights)
    assert np.array_equal(r1.points, r2.points)
    # 3-sigma agreement with the exact volume (density is exactly 2 here,
    # so Monte Carlo over the round sphere has zero variance; use the
    # ellipsoid for a real statistical check)
    re = build_quadrature(ELLIPSOID, QuadratureSettings("monte_carlo", samples=4000, seed=8))
    rh = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=24))
    vals = re.weights * len(re)
    sigma = np.std(vals) / np.sqrt(len(re))
    assert abs(re.volume - rh.volume) < 3.0 * sigma


def test_monte_carlo_n2_volume():
    s2 = parse("abs2(z1)+abs2(z2)+abs2(z3)-1", 2)
    rule = build_quadrature(s2, QuadratureSettings("monte_carlo", samples=500, seed=9))
    # v(S^5, theta_std) = area(S^5) * density; the density of the round
    # sphere contact volume against Euclidean measure is 2^n n! = 4... check
    # instead against the Stokes value: integral over the ball of (d theta)^3
    # = 48 * vol(B^6) = 48 * pi^3 / 6 = 8 pi^3
    assert rule.volume == pytest.approx(8.0 * np.pi**3, rel=1e-12)


def test_integrate_symmetry_and_moments():
    rule = build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=24))
    p = rule.points
    odd = integrate(rule, p[:, 0] * np.conj(p[:, 1]))
    assert abs(odd) < 1e-10
    half = integrate(rule, np.abs(p[:, 0]) ** 2)
    assert half == pytest.approx(rule.volume / 2.0, abs=1e-8)
    ones = integrate(rule, np.ones(len(rule)))
    assert ones == pytest.approx(rule.volume)
    r_avg = integrate(rule, np.ones(len(rule))) / rule.volume
    assert r_avg == pytest.approx(1.0)


def test_hopf_spectral_convergence():
    v16 = build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=16)).volume
    v32 = build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=32)).volume
    assert abs(v32 - v16) < 1e-9


def test_tangent_vectors_annihilate_drho():
    points, tangents = _hopf_tangents(ELLIPSOID, 8)
    jet = ELLIPSOID.jet(None, points, 1)
    grad = np.stack([jet.partial((1, 0), (0, 0)), jet.partial((0, 1), (0, 0))], axis=-1)
    pairing = 2.0 * np.einsum("pj,pkj->pk", grad, tangents).real
    norms = np.linalg.norm(tangents, axis=-1)
    assert np.max(np.abs(pairing) / norms) < 1e-8


def test_re_densify_matches_direct_build():
    rule = build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=8))
    # S^3 = {u - 1 = 0} = {u^2 - 1 = 0}: re-densifying with the round
    # defining function must divide every density by 4 exactly
    back = re_densify(rule, SPHERE)
    assert np.allclose(back.density, rule.density / 4.0, rtol=1e-12)


def _count_jet_points(monkeypatch):
    """The (order, point count) of every Expression.jet call from now on."""
    from crspectra.expressions import Expression

    read = []
    original = Expression.jet

    def counting(self, params, point, order):
        read.append((order, int(np.prod(np.shape(point)[:-1]))))
        return original(self, params, point, order)

    monkeypatch.setattr(Expression, "jet", counting)
    return read


# 13,824 points (24 cubed): more than one chunk of runtime.CHUNK_POINTS
@pytest.fixture(scope="module")
def rule_of_two_chunks():
    return build_quadrature(PULLBACK, QuadratureSettings("hopf_product", resolution=24))


# (2+re(z1)) fixes only the z2 rotations, so each orbit is a z2 circle of
# 24 points; (2+re(z1+z2)) fixes no grid rotation, so every point is read
@pytest.mark.parametrize("factor, sizes", [
    ("2+re(z1)", [(2, 576)]),
    ("2+re(z1+z2)", [(2, 5_632), (2, 8_192)]),
], ids=["z2-circles", "no-symmetry"])
def test_re_densify_reads_jets_in_chunks(rule_of_two_chunks, monkeypatch, factor, sizes):
    read = _count_jet_points(monkeypatch)
    re_densify(rule_of_two_chunks, parse(f"({PULLBACK})*({factor})", 1))
    assert len(rule_of_two_chunks) == 13_824
    assert sorted(read) == sizes


def test_re_densify_with_the_rule_function_reproduces_the_rule(rule_of_two_chunks):
    rule = rule_of_two_chunks
    again = re_densify(rule, rule.rho)
    for name in ("points", "density", "weights"):
        assert np.array_equal(getattr(again, name), getattr(rule, name))
    for name in ("a", "inv"):
        assert np.array_equal(getattr(again.frame, name), getattr(rule.frame, name))


def test_points_on_surface_of_no_points_is_empty():
    assert points_on_surface(ELLIPSOID, 0).shape == (0, 2)


def test_points_on_surface_deterministic():
    a = points_on_surface(ELLIPSOID, 10, seed=5)
    b = points_on_surface(ELLIPSOID, 10, seed=5)
    assert np.array_equal(a, b)
    res = np.abs(ELLIPSOID.value(None, a).real)
    assert np.max(res) < 1e-12


@pytest.mark.parametrize("settings, field",
                         [({"type": "gauss"}, "type"), ({"resolution": 1}, "resolution"),
                          ({"resolution": 0}, "resolution"),
                          ({"type": "monte_carlo", "samples": 0}, "samples")],
                         ids=["type_unknown", "resolution_1", "resolution_0", "samples_0"])
def test_bad_quadrature_settings_refused_when_made(settings, field):
    # unchecked, these built a Monte Carlo rule, a one-point rule of volume
    # 62.01 on the unit sphere (2 pi^2 = 19.74), and raised a numpy
    # ValueError and a ZeroDivisionError
    with pytest.raises(JobValidationError, match=field):
        QuadratureSettings(**settings)


def test_rule_weights_strictly_positive():
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=8))
    assert np.all(rule.weights > 0.0)
    assert np.all(rule.base_weights > 0.0)


@pytest.mark.parametrize("settings", [QuadratureSettings("hopf_product", resolution=8),
                                      QuadratureSettings("monte_carlo", samples=50)])
def test_non_real_defining_function_refused_when_rule_is_built(settings):
    # the real part defines the sphere, so every ray projects; the read-off
    # of the derivatives then finds the imaginary part
    rho = parse("abs2(z1)+abs2(z2)-1+0.01*i*re(z1)", 1)
    with pytest.raises(NotRealValued):
        build_quadrature(rho, settings)


# --- torus orbits -------------------------------------------------------------


def _assert_frame_is_per_point(rule, tol):
    # the rule holds its frame once per orbit: a frame built at every point
    # reads the same J, det H, r and density on every point of an orbit
    direct, orbit = build_frame(rule.rho, rule.points, rule.params), rule.orbits.orbit
    assert rule.frame.r.shape == rule.density.shape == (len(rule.orbits.reps),)
    for name in ("J", "detH", "r"):
        got, want = getattr(rule.frame, name)[orbit], getattr(direct, name)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), name
    density = _volume_density(direct)
    assert np.max(np.abs(rule.density[orbit] - density)) <= tol * np.max(density)
    weights = rule.base_weights * density
    assert np.max(np.abs(rule.weights - weights)) <= tol * np.max(weights)
    orbit_weights = np.bincount(orbit, weights)
    assert np.max(np.abs(rule.orbit_weights - orbit_weights)) <= tol * np.max(orbit_weights)


# the pullback is Reinhardt: one orbit per colatitude node; the ellipsoid's
# re(z1^2) is fixed by the z2 rotations and the half turn of z1 only, so
# 16 of the 1,024 phase pairs represent the rest
@pytest.mark.parametrize("rho, reps", [(PULLBACK, 32), (ELLIPSOID, 32 * 16)],
                         ids=["pullback", "ellipsoid"])
def test_orbit_frame_matches_per_point_frame(rho, reps, monkeypatch):
    read = _count_jet_points(monkeypatch)
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=32))
    assert read == [(2, reps)] and len(rule) == 32**3
    _assert_frame_is_per_point(rule, 1e-13)


def test_orbit_representatives_are_built_directly():
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=8))
    # the smallest phase index of each orbit: j1 in {0, 1, 2, 3}, j2 = 0
    reps = (np.arange(8)[:, None] * 64 + np.arange(4) * 8).ravel()
    assert np.array_equal(rule.orbits.reps, reps)
    direct = build_frame(ELLIPSOID, rule.points[reps])
    for name in ("point", "a", "inv", "J", "detH"):
        assert np.array_equal(getattr(rule.frame, name), getattr(direct, name))


# sum |F|^2 - 1 for the unitary F = ((z1+z2)/sqrt 2, (z1-z2)/sqrt 2) is the
# sphere's function written with charges e1 - e2: of the sphere rule's
# rotations only the diagonal ones fix it.  The ellipsoid's own function is
# fixed by the half turn of z1, but a rule built from (2+re(z1)) times it is
# not.  Either way each orbit is one circle of R points.
@pytest.mark.parametrize("rule_rho, rho", [
    (SPHERE, pullback_defining_function([parse("(z1+z2)*0.7071067811865476", 1),
                                         parse("(z1-z2)*0.7071067811865476", 1)])),
    (parse("(abs2(z1)+abs2(z2)+0.1*re(z1^2)-1)*(2+re(z1))", 1), ELLIPSOID),
], ids=["reilly-map", "rule-function"])
def test_re_densify_reduces_by_the_shared_rotations_only(rule_rho, rho, monkeypatch):
    rule = build_quadrature(rule_rho, QuadratureSettings("hopf_product", resolution=16))
    read = _count_jet_points(monkeypatch)
    again = re_densify(rule, rho)
    assert read == [(2, 16**3 // 16)]
    _assert_frame_is_per_point(again, 1e-13)
    # the new rule keeps the orbits its frame was built on, for the assembly
    assert len(again.orbits.reps) == 16**3 // 16 and again.orbits.shifts.shape[1] == 16
    assert again.orbit_weights.sum() == pytest.approx(again.volume, rel=1e-14)


def _per_point_rule(rho, settings, dirs, base):
    """The rule built without orbits: every ray projected, the frame built
    at every point."""
    points = project_rays(rho, None, dirs)[:, None] * dirs
    return QuadratureRule(base, settings, rho, None, points, build_frame(rho, points),
                          _Orbits.single(*points.shape))


@pytest.mark.parametrize("case", ["hopf-no-symmetry", "monte-carlo"])
def test_rule_without_orbits_is_built_point_by_point(case):
    # a hopf grid whose function no grid rotation fixes, and a Monte Carlo
    # rule (a Reinhardt function, but no grid), give the per-point rule bit
    # for bit: the frame is held at every point
    if case == "monte-carlo":
        settings = QuadratureSettings("monte_carlo", samples=9000, seed=2)
        rho, (dirs, base) = SPHERE, _monte_carlo_directions(2, 9000, 2)
    else:
        settings = QuadratureSettings("hopf_product", resolution=24)
        rho = parse("abs2(z1)+abs2(z2)+0.1*re(z1)+0.1*re(z2)-1", 1)
        dirs, base = _hopf_directions(24)
    rule, direct = build_quadrature(rho, settings), _per_point_rule(rho, settings, dirs, base)
    for name in ("points", "density", "weights"):
        assert np.array_equal(getattr(rule, name), getattr(direct, name))
    for name in ("a", "inv", "J", "detH"):
        assert np.array_equal(getattr(rule.frame, name), getattr(direct.frame, name))


# the maps of rule_n1's decomposition and Reilly bound; a rho that no grid
# rotation fixes, with a decomposition (psi = 0.1 re(z1 + z2)) and an
# immersion into the unit sphere, |F|^2 - 1 = rho / 1.005
PULLBACK_MAPS = [parse(f, 1) for f in ("z1", "z2", "0.5*z1^2")]
SHIFTED = parse("abs2(z1)+abs2(z2)+0.25*abs2(z1^2)+0.1*re(z1)+0.1*re(z2)-1", 1)
SHIFTED_MAPS = [parse(f"({f})*0.9975093361076329", 1) for f in ("z1+0.05", "z2+0.05", "0.5*z1^2")]


@pytest.mark.parametrize("case", ["hopf-no-symmetry", "monte-carlo"])
def test_bounds_on_one_point_orbits_match_the_per_point_rule(case):
    # with one-point orbits the per-orbit sums and the identity points are
    # the per-point rule's bit for bit
    if case == "monte-carlo":
        settings, dirs_base = (QuadratureSettings("monte_carlo", samples=3000, seed=5),
                               _monte_carlo_directions(2, 3000, 5))
    else:
        settings, dirs_base = QuadratureSettings("hopf_product", resolution=24), _hopf_directions(24)
    rule, direct = build_quadrature(SHIFTED, settings), _per_point_rule(SHIFTED, settings, *dirs_base)
    assert len(rule.orbits.reps) == len(rule)
    dec = Decomposition(N=1.0, nu=1.0, psi=parse("0.1*re(z1)+0.1*re(z2)", 1),
                        f_maps=PULLBACK_MAPS)
    for bound, data in ((upper_bound, dec), (reilly_bound, SHIFTED_MAPS)):
        got, want = bound(data, rule).to_dict(), bound(data, direct).to_dict()
        assert got["diagnostics"]["identities_ok"]
        assert canonical_json(got) == canonical_json(want)


def test_upper_bound_sums_once_per_orbit_on_the_reinhardt_pullback():
    # 32 orbits of 1,024 points: the frame, r and the orbit weights have one
    # column per orbit, and the bound's sums agree with the per-point rule's
    settings = QuadratureSettings("hopf_product", resolution=32)
    rule = build_quadrature(PULLBACK, settings)
    direct = _per_point_rule(PULLBACK, settings, *_hopf_directions(32))
    assert rule.frame.inv.shape[-1] == len(rule.orbits.reps) == 32
    assert rule.orbit_weights.shape == rule.frame.r.shape == (32,)
    dec = Decomposition(N=1.0, nu=1.0, psi=None, f_maps=PULLBACK_MAPS)
    got = upper_bound(dec, rule).diagnostics
    want = upper_bound(dec, direct).diagnostics
    assert got["identities_ok"] and got["identity_points"] == 20
    # and both agree with the sums over every point of its own frame
    r, weights = direct.frame.r, direct.base_weights * _volume_density(direct.frame)
    sums = {"volume": np.sum(weights), "transverse_curvature_integral": np.sum(weights * r),
            "r_min": np.min(r), "r_max": np.max(r)}
    for name, value in sums.items():
        assert got[name] == pytest.approx(want[name], rel=1e-13, abs=0), name
        assert got[name] == pytest.approx(value, rel=1e-13, abs=0), name
