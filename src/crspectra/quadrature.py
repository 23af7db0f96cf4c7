"""Points, tangent frames, and quadrature rules for the contact volume form.

The measure is theta ^ (d theta)^n with theta = (i/2)(dbar rho - d rho).
The form is evaluated directly on pushed-forward tangent bases through a
Pfaffian expansion, so any star-shaped surface and any chart work, and the
result is independently checkable against Stokes (the unit-sphere volume is
4 pi^2).

Two rule types:

* ``hopf_product`` (n = 1): Gauss-Legendre in the colatitude of the Hopf
  chart z1 = cos(eta) e^{i phi1}, z2 = sin(eta) e^{i phi2}, tensored with
  uniform (trapezoidal) grids in the two angles, radially projected to M.
* ``monte_carlo`` (any n): seeded uniform directions, radially projected.

The tangent push-forward and the density need the gradient and complex
Hessian of the defining function at every rule point.  A rule keeps them,
with the function's value there, and ``QuadratureRule.frame`` builds that
function's CR frame from them instead of evaluating its jet again; the frame
of any other defining function is built from that function's own jet.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrame, JobValidationError, NoRootFound
from .frames import CRFrame, build_frame, frame_from_derivatives, read_derivatives
from .runtime import map_chunks


@dataclass(frozen=True)
class QuadratureSettings:
    type: str = "hopf_product"
    resolution: int = 16
    samples: int = 2000
    seed: int = 0

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise JobValidationError("quadrature settings must be an object")
        known = {"type", "resolution", "samples", "seed"}
        extra = set(data) - known
        if extra:
            raise JobValidationError(f"unknown quadrature settings {sorted(extra)}")
        kind = data.get("type", cls.type)
        if kind not in ("hopf_product", "monte_carlo"):
            raise JobValidationError(f"unknown quadrature type {kind!r}")
        return cls(
            type=kind,
            resolution=_whole_number(data, "resolution", cls.resolution, 2),
            samples=_whole_number(data, "samples", cls.samples, 1),
            seed=_whole_number(data, "seed", cls.seed, 0),
        )

    def to_dict(self):
        return {
            "type": self.type,
            "resolution": int(self.resolution),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }


def _whole_number(data, name, default, minimum):
    """data[name] as an int >= minimum; an integral float counts, bools and
    anything else are validation errors."""
    value = data.get(name, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise JobValidationError(
            f"quadrature {name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def _frame_key(rho, params):
    return id(rho), tuple(sorted((params or {}).items()))


@dataclass
class QuadratureRule:
    points: np.ndarray           # (P, m) complex, on M
    parameters: np.ndarray       # (P, k) real
    tangents: np.ndarray         # (P, 2n+1, m) complex
    base_weights: np.ndarray     # (P,) parameter-measure weights
    density: np.ndarray          # (P,) |theta ^ (d theta)^n| on the tangent basis
    kind: str
    settings: QuadratureSettings
    n: int
    weights: np.ndarray = field(init=False)
    _frames: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    # (rho, value, grad, hess) of the rule's own defining function, kept
    # until its frame is built
    _derivatives: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.weights = self.base_weights * self.density

    def frame(self, rho, params=None) -> CRFrame:
        """The CR frame of ``rho`` at the rule points, built once per
        (defining function, params) and kept as long as the rule; the rule's
        own defining function's frame comes from its kept derivatives."""
        key = _frame_key(rho, params)
        if key not in self._frames:
            kept = self._derivatives.pop(key, None)
            if kept is None:
                frame = build_frame(rho, self.points, params=params)
            else:
                frame = frame_from_derivatives(self.points, *kept[1:])
            # the entry holds rho, so its id cannot be reused while cached
            self._frames[key] = (rho, frame)
        return self._frames[key][1]

    def __len__(self):
        return self.points.shape[0]

    @property
    def volume(self):
        return float(np.sum(self.weights))

    def meta(self):
        out = self.settings.to_dict()
        out["points"] = int(len(self))
        out["volume"] = self.volume
        return out


# --- radial projection ----------------------------------------------------


def _rho_and_slope(rho, params, t, dirs):
    """rho(t u) and d/dt rho(t u) for unit complex directions u."""
    pts = t[:, None] * dirs
    jet = rho.jet(params, pts, 1)
    val = jet.constant_term().real
    slope = 2.0 * np.einsum("pj,pj->p", jet.gradient(), dirs).real
    return val, slope


def project_rays(rho, params, dirs, residual_tol=1e-12, max_iter=100):
    """Scaling factors t > 0 with rho(t * dirs) = 0 along each unit ray.

    Safeguarded Newton from t = 1 with a bisection fallback on a geometric
    bracket scan over t in [1e-3, 1e3].
    """
    dirs = np.asarray(dirs, dtype=np.complex128)
    P = dirs.shape[0]
    t = np.ones(P)
    for _ in range(max_iter):
        val, slope = _rho_and_slope(rho, params, t, dirs)
        active = np.abs(val) > 1e-15
        if not np.any(active):
            break
        step = np.zeros(P)
        ok = active & (np.abs(slope) > 1e-14)
        step[ok] = val[ok] / slope[ok]
        step = np.clip(step, -0.5, 0.5)
        t = np.clip(t - step, 1e-3, 1e3)
    val, _ = _rho_and_slope(rho, params, t, dirs)
    bad = np.abs(val) > residual_tol
    if np.any(bad):
        t = _bisect_failures(rho, params, t, dirs, np.where(bad)[0], residual_tol)
    return t


def _bisect_failures(rho, params, t, dirs, idx, residual_tol):
    grid = np.geomspace(1e-3, 1e3, 481)
    for i in idx:
        u = dirs[i : i + 1]
        vals = rho.value(params, grid[:, None] * u).real
        sign = np.sign(vals)
        flips = np.where(sign[:-1] * sign[1:] < 0)[0]
        if len(flips) == 0:
            raise NoRootFound(
                f"no surface crossing along direction {u[0]} for t in [1e-3, 1e3]"
            )
        lo, hi = grid[flips[0]], grid[flips[0] + 1]
        flo = vals[flips[0]]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = float(rho.value(params, mid * u).real)
            if flo * fm <= 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < 1e-16 * hi:
                break
        ti = 0.5 * (lo + hi)
        for _ in range(4):  # Newton polish
            val, slope = _rho_and_slope(rho, params, np.array([ti]), u)
            if abs(slope[0]) < 1e-14:
                break
            ti -= float(val[0] / slope[0])
        if abs(float(rho.value(params, ti * u).real)) > residual_tol:
            raise NoRootFound(f"projection residual too large along {u[0]}")
        t[i] = ti
    return t


def radial_point(rho, direction, params=None):
    """Project one unit direction radially onto M; returns the ambient point."""
    direction = _as_complex_direction(direction)
    direction = direction / np.linalg.norm(_as_real(direction))
    t = project_rays(rho, params, direction[None, :])
    return t[0] * direction


def _as_complex_direction(v):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return v.astype(np.complex128)
    if v.shape[-1] % 2:
        raise ValueError("real direction must have even length 2(n+1)")
    return v[..., 0::2] + 1j * v[..., 1::2]


def _as_real(v):
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2] = v.real
    out[..., 1::2] = v.imag
    return out


# --- the contact volume form ------------------------------------------------


def pfaffian(a):
    """Pfaffian of an even antisymmetric matrix (recursive expansion)."""
    a = np.asarray(a)
    k = a.shape[-1]
    if k % 2:
        raise ValueError("Pfaffian needs even size")
    if k == 0:
        return np.ones(a.shape[:-2])
    if k == 2:
        return a[..., 0, 1]
    if k == 4:
        return (
            a[..., 0, 1] * a[..., 2, 3]
            - a[..., 0, 2] * a[..., 1, 3]
            + a[..., 0, 3] * a[..., 1, 2]
        )
    total = 0.0
    for j in range(1, k):
        rest = [i for i in range(1, k) if i != j]
        minor = a[..., rest, :][..., :, rest]
        total = total + (-1.0) ** (j + 1) * a[..., 0, j] * pfaffian(minor)
    return total


def _form_value(grad, hess, tangents, n):
    """theta ^ (d theta)^n evaluated on 2n+1 tangent vectors (signed)."""
    theta = np.einsum("...j,...kj->...k", grad, tangents).imag
    s = np.einsum("...ab,...ia,...jb->...ij", hess, tangents, np.conj(tangents))
    b = -2.0 * s.imag
    k = tangents.shape[-2]
    total = 0.0
    for drop in range(k):
        keep = [i for i in range(k) if i != drop]
        minor = b[..., keep, :][..., :, keep]
        total = total + (-1.0) ** drop * theta[..., drop] * pfaffian(minor)
    return math.factorial(n) * total


def volume_density(rho, sp, params=None, degenerate_tol=1e-14):
    """|theta ^ (d theta)^n| on tangent bases: ``sp`` is a pair of ambient
    points (..., m) and tangent bases (..., 2n+1, m)."""
    ambient, tangents = sp
    ambient = np.asarray(ambient, dtype=np.complex128)
    tangents = np.asarray(tangents, dtype=np.complex128)
    n = ambient.shape[-1] - 1
    _, grad, hess = read_derivatives(rho.jet(params, ambient, 2))
    value = np.abs(_form_value(grad, hess, tangents, n))
    if np.min(value) <= degenerate_tol:
        raise DegenerateFrame(
            f"volume density {np.min(value):.3e} <= {degenerate_tol:.1e}: "
            "tangent basis lost rank"
        )
    return value


def _push_forward(rho, params, t, dirs, du_list, pts):
    """Tangent vectors of the radial graph, V = t' u + t du with drho(V) = 0,
    and the value, gradient and Hessian of rho at the points."""
    value, grad, hess = read_derivatives(rho.jet(params, pts, 2))
    slope_u = 2.0 * np.einsum("pj,pj->p", grad, dirs).real
    vs = []
    for du in du_list:
        slope_d = 2.0 * np.einsum("pj,pj->p", grad, du).real
        tprime = -t * slope_d / slope_u
        vs.append(tprime[:, None] * dirs + t[:, None] * du)
    tangents = np.stack(vs, axis=1)
    return tangents, value, grad, hess


def _check_surface(value, tangents, grad):
    res = np.abs(value)
    if np.max(res) > 1e-9:
        raise NoRootFound(f"projected point off-surface by {np.max(res):.3e}")
    pairing = 2.0 * np.einsum("pj,pkj->pk", grad, tangents).real
    norms = np.linalg.norm(_as_real(tangents), axis=-1)
    if np.max(np.abs(pairing) / np.maximum(norms, 1e-30)) > 1e-8:
        raise DegenerateFrame("tangent vector fails to annihilate d rho")


def build_quadrature(rho, settings, params=None) -> QuadratureRule:
    """Quadrature rule for integrals against theta ^ (d theta)^n on {rho = 0}."""
    if isinstance(settings, dict):
        settings = QuadratureSettings.from_dict(settings)
    if settings.type == "hopf_product":
        if rho.n != 1:
            raise JobValidationError("hopf_product rules require n = 1")
        return _build_hopf(rho, params, settings)
    return _build_monte_carlo(rho, params, settings)


def _build_hopf(rho, params, settings):
    R = settings.resolution
    x, wx = np.polynomial.legendre.leggauss(R)
    eta = 0.25 * np.pi * (x + 1.0)
    weta = 0.25 * np.pi * wx
    phi = 2.0 * np.pi * np.arange(R) / R
    wphi = 2.0 * np.pi / R

    E, P1, P2 = np.meshgrid(eta, phi, phi, indexing="ij")
    e, p1, p2 = E.ravel(), P1.ravel(), P2.ravel()
    ce, se = np.cos(e), np.sin(e)
    u1, u2 = ce * np.exp(1j * p1), se * np.exp(1j * p2)
    dirs = np.stack([u1, u2], axis=-1)
    du_eta = np.stack([-se * np.exp(1j * p1), ce * np.exp(1j * p2)], axis=-1)
    du_p1 = np.stack([1j * u1, np.zeros_like(u1)], axis=-1)
    du_p2 = np.stack([np.zeros_like(u2), 1j * u2], axis=-1)

    def make(sl):
        d = dirs[sl]
        t = project_rays(rho, params, d)
        pts = t[:, None] * d
        tangents, value, grad, hess = _push_forward(
            rho, params, t, d, [du_eta[sl], du_p1[sl], du_p2[sl]], pts
        )
        _check_surface(value, tangents, grad)
        density = np.abs(_form_value(grad, hess, tangents, 1))
        return pts, tangents, density, value, grad, hess

    pts, tangents, density, value, grad, hess = map_chunks(make, dirs.shape[0], 8192)
    if np.min(density) <= 1e-14:
        raise DegenerateFrame("vanishing volume density in hopf_product rule")
    wE = np.repeat(weta, R * R)
    base = wE * wphi * wphi
    parameters = np.stack([e, p1, p2], axis=-1)
    rule = QuadratureRule(
        points=pts, parameters=parameters, tangents=tangents,
        base_weights=base, density=density, kind="hopf_product",
        settings=settings, n=1,
    )
    rule._derivatives[_frame_key(rho, params)] = (rho, value, grad, hess)
    return rule


def _house_basis(real_dirs):
    """Orthonormal bases of the tangent spaces of the unit sphere (batched)."""
    P, d = real_dirs.shape
    sign = np.where(real_dirs[:, 0] >= 0, 1.0, -1.0)
    v = real_dirs.copy()
    v[:, 0] += sign
    vn = np.einsum("pi,pi->p", v, v)
    # columns 1..d-1 of the Householder reflector I - 2 v v^T / (v.v)
    basis = np.broadcast_to(np.eye(d)[None, :, 1:], (P, d, d - 1)).copy()
    basis -= 2.0 * v[:, :, None] * (v[:, None, 1:] / vn[:, None, None])
    return np.swapaxes(basis, 1, 2)  # (P, d-1, d)


def _build_monte_carlo(rho, params, settings):
    m = rho.m
    rng = np.random.default_rng(settings.seed)
    raw = rng.standard_normal((settings.samples, 2 * m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw[:, 0::2] + 1j * raw[:, 1::2]
    tangent_real = _house_basis(raw)
    du_list = [
        tangent_real[:, i, 0::2] + 1j * tangent_real[:, i, 1::2]
        for i in range(2 * m - 1)
    ]

    t = project_rays(rho, params, dirs)
    pts = t[:, None] * dirs
    tangents, value, grad, hess = _push_forward(rho, params, t, dirs, du_list, pts)
    _check_surface(value, tangents, grad)
    density = np.abs(_form_value(grad, hess, tangents, m - 1))
    if np.min(density) <= 1e-14:
        raise DegenerateFrame("vanishing volume density in monte_carlo rule")
    area = 2.0 * np.pi**m / math.factorial(m - 1)
    base = np.full(settings.samples, area / settings.samples)
    rule = QuadratureRule(
        points=pts, parameters=raw, tangents=tangents,
        base_weights=base, density=density, kind="monte_carlo",
        settings=settings, n=m - 1,
    )
    rule._derivatives[_frame_key(rho, params)] = (rho, value, grad, hess)
    return rule


def re_densify(rule: QuadratureRule, rho, params=None) -> QuadratureRule:
    """Reweight a rule with the volume form induced by another defining function.

    The points and tangent bases stay fixed (they describe M itself); only
    the density factor is recomputed, from the CR frame of ``rho`` at the
    points, which the returned rule keeps for its own ``frame(rho, params)``.
    ``rho`` must therefore be a strictly pseudoconvex defining function of M
    at the rule points.
    """
    frame = build_frame(rho, rule.points, params=params)
    density = np.abs(_form_value(frame.grad, frame.hessian, rule.tangents, rule.n))
    if np.min(density) <= 1e-14:
        raise DegenerateFrame("vanishing volume density after re-densifying")
    out = QuadratureRule(
        points=rule.points, parameters=rule.parameters, tangents=rule.tangents,
        base_weights=rule.base_weights, density=density, kind=rule.kind,
        settings=rule.settings, n=rule.n,
    )
    out._frames[_frame_key(rho, params)] = (rho, frame)
    return out


def integrate(rule: QuadratureRule, f):
    """Sum w_i f(p_i).  ``f`` is an array of per-point values or a callable
    receiving the full (P, m) complex point array; summation is numpy's
    fixed-order pairwise reduction."""
    values = np.asarray(f(rule.points) if callable(f) else f)
    return np.sum(rule.weights * values)


def points_on_surface(rho, count, seed=0, params=None):
    """Seeded random on-surface points by radial projection (count, m)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * rho.m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    dirs = raw[:, 0::2] + 1j * raw[:, 1::2]
    t = project_rays(rho, params, dirs)
    return t[:, None] * dirs
