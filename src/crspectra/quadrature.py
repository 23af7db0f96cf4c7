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

Both project their directions and push the direction tangents forward in
chunks of 8,192 through ``runtime.map_chunks``.

A rule is the discretized pseudohermitian structure: it holds the defining
function and params it was built for, and that function's CR frame at its
points, so its consumers take the rule alone.  ``build_quadrature`` builds
the frame from the value, gradient and complex Hessian its push-forward
already read; ``re_densify`` builds the frame of another defining function
of M from that function's own jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrame, JobValidationError, NoRootFound
from .frames import CRFrame, build_frame, frame_from_derivatives, read_derivatives
from .runtime import map_chunks

# largest |rho| accepted at a projected ray point
_ROOT_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureSettings:
    type: str = "hopf_product"
    resolution: int = 16
    samples: int = 2000
    seed: int = 0

    def to_dict(self):
        return {
            "type": self.type,
            "resolution": int(self.resolution),
            "samples": int(self.samples),
            "seed": int(self.seed),
        }


@dataclass
class QuadratureRule:
    """theta = (i/2)(dbar rho - d rho) on M = {rho = 0}, discretized: points,
    tangent bases and weights, with rho, its params and its CR frame at the
    points."""

    points: np.ndarray           # (P, m) complex, on M
    tangents: np.ndarray         # (P, 2n+1, m) complex
    base_weights: np.ndarray     # (P,) parameter-measure weights
    density: np.ndarray          # (P,) |theta ^ (d theta)^n| on the tangent basis
    settings: QuadratureSettings
    rho: object                  # the defining function (Expression)
    params: dict | None          # its parameter values
    frame: CRFrame               # the CR frame of rho at the points
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = self.base_weights * self.density

    @property
    def n(self):
        return self.frame.n

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


def project_rays(rho, params, dirs):
    """Scaling factors t > 0 with |rho(t * dirs)| <= 1e-12 along each unit ray.

    Safeguarded Newton from t = 1 (at most 100 steps) with a bisection
    fallback on a geometric bracket scan over t in [1e-3, 1e3].
    """
    dirs = np.asarray(dirs, dtype=np.complex128)
    P = dirs.shape[0]
    t = np.ones(P)
    for _ in range(100):
        val, slope = _rho_and_slope(rho, params, t, dirs)
        active = np.abs(val) > 1e-15
        if not np.any(active):
            break
        step = np.zeros(P)
        ok = active & (np.abs(slope) > 1e-14)
        step[ok] = val[ok] / slope[ok]
        step = np.clip(step, -0.5, 0.5)
        t = np.clip(t - step, 1e-3, 1e3)
    else:
        # every step moved t, so val is one step behind
        val, _ = _rho_and_slope(rho, params, t, dirs)
    bad = np.abs(val) > _ROOT_TOL
    if np.any(bad):
        t = _bisect_failures(rho, params, t, dirs, np.where(bad)[0])
    return t


def _bisect_failures(rho, params, t, dirs, idx):
    grid = np.geomspace(1e-3, 1e3, 481)
    for i in idx:
        u = dirs[i]
        vals = rho.value(params, grid[:, None] * u).real
        sign = np.sign(vals)
        # a root on the grid itself ends the bracket before it
        flips = np.where(sign[:-1] * sign[1:] <= 0)[0]
        if len(flips) == 0:
            raise NoRootFound(
                f"no surface crossing along direction {u} for t in [1e-3, 1e3]"
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
            val, slope = _rho_and_slope(rho, params, np.array([ti]), u[None])
            if abs(slope[0]) < 1e-14:
                break
            ti -= float(val[0] / slope[0])
        val, slope = _rho_and_slope(rho, params, np.array([ti]), u[None])
        # where rho is large near M its rounding alone can exceed _ROOT_TOL;
        # a root that t locates to within 4 ulps is accepted all the same
        if abs(val[0]) > max(_ROOT_TOL, 4.0 * np.spacing(ti) * abs(slope[0])):
            raise NoRootFound(f"projection residual too large along {u}")
        t[i] = ti
    return t


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


def _push_forward(rho, params, t, dirs, du, pts):
    """Tangent vectors of the radial graph, V = t' u + t du with drho(V) = 0,
    for each parameter tangent ``du`` (P, k, m) of the unit directions, and
    the value, gradient and Hessian of rho at the points."""
    value, grad, hess = read_derivatives(rho.jet(params, pts, 2))
    slope_u = 2.0 * np.einsum("pj,pj->p", grad, dirs).real
    slope_d = 2.0 * np.einsum("pj,pkj->pk", grad, du).real
    tprime = -t[:, None] * slope_d / slope_u[:, None]
    tangents = tprime[:, :, None] * dirs[:, None, :] + t[:, None, None] * du
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
    if settings.type == "hopf_product":
        if rho.n != 1:
            raise JobValidationError("hopf_product rules require n = 1")
        dirs, du, base = _hopf_directions(settings.resolution)
    else:
        dirs, du, base = _monte_carlo_directions(rho.m, settings.samples, settings.seed)

    def make(sl):
        d = dirs[sl]
        t = project_rays(rho, params, d)
        pts = t[:, None] * d
        tangents, value, grad, hess = _push_forward(rho, params, t, d, du[sl], pts)
        _check_surface(value, tangents, grad)
        density = np.abs(_form_value(grad, hess, tangents, rho.n))
        return pts, tangents, density, value, grad, hess

    pts, tangents, density, value, grad, hess = map_chunks(make, dirs.shape[0], 8192)
    if np.min(density) <= 1e-14:
        raise DegenerateFrame(f"vanishing volume density in {settings.type} rule")
    return QuadratureRule(
        points=pts, tangents=tangents, base_weights=base, density=density,
        settings=settings, rho=rho, params=params,
        frame=frame_from_derivatives(pts, value, grad, hess),
    )


def _hopf_directions(R):
    """Unit directions of the hopf_product grid, their tangents (P, 3, 2) along
    (eta, phi1, phi2) and the parameter-measure weights."""
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
    base = np.repeat(weta, R * R) * wphi * wphi
    return dirs, np.stack([du_eta, du_p1, du_p2], axis=1), base


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


def _monte_carlo_directions(m, samples, seed):
    """Seeded uniform unit directions in C^m, orthonormal tangent bases
    (P, 2m-1, m) of the unit sphere there, and equal weights."""
    raw, dirs = _random_directions(m, samples, seed)
    tangent_real = _house_basis(raw)
    du = tangent_real[..., 0::2] + 1j * tangent_real[..., 1::2]
    area = 2.0 * np.pi**m / math.factorial(m - 1)
    return dirs, du, np.full(samples, area / samples)


def _random_directions(m, count, seed):
    """Seeded uniform unit directions: the real (count, 2m) coordinates and
    the same directions in C^m, (count, m)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw, raw[:, 0::2] + 1j * raw[:, 1::2]


def re_densify(rule: QuadratureRule, rho) -> QuadratureRule:
    """The rule of another defining function ``rho`` of M, with ``rule.params``.

    The points and tangent bases stay fixed (they describe M itself); the
    density factor is recomputed from the CR frame of ``rho`` at the points,
    which the returned rule holds.  ``rho`` must therefore be a strictly
    pseudoconvex defining function of M at the rule points.
    """
    frame = build_frame(rho, rule.points, params=rule.params)
    density = np.abs(_form_value(frame.grad, frame.hessian, rule.tangents, frame.n))
    if np.min(density) <= 1e-14:
        raise DegenerateFrame("vanishing volume density after re-densifying")
    return QuadratureRule(
        points=rule.points, tangents=rule.tangents,
        base_weights=rule.base_weights, density=density,
        settings=rule.settings, rho=rho, params=rule.params, frame=frame,
    )


def integrate(rule: QuadratureRule, values):
    """Sum w_i values_i over the rule points (numpy's fixed-order pairwise
    reduction)."""
    return np.sum(rule.weights * np.asarray(values))


def points_on_surface(rho, count, seed=0, params=None):
    """Seeded random on-surface points by radial projection (count, m)."""
    _, dirs = _random_directions(rho.m, count, seed)
    t = project_rays(rho, params, dirs)
    return t[:, None] * dirs
