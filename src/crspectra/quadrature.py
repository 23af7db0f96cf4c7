"""Points and quadrature rules for the contact volume form.

The measure is theta ^ (d theta)^n with theta = (i/2)(dbar rho - d rho).
On M, theta ^ (d theta)^n ^ drho is 2^(n+1) n! J times the Euclidean volume
form, with J Fefferman's determinant (Fefferman, Ann. Math. 103, 1976).  On
the radial graph p = t(u) u over the unit sphere of directions u, the form
is therefore

    2^(n+1) n! J |p|^(2m) / drho(p)   per unit area of the sphere,

with the radial slope drho(p) = 2 Re sum_j rho_j p_j.  The density is read
off the CR frame at the rule points, so any star-shaped surface works, and
the result is independently checkable against Stokes (the unit-sphere volume
is 4 pi^2).

Two rule types, both weighted in the area of the unit sphere:

* ``hopf_product`` (n = 1): Gauss-Legendre in the colatitude of the Hopf
  chart z1 = cos(eta) e^{i phi1}, z2 = sin(eta) e^{i phi2}, tensored with
  uniform (trapezoidal) grids in the two angles, radially projected to M.
* ``monte_carlo`` (any n): seeded uniform directions, radially projected.

Both project their directions and read the 2-jet of rho at the points in
chunks of 8,192 through ``runtime.map_chunks``.

A rule is the discretized pseudohermitian structure: it holds the defining
function and params it was built for, and that function's CR frame at its
points, so its consumers take the rule alone.  ``build_quadrature`` builds
the frame from the value, gradient and complex Hessian it read at the
points; ``re_densify`` builds the frame of another defining function of M
from that function's own jet.
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
    """theta = (i/2)(dbar rho - d rho) on M = {rho = 0}, discretized: points
    and weights, with rho, its params and its CR frame at the points."""

    points: np.ndarray           # (P, m) complex, on M
    base_weights: np.ndarray     # (P,) weights in the area of the unit sphere
    density: np.ndarray          # (P,) theta ^ (d theta)^n per unit sphere area
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


# --- the contact volume form ------------------------------------------------


def _volume_density(frame):
    """theta ^ (d theta)^n per unit area of the sphere of directions at the
    frame's points (P, m): 2^(n+1) n! J |p|^(2m) / drho(p)."""
    p = frame.point
    slope = 2.0 * np.einsum("pj,pj->p", frame.grad, p).real
    worst = int(np.argmin(slope))
    if slope[worst] <= 0.0:
        raise DegenerateFrame(
            f"radial slope drho(p) = {slope[worst]:.3e} <= 0 at {p[worst]}: "
            "the ray crosses M inward there"
        )
    norm2 = np.einsum("pj,pj->p", p, np.conj(p)).real
    density = (2.0 ** (frame.n + 1) * math.factorial(frame.n)
               * frame.J * norm2**frame.m / slope)
    worst = int(np.argmin(density))
    if density[worst] <= 1e-14:
        raise DegenerateFrame(
            f"vanishing volume density {density[worst]:.3e} at {p[worst]}"
        )
    return density


def build_quadrature(rho, settings, params=None) -> QuadratureRule:
    """Quadrature rule for integrals against theta ^ (d theta)^n on {rho = 0}."""
    if settings.type == "hopf_product":
        if rho.n != 1:
            raise JobValidationError("hopf_product rules require n = 1")
        dirs, base = _hopf_directions(settings.resolution)
    else:
        dirs, base = _monte_carlo_directions(rho.m, settings.samples, settings.seed)

    def make(sl):
        d = dirs[sl]
        pts = project_rays(rho, params, d)[:, None] * d
        return (pts,) + read_derivatives(rho.jet(params, pts, 2))

    pts, value, grad, hess = map_chunks(make, dirs.shape[0], 8192)
    frame = frame_from_derivatives(pts, value, grad, hess)
    return QuadratureRule(
        points=pts, base_weights=base, density=_volume_density(frame),
        settings=settings, rho=rho, params=params, frame=frame,
    )


def _hopf_directions(R):
    """Unit directions of the hopf_product grid and their weights in the area
    of the unit sphere S^3, whose element is cos(eta) sin(eta) d eta d phi1
    d phi2."""
    x, wx = np.polynomial.legendre.leggauss(R)
    eta = 0.25 * np.pi * (x + 1.0)
    weta = 0.25 * np.pi * wx * np.cos(eta) * np.sin(eta)
    phi = 2.0 * np.pi * np.arange(R) / R
    wphi = 2.0 * np.pi / R

    E, P1, P2 = np.meshgrid(eta, phi, phi, indexing="ij")
    e, p1, p2 = E.ravel(), P1.ravel(), P2.ravel()
    dirs = np.stack([np.cos(e) * np.exp(1j * p1), np.sin(e) * np.exp(1j * p2)], axis=-1)
    base = np.repeat(weta, R * R) * wphi * wphi
    return dirs, base


def _monte_carlo_directions(m, samples, seed):
    """Seeded uniform unit directions in C^m and equal weights in the area
    of the unit sphere."""
    area = 2.0 * np.pi**m / math.factorial(m - 1)
    return _random_directions(m, samples, seed), np.full(samples, area / samples)


def _random_directions(m, count, seed):
    """Seeded uniform unit directions in C^m, (count, m)."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 2 * m))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def re_densify(rule: QuadratureRule, rho) -> QuadratureRule:
    """The rule of another defining function ``rho`` of M, with ``rule.params``.

    The points and sphere weights stay fixed (they describe M itself); the
    density is recomputed from the CR frame of ``rho`` at the points, which
    the returned rule holds.  ``rho`` must therefore be a strictly
    pseudoconvex defining function of M at the rule points.
    """
    frame = build_frame(rho, rule.points, params=rule.params)
    return QuadratureRule(
        points=rule.points, base_weights=rule.base_weights,
        density=_volume_density(frame),
        settings=rule.settings, rho=rho, params=rule.params, frame=frame,
    )


def integrate(rule: QuadratureRule, values):
    """Sum w_i values_i over the rule points (numpy's fixed-order pairwise
    reduction)."""
    return np.sum(rule.weights * np.asarray(values))


def points_on_surface(rho, count, seed=0, params=None):
    """Seeded random on-surface points by radial projection (count, m)."""
    dirs = _random_directions(rho.m, count, seed)
    t = project_rays(rho, params, dirs)
    return t[:, None] * dirs
