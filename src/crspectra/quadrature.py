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
chunks of 8,192 through ``runtime.map_chunks``.  A ray from the origin
(inside M) takes the crossing nearest t = 1 on a geometric grid over t in
[6.8e-4, 1.5e3], refined by a value-only bracketed search; |rho| at the
root is checked relative to |rho| on the bracket.

A rule is the discretized pseudohermitian structure: it holds the defining
function and params it was built for, and that function's CR frame at its
points, so its consumers take the rule alone.  ``build_quadrature`` builds
the frame from the bordered Hessian it read at the points, chunk by chunk;
``re_densify`` builds the frame of another defining function of M from
that function's own jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFrame, JobValidationError, NoRootFound
from .frames import CRFrame, bordered_jet, build_frame, frame_from_bordered
from .runtime import map_chunks


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

# the search grid t = _RATIO^k, |k| <= _STEPS, covers t in [1e-3, 1e3]
_RATIO, _STEPS = 1.5, 18


def project_rays(rho, params, dirs):
    """Scaling factors t > 0 with rho(t * dirs) = 0 along each unit ray.

    The rays start at the origin, which must lie inside M: rho(0) >= 0 is a
    validation error.  Each ray takes the sign change of rho nearest t = 1
    on the grid t = 1.5^k, |k| <= 18, widened from t = 1 on both sides (a
    tie takes the inner bracket), refined by ``_illinois``.  No sign change
    on the grid, or |rho(t u)| above 1e-9 times the larger |rho| at the
    bracket's grid points (a pole), raises ``NoRootFound``."""
    dirs = np.asarray(dirs, dtype=np.complex128)
    P, m = dirs.shape
    # rho may be singular at the origin (NaN or -inf there); only a value
    # that puts the origin on or outside M is refused
    with np.errstate(all="ignore"):
        origin = float(rho.value(params, np.zeros((1, m), dtype=np.complex128))[0].real)
    if origin >= 0.0:
        raise JobValidationError(
            f"rho(0) = {origin!r}: the rays start at the origin, which must lie "
            "inside M (rho(0) < 0)"
        )
    with np.errstate(all="ignore"):
        lo, hi, flo = np.ones(P), np.ones(P), rho.value(params, dirs).real
        fhi = flo.copy()
        left = np.flatnonzero(flo != 0.0)
        for k in range(1, _STEPS + 1):
            if not left.size:
                break
            t_in, t_out = _RATIO**-k, _RATIO**k
            f_in, f_out = rho.value(params, np.multiply.outer((t_in, t_out), dirs[left])).real
            # a sign change keeps the last point on its side as the other end
            hit_in = np.sign(f_in) * np.sign(flo[left]) <= 0
            hit_out = ~hit_in & (np.sign(f_out) * np.sign(fhi[left]) <= 0)
            lo[left], hi[left], flo[left], fhi[left] = (
                np.where(hit_out, hi[left], t_in), np.where(hit_in, lo[left], t_out),
                np.where(hit_out, fhi[left], f_in), np.where(hit_in, flo[left], f_out))
            left = left[~(hit_in | hit_out)]
        if left.size:
            raise NoRootFound(f"no surface crossing along direction {dirs[left[0]]} "
                              f"for t in [{_RATIO**-_STEPS:.2g}, {_RATIO**_STEPS:.2g}]")
        scale = np.maximum(np.abs(flo), np.abs(fhi))
        _illinois(rho, params, dirs, lo, hi, flo, fhi)
    take_hi = np.abs(fhi) < np.abs(flo)
    t, res = np.where(take_hi, hi, lo), np.abs(np.where(take_hi, fhi, flo))
    bad = np.flatnonzero(~(res <= 1e-9 * scale))
    if bad.size:
        raise NoRootFound(f"rho changes sign without a root along direction {dirs[bad[0]]}: "
                          f"|rho| = {res[bad[0]]:.3e} at t = {float(t[bad[0]])!r}")
    return t


def _illinois(rho, params, dirs, lo, hi, flo, fhi):
    """Shrink the brackets [lo, hi] of sign changes of rho(t u) in place to a
    zero of rho or adjacent floats: regula falsi kept a float inside the
    bracket, halving the weight of an end kept twice running (Illinois)."""
    wlo, whi = flo.copy(), fhi.copy()
    moved_lo = moved_hi = False  # the end the last step moved
    while True:
        lo_up, hi_down = np.nextafter(lo, hi), np.nextafter(hi, lo)
        live = (lo_up < hi) & (flo != 0.0) & (fhi != 0.0)
        if not live.any():
            return
        c = hi - whi * (hi - lo) / (whi - wlo)
        c = np.where(np.isnan(c), 0.5 * (lo + hi), np.clip(c, lo_up, hi_down))
        fc = rho.value(params, c[:, None] * dirs).real
        move_lo = live & (np.sign(fc) == np.sign(flo))
        move_hi = live & ~move_lo
        wlo = np.where(move_lo, fc, np.where(move_hi & moved_hi, 0.5 * wlo, wlo))
        whi = np.where(move_hi, fc, np.where(move_lo & moved_lo, 0.5 * whi, whi))
        for end, f_end, move in ((lo, flo, move_lo), (hi, fhi, move_hi)):
            np.copyto(end, c, where=move)
            np.copyto(f_end, fc, where=move)
        moved_lo, moved_hi = move_lo, move_hi


# --- the contact volume form ------------------------------------------------


def _volume_density(frame):
    """theta ^ (d theta)^n per unit area of the sphere of directions at the
    frame's points (P, m): 2^(n+1) n! J |p|^(2m) / drho(p).  A density at
    most 1e-14 times the largest one vanishes: ``DegenerateFrame``."""
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
    worst, top = int(np.argmin(density)), np.max(density)
    if density[worst] <= 1e-14 * top:
        raise DegenerateFrame(
            f"vanishing volume density {density[worst]:.3e} <= 1.0e-14 x {top:.3e} "
            f"at {p[worst]}"
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
        # map_chunks joins the chunks along their first axis
        return pts, np.moveaxis(bordered_jet(rho.jet(params, pts, 2))[:, :, 0], -1, 0)

    pts, a = map_chunks(make, dirs.shape[0], 8192)
    frame = frame_from_bordered(pts, np.moveaxis(a, 0, -1))
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
