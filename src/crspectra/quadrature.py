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

Both project their directions in chunks of ``runtime.CHUNK_POINTS``
through ``runtime.map_chunks``.  A ray from the origin (inside M) takes the
crossing nearest t = 1 on a geometric grid over t in [6.8e-4, 1.5e3],
refined by a value-only bracketed search; |rho| at the root is checked
relative to |rho| on the bracket.

A rule is the discretized pseudohermitian structure: it holds the defining
function and params it was built for, and that function's CR frame at its
points, so its consumers take the rule alone.  Its points are the frame's,
and its density comes from the frame's J and gradient.  ``build_quadrature``
and ``re_densify`` both take the frame from ``frames.build_frame``.

Torus orbits: a rotation z_j -> e^{2 pi i s_j / R} z_j of the hopf_product
phase grid maps the grid onto itself, and it fixes rho when k.s = 0 mod R
for every torus charge k of rho (``Expression.charges``).  The points fall
into orbits of those rotations: one ray is projected per orbit, so t is
constant along it, and ``frames.build_frame`` runs at the orbit
representatives only.  Every other point takes its representative's
frame rotated (A0 -> D A0 D*, J and det H kept), which every frame check,
run at the representatives, covers.  The rule keeps its orbits: the
representatives, each point's orbit and the fixing shifts s, so that
``spectral.assemble`` sums over one point per orbit, weighted by the
orbit's total weight.  A rho that no grid rotation fixes, and every Monte
Carlo rule, has one-point orbits and is built point by point,
bit-identically to a per-point build.  ``re_densify`` uses, and keeps, the
rotations that fix both the rule's rho and the new one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DegenerateFrame, JobValidationError, NoRootFound, whole_number
from .frames import CRFrame, build_frame
from .runtime import CHUNK_POINTS, map_chunks


RULE_TYPES = ("hopf_product", "monte_carlo")

# Upper bounds of the rule sizes, far above any job this package ships
# (resolution 32, 9,000 samples), so that a value numpy cannot allocate
# (10**400) is a validation error, not a traceback.  A hopf_product rule has
# resolution^3 points.
MAX_RESOLUTION = 128
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class QuadratureSettings:
    """Rule settings, checked when made: ``type`` one of RULE_TYPES,
    ``resolution`` in [2, MAX_RESOLUTION], ``samples`` in [1, MAX_SAMPLES]
    and ``seed`` >= 0, all four whatever the type; JobValidationError
    otherwise.  Integral floats become ints."""

    type: str = "hopf_product"
    resolution: int = 16
    samples: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.type not in RULE_TYPES:
            raise JobValidationError(f"unknown quadrature type {self.type!r}")
        for name, low, high in (("resolution", 2, MAX_RESOLUTION),
                                ("samples", 1, MAX_SAMPLES), ("seed", 0, None)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, low, high))

    def to_dict(self):
        return asdict(self)


@dataclass
class QuadratureRule:
    """theta = (i/2)(dbar rho - d rho) on M = {rho = 0}, discretized: rho, its
    params, its CR frame at the points and their sphere weights.  The points,
    the density and the weights are read off the frame.  The frame is held at
    every point; on a hopf_product grid it was built at one point per torus
    orbit of rho and rotated to the rest (see the module docstring).  The
    rule keeps those ``orbits`` (``_Orbits.single`` for a frame built point
    by point) and ``orbit_weights``, each orbit's total weight, which the
    assembly puts on the orbit's representative."""

    base_weights: np.ndarray     # (P,) weights in the area of the unit sphere
    settings: QuadratureSettings
    rho: object                  # the defining function (Expression)
    params: dict | None          # its parameter values
    frame: CRFrame               # the CR frame of rho at the points
    orbits: _Orbits              # the torus orbits the frame was built on
    density: np.ndarray = field(init=False)  # (P,) theta ^ (d theta)^n per unit sphere area
    weights: np.ndarray = field(init=False)
    orbit_weights: np.ndarray = field(init=False)  # (Q,) each orbit's total weight

    points = property(lambda self: self.frame.point)  # (P, m) complex, on M
    n = property(lambda self: self.frame.n)

    def __post_init__(self):
        self.density = _volume_density(self.frame)
        self.weights = self.base_weights * self.density
        self.orbit_weights = np.bincount(self.orbits.orbit, self.weights,
                                         minlength=len(self.orbits.reps))

    def __len__(self):
        return self.points.shape[0]

    @property
    def volume(self):
        return float(np.sum(self.weights))

    def meta(self):
        return {**self.settings.to_dict(), "points": len(self), "volume": self.volume}


# --- radial projection ----------------------------------------------------

# the search grid t = _RATIO^k, |k| <= _STEPS, covers t in [6.8e-4, 1.5e3]
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
    slope = 2.0 * np.einsum("jp,pj->p", frame.grad, p).real
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
    """Quadrature rule for integrals against theta ^ (d theta)^n on {rho = 0}.

    One ray is projected per torus orbit of the points, and the frame is
    built at the orbit representatives and rotated to the rest
    (``_torus_orbits``, ``_orbit_frame``)."""
    if settings.type == "hopf_product":
        if rho.n != 1:
            raise JobValidationError("hopf_product rules require n = 1")
        dirs, base = _hopf_directions(settings.resolution)
    else:
        dirs, base = _monte_carlo_directions(rho.m, settings.samples, settings.seed)

    orbits = _torus_orbits(settings, rho.charges, dirs.shape)
    reps = dirs[orbits.reps]
    t = map_chunks(lambda sl: project_rays(rho, params, reps[sl]), len(reps), CHUNK_POINTS)
    frame = _orbit_frame(rho, t[orbits.orbit, None] * dirs, params, orbits)
    return QuadratureRule(base, settings, rho, params, frame, orbits)


# --- torus orbits -------------------------------------------------------------


class _Orbits:
    """The torus orbits of a rule's points under the grid rotations that fix
    a defining function: ``reps`` (Q,) the ascending index of one point per
    orbit, the smallest; ``orbit`` (P,) the position in ``reps`` of each
    point's representative; ``shifts`` (m, F) the rotations z_j -> e^{2 pi i
    s_j / R} z_j of the phase grid that fix it, with R = ``resolution``, F of
    them, the size of every orbit.  One-point orbits have the one shift 0.
    A plain class: a dataclass would cost a millisecond at import."""

    def __init__(self, reps, orbit, shifts, resolution):
        self.reps, self.orbit, self.shifts, self.resolution = reps, orbit, shifts, resolution

    @classmethod
    def single(cls, count, m):
        """One orbit per point of ``count`` points in C^m."""
        return cls(np.arange(count), np.arange(count), np.zeros((m, 1), dtype=np.intp), 1)


def _phase_classes(R, charges):
    """The classes of the phase grid Z_R^2 (index j1 R + j2) under the shifts
    s with k.s = 0 mod R for every charge k: each index's class, numbered by
    the class's smallest index, that index of each class, and the shifts
    (2, F).  Two indices share a class when every charge's character k.j
    mod R agrees on them; a charge that fixes every shift the earlier ones
    fix splits nothing."""
    j = np.indices((R, R)).reshape(2, -1)
    label, first = np.zeros(R * R, dtype=np.intp), np.zeros(1, dtype=np.intp)
    fixed = j                           # the shifts that fix every charge read
    for k in charges:
        k = np.array([c % R for c in k])
        moved = (k @ fixed) % R != 0
        if moved.any():
            fixed = fixed[:, ~moved]
            _, first, label = np.unique(label * R + (k @ j) % R,
                                        return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[label], np.sort(first), fixed


def _torus_orbits(settings, charges, shape):
    """The orbits of a rule's points, of ``shape`` (P, m), under the
    rotations of its phase grid that fix a function with these torus
    charges.  A ``hopf_product`` point (eta_i, phi1 = 2 pi j1 / R, phi2 =
    2 pi j2 / R) has index i R^2 + j1 R + j2, and a rotation by whole grid
    steps maps the grid onto itself; a Monte Carlo rule has no grid, so its
    orbits are single points."""
    if settings.type == "hopf_product":
        R = settings.resolution
        label, first, fixed = _phase_classes(R, charges)
        if len(first) < R * R:
            rows = np.arange(R)[:, None]
            return _Orbits((rows * (R * R) + first).ravel(), (rows * len(first) + label).ravel(),
                           fixed, R)
    return _Orbits.single(*shape)


def _orbit_frame(rho, points, params, orbits):
    """The frame of rho at ``points`` (P, m), built at the orbit
    representatives only.  rho(T z) = rho(z) for the rotation T z = (e^{i
    phi_j} z_j) gives A0(T p) = D A0(p) D* and A0^-1(T p) = D A0^-1(p) D*,
    D = diag(1, e^{-i phi_1}, ..., e^{-i phi_m}), with J and detH equal.
    Every frame check runs at the representatives, whose D is the identity.
    One-point orbits are not multiplied at all: x (1+0j) can flip the sign of
    a zero."""
    if len(orbits.reps) == len(points):
        return build_frame(rho, points, params)
    rep = build_frame(rho, points[orbits.reps], params)
    # the shift of each phase index from its representative's, the same on
    # every colatitude ring, and the (m+1, m+1, P) table d_j conj(d_k)
    R = orbits.resolution
    j = np.indices((R, R)).reshape(2, -1)
    shift = (j - j[:, orbits.reps[orbits.orbit[:R * R]]]) % R
    d = np.ones((3, R * R), dtype=np.complex128)
    d[1:] = np.exp(-2j * np.pi * np.arange(R) / R)[shift]
    phase = np.tile(d[:, None] * np.conj(d[None, :]), (1, 1, R))

    def rotate(x):
        out = np.take(x, orbits.orbit, axis=-1)
        out *= phase                        # D X D*
        return out

    return CRFrame(point=points, a=rotate(rep.a), inv=rotate(rep.inv),
                   J=rep.J[orbits.orbit], detH=rep.detH[orbits.orbit])


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
    pseudoconvex defining function of M at the rule points.  The frame is
    built on, and the returned rule keeps, the orbits of the grid rotations
    that fix both the rule's defining function and ``rho``.
    """
    orbits = _torus_orbits(rule.settings, rule.rho.charges | rho.charges, rule.points.shape)
    return replace(rule, rho=rho, frame=_orbit_frame(rho, rule.points, rule.params, orbits),
                   orbits=orbits)


def integrate(rule: QuadratureRule, values):
    """Sum w_i values_i over the rule points (numpy's fixed-order pairwise
    reduction)."""
    return np.sum(rule.weights * np.asarray(values))


def points_on_surface(rho, count, seed=0, params=None):
    """Seeded random on-surface points by radial projection (count, m), in
    chunks."""
    dirs = _random_directions(rho.m, count, seed)
    return map_chunks(lambda sl: project_rays(rho, params, dirs[sl])[:, None] * dirs[sl],
                      count, CHUNK_POINTS)
