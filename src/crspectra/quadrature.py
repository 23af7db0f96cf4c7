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
function and params it was built for and that function's CR frame
(``frames.build_frame``) at its points, so its consumers take the rule
alone.  It is the quotient of its grid by torus rotations.  A rotation z_j
-> e^{2 pi i s_j / R} z_j of the hopf_product phase grid (R =
``resolution``) maps the grid onto itself, and it fixes a function when
k.s = 0 mod R for every torus charge k of the function
(``Expression.charges``).  The rule holds those rotations of rho, its
``shifts`` s (m, F), and one point per orbit of them, F points each, with
the frame there, the sphere weight of each of an orbit's points, the
density and each orbit's total weight: J, r and the density are constant
along an orbit.

``_refine`` is the one step of orbit work: it splits each point of a rule
into one point per coset of the shifts that also fix a function of given
charges.  ``build_quadrature`` refines the colatitude rings at phase 0,
with all R^2 shifts, by rho's charges; ``re_densify`` by the new
function's; ``integrate`` and the checks of ``bounds`` evaluate a function
on the rule refined by its charges, where the dropped rotations leave its
values unchanged.  A Monte Carlo rule has the one shift 0, so its orbits
are its points.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from types import SimpleNamespace

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
    """theta = (i/2)(dbar rho - d rho) on M = {rho = 0}, discretized as a
    quotient: rho, its params, one point per orbit of the grid rotations
    ``shifts`` that fix rho, the sphere weight of each of an orbit's points,
    and the CR frame at the points (see the module docstring).  The density
    and ``weights``, each orbit's total weight F base density, are read off
    the frame.  ``len`` counts every point of every orbit."""

    settings: QuadratureSettings
    rho: object                  # the defining function (Expression)
    params: dict | None          # its parameter values
    points: np.ndarray           # (Q, m) complex, on M, one per orbit
    base_weights: np.ndarray     # (Q,) weights in the area of the unit sphere
    shifts: np.ndarray           # (m, F) the grid rotations that fix rho
    frame: CRFrame               # the CR frame of rho at the points, (Q,) batch
    density: np.ndarray = field(init=False)  # (Q,) theta ^ (d theta)^n per unit sphere area
    weights: np.ndarray = field(init=False)  # (Q,) each orbit's total weight

    n = property(lambda self: self.frame.n)

    def __post_init__(self):
        self.density = _volume_density(self.frame)
        self.weights = self.shifts.shape[1] * self.base_weights * self.density

    def __len__(self):
        return self.points.shape[0] * self.shifts.shape[1]

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

    A hopf_product rule starts from the colatitude rings at phase 0 with
    every rotation of the R x R phase grid, a Monte Carlo rule from its
    directions with the one shift 0; ``_refine`` by rho's charges leaves
    one direction per orbit, whose ray is projected and where the frame is
    built."""
    if settings.type == "hopf_product":
        if rho.n != 1:
            raise JobValidationError("hopf_product rules require n = 1")
        R = settings.resolution
        dirs, base = _hopf_rings(R)
        shifts = np.indices((R, R)).reshape(2, -1)
    else:
        dirs, base = _monte_carlo_directions(rho.m, settings.samples, settings.seed)
        shifts = np.zeros((rho.m, 1), dtype=np.intp)
    start = SimpleNamespace(points=dirs, shifts=shifts, settings=settings)
    source, dirs, shifts = _refine(start, rho.charges)
    t = map_chunks(lambda sl: project_rays(rho, params, dirs[sl]), len(dirs), CHUNK_POINTS)
    points = t[:, None] * dirs
    return QuadratureRule(settings, rho, params, points, base[source], shifts,
                          build_frame(rho, points, params))


def _refine(rule, charges):
    """The quotient of ``rule`` by the rotations among its shifts that also
    fix a function with these torus charges.

    A shift s (a column of ``rule.shifts``) fixes it when every label k.s
    mod R, k a charge and R ``rule.settings.resolution``, vanishes.  Two
    shifts differ by a fixing one when their labels agree, so each of the
    rule's points splits into one point per label: the point rotated by the
    first shift with that label, the representatives kept ascending.
    Returns the index in ``rule.points`` of each new point's source, the new
    points and the fixing shifts; a rule that every shift keeps comes back
    as it is."""
    R, shifts = rule.settings.resolution, rule.shifts
    # charges equal mod R label alike: one row each
    k = np.unique(np.array(list(charges), dtype=np.intp).reshape(-1, len(shifts)) % R, axis=0)
    labels = k @ shifts % R
    fixing = ~labels.any(axis=0)
    if fixing.all():
        return np.arange(len(rule.points)), rule.points, shifts
    _, first = np.unique(labels, axis=1, return_index=True)
    first = np.sort(first)
    # the phases as the grid's: 2 pi j / R, j the shift
    phase = np.exp(1j * (2.0 * np.pi * shifts[:, first].T / R))
    points = (rule.points[:, None] * phase).reshape(-1, len(shifts))
    return np.repeat(np.arange(len(rule.points)), len(first)), points, shifts[:, fixing]


def _hopf_rings(R):
    """The hopf_product grid's directions at phase 0, one per colatitude
    node, and the weight in the area of the unit sphere S^3 of each of a
    ring's R^2 points; its element is cos(eta) sin(eta) d eta d phi1 d phi2."""
    x, wx = np.polynomial.legendre.leggauss(R)
    eta = 0.25 * np.pi * (x + 1.0)
    weta = 0.25 * np.pi * wx * np.cos(eta) * np.sin(eta)
    wphi = 2.0 * np.pi / R
    dirs = np.stack([np.cos(eta), np.sin(eta)], axis=-1).astype(np.complex128)
    return dirs, weta * wphi * wphi


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
    density is recomputed from the CR frame of ``rho``, which the returned
    rule holds.  ``rho`` must therefore be a strictly pseudoconvex defining
    function of M at the rule points.  The rule is refined by the charges of
    ``rho`` first, so the returned rule's shifts fix both functions.
    """
    source, points, shifts = _refine(rule, rho.charges)
    return replace(rule, rho=rho, points=points, base_weights=rule.base_weights[source],
                   shifts=shifts, frame=build_frame(rho, points, rule.params))


def integrate(rule: QuadratureRule, f):
    """The integral of the expression ``f`` against the rule's volume form:
    f summed over the rule refined by its charges, each point weighted by
    its orbit's total weight (numpy's fixed-order pairwise reduction)."""
    source, points, shifts = _refine(rule, f.charges)
    weights = shifts.shape[1] * rule.base_weights[source] * rule.density[source]
    return np.sum(weights * f.value(rule.params, points))


def points_on_surface(rho, count, seed=0, params=None):
    """Seeded random on-surface points by radial projection (count, m), in
    chunks."""
    dirs = _random_directions(rho.m, count, seed)
    return map_chunks(lambda sl: project_rays(rho, params, dirs[sl])[:, None] * dirs[sl],
                      count, CHUNK_POINTS)
