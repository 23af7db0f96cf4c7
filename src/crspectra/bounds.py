"""Upper and lower bounds for the first positive Kohn-Laplacian eigenvalue.

Four bound kinds:

* ``upper_decomposition`` -- (n/v) * integral of the transverse curvature plus
  n(N-1)/nu, given a squared-norm decomposition (rho + nu)^N - psi =
  sum |f_mu|^2 with psi pluriharmonic and f_mu holomorphic;
* ``upper_reilly``        -- the N=1, nu=1, psi=0 case for a CR immersion into a
  sphere, with the volume form pulled back through the immersion;
* ``upper_coordinate``    -- n * max r, valid under a pointwise sign condition on
  the chosen coordinate's second derivatives;
* ``lower_curvature``     -- min of the normalized Webster scalar divided by n+1.
  The literally printed variant n * min J^{1/(n+1)} D is recorded in the
  diagnostics for transparency; it is inconsistent with sphere sharpness
  and is not the reported value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDecomposition,
    NegativeTransverseCurvature,
    NotApplicable,
    NotOnSphereImage,
)
from .expressions import BinOp, Call, Expression, Literal
from .frames import frame_from_jet
from .operators import curvature_quantities, delta_tilde, kohn_laplacian, dbar_pairing
from .quadrature import QuadratureRule, re_densify

RESIDUAL_TOL = 1e-8
PLURIHARMONIC_TOL = 1e-8
IDENTITY_RTOL = 1e-7
CONDITION_TOL = 1e-10


@dataclass
class Decomposition:
    """Data of a squared-norm decomposition (rho + nu)^N - psi = sum |f_mu|^2."""

    N: float
    nu: float
    psi: Expression | None
    f_maps: list

    def describe(self):
        return {
            "N": self.N,
            "nu": self.nu,
            "psi": str(self.psi) if self.psi is not None else None,
            "f_maps": [str(f) for f in self.f_maps],
        }


@dataclass
class BoundReport:
    kind: str
    value: float
    n: int
    diagnostics: dict
    quadrature: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "value": float(self.value),
            "n": int(self.n),
            "diagnostics": self.diagnostics,
            "quadrature": self.quadrature,
        }


def validate_decomposition(rho, dec: Decomposition, points, params=None):
    """Check holomorphy, the residual on and near M, and pluriharmonicity.

    Raises InvalidDecomposition with the worst offending point; returns the
    diagnostics dict on success.
    """
    for i, f in enumerate(dec.f_maps):
        if not f.holomorphic:
            raise InvalidDecomposition(
                f"map {i + 1} ({f}) is not syntactically holomorphic"
            )
    if dec.N < 1.0 or dec.nu <= 0.0:
        raise InvalidDecomposition("need N >= 1 and nu > 0")
    points = np.asarray(points, dtype=np.complex128)
    stack = np.concatenate([points, 0.95 * points, 1.05 * points], axis=0)

    rho_vals = rho.value(params, stack).real
    base = rho_vals + dec.nu
    if np.min(base) <= 0.0:
        raise InvalidDecomposition("rho + nu must stay positive near M")
    lhs = np.power(base, dec.N)
    if dec.psi is not None:
        psi_vals = dec.psi.value(params, stack)
        if np.max(np.abs(psi_vals.imag)) > RESIDUAL_TOL:
            raise InvalidDecomposition("psi must be real-valued")
        lhs = lhs - psi_vals.real
    rhs = np.zeros(stack.shape[0])
    for f in dec.f_maps:
        fv = f.value(params, stack)
        rhs += np.abs(fv) ** 2
    residual = np.abs(lhs - rhs)
    worst = int(np.argmax(residual))
    if residual[worst] > RESIDUAL_TOL:
        raise InvalidDecomposition(
            f"decomposition residual {residual[worst]:.3e} > {RESIDUAL_TOL:.1e} "
            f"at {stack[worst]}"
        )

    plurih = 0.0
    if dec.psi is not None:
        plurih = float(np.max(np.abs(dec.psi.jet(params, stack, 2).mixed_hessian())))
        if plurih > PLURIHARMONIC_TOL:
            raise InvalidDecomposition(
                f"psi is not pluriharmonic: max |psi_j kbar| = {plurih:.3e}"
            )
    return {
        "residual_max": float(residual[worst]),
        "pluriharmonic_max": float(plurih),
        "validation_points": int(stack.shape[0]),
    }


def _conj_jets(maps, params, points, order=2):
    return [f.jet(params, points, order).conj() for f in maps]


def upper_bound(dec: Decomposition, rule: QuadratureRule) -> BoundReport:
    """Average transverse curvature bound of the rule's structure from a
    squared-norm decomposition of its defining function.

    Diagnostics include the two pointwise identities that the decomposition
    must satisfy on M:

        sum_mu |box_b conj(f_mu)|^2 = n^2 N nu^(N-2) (nu r + N - 1)
        sum_mu |dbar_b conj(f_mu)|^2 = n N nu^(N-1)

    checked at 20 of the rule's orbit representatives, where it holds its
    frame, drawn with the rule's seed, to relative 1e-7.  The transverse
    curvature is summed once per orbit, against each orbit's total weight.
    """
    if not isinstance(rule.rho, Expression):
        raise NotApplicable(
            f"the decomposition bound needs the rule of an expression, not of a "
            f"{type(rule.rho).__name__}: it is an identity about rho and a bound for theta"
        )
    n, frame, params = rule.n, rule.frame, rule.params
    dec_diag = validate_decomposition(rule.rho, dec, rule.points, params=params)
    v = rule.volume
    r_integral = float(np.sum(rule.orbit_weights * frame.r))
    value = n / v * r_integral + n * (dec.N - 1.0) / dec.nu

    rng = np.random.default_rng(rule.settings.seed)
    count = min(20, len(frame.r))
    sub = frame.take(np.sort(rng.choice(len(frame.r), size=count, replace=False)))
    fbars = _conj_jets(dec.f_maps, params, sub.point)
    box_sq = np.zeros(count)
    pair_sq = np.zeros(count)
    for fb in fbars:
        box_sq += np.abs(kohn_laplacian(sub, fb)) ** 2
        pair_sq += dbar_pairing(sub, fb, fb).real
    rhs_box = n**2 * dec.N * dec.nu ** (dec.N - 2) * (dec.nu * sub.r + dec.N - 1.0)
    rhs_pair = np.full(count, n * dec.N * dec.nu ** (dec.N - 1))
    box_err = float(np.max(np.abs(box_sq - rhs_box) / np.maximum(np.abs(rhs_box), 1e-30)))
    pair_err = float(np.max(np.abs(pair_sq - rhs_pair) / np.maximum(np.abs(rhs_pair), 1e-30)))

    diagnostics = {
        "decomposition": dec.describe(),
        **dec_diag,
        "volume": v,
        "transverse_curvature_integral": r_integral,
        "transverse_curvature_mean": r_integral / v,
        "r_min": float(np.min(frame.r)),
        "r_max": float(np.max(frame.r)),
        "box_identity_rel_err": box_err,
        "pairing_identity_rel_err": pair_err,
        "identities_ok": bool(box_err <= IDENTITY_RTOL and pair_err <= IDENTITY_RTOL),
        "identity_points": int(count),
    }
    return BoundReport(
        kind="upper_decomposition", value=float(value), n=n, diagnostics=diagnostics,
        quadrature=rule.meta(),
    )


def pullback_defining_function(f_maps) -> Expression:
    """sum_mu |F_mu|^2 - 1, the sphere-pullback defining function."""
    total = None
    for f in f_maps:
        term = Call("abs2", (f.root,))
        total = term if total is None else BinOp("+", total, term)
    return Expression(BinOp("-", total, Literal(complex(1.0))), f_maps[0].n)


def reilly_bound(f_maps, rule: QuadratureRule) -> BoundReport:
    """Immersion-into-a-sphere bound: n * average transverse curvature of the
    pullback, in the pullback volume form.

    ``rule`` is any quadrature rule on M; its points, sphere weights, params
    and seed are reused, with the density recomputed for the pullback
    defining function.
    """
    for i, f in enumerate(f_maps):
        if not f.holomorphic:
            raise NotOnSphereImage(f"component {i + 1} ({f}) is not holomorphic")
    rho_f = pullback_defining_function(f_maps)
    residual = np.abs(rho_f.value(rule.params, rule.points).real)
    worst = int(np.argmax(residual))
    if residual[worst] > RESIDUAL_TOL:
        raise NotOnSphereImage(
            f"sum |F|^2 - 1 = {residual[worst]:.3e} at {rule.points[worst]}: "
            "the map does not send M into the unit sphere"
        )
    dec = Decomposition(N=1.0, nu=1.0, psi=None, f_maps=list(f_maps))
    report = upper_bound(dec, re_densify(rule, rho_f))
    report.kind = "upper_reilly"
    report.diagnostics["pullback_residual_max"] = float(residual[worst])
    report.diagnostics["F_maps"] = [str(f) for f in f_maps]
    return report


def special_bound(rho, j, sample_points, params=None) -> BoundReport:
    """n * max r over samples, gated by the sign condition

        Re( n r rho_jbar (delta_tilde rho_j) + |delta_tilde rho_j|^2 ) <= 0.

    Requires r >= 0 at every sample.  Equality in the bound forces constant
    transverse curvature, so max r - min r is reported as a diagnostic.
    """
    n = rho.n
    if not 1 <= j <= rho.m:
        raise NotApplicable(f"coordinate index {j} out of range 1..{rho.m}")
    points = np.asarray(sample_points, dtype=np.complex128)
    jet3 = rho.jet(params, points, 3)
    frame = frame_from_jet(jet3)
    if np.min(frame.r) < 0.0:
        bad = int(np.argmin(frame.r))
        raise NegativeTransverseCurvature(
            f"r = {frame.r.reshape(-1)[bad]:.6g} < 0 at "
            f"{points.reshape(-1, rho.m)[bad]}"
        )
    ej = tuple(1 if t == j - 1 else 0 for t in range(rho.m))
    zero = (0,) * rho.m
    rho_j_jet = jet3.derivative(ej, zero)
    dt = delta_tilde(frame, rho_j_jet)
    rho_jbar = np.conj(frame.grad[j - 1])
    lhs = (n * frame.r * rho_jbar * dt).real + np.abs(dt) ** 2
    cond_max = float(np.max(lhs))
    condition_ok = cond_max <= CONDITION_TOL
    value = float(n * np.max(frame.r))
    diagnostics = {
        "j": int(j),
        "condition_max": cond_max,
        "condition_ok": bool(condition_ok),
        "applicable": bool(condition_ok),
        "r_min": float(np.min(frame.r)),
        "r_max": float(np.max(frame.r)),
        "r_spread": float(np.max(frame.r) - np.min(frame.r)),
        "sample_count": int(points.shape[0]),
    }
    if not condition_ok:
        diagnostics["note"] = (
            "sign condition fails: the reported value is not a proven bound"
        )
    return BoundReport(kind="upper_coordinate", value=value, n=n,
                       diagnostics=diagnostics)


_DISPERSION_BLOCK_BYTES = 1 << 23


def _dispersion(points):
    """Mean nearest-neighbour distance of the sample set.

    The squared distances come from the Gram form |x_i|^2 + |x_j|^2 -
    2 x_i.x_j, one matrix product per row block of at most
    _DISPERSION_BLOCK_BYTES.  The Gram form only picks candidates: every
    distance within its rounding bound of the row minimum is measured again
    as sum((x_i - x_j)^2), so the result is the direct formula's bit for bit,
    whatever the BLAS.  A non-finite Gram entry makes its whole row a
    candidate.  The candidates are measured in slices of whole rows holding
    at most rows * count // (2m) pairs, so each (pairs, 2m) temporary stays
    within the same budget even when every pair of a block is a candidate.
    """
    count = points.shape[0]
    if count < 2:
        return 0.0
    x = points.reshape(count, -1)
    x = np.concatenate([x.real, x.imag], axis=1)
    sq = np.einsum("ij,ij->i", x, x)
    # rounding of the Gram form and of the direct sum, with a wide margin
    slack = 64.0 * x.shape[1] * np.finfo(float).eps
    scale = sq + sq.max()
    rows = max(1, _DISPERSION_BLOCK_BYTES // (count * 8))
    pairs = max(1, rows * count // x.shape[1])
    nearest = np.full(count, np.inf)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        gram = x[lo:hi] @ x.T
        gram *= -2.0
        gram += sq[lo:hi, None]
        gram += sq
        gram[diag] = np.inf
        low = np.min(gram, axis=1)
        bound = low + slack * (scale[lo:hi] + np.abs(low))
        candidate = ~(gram > bound[:, None])
        del gram
        candidate[diag] = False
        if np.count_nonzero(candidate) <= pairs:
            cumulative = None
        else:
            # cumulative[k]: the candidates in the block's first k rows
            cumulative = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(candidate.sum(axis=1), out=cumulative[1:])
        start = 0
        while start < hi - lo:
            stop = hi - lo
            if cumulative is not None:
                stop = np.searchsorted(cumulative, cumulative[start] + pairs, side="right") - 1
                stop = min(max(int(stop), start + 1), hi - lo)
            i, j = np.nonzero(candidate[start:stop])
            i += lo + start
            np.minimum.at(nearest, i, np.sum((x[i] - x[j]) ** 2, axis=-1))
            start = stop
    return float(np.mean(np.sqrt(nearest)))


def lower_bound(rho, sample_points, params=None, paneitz_positive=False) -> BoundReport:
    """min of the normalized Webster scalar over samples, divided by n + 1.

    Applicability: n >= 2 always; n = 1 only with the user-asserted positive
    CR Paneitz operator flag (never computed here).  A nonpositive minimum of
    the curvature functional makes the bound vacuous and is flagged.
    """
    n = rho.n
    if n == 1 and not paneitz_positive:
        raise NotApplicable(
            "the lower bound needs n >= 2, or n = 1 with paneitz_positive "
            "asserted by the user"
        )
    points = np.asarray(sample_points, dtype=np.complex128)
    # raises DegenerateJ where J <= 1e-12 times the size of the terms of det A
    q = curvature_quantities(rho, points, params=params)
    big_r = q["R_Theta"]
    d_vals = q["D"]
    value = float(np.min(big_r) / (n + 1))
    literal = float(n * np.min(q["J"] ** (1.0 / (n + 1)) * d_vals))
    diagnostics = {
        "R_Theta_min": float(np.min(big_r)),
        "R_Theta_max": float(np.max(big_r)),
        "D_min": float(np.min(d_vals)),
        "D_max": float(np.max(d_vals)),
        "super_pseudoconvex": bool(np.min(d_vals) > 0.0),
        "sample_count": int(points.shape[0]),
        "sample_dispersion": _dispersion(points),
        "paneitz_positive_asserted": bool(paneitz_positive),
        # the bound as literally printed, with the n prefactor and the
        # 1/(n+1) exponent; kept for transparency, known to violate sphere
        # sharpness by a factor n(n+1)
        "literal_printed_value": literal,
    }
    if np.min(d_vals) <= 0.0:
        diagnostics["warning"] = "NotSuperPseudoconvex: min D <= 0, bound vacuous"
    return BoundReport(kind="lower_curvature", value=value, n=n, diagnostics=diagnostics)
