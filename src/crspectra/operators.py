"""Differential operators and curvature scalars built on CR frames.

Conventions, pinned by the unit-sphere normalization:

* the Kohn Laplacian satisfies  box_b conj(z_k) = n conj(z_k)  on the unit
  sphere, so it is nonnegative;
* the sub-Laplacian is  delta_b u = 2 (delta_tilde u + n N u)  on real u;
* nothing here uses local coordinates on M: the operators read the
  frame's ambient Levi inverse h (see ``frames``),
  delta_tilde f = -h^{k jbar} f_{j kbar} and
  |dbar_b u|^2 = h^{k lbar} u_kbar conj(u_lbar) in the coordinates of C^m,
  and the Webster Ricci tensor is an ambient m x m tensor that annihilates
  xi (``ricci_tensor``);
* the volume-normalized Webster scalar is  R_Theta = J^(1/(n+2)) D, where D
  is the curvature functional below.  The 1/(n+2) power is forced by
  invariance under change of defining function (J rescales with weight
  n+2, D with weight -1).
* the 2-jet of log J (J = -det A, A the bordered complex Hessian whose
  constant term A0 ``frames.bordered_jet`` reads) is the trace series
  log(-det A0) + tr X - tr X^2 / 2, X = A0^-1 (A - A0), which is exact at
  order <= 2 because X^3 has order >= 3.  The terms of A are read straight
  off the jet of rho, and only the canonical half of the terms of log J
  is summed; the rest are their conjugates.  ``curvature_quantities``
  starts it from its frame's J0 = -det A0 and A0^-1, so each call runs one
  cofactor inverse.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import JetOrderError, NotRealValued
from .frames import CRFrame, bordered_inverse, bordered_jet, frame_from_bordered, hermitize
from .jets import Jet, jet_space


def delta_tilde(frame: CRFrame, f_jet: Jet):
    """The degenerate second-order operator -h^{k jbar} d_j dbar_k f."""
    return -np.einsum("kj...,jk...->...", frame.h, f_jet.mixed_hessian())


def normal_derivative(frame: CRFrame, f_jet: Jet):
    """N f for the transverse real field N = (xi + conj(xi)) / 2."""
    holo = np.einsum("k...,k...->...", frame.xi, f_jet.gradient())
    anti = np.einsum("k...,k...->...", np.conj(frame.xi), f_jet.dbar_gradient())
    return 0.5 * (holo + anti)


def kohn_laplacian(frame: CRFrame, f_jet: Jet):
    """box_b f at the frame's points; f_jet must have order >= 2."""
    if f_jet.order < 2:
        raise JetOrderError("kohn_laplacian needs a jet of order >= 2")
    n = frame.n
    xibar_f = np.einsum("k...,k...->...", np.conj(frame.xi), f_jet.dbar_gradient())
    return delta_tilde(frame, f_jet) + n * xibar_f


def sub_laplacian(frame: CRFrame, u_jet: Jet):
    """delta_b u = 2 (delta_tilde u + n N u) for real-valued u."""
    if not u_jet.is_real:
        raise NotRealValued("sub_laplacian requires a real-flagged jet")
    n = frame.n
    nu = np.einsum("k...,k...->...", frame.xi, u_jet.gradient()).real
    return 2.0 * (delta_tilde(frame, u_jet).real + n * nu)


def dbar_pairing(frame: CRFrame, u_jet: Jet, v_jet: Jet):
    """h^{k lbar} u_kbar conj(v_lbar): the Levi-inverse pairing of the
    tangential (0,1) parts of u and v.

    Hermitian in (u, v); nonnegative on the diagonal; vanishes when u is
    holomorphic.  Realizes the squared norm |dbar_b u|^2 for u = v.
    """
    return np.einsum("kl...,k...,l...->...", frame.h, u_jet.dbar_gradient(),
                     np.conj(v_jet.dbar_gradient()))


def log_fefferman_jet(rho_jet: Jet) -> Jet:
    """Jet of log J[rho], J = -det A, of order rho_jet.order - 2 (<= 2).

    With A = A0 + N, N without constant term, and X = A0^-1 N, Jacobi's
    formula gives log J = log(-det A0) + tr X - tr X^2 / 2 + tr X^3 / 3 - ...
    Every entry of X has order >= 1, so the series is exact at order <= 2
    when cut after tr X^2, and tr X^2 needs only the first-order terms of X.
    Raises DegenerateJ where J <= 1e-12 times the size of the terms of
    det A0 (see ``frames.bordered_inverse``).
    """
    a0, rho_jet = bordered_jet(rho_jet)
    j0, inv = bordered_inverse(a0, rho_jet.point)
    return _log_j_series(rho_jet, j0, inv)


@lru_cache(maxsize=None)
def _log_j_plan(m, order):
    """Index plan of ``_log_j_series`` for a jet of rho of this order.

    log J is real, so only its canonical terms are summed: holomorphic order
    above antiholomorphic, or equal orders and index <= conj_perm; the rest
    are their conjugates.  The plan's terms are the canonical ones, led at
    target order 2 by the antiholomorphic first-order terms, so that its
    first 2m terms are the first-order ones, whose X_p = A0^-1 A_p feed
    tr X^2.  Term t of the jet of A_jk is row src[j, k, t] of rho's jet
    times mult[j, k, t] (``JetSpace.deriv_table``).  Each canonical order-2
    term takes tr(X_p X_q) of one unordered pair of first-order terms: half
    of it from the series when p = q, all of it when p != q (the ordered
    pairs (p, q) and (q, p) both count).
    """
    space, target = jet_space(m, order), jet_space(m, order - 2)
    conj = target.conj_perm
    lead = [sum(a) - sum(b) for a, b in target.exps]
    canon = np.array([t for t in range(1, target.n_terms)
                      if lead[t] > 0 or (lead[t] == 0 and t <= conj[t])], dtype=np.intp)
    first = np.arange(1, 2 * m + 1) if target.order == 2 else np.arange(0)
    terms = np.concatenate([np.setdiff1d(first, canon), canon])
    units = [(0,) * m] + [tuple(int(s == j) for s in range(m)) for j in range(m)]
    tables = [[space.deriv_table(a, b) for b in units] for a in units]
    i1, i2, out = target.mul_table()
    pairs = (i1 > 0) & (i1 <= i2) & np.isin(out, canon)
    n_anti = len(terms) - len(canon)
    pos = np.zeros(target.n_terms, dtype=np.intp)
    pos[terms] = np.arange(len(terms))
    return SimpleNamespace(
        target=target, canon=canon, self_conj=canon[conj[canon] == canon],
        src=np.array([[s[terms] for _, s, _ in row] for row in tables], dtype=np.intp),
        mult=np.array([[mu[terms, None] for _, _, mu in row] for row in tables]),
        n_anti=n_anti, n_first=len(first), p=pos[i1[pairs]], q=pos[i2[pairs]],
        at=pos[out[pairs]] - n_anti, weight=np.where(i1[pairs] == i2[pairs], 0.5, 1.0)[:, None],
    )


def _log_j_series(rho_jet, j0, inv):
    """The series of log J from a real jet of rho, J0 and A0^-1 (m+1, m+1,
    ...).  Every step runs on rows of shape (terms, P), P the flattened
    batch, so each temporary holds a few rows."""
    m = rho_jet.m
    plan = _log_j_plan(m, rho_jet.order)
    rows = rho_jet.coeffs.reshape(rho_jet.space.n_terms, -1)
    inv = inv.reshape(m + 1, m + 1, -1)
    size = rows.shape[1]
    # tr A0^-1 A_t = sum inv[k, j] A_t[j, k]; x[k, i] = X_p[i, k]
    tr = np.zeros((len(plan.canon), size), dtype=np.complex128)
    x = np.zeros((m + 1, m + 1, plan.n_first, size), dtype=np.complex128)
    for j in range(m + 1):
        for k in range(m + 1):
            a = rows[plan.src[j, k]] * plan.mult[j, k]
            tr += inv[k, j] * a[plan.n_anti:]
            x[k] += inv[:, j, None] * a[: plan.n_first]
    if len(plan.p):
        tr2 = np.zeros((len(plan.p), size), dtype=np.complex128)
        for i in range(m + 1):
            for k in range(m + 1):
                tr2 += x[k, i, plan.p] * x[i, k, plan.q]
        tr[plan.at] -= plan.weight * tr2
    target = plan.target
    out = np.empty((target.n_terms, size), dtype=np.complex128)
    out[0] = np.log(j0).reshape(-1)
    out[plan.canon] = tr
    out[plan.self_conj] = out[plan.self_conj].real
    out[target.conj_perm[plan.canon]] = np.conj(out[plan.canon])
    out = out.reshape((target.n_terms,) + rho_jet.batch_shape)
    return Jet(target, rho_jet.point, out, True)


def fefferman_det_jet(rho_jet: Jet) -> Jet:
    """Jet of the Fefferman determinant J[rho] as exp(log J), of order
    rho_jet.order - 2; requires J > 0 (DegenerateJ otherwise)."""
    return log_fefferman_jet(rho_jet).exp()


def ricci_tensor(frame: CRFrame, logJ_jet: Jet):
    """Webster Ricci tensor as an ambient Hermitian matrix, shape (m, m, ...).

    Pi^T (-(log J)_{j kbar} + (n+1) r rho_{j kbar}) conj(Pi) with the
    projection Pi = I - xi drho^T onto ker drho along xi.  It annihilates xi
    on both sides; on (1,0) fields Z, W tangent to M (drho(Z) = 0) its value
    Ric(Z, conj(W)) is the Webster Ricci tensor of theta, and its h-trace
    h^{k jbar} Ric_{j kbar} is R_theta.
    """
    ric = -logJ_jet.mixed_hessian() + (frame.n + 1) * frame.r * frame.hessian
    m = frame.m
    proj = np.eye(m).reshape((m, m) + (1,) * frame.r.ndim) - frame.xi[:, None] * frame.grad[None, :]
    return hermitize(np.einsum("ja...,jk...,kb...->ab...", proj, ric, np.conj(proj)))


def webster_curvatures(frame: CRFrame, logJ_jet: Jet):
    """(R_theta, D): the Webster scalar of theta = (i/2)(dbar rho - d rho), and
    the curvature functional D whose J-weighted value is the normalized
    Webster scalar.  Both start from n(n+1) r - n N log J."""
    n = frame.n
    ng = normal_derivative(frame, logJ_jet).real
    db = sub_laplacian(frame, logJ_jet)
    grad_norm = dbar_pairing(frame, logJ_jet, logJ_jet).real
    shared = n * (n + 1) * frame.r - n * ng
    return shared + 0.5 * db, shared - 0.5 * db - (n / (n + 1)) * grad_norm


def curvature_quantities(rho, points, params=None):
    """All curvature scalars at on-surface points, from one 4-jet evaluation.

    Returns a dict with keys r, J, detH, R_theta, D, R_Theta plus the frame.
    """
    points = np.asarray(points, dtype=np.complex128)
    a0, jet = bordered_jet(rho.jet(params, points, 4))
    frame = frame_from_bordered(points, a0)
    logj = _log_j_series(jet, frame.J, frame.inv)
    rtheta, dval = webster_curvatures(frame, logj)
    n = frame.n
    big_r = frame.J ** (1.0 / (n + 2)) * dval
    return {
        "r": frame.r,
        "J": frame.J,
        "detH": frame.detH,
        "R_theta": rtheta,
        "D": dval,
        "R_Theta": big_r,
        "frame": frame,
    }


class NormalizedDefiningFunction:
    """Evaluator for rho_hat = J[rho]^(-1/(n+2)) rho, with J[rho_hat] = 1 on M.

    It takes the signature of ``Expression.jet``, so it stands in for an
    expression wherever a defining function is read through its jets
    (``build_frame``, ``re_densify``).  Jets are available up to order 2
    (each order of rho_hat consumes two extra orders of rho through the
    determinant).
    """

    def __init__(self, rho):
        self.rho = rho
        self.n = rho.n

    @property
    def m(self):
        return self.n + 1

    @property
    def charges(self):
        """rho's torus charges: a rotation that fixes rho fixes J[rho] too."""
        return self.rho.charges

    def jet(self, params, points, order) -> Jet:
        if order > 2:
            raise JetOrderError(
                "normalized defining function jets are limited to order 2"
            )
        rho_jet = self.rho.jet(params, points, order + 2)
        factor = (log_fefferman_jet(rho_jet) * (-1.0 / (self.n + 2))).exp()
        return factor * rho_jet.truncate(order)
