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
* the 2-jet of log J (J = -det A, A the bordered complex Hessian of
  ``frames.bordered_jet``) is the trace series log(-det A0) + tr X -
  tr X^2 / 2, X = A0^-1 (A - A0), which is exact at order <= 2 because X^3
  has order >= 3.  ``curvature_quantities`` starts it from its frame's
  J0 = -det A0 and A0^-1, so each call runs one cofactor inverse.
"""

from __future__ import annotations

import numpy as np

from .errors import JetOrderError, NotRealValued
from .frames import CRFrame, bordered_inverse, bordered_jet, frame_from_bordered, hermitize
from .jets import Jet, jet_space


def delta_tilde(frame: CRFrame, f_jet: Jet):
    """The degenerate second-order operator -h^{k jbar} d_j dbar_k f."""
    return -np.einsum("...kj,...jk->...", frame.h, f_jet.mixed_hessian())


def normal_derivative(frame: CRFrame, f_jet: Jet):
    """N f for the transverse real field N = (xi + conj(xi)) / 2."""
    holo = np.einsum("...k,...k->...", frame.xi, f_jet.gradient())
    anti = np.einsum("...k,...k->...", np.conj(frame.xi), f_jet.dbar_gradient())
    return 0.5 * (holo + anti)


def kohn_laplacian(frame: CRFrame, f_jet: Jet):
    """box_b f at the frame's points; f_jet must have order >= 2."""
    if f_jet.order < 2:
        raise JetOrderError("kohn_laplacian needs a jet of order >= 2")
    n = frame.n
    xibar_f = np.einsum("...k,...k->...", np.conj(frame.xi), f_jet.dbar_gradient())
    return delta_tilde(frame, f_jet) + n * xibar_f


def sub_laplacian(frame: CRFrame, u_jet: Jet):
    """delta_b u = 2 (delta_tilde u + n N u) for real-valued u."""
    if not u_jet.is_real:
        raise NotRealValued("sub_laplacian requires a real-flagged jet")
    n = frame.n
    nu = np.einsum("...k,...k->...", frame.xi, u_jet.gradient()).real
    return 2.0 * (delta_tilde(frame, u_jet).real + n * nu)


def dbar_pairing(frame: CRFrame, u_jet: Jet, v_jet: Jet):
    """h^{k lbar} u_kbar conj(v_lbar): the Levi-inverse pairing of the
    tangential (0,1) parts of u and v.

    Hermitian in (u, v); nonnegative on the diagonal; vanishes when u is
    holomorphic.  Realizes the squared norm |dbar_b u|^2 for u = v.
    """
    return np.einsum("...kl,...k,...l->...", frame.h, u_jet.dbar_gradient(),
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
    a = bordered_jet(rho_jet)
    j0, inv = bordered_inverse(a[:, :, 0], rho_jet.point)
    return _log_j_series(rho_jet, a, j0, inv)


def _log_j_series(rho_jet, a, j0, inv):
    """The series of log J from a = ``bordered_jet(rho_jet)``, J0 and A0^-1
    (m+1, m+1, ...).  Steps broadcast over (m+1, m+1, T, P), P the batch."""
    m = rho_jet.m
    target = jet_space(m, rho_jet.order - 2)
    a = a.reshape(a.shape[:3] + (-1,))
    # the frame's A0^-1 is a batch-first view; einsum runs 2x faster on a copy
    inv = np.ascontiguousarray(inv.reshape(m + 1, m + 1, -1))
    out = np.empty(a.shape[2:], dtype=np.complex128)
    out[0] = np.log(j0).reshape(-1)
    out[1:] = np.einsum("ijp,jitp->tp", inv, a[:, :, 1:])
    i1, i2, terms = target.mul_table()
    pairs = (i1 > 0) & (i2 > 0)  # two first-order terms; only at target order 2
    if np.any(pairs):
        x1 = np.einsum("ijp,jktp->iktp", inv, a[:, :, 1 : 2 * m + 1])
        tr2 = np.einsum("ikap,kibp->abp", x1, x1)[i1[pairs] - 1, i2[pairs] - 1]
        starts = np.flatnonzero(np.diff(terms[pairs], prepend=-1))
        out[terms[pairs][starts]] -= 0.5 * np.add.reduceat(tr2, starts, axis=0)
    out = out.reshape((target.n_terms,) + rho_jet.batch_shape)
    return Jet(target, rho_jet.point, out).hermitized()


def fefferman_det_jet(rho_jet: Jet) -> Jet:
    """Jet of the Fefferman determinant J[rho] as exp(log J), of order
    rho_jet.order - 2; requires J > 0 (DegenerateJ otherwise)."""
    return log_fefferman_jet(rho_jet).exp()


def ricci_tensor(frame: CRFrame, logJ_jet: Jet):
    """Webster Ricci tensor as an ambient Hermitian matrix, shape (..., m, m).

    Pi^T (-(log J)_{j kbar} + (n+1) r rho_{j kbar}) conj(Pi) with the
    projection Pi = I - xi drho^T onto ker drho along xi.  It annihilates xi
    on both sides; on (1,0) fields Z, W tangent to M (drho(Z) = 0) its value
    Ric(Z, conj(W)) is the Webster Ricci tensor of theta, and its h-trace
    h^{k jbar} Ric_{j kbar} is R_theta.
    """
    ric = -logJ_jet.mixed_hessian() + (frame.n + 1) * frame.r[..., None, None] * frame.hessian
    proj = np.eye(frame.m) - frame.xi[..., :, None] * frame.grad[..., None, :]
    return hermitize(np.einsum("...ja,...jk,...kb->...ab", proj, ric, np.conj(proj)))


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
    jet = rho.jet(params, points, 4)
    a = bordered_jet(jet)
    frame = frame_from_bordered(points, a[:, :, 0])
    logj = _log_j_series(jet, a, frame.J, np.moveaxis(frame.inv, (-2, -1), (0, 1)))
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

    def jet(self, params, points, order) -> Jet:
        if order > 2:
            raise JetOrderError(
                "normalized defining function jets are limited to order 2"
            )
        rho_jet = self.rho.jet(params, points, order + 2)
        factor = (log_fefferman_jet(rho_jet) * (-1.0 / (self.n + 2))).exp()
        return factor * rho_jet.truncate(order)
