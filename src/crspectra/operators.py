"""Differential operators and curvature scalars built on CR frames.

Conventions, pinned by the unit-sphere normalization:

* the Kohn Laplacian satisfies  box_b conj(z_k) = n conj(z_k)  on the unit
  sphere, so it is nonnegative;
* the sub-Laplacian is  delta_b u = 2 (delta_tilde u + n N u)  on real u;
* the volume-normalized Webster scalar is  R_Theta = J^(1/(n+2)) D, where D
  is the curvature functional below.  The 1/(n+2) power is forced by
  invariance under change of defining function (J rescales with weight
  n+2, D with weight -1).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateJ, JetOrderError, NotRealValued
from .frames import CRFrame, chart_projection, frame_from_jet, hermitize
from .jets import Jet


def delta_tilde_coefficients(frame: CRFrame):
    """T[j,k] with delta_tilde f = sum T[j,k] d_j dbar_k f."""
    return frame.xi[..., :, None] * np.conj(frame.xi)[..., None, :] - np.swapaxes(
        frame.psi_inv, -1, -2
    )


def delta_tilde(frame: CRFrame, f_jet: Jet):
    """The degenerate second-order operator (xi^j xi^kbar - psi^kbar j) d_j dbar_k."""
    T = delta_tilde_coefficients(frame)
    return np.einsum("...jk,...jk->...", T, f_jet.mixed_hessian())


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


def z_bar_projection(db, grad, chart, nonchart):
    """Z_betabar f = f_betabar - (rho_betabar / rho_wbar) f_wbar in the chart.

    ``db`` holds the antiholomorphic derivatives f_kbar at P points, shape
    (P, m, ...); ``grad``, ``chart`` and ``nonchart`` are the frame's rho_j
    (P, m), chart index w (P,) and nonchart indices beta (P, n).  Returns
    shape (P, n, ...).
    """
    extra = (None,) * (db.ndim - 2)
    rows = np.arange(db.shape[0])
    gbar = np.conj(grad)
    ratio = np.take_along_axis(gbar, nonchart, axis=1) / gbar[rows, chart][:, None]
    out = np.take_along_axis(db, nonchart[(...,) + extra], axis=1)
    out -= ratio[(...,) + extra] * db[rows, chart][:, None]
    return out


def _z_bar_components(frame: CRFrame, f_jet: Jet):
    """Tangential antiholomorphic derivatives Z_betabar f in the chart, (..., n)."""
    batch = frame.batch_shape
    m, n = frame.m, frame.n
    flat = int(np.prod(batch)) if batch else 1
    out = z_bar_projection(
        f_jet.dbar_gradient().reshape(flat, m), frame.grad.reshape(flat, m),
        frame.chart.reshape(flat), frame.nonchart.reshape(flat, n),
    )
    return out.reshape(batch + (n,))


def dbar_pairing(frame: CRFrame, u_jet: Jet, v_jet: Jet):
    """Levi-inverse pairing of the tangential (0,1) parts of u and v.

    Hermitian in (u, v); nonnegative on the diagonal; vanishes when u is
    holomorphic.  Realizes the squared norm |dbar_b u|^2 for u = v.
    """
    zu = _z_bar_components(frame, u_jet)
    zv = _z_bar_components(frame, v_jet)
    return np.einsum("...gs,...g,...s->...", frame.levi_inv, zu, np.conj(zv))


def _jet_matrix_det(rows):
    """Determinant of a small square matrix of jets (Laplace expansion)."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(k):
        minor = [[rows[r][c] for c in range(k) if c != j] for r in range(1, k)]
        term = rows[0][j] * _jet_matrix_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def fefferman_det_jet(rho_jet: Jet) -> Jet:
    """Jet of the Fefferman determinant J[rho], of order rho_jet.order - 2.

    Entries of the bordered complex Hessian are taken as jets of the
    corresponding derivatives of rho, each truncated to the output order.
    """
    if rho_jet.order < 2:
        raise JetOrderError("fefferman_det_jet needs a jet of order >= 2")
    m = rho_jet.m
    order = rho_jet.order - 2
    zero = (0,) * m
    eye = [tuple(int(t == s) for t in range(m)) for s in range(m)]
    top = [rho_jet.truncate(order)] + [
        rho_jet.derivative(zero, eye[k]).truncate(order) for k in range(m)
    ]
    rows = [top]
    for j in range(m):
        row = [rho_jet.derivative(eye[j], zero).truncate(order)] + [
            rho_jet.derivative(eye[j], eye[k]).truncate(order) for k in range(m)
        ]
        rows.append(row)
    det = _jet_matrix_det(rows)
    return (-det).hermitized()


def log_fefferman_jet(rho_jet: Jet) -> Jet:
    jj = fefferman_det_jet(rho_jet)
    if np.min(jj.constant_term().real) <= 1e-12:
        raise DegenerateJ(f"J = {np.min(jj.constant_term().real):.3e} <= 1.0e-12")
    return jj.log()


def ricci_tensor(frame: CRFrame, logJ_jet: Jet):
    """Webster Ricci components in the chart coframe, shape (..., n, n)."""
    d_ab = chart_projection(
        logJ_jet.mixed_hessian(), frame.grad, frame.chart, frame.nonchart
    )
    ricci = -d_ab + (frame.n + 1) * frame.r[..., None, None] * frame.levi
    return hermitize(ricci)


def webster_scalar(frame: CRFrame, logJ_jet: Jet):
    """Webster scalar curvature of theta = (i/2)(dbar rho - d rho)."""
    n = frame.n
    ng = normal_derivative(frame, logJ_jet).real
    db = sub_laplacian(frame, logJ_jet)
    return n * (n + 1) * frame.r - n * ng + 0.5 * db


def curvature_functional(frame: CRFrame, logJ_jet: Jet):
    """The density D whose J-weighted value is the normalized Webster scalar."""
    n = frame.n
    ng = normal_derivative(frame, logJ_jet).real
    db = sub_laplacian(frame, logJ_jet)
    grad_norm = dbar_pairing(frame, logJ_jet, logJ_jet).real
    return n * (n + 1) * frame.r - n * ng - 0.5 * db - (n / (n + 1)) * grad_norm


def curvature_quantities(rho, points, params=None, chart=None):
    """All curvature scalars at on-surface points, from one 4-jet evaluation.

    Returns a dict with keys r, J, detH, R_theta, D, R_Theta plus the frame.
    """
    points = np.asarray(points, dtype=np.complex128)
    jet = rho.jet(params, points, 4)
    frame = frame_from_jet(jet, chart=chart)
    logj = log_fefferman_jet(jet)
    rtheta = webster_scalar(frame, logj)
    dval = curvature_functional(frame, logj)
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
        "logJ_jet": logj,
    }


class NormalizedDefiningFunction:
    """Evaluator for rho_hat = J[rho]^(-1/(n+2)) rho, with J[rho_hat] = 1 on M.

    Jets are available up to order 2 (each order of rho_hat consumes two
    extra orders of rho through the determinant).
    """

    def __init__(self, rho, params=None):
        self.rho = rho
        self.params = params
        self.n = rho.n

    def jet(self, points, order=2) -> Jet:
        if order > 2:
            raise JetOrderError(
                "normalized defining function jets are limited to order 2"
            )
        points = np.asarray(points, dtype=np.complex128)
        rho_jet = self.rho.jet(self.params, points, order + 2)
        jj = fefferman_det_jet(rho_jet)
        if np.min(jj.constant_term().real) <= 1e-12:
            raise DegenerateJ("J <= 0 along the requested points")
        factor = jj.pow_real(-1.0 / (self.n + 2))
        return factor * rho_jet.truncate(order)

    def fefferman_values(self, points):
        """J[rho_hat] at the given points (1 on M up to roundoff)."""
        return fefferman_det_jet(self.jet(points, 2)).constant_term().real


def first_normalization(rho, params=None) -> NormalizedDefiningFunction:
    return NormalizedDefiningFunction(rho, params)
