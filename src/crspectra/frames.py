"""Pointwise pseudohermitian frame data computed from 2-jets of a defining function.

Everything here is batched: a frame built at P points stores arrays with a
leading batch axis, and all invariant checks run vectorized.  Matrix algebra
for sizes 2 and 3 uses explicit cofactor formulas, which keeps the whole
construction exact arithmetic (no pivoting, bit-reproducible).

The frame carries the ambient Levi inverse h = psi^-1 - conj(xi) xi^T, with
psi = rho_{j kbar} + (1 - r) rho_j rho_kbar.  It annihilates drho on both
sides, so operators pair (0,1) gradients in the coordinates of C^m,
|dbar_b u|^2 = h^{k lbar} u_kbar conj(u_lbar), and the chart enters only
through the Levi form itself (``chart_projection``), whose inverse
``levi_inv`` is the nonchart block of h.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateJ,
    InternalConsistencyError,
    JetOrderError,
    NotOnSurface,
    NotRealValued,
    NotStrictlyPseudoconvex,
)
from .jets import Jet


def hermitize(mat):
    """Average a (... , k, k) matrix with its conjugate transpose."""
    return 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))


def small_det(h):
    """Determinant of (..., k, k) for k in {1, 2, 3} by explicit formula."""
    k = h.shape[-1]
    if k == 1:
        return h[..., 0, 0]
    if k == 2:
        return h[..., 0, 0] * h[..., 1, 1] - h[..., 0, 1] * h[..., 1, 0]
    if k == 3:
        return (
            h[..., 0, 0] * (h[..., 1, 1] * h[..., 2, 2] - h[..., 1, 2] * h[..., 2, 1])
            - h[..., 0, 1] * (h[..., 1, 0] * h[..., 2, 2] - h[..., 1, 2] * h[..., 2, 0])
            + h[..., 0, 2] * (h[..., 1, 0] * h[..., 2, 1] - h[..., 1, 1] * h[..., 2, 0])
        )
    raise ValueError(f"small_det supports sizes 1..3, got {k}")


def small_adjugate(h):
    """Adjugate of (..., k, k) for k in {1, 2, 3}: h @ adj(h) = det(h) I."""
    k = h.shape[-1]
    out = np.empty_like(h)
    if k == 1:
        out[..., 0, 0] = 1.0
        return out
    if k == 2:
        out[..., 0, 0] = h[..., 1, 1]
        out[..., 1, 1] = h[..., 0, 0]
        out[..., 0, 1] = -h[..., 0, 1]
        out[..., 1, 0] = -h[..., 1, 0]
        return out
    if k == 3:
        for i in range(3):
            for j in range(3):
                r = [a for a in range(3) if a != j]
                c = [a for a in range(3) if a != i]
                minor = (
                    h[..., r[0], c[0]] * h[..., r[1], c[1]]
                    - h[..., r[0], c[1]] * h[..., r[1], c[0]]
                )
                out[..., i, j] = (-1.0) ** (i + j) * minor
        return out
    raise ValueError(f"small_adjugate supports sizes 1..3, got {k}")


def hermitian_eig_bounds(h):
    """(min, max) eigenvalue of a Hermitian (..., k, k) matrix, k in {1, 2}."""
    k = h.shape[-1]
    if k == 1:
        v = h[..., 0, 0].real
        return v, v
    if k == 2:
        a = h[..., 0, 0].real
        d = h[..., 1, 1].real
        mid = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + np.abs(h[..., 0, 1]) ** 2)
        return mid - rad, mid + rad
    raise ValueError(f"hermitian_eig_bounds supports sizes 1..2, got {k}")


@dataclass
class CRFrame:
    """All pointwise frame data on M; arrays carry a common batch shape."""

    point: np.ndarray        # (..., m) complex
    rho: np.ndarray          # (...) real residual of the defining function
    grad: np.ndarray         # (..., m) rho_j
    hessian: np.ndarray      # (..., m, m) rho_{j kbar}
    J: np.ndarray            # (...) Fefferman determinant
    detH: np.ndarray         # (...)
    r: np.ndarray            # (...) transverse curvature
    xi: np.ndarray           # (..., m) the (1,0) field with drho(xi) = 1
    h: np.ndarray            # (..., m, m) ambient Levi inverse h^{k lbar}
    chart: np.ndarray        # (...) int, index w with max |rho_w|
    nonchart: np.ndarray     # (..., n) int, remaining indices ascending
    levi: np.ndarray         # (..., n, n)
    levi_inv: np.ndarray     # (..., n, n) the nonchart block of h

    @property
    def m(self):
        return self.point.shape[-1]

    @property
    def n(self):
        return self.m - 1

    @property
    def batch_shape(self):
        return self.point.shape[:-1]

    def take(self, idx):
        """Sub-frame at batch indices idx (batch shape must be 1-d)."""
        return CRFrame(**{f.name: getattr(self, f.name)[idx] for f in fields(self)})


def _worst(values, points):
    i = int(np.argmax(values))
    return values.reshape(-1)[i], points.reshape(-1, points.shape[-1])[i]


def chart_projection(mat, grad, chart, nonchart):
    """An (..., m, m) matrix H_{j kbar} on the chart (1,0) fields.

    With Z_alpha = d_alpha - (rho_alpha / rho_w) d_w for the chart index w
    and the nonchart indices alpha, returns the (..., n, n) matrix
    H(Z_alpha, conj(Z_beta)); on the complex Hessian of rho this is the
    Levi form.
    """
    batch = grad.shape[:-1]
    m, n = grad.shape[-1], nonchart.shape[-1]
    flat = int(np.prod(batch)) if batch else 1
    rows = np.arange(flat)
    fmat = mat.reshape(flat, m, m)
    fgrad = grad.reshape(flat, m)
    w = chart.reshape(flat)
    non = nonchart.reshape(flat, n)

    g_a = np.take_along_axis(fgrad, non, axis=1)                  # rho_alpha
    g_w = fgrad[rows, w]                                           # rho_w
    H_ab = fmat[rows[:, None, None], non[:, :, None], non[:, None, :]]
    H_wb = fmat[rows[:, None], w[:, None], non]                    # H_{w betabar}
    H_aw = fmat[rows[:, None], non, w[:, None]]                    # H_{alpha wbar}
    H_ww = fmat[rows, w, w]                                        # H_{w wbar}

    out = (
        H_ab
        - g_a[:, :, None] * H_wb[:, None, :] / g_w[:, None, None]
        - np.conj(g_a)[:, None, :] * H_aw[:, :, None] / np.conj(g_w)[:, None, None]
        + H_ww[:, None, None]
        * g_a[:, :, None]
        * np.conj(g_a)[:, None, :]
        / (np.abs(g_w) ** 2)[:, None, None]
    )
    return out.reshape(batch + (n, n))


def read_derivatives(jet: Jet):
    """Value, gradient and complex Hessian of a defining function from its jet.

    Checks that the jet (order >= 2) is real, and returns ``(rho, grad,
    hess)``: the real value (...), rho_j (..., m) and the Hermitian rho_{j
    kbar} (..., m, m) at the jet's base points.
    """
    if jet.order < 2:
        raise JetOrderError("frame construction needs a jet of order >= 2")
    if not jet.is_real:
        # accept numerically real jets (e.g. sums of conjugate monomial pairs
        # that the syntactic reality rules cannot see)
        defect = jet.reality_defect()
        scale = max(1.0, float(np.max(np.abs(jet.coeffs))))
        if defect > 1e-10 * scale:
            raise NotRealValued(
                f"defining function is not real-valued (defect {defect:.3e})"
            )
        jet = jet.hermitized()
    return jet.constant_term().real, jet.gradient(), hermitize(jet.mixed_hessian())


def frame_from_derivatives(point, rho, grad, hess, chart=None) -> CRFrame:
    """Build the frame at ``point`` (..., m) from the value, gradient and
    Hessian of the defining function there (as from ``read_derivatives``)."""
    m = grad.shape[-1]
    n = m - 1
    batch = grad.shape[:-1]
    points = np.broadcast_to(point, batch + (m,))

    worst_rho = np.max(np.abs(rho)) if rho.size else 0.0
    if worst_rho > 1e-9:
        val, pt = _worst(np.abs(np.atleast_1d(rho)), np.atleast_2d(points.reshape(-1, m)))
        raise NotOnSurface(f"|rho| = {val:.3e} > 1.0e-09 at {pt}")

    adj = small_adjugate(hess)
    detH = small_det(hess).real
    gbar = np.conj(grad)
    # q = rho_kbar adj[k,j] rho_j  (real; equals J on M and det(psi) exactly)
    q = np.einsum("...k,...kj,...j->...", gbar, adj, grad).real
    J = q - rho * detH
    if np.min(J) <= 1e-12:
        val, pt = _worst(-np.atleast_1d(J), np.atleast_2d(points.reshape(-1, m)))
        raise DegenerateJ(f"J = {-val:.3e} <= 1.0e-12 at {pt}")

    r = detH / q
    # xi^k = adj[j,k] rho_jbar / q; contraction identities then hold exactly
    xi = np.einsum("...jk,...j->...k", adj, gbar) / q[..., None]

    pairing = np.abs(np.einsum("...k,...k->...", grad, xi) - 1.0)
    if np.max(pairing) > 1e-12:
        raise InternalConsistencyError(
            f"drho(xi) deviates from 1 by {np.max(pairing):.3e}"
        )
    transverse = np.abs(
        np.einsum("...j,...jk->...k", xi, hess) - r[..., None] * gbar
    )
    if np.max(transverse) > 1e-10:
        raise InternalConsistencyError(
            f"xi-contraction residual {np.max(transverse):.3e} exceeds 1.0e-10"
        )

    psi = hermitize(hess + (1.0 - r)[..., None, None] * grad[..., :, None] * gbar[..., None, :])
    det_psi = small_det(psi).real
    if np.max(np.abs(det_psi - J)) > 1e-10 * np.max(np.abs(J)):
        raise InternalConsistencyError(
            f"det(psi) differs from J by {np.max(np.abs(det_psi - J)):.3e}"
        )
    psi_inv = small_adjugate(psi) / det_psi[..., None, None]

    xi_bar_alt = np.einsum("...kj,...j->...k", psi_inv, grad)
    crosscheck = np.max(np.abs(np.conj(xi) - xi_bar_alt))
    if crosscheck > 1e-9:
        raise InternalConsistencyError(
            f"xi from adjugate and from psi-inverse disagree by {crosscheck:.3e}"
        )

    if chart is None:
        chart_idx = np.argmax(np.abs(grad), axis=-1)
    else:
        chart_idx = np.broadcast_to(np.asarray(chart, dtype=np.intp), batch).copy()
    all_idx = np.broadcast_to(np.arange(m), batch + (m,))
    mask = all_idx != chart_idx[..., None]
    nonchart = all_idx[mask].reshape(batch + (n,))

    levi = hermitize(chart_projection(hess, grad, chart_idx, nonchart))

    eig_min, _ = hermitian_eig_bounds(levi)
    if np.min(eig_min) <= 1e-12:
        bad = int(np.argmin(eig_min))
        raise NotStrictlyPseudoconvex(
            f"Levi form eigenvalue {eig_min.reshape(-1)[bad]:.3e} <= 1.0e-12 "
            f"at {points.reshape(-1, m)[bad]}"
        )

    h = psi_inv - np.conj(xi)[..., :, None] * xi[..., None, :]
    flatP = int(np.prod(batch)) if batch else 1
    rows = np.arange(flatP)
    fnon = nonchart.reshape(flatP, n)
    levi_inv = h.reshape(flatP, m, m)[rows[:, None, None], fnon[:, :, None], fnon[:, None, :]]

    ident = np.einsum("pab,pbc->pac", levi_inv, levi.reshape(flatP, n, n))
    ident_err = np.max(np.abs(ident - np.eye(n)))
    if ident_err > 1e-10:
        raise InternalConsistencyError(
            f"Levi inverse identity residual {ident_err:.3e} exceeds 1.0e-10"
        )

    return CRFrame(
        point=np.array(points), rho=rho, grad=grad, hessian=hess, J=J, detH=detH,
        r=r, xi=xi, h=h, chart=chart_idx, nonchart=nonchart, levi=levi,
        levi_inv=levi_inv.reshape(batch + (n, n)),
    )


def frame_from_jet(jet: Jet, chart=None) -> CRFrame:
    """Build the frame from a jet of the defining function (order >= 2)."""
    points = np.broadcast_to(jet.point, jet.batch_shape + (jet.m,))
    return frame_from_derivatives(points, *read_derivatives(jet), chart=chart)


def build_frame(rho, points, params=None, chart=None) -> CRFrame:
    """Frame(s) of the hypersurface {rho = 0} at one or many ambient points."""
    points = np.asarray(points, dtype=np.complex128)
    jet = rho.jet(params, points, 2)
    return frame_from_jet(jet, chart=chart)
