"""Pointwise pseudohermitian frame data computed from 2-jets of a defining function.

Everything here is batched: a frame built at P points stores arrays with a
leading batch axis, and all invariant checks run vectorized.  Matrix algebra
for sizes 2 and 3 uses explicit cofactor formulas, which keeps the whole
construction exact arithmetic (no pivoting, bit-reproducible).

The frame needs no local coordinates on M: every quantity lives in the
coordinates of C^m.  With psi = rho_{j kbar} + (1 - r) rho_j rho_kbar,
psi conj(xi) = drho and psi equals the Levi form on ker drho, so psi is
congruent to diag(Levi, 1).  M is therefore strictly pseudoconvex exactly
where psi is positive definite, which Sylvester's criterion tests on the
leading principal minors of psi (the size-m minor is det psi = J).  The
frame carries the ambient Levi inverse h = psi^-1 - conj(xi) xi^T.  It
annihilates drho on both sides, so operators pair (0,1) gradients in the
coordinates of C^m, |dbar_b u|^2 = h^{k lbar} u_kbar conj(u_lbar).
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


def frame_from_derivatives(point, rho, grad, hess) -> CRFrame:
    """Build the frame at ``point`` (..., m) from the value, gradient and
    Hessian of the defining function there (as from ``read_derivatives``)."""
    m = grad.shape[-1]
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

    # Sylvester's criterion on psi; its size-m minor is J, checked above
    for k in range(1, m):
        minor = small_det(psi[..., :k, :k]).real
        if np.min(minor) <= 1e-12:
            val, pt = _worst(-np.atleast_1d(minor), np.atleast_2d(points.reshape(-1, m)))
            raise NotStrictlyPseudoconvex(
                f"leading {k}x{k} minor of psi {-val:.3e} <= 1.0e-12 at {pt}: "
                f"the Levi form is not positive definite"
            )

    h = psi_inv - np.conj(xi)[..., :, None] * xi[..., None, :]
    # diag(h psi) = 1 - conj(xi_k rho_k), since psi conj(xi) = drho
    diag_err = np.max(np.abs(
        np.einsum("...kl,...lk->...k", h, psi) - (1.0 - np.conj(xi * grad))
    ))
    if diag_err > 1e-10:
        raise InternalConsistencyError(
            f"Levi inverse diagonal residual {diag_err:.3e} exceeds 1.0e-10"
        )

    return CRFrame(
        point=np.array(points), rho=rho, grad=grad, hessian=hess, J=J, detH=detH,
        r=r, xi=xi, h=h,
    )


def frame_from_jet(jet: Jet) -> CRFrame:
    """Build the frame from a jet of the defining function (order >= 2)."""
    points = np.broadcast_to(jet.point, jet.batch_shape + (jet.m,))
    return frame_from_derivatives(points, *read_derivatives(jet))


def build_frame(rho, points, params=None) -> CRFrame:
    """Frame(s) of the hypersurface {rho = 0} at one or many ambient points."""
    points = np.asarray(points, dtype=np.complex128)
    jet = rho.jet(params, points, 2)
    return frame_from_jet(jet)
