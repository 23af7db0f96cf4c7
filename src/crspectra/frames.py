"""Fefferman's bordered complex Hessian and the pseudohermitian frame on M.

``bordered_jet`` reads, from a real jet of rho, the value A0 at its base
point of

    A = [[rho, rho_kbar], [rho_j, rho_{j kbar}]],   J = -det A,

    A^-1 = [[-r, xi^T], [conj(xi), h]].

The frame keeps A0 and A0^-1, and reads its fields
off their blocks: on M the transverse curvature r = det(rho_{j kbar}) / J,
the (1,0) field xi with drho(xi) = 1, and the ambient Levi inverse h =
h^{k lbar}, which annihilates drho on both sides, so operators pair (0,1)
gradients in the coordinates of C^m, |dbar_b u|^2 = h^{k lbar} u_kbar
conj(u_lbar).  ``bordered_inverse`` computes J and A^-1 = adj(A) / det(A)
by cofactors: exact formulas with no pivoting, bit-reproducible.  Jets,
frames and their read-offs keep the batch axes last: A0 and A0^-1 are
(m+1, m+1, ...), so every entry is one contiguous vector, the frame's
vectors are (m, ...) and its matrices (m, m, ...); points are (..., m).

The frame needs no local coordinates on M.  With psi = rho_{j kbar} +
(1 - r) rho_j rho_kbar, psi conj(xi) = drho and psi equals the Levi form on
ker drho, so psi is congruent to diag(Levi, 1), and M is strictly
pseudoconvex exactly where psi is positive definite.

Four checks remain, each relative to the size of the terms it sums, so a
constant factor on rho changes no verdict (the first has a floor):

* on the surface: |rho(p)| <= 1e-9 max(1, |p| |drho(p)|), with |drho| = 2
  |rho_j| the norm of the real differential: a relative error delta in p
  moves rho by about |p| |drho| delta;
* ``DegenerateJ`` where J <= 1e-12 sum_k |A_0k adj(A)_k0|;
* ``InternalConsistencyError`` where an entry of A A^-1 - I exceeds
  64 (m+1) eps (|A| |A^-1|) (every identity the frame satisfies, such as
  drho(xi) = 1 and h drho = 0, is an entry of A A^-1 = I);
* ``NotStrictlyPseudoconvex`` where a leading principal minor of psi of
  size k = 1..m is <= 1e-12 times its Hadamard bound, the product of the
  norms of its k rows (Sylvester's criterion).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .runtime import CHUNK_POINTS, chunk_slices


def hermitize(mat):
    """Average a (k, k, ...) matrix with its conjugate transpose."""
    return 0.5 * (mat + np.conj(np.swapaxes(mat, 0, 1)))


_EPS = np.finfo(np.float64).eps


def _det(a, rows, cols):
    """Determinant of the submatrix a[rows][:, cols] of a batch-last (k, k,
    ...) array, by cofactor expansion along its first row."""
    if len(rows) == 1:
        return a[rows[0], cols[0]]
    total = a[rows[0], cols[0]] * _det(a, rows[1:], cols[1:])
    for j in range(1, len(cols)):
        term = a[rows[0], cols[j]] * _det(a, rows[1:], cols[:j] + cols[j + 1:])
        total = total - term if j % 2 else total + term
    return total


def _adjugate(a):
    """Adjugate of a batch-last (k, k, ...) array: a adj(a) = det(a) I."""
    idx = tuple(range(a.shape[0]))
    adj = np.empty_like(a)
    for i in idx:
        for j in idx:
            minor = _det(a, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:])
            adj[i, j] = -minor if (i + j) % 2 else minor
    return adj


def bordered_inverse(a, points):
    """J = -det A and B = A^-1 = adj(A) / det(A) of the bordered Hessians
    a (m+1, m+1, ...), batch axes last, at points that broadcast to (..., m).

    Raises DegenerateJ where J <= 1e-12 sum_k |A_0k adj_k0| (the terms of
    det A along row 0) and InternalConsistencyError where an entry of
    A B - I exceeds 64 (m+1) eps (|A| |B|).
    """
    k = a.shape[0]
    points = np.broadcast_to(points, a.shape[2:] + (k - 1,)).reshape(-1, k - 1)
    inv = _adjugate(a)
    terms = a[0] * inv[:, 0]
    J = -np.sum(terms, axis=0).real
    size = np.sum(np.abs(terms), axis=0)
    i = int(np.argmax(1e-12 * size - J))
    if J.flat[i] <= 1e-12 * size.flat[i]:
        raise DegenerateJ(
            f"J = {J.flat[i]:.3e} <= 1.0e-12 x {size.flat[i]:.3e} at {points[i]}"
        )
    inv *= -1.0 / J
    # one column of A A^-1 - I at a time keeps the temporaries at (k, ...)
    abs_a = np.abs(a)
    for col in range(k):
        resid = np.einsum("ij...,j...->i...", a, inv[:, col])
        resid[col] -= 1.0
        resid = np.abs(resid).reshape(k, -1)
        bound = 64 * k * _EPS * np.einsum("ij...,j...->i...", abs_a, np.abs(inv[:, col]))
        bound = bound.reshape(k, -1)
        row, i = np.unravel_index(int(np.argmax(resid - bound)), resid.shape)
        if resid[row, i] > bound[row, i]:
            raise InternalConsistencyError(
                f"(A A^-1 - I)[{row}, {col}] = {resid[row, i]:.3e} exceeds its "
                f"rounding bound {bound[row, i]:.3e} at {points[i]}"
            )
    return J, inv


def bordered_jet(jet: Jet):
    """A0, the bordered Hessian at the base point, from a real jet of rho
    (order >= 2): shape (m+1, m+1, ...), batch axes last; and the real jet it
    was read from.  A jet that is real only numerically (a sum of conjugate
    monomial pairs, say, that the syntactic reality rules cannot see) is
    hermitized, so the series of log J reads the same jet; NotRealValued
    where its reality defect exceeds 1e-10 times its largest coefficient (at
    least 1).
    """
    if jet.order < 2:
        raise JetOrderError("the bordered Hessian needs a jet of order >= 2")
    if not jet.is_real:
        defect = jet.reality_defect()
        scale = max(1.0, float(np.max(np.abs(jet.coeffs))))
        if defect > 1e-10 * scale:
            raise NotRealValued(
                f"defining function is not real-valued (defect {defect:.3e})"
            )
        jet = jet.hermitized()
    # first and mixed second derivatives are their Taylor coefficients
    space, m = jet.space, jet.m
    index = np.zeros((m + 1, m + 1), dtype=np.intp)
    index[0, 1:], index[1:, 0], index[1:, 1:] = (
        space.dbar_index, space.holo_index, space.mixed_index)
    return jet.coeffs[index], jet


@dataclass
class CRFrame:
    """All pointwise frame data on M over a common batch shape (...)."""

    point: np.ndarray        # (..., m) complex
    a: np.ndarray            # (m+1, m+1, ...) A0
    inv: np.ndarray          # (m+1, m+1, ...) A0^-1
    J: np.ndarray            # (...) Fefferman determinant
    detH: np.ndarray         # (...)

    # the blocks of A0 and A0^-1, views
    rho = property(lambda self: self.a[0, 0].real)       # (...) residual of rho
    grad = property(lambda self: self.a[1:, 0])          # (m, ...) rho_j
    hessian = property(lambda self: self.a[1:, 1:])      # (m, m, ...) rho_{j kbar}
    r = property(lambda self: -self.inv[0, 0].real)      # (...) transverse curvature
    xi = property(lambda self: self.inv[0, 1:])          # (m, ...) drho(xi) = 1
    h = property(lambda self: self.inv[1:, 1:])          # (m, m, ...) h^{k lbar}

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
        """The frame restricted to batch indices idx (batch shape must be 1-d)."""
        return CRFrame(point=self.point[idx], a=np.take(self.a, idx, axis=-1),
                       inv=np.take(self.inv, idx, axis=-1), J=self.J[idx], detH=self.detH[idx])


def frame_from_bordered(point, a) -> CRFrame:
    """Build the frame at ``point`` (..., m) from A0 there, batch axes last
    (m+1, m+1, ...)."""
    m = a.shape[0] - 1
    batch = a.shape[2:]
    points = np.broadcast_to(point, batch + (m,))
    flat = points.reshape(-1, m)

    rho = np.abs(a[0, 0].real)
    slope = 2.0 * np.sqrt(np.sum(np.abs(a[1:, 0]) ** 2, axis=0))
    scale = np.maximum(1.0, np.linalg.norm(points, axis=-1) * slope)
    i = int(np.argmax(rho / scale))
    if rho.flat[i] > 1e-9 * scale.flat[i]:
        raise NotOnSurface(
            f"|rho| = {rho.flat[i]:.3e} > 1.0e-09 x {scale.flat[i]:.3e} at {flat[i]}"
        )

    J, inv = bordered_inverse(a, points)
    inner = tuple(range(1, m + 1))
    detH = _det(a, inner, inner).real
    r = -inv[0, 0].real

    # Sylvester's criterion on psi, each leading minor against its Hadamard
    # bound, the product of the norms of its rows
    psi = a[1:, 1:] + (1.0 - r) * (a[1:, 0][:, None] * a[0, 1:][None, :])
    for k in range(1, m + 1):
        lead = tuple(range(k))
        minor = _det(psi, lead, lead).real
        size = np.prod(np.sqrt(np.sum(np.abs(psi[:k, :k]) ** 2, axis=1)), axis=0)
        i = int(np.argmax(1e-12 * size - minor))
        if minor.flat[i] <= 1e-12 * size.flat[i]:
            raise NotStrictlyPseudoconvex(
                f"leading {k}x{k} minor of psi {minor.flat[i]:.3e} <= 1.0e-12 x "
                f"{size.flat[i]:.3e} at {flat[i]}: "
                f"the Levi form is not positive definite"
            )

    return CRFrame(point=points, a=a, inv=inv, J=J, detH=detH)


def frame_from_jet(jet: Jet) -> CRFrame:
    """Build the frame from a jet of the defining function (order >= 2)."""
    return frame_from_bordered(jet.point, bordered_jet(jet)[0])


def build_frame(rho, points, params=None) -> CRFrame:
    """The frame of {rho = 0} at ``points`` (..., m): A0 is read off the
    order-2 jet of rho in chunks of ``runtime.CHUNK_POINTS`` and inverted
    once over all the points."""
    points = np.asarray(points, dtype=np.complex128)
    m = points.shape[-1]
    flat = points.reshape(-1, m)
    a = np.empty((m + 1, m + 1, len(flat)), dtype=np.complex128)
    for sl in chunk_slices(len(flat), CHUNK_POINTS):
        a[..., sl] = bordered_jet(rho.jet(params, flat[sl], 2))[0]
    return frame_from_bordered(points, a.reshape(a.shape[:2] + points.shape[:-1]))
