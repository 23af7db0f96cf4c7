"""The coordinate-chart route to the Levi form: a test oracle for the
chart-free frame.

In the chart w (by default the index of the largest |rho_j|), the (1,0)
fields Z_alpha = e_alpha - (rho_alpha / rho_w) e_w, alpha != w, span the
(1,0) tangent space of M.  The Levi form is Z rho_{j kbar} Z^H, and the
Webster Ricci tensor in that coframe is -Z (log J)_{j kbar} Z^H + (n+1) r
Levi.  Nothing here reads the frame's ambient Levi inverse h.
"""

import numpy as np


def hermitize(mat):
    """Average a batch-first (P, k, k) matrix with its conjugate transpose."""
    return 0.5 * (mat + np.conj(np.swapaxes(mat, -1, -2)))


class ChartOracle:
    """Chart fields, Levi form and its inverse from the gradient rho_j
    (m, ...) and complex Hessian rho_{j kbar} (m, m, ...) of a defining
    function, in the library's batch-last layout.  The oracle flattens the
    batch to one axis P and keeps it first."""

    def __init__(self, grad, hessian, w=None):
        m = grad.shape[0]
        n = m - 1
        grad = grad.reshape(m, -1).T
        rows = np.arange(grad.shape[0])
        if w is None:
            self.chart = np.argmax(np.abs(grad), axis=1)
        else:
            self.chart = np.full(grad.shape[0], w)
        others = np.broadcast_to(np.arange(m), grad.shape)
        self.nonchart = others[others != self.chart[:, None]].reshape(-1, n)
        # row alpha of fields is Z_alpha in the coordinates of C^m
        fields = np.zeros((grad.shape[0], n, m), dtype=complex)
        fields[rows[:, None], np.arange(n), self.nonchart] = 1.0
        fields[rows, :, self.chart] = (
            -np.take_along_axis(grad, self.nonchart, axis=1) / grad[rows, self.chart][:, None]
        )
        self.fields = fields
        self.n, self.m = n, m
        self.levi = hermitize(self.project(hessian))
        self.levi_inv = np.linalg.inv(self.levi)

    def project(self, mat):
        """An (m, m, ...) matrix H_{j kbar} on the chart fields:
        H(Z_alpha, conj(Z_beta)), shape (P, n, n)."""
        mat = mat.reshape(self.m, self.m, -1)
        return np.einsum("paj,jkp,pbk->pab", self.fields, mat, np.conj(self.fields))

    def ambient_levi_inverse(self):
        """conj(Z)^T L^-1 Z: the inverse Levi form lifted to C^m through the
        chart fields, the chart route to h^{k lbar}; shape (P, m, m)."""
        return np.einsum("pgk,pgs,psl->pkl", np.conj(self.fields), self.levi_inv, self.fields)

    def ricci(self, logJ_jet, r):
        """The Webster Ricci tensor in the chart coframe, shape (P, n, n),
        from the jet of log J and the transverse curvature r."""
        d_ab = self.project(logJ_jet.mixed_hessian())
        return hermitize(-d_ab + (self.n + 1) * np.reshape(r, (-1, 1, 1)) * self.levi)
