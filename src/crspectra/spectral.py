"""Rayleigh-Ritz approximation of the Kohn-Laplacian spectrum.

Trial space: restrictions of monomials z^a conj(z)^b to M.  Restrictions of
polynomial multiples of the defining function vanish identically on M, so
the Gram matrix is rank-deficient by construction whenever such multiples
live in the basis; the solver projects that null space out (relative
eigenvalue < 1e-13) before reducing the pencil.

The graded basis of degree d - 1 is a prefix of the degree-d basis, so the
Gram and stiffness matrices are assembled once, at the requested degree, and
the lower-degree Ritz values of the monotonicity diagnostic come from their
leading principal blocks.

Determinism: chunk boundaries and reduction order do not depend on the
thread budget, and the eigensolves use a cyclic complex Jacobi iteration
with a fixed sweep order, so reports are bit-identical for any
CR_SPECTRA_THREADS given a fixed BLAS build and BLAS thread count.  The Gram
and stiffness products and the pencil reduction go through the BLAS matrix
product, so a different BLAS may change the last bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CholeskyFailure,
    IllConditionedGram,
    JobValidationError,
    NoPositiveEigenvalue,
)
from .frames import hermitize
from .operators import delta_tilde_coefficients, z_bar_projection
from .quadrature import QuadratureRule
from .runtime import map_chunks

MAX_DEGREE = 6

GRAM_DROP_TOL = 1e-13       # relative; below this a direction is null on M
GRAM_COND_TOL = 1e-12       # retained directions below this are ambiguous


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent pairs (a, b), |a| + |b| <= degree, graded-lexicographic."""

    m: int
    degree: int
    holo: np.ndarray      # (B, m) holomorphic exponents a
    anti: np.ndarray      # (B, m) antiholomorphic exponents b

    @classmethod
    def build(cls, m, degree):
        if degree > MAX_DEGREE:
            raise JobValidationError(f"basis degree {degree} exceeds {MAX_DEGREE}")
        if degree < 0:
            raise JobValidationError(f"basis degree {degree} is negative")
        exps = []
        for total in range(degree + 1):
            block = sorted(
                e
                for e in itertools.product(range(total + 1), repeat=2 * m)
                if sum(e) == total
            )
            exps.extend(block)
        arr = np.asarray(exps, dtype=np.intp)
        return cls(m=m, degree=degree, holo=arr[:, :m], anti=arr[:, m:])

    def __len__(self):
        return self.holo.shape[0]

    def truncate(self, degree):
        """The basis of a lower degree: a prefix of this one."""
        size = int(np.sum(self.holo.sum(axis=1) + self.anti.sum(axis=1) <= degree))
        return MonomialBasis(m=self.m, degree=degree, holo=self.holo[:size],
                             anti=self.anti[:size])

    def labels(self):
        out = []
        for a, b in zip(self.holo, self.anti):
            parts = [f"z{j+1}^{e}" for j, e in enumerate(a) if e]
            parts += [f"zb{j+1}^{e}" for j, e in enumerate(b) if e]
            out.append("*".join(parts) if parts else "1")
        return out


def _column_lookup(column, exps):
    """Table columns of the monomials with exponents ``exps`` (B, m).

    Returns (cols (B,), lowered (m, B), mult (m, B)): ``lowered[j]`` is the
    column with e_j lowered by one and ``mult[j]`` is e_j, the factor of
    d/dz_j; where e_j = 0 the factor kills the term and the lowered column
    is clamped to the unlowered one.
    """
    lowered = []
    for j in range(exps.shape[1]):
        f = exps.copy()
        f[:, j] = np.maximum(f[:, j] - 1, 0)
        lowered.append(column[tuple(f.T)])
    return column[tuple(exps.T)], np.stack(lowered), exps.T.astype(np.float64)


class MonomialTable:
    """The basis and its Wirtinger derivatives at a batch of points.

    One power table z_j^k gives one table of the holomorphic monomials z^a,
    |a| <= degree, and its conjugate; every basis value, ``dbar_k`` and
    ``d_j dbar_k`` is then a product of two looked-up columns times the
    exponent factors.
    """

    def __init__(self, basis: MonomialBasis, pts):
        pts = np.asarray(pts, dtype=np.complex128)
        m, d = basis.m, basis.degree
        exps = np.array(
            [e for e in itertools.product(range(d + 1), repeat=m) if sum(e) <= d],
            dtype=np.intp,
        )
        column = np.zeros((d + 1,) * m, dtype=np.intp)
        column[tuple(exps.T)] = np.arange(exps.shape[0])
        self.m = m
        self._holo_cols, self._holo_down, self._holo_mult = _column_lookup(column, basis.holo)
        self._anti_cols, self._anti_down, self._anti_mult = _column_lookup(column, basis.anti)
        power = np.ones((pts.shape[0], m, d + 1), dtype=np.complex128)
        for k in range(1, d + 1):
            power[:, :, k] = power[:, :, k - 1] * pts
        holo = np.ones((pts.shape[0], exps.shape[0]), dtype=np.complex128)
        for j in range(m):
            holo *= power[:, j, exps[:, j]]
        self.holo = holo
        self.anti = np.conj(holo)

    def values(self):
        out = self.holo[:, self._holo_cols]
        out *= self.anti[:, self._anti_cols]
        return out

    def dbar(self):
        """d/d conj(z_k) of every basis monomial, shape (P, m, B)."""
        vz = self.holo[:, self._holo_cols]
        out = np.empty((vz.shape[0], self.m, vz.shape[1]), dtype=np.complex128)
        for k in range(self.m):
            np.multiply(vz, self.anti[:, self._anti_down[k]], out=out[:, k, :])
            out[:, k, :] *= self._anti_mult[k]
        return out

    def mixed(self, j, k):
        """d_j dbar_k of every basis monomial, shape (P, B)."""
        out = self.holo[:, self._holo_down[j]]
        out *= self.anti[:, self._anti_down[k]]
        out *= self._holo_mult[j] * self._anti_mult[k]
        return out


@dataclass
class SpectralProblem:
    gram: np.ndarray
    stiffness: np.ndarray
    basis: MonomialBasis
    kernel_tol: float = 1e-6
    herm_deviation: float = 0.0
    ibp_deviation: float | None = None
    rule_meta: dict = field(default_factory=dict)

    def leading_block(self, degree):
        """The pencil of the degree-``degree`` sub-basis (no IBP diagnostic)."""
        basis = self.basis.truncate(degree)
        size = len(basis)
        return SpectralProblem(
            gram=self.gram[:size, :size], stiffness=self.stiffness[:size, :size],
            basis=basis, kernel_tol=self.kernel_tol,
        )


def assemble(rho, rule: QuadratureRule, basis: MonomialBasis, params=None,
             kernel_tol=1e-6, check_ibp=True) -> SpectralProblem:
    """Gram and stiffness matrices of the dbar_b pairing over the rule.

    The stiffness consistency diagnostic compares against the integral of
    (box_b phi_u) conj(phi_v): on a closed surface both quadratures must
    agree to quadrature accuracy, which validates the operator end to end.
    """
    pts = rule.points
    w = rule.weights
    frame = rule.frame(rho, params)
    m, n = frame.m, frame.n
    B = len(basis)
    flat = pts.shape[0]
    tcoef = delta_tilde_coefficients(frame)

    def piece(sl):
        p = pts[sl]
        ww = w[sl]
        table = MonomialTable(basis, p)
        # arrays of shape (points, B) are dropped as soon as they are used,
        # which keeps the working set of a chunk small
        V = table.values()
        Vc = np.conj(V)
        V *= ww[:, None]
        g_part = V.T @ Vc
        del V
        db = table.dbar()
        zb = z_bar_projection(db, frame.grad[sl], frame.chart[sl], frame.nonchart[sl])
        s_part = np.zeros((B, B), dtype=np.complex128)
        for gma in range(n):
            for sgm in range(n):
                c = ww * frame.levi_inv[sl][:, gma, sgm]
                s_part += (zb[:, gma, :] * c[:, None]).T @ np.conj(zb[:, sgm, :])
        del zb
        if check_ibp:
            box = np.zeros((p.shape[0], B), dtype=np.complex128)
            for j in range(m):
                for k in range(m):
                    mixed = table.mixed(j, k)
                    np.multiply(tcoef[sl][:, j, k][:, None], mixed, out=mixed)
                    box += mixed
            box += n * np.einsum("pk,pkb->pb", np.conj(frame.xi[sl]), db)
            del db
            box *= ww[:, None]
            sp_part = box.T @ Vc
        else:
            sp_part = np.zeros((B, B), dtype=np.complex128)
        return g_part[None], s_part[None], sp_part[None]

    g_parts, s_parts, sp_parts = map_chunks(piece, flat, 4096)
    G = g_parts.sum(axis=0)
    S = s_parts.sum(axis=0)
    herm_dev = max(
        float(np.max(np.abs(G - G.conj().T))), float(np.max(np.abs(S - S.conj().T)))
    )
    G = hermitize(G)
    S = hermitize(S)
    ibp_dev = None
    if check_ibp:
        Sp = sp_parts.sum(axis=0)
        ibp_dev = float(np.max(np.abs(S - Sp)))
    return SpectralProblem(
        gram=G, stiffness=S, basis=basis, kernel_tol=kernel_tol,
        herm_deviation=herm_dev, ibp_deviation=ibp_dev, rule_meta=rule.meta(),
    )


# --- deterministic Hermitian eigensolver ------------------------------------


def jacobi_eigh(a, tol=1e-14, max_sweeps=60):
    """Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.

    Deterministic sweep order (p ascending, q ascending), threshold skips,
    stable ascending sort.  Returns (eigenvalues, eigenvectors).
    """
    A = np.array(a, dtype=np.complex128)
    B = A.shape[0]
    V = np.eye(B, dtype=np.complex128)
    if B == 1:
        return A[0, 0].real.reshape(1), V
    scale = max(1.0, float(np.max(np.abs(A))))
    for _ in range(max_sweeps):
        off = np.abs(A - np.diag(np.diag(A)))
        if float(off.max()) <= tol * scale:
            break
        thresh = max(tol * scale, 1e-2 * float(off.max()))
        for p in range(B - 1):
            for q in range(p + 1, B):
                apq = A[p, q]
                mag = abs(apq)
                if mag < thresh:
                    continue
                app = A[p, p].real
                aqq = A[q, q].real
                tau = (aqq - app) / (2.0 * mag)
                t = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                u = apq / mag
                # unitary columns j_p = (c, -s conj(u)), j_q = (s u, c)
                col_p = c * A[:, p] - s * np.conj(u) * A[:, q]
                col_q = s * u * A[:, p] + c * A[:, q]
                A[:, p], A[:, q] = col_p, col_q
                row_p = c * A[p, :] - s * u * A[q, :]
                row_q = s * np.conj(u) * A[p, :] + c * A[q, :]
                A[p, :], A[q, :] = row_p, row_q
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vcol_p = c * V[:, p] - s * np.conj(u) * V[:, q]
                vcol_q = s * u * V[:, p] + c * V[:, q]
                V[:, p], V[:, q] = vcol_p, vcol_q
    w = np.diag(A).real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


@dataclass
class SolveResult:
    eigenvalues: np.ndarray
    kernel_dim: int
    lambda1: float
    dropped_dim: int
    gram_cond: float
    kernel_tol: float

    def to_dict(self):
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "kernel_dim": int(self.kernel_dim),
            "lambda1": float(self.lambda1),
            "dropped_dim": int(self.dropped_dim),
            "gram_cond": float(self.gram_cond),
            "kernel_tol": float(self.kernel_tol),
        }


def solve(problem: SpectralProblem) -> SolveResult:
    """Ritz values of the (stiffness, gram) pencil on the numerical range of G."""
    G, S = problem.gram, problem.stiffness
    wg, U = jacobi_eigh(G)
    wmax = float(wg[-1])
    if wmax <= 0.0:
        raise CholeskyFailure("Gram matrix has no positive mass")
    if float(wg[0]) < -1e-10 * wmax:
        raise CholeskyFailure(
            f"Gram matrix is not positive semidefinite (min eig {wg[0]:.3e})"
        )
    keep = wg > GRAM_DROP_TOL * wmax
    kept = wg[keep]
    if kept.size == 0:
        raise CholeskyFailure("Gram matrix is numerically zero")
    gram_cond = float(wmax / kept[0])
    if kept[0] < GRAM_COND_TOL * wmax:
        raise IllConditionedGram(
            f"Gram condition estimate {gram_cond:.3e} > 1e12: "
            "lower the basis degree or raise the quadrature resolution"
        )
    W = U[:, keep] / np.sqrt(kept)[None, :]
    St = hermitize(W.conj().T @ S @ W)
    lam, _ = jacobi_eigh(St)
    thr = problem.kernel_tol * max(1.0, float(lam[-1]))
    kernel_dim = int(np.sum(lam < thr))
    positive = lam[lam >= thr]
    if positive.size == 0:
        raise NoPositiveEigenvalue("no Ritz value above the kernel threshold")
    return SolveResult(
        eigenvalues=lam, kernel_dim=kernel_dim, lambda1=float(positive[0]),
        dropped_dim=int(np.sum(~keep)), gram_cond=gram_cond,
        kernel_tol=problem.kernel_tol,
    )


@dataclass
class SpectralReport:
    lambda1: float
    eigenvalues: list
    kernel_dim: int
    basis_size: int
    degree: int
    dropped_dim: int
    gram_cond: float
    herm_deviation: float
    ibp_deviation: float | None
    lambda1_by_degree: dict
    monotone_ok: bool
    rule_meta: dict

    def to_dict(self):
        return {
            "lambda1": float(self.lambda1),
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "kernel_dim": int(self.kernel_dim),
            "basis_size": int(self.basis_size),
            "degree": int(self.degree),
            "dropped_dim": int(self.dropped_dim),
            "gram_cond": float(self.gram_cond),
            "herm_deviation": float(self.herm_deviation),
            "ibp_deviation": None if self.ibp_deviation is None else float(self.ibp_deviation),
            "lambda1_by_degree": {str(k): float(v) for k, v in self.lambda1_by_degree.items()},
            "monotone_ok": bool(self.monotone_ok),
            "quadrature": self.rule_meta,
        }


def estimate_lambda1(rho, degree, rule, params=None, kernel_tol=1e-6,
                     check_monotonicity=True) -> SpectralReport:
    """assemble -> solve pipeline with a Ritz monotonicity diagnostic.

    One assembly at ``degree``; each lower degree from 2 up is solved on the
    leading principal block of that pencil.
    """
    basis = MonomialBasis.build(rho.m, degree)
    problem = assemble(rho, rule, basis, params=params, kernel_tol=kernel_tol)
    lower = range(2, degree) if check_monotonicity else ()
    by_degree = {d: solve(problem.leading_block(d)).lambda1 for d in lower}
    result = solve(problem)
    by_degree[degree] = result.lambda1
    vals = [by_degree[d] for d in sorted(by_degree)]
    monotone = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    return SpectralReport(
        lambda1=result.lambda1,
        eigenvalues=[float(x) for x in result.eigenvalues],
        kernel_dim=result.kernel_dim,
        basis_size=len(problem.basis),
        degree=degree,
        dropped_dim=result.dropped_dim,
        gram_cond=result.gram_cond,
        herm_deviation=problem.herm_deviation,
        ibp_deviation=problem.ibp_deviation,
        lambda1_by_degree=by_degree,
        monotone_ok=monotone,
        rule_meta=problem.rule_meta,
    )
