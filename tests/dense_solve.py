"""The dense solve of the Galerkin pencil: a test oracle for ``spectral.solve``.

``dense_solve`` whitens the whole Gram matrix with one ``eigh`` and takes the
Ritz values of the whole reduced pencil with one ``eigvalsh``, ignoring the
charge classes that ``spectral.solve`` splits the pencil into.  It applies the
same rules: the positive-semidefinite check, the drop of directions below
GRAM_DROP_TOL times the largest Gram eigenvalue, the GRAM_COND_TOL refusal and
the kernel threshold relative to the largest Ritz value.  ``dense_gather``
gathers every entry of G, S and the stiffness by parts from the moments and
then sets the entries across charge classes to 0.
"""

import numpy as np

from crspectra.errors import CholeskyFailure, IllConditionedGram, NoPositiveEigenvalue
from crspectra.frames import hermitize
from crspectra.spectral import (
    GRAM_COND_TOL,
    GRAM_DROP_TOL,
    SolveResult,
    _galerkin_moments,
    _galerkin_plan,
    check_kernel_tol,
)


def dense_solve(problem, kernel_tol=1e-6):
    """Ritz values of the (stiffness, gram) pencil on the numerical range of G,
    from the whole matrices."""
    check_kernel_tol(kernel_tol)
    G, S = problem.gram, problem.stiffness
    wg, U = np.linalg.eigh(G)
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
    lam = np.linalg.eigvalsh(St)
    thr = kernel_tol * max(1.0, float(lam[-1]))
    kernel_dim = int(np.sum(lam < thr))
    positive = lam[lam >= thr]
    if positive.size == 0:
        raise NoPositiveEigenvalue("no Ritz value above the kernel threshold")
    return SolveResult(
        eigenvalues=lam, kernel_dim=kernel_dim, lambda1=float(positive[0]),
        dropped_dim=int(np.sum(~keep)), gram_cond=gram_cond,
    )


def dense_gather(rule, basis, labels):
    """G, S and the stiffness by parts of ``basis`` over ``rule``: every entry
    gathered from the rule's moments, then those across ``labels`` set to 0."""
    m = rule.frame.m
    plan = _galerkin_plan(m, basis.degree)
    mu, _ = _galerkin_moments(rule, plan)
    bimon = plan.bimon
    a, b = basis.holo, basis.anti
    rp, rq = bimon.radix[:m], bimon.radix[m:]
    left, right = a @ rp + b @ rq, b @ rp + a @ rq

    def gather(col, shift=0):
        return mu[bimon.rank[np.maximum(left[:, None] + right - shift, 0)], col]

    G = gather(0)
    S = np.zeros_like(G)
    for k in range(m):
        for l in range(m):
            S += (b[:, k, None] * b[None, :, l]) * gather(1 + k * m + l, rp[l] + rq[k])
    Sp = np.zeros_like(G)
    for j in range(m):
        for k in range(m):
            Sp -= (a[:, j] * b[:, k])[:, None] * gather(1 + k * m + j, rp[j] + rq[k])
    for k in range(m):
        Sp += b[:, k, None] * gather(1 + m * m + k, rq[k])
    cross = labels[:, None] != labels
    for mat in (G, S, Sp):
        mat[cross] = 0.0
    return G, S, Sp
