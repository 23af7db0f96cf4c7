"""Rayleigh-Ritz approximation of the Kohn-Laplacian spectrum.

Trial space: restrictions of monomials z^a conj(z)^b to M.  Restrictions of
polynomial multiples of the defining function vanish identically on M, so
the Gram matrix is rank-deficient by construction whenever such multiples
live in the basis; the solver projects that null space out (relative
eigenvalue < 1e-13) before reducing the pencil.

The graded basis of degree d - 1 is a prefix of the degree-d basis, so the
Gram, stiffness and by-parts stiffness matrices are assembled once, at the
requested degree, and the lower-degree Ritz values of the monotonicity
diagnostic come from their leading principal blocks.  Every assembly builds
the by-parts matrix, so every pencil carries its integration-by-parts
deviation.  The kernel threshold belongs to the eigen-split: ``solve`` takes
it and counts the Ritz values below it as the kernel of box_b.

Assembly: every entry of G, S and the stiffness by parts is a sum of
point-weighted moments mu_c(p, q) = sum_i w_i c_i z_i^p conj(z_i)^q, with c
one of w, w h (h the frame's ambient Levi inverse, which gives both the
dbar_b pairing and delta_tilde) and n w conj(xi).  The sum runs over one
point per torus orbit of the rule (``quadrature``), weighted by the orbit's
total weight, and the entries between monomials of different charge classes
under the fixing rotations, which sum to exactly 0 over every orbit, are set
to 0 (``_galerkin_matrices``).  One-point orbits (a Monte Carlo rule, or a
rho no grid rotation fixes) sum every point and keep every entry.  The
entries read each weight only up to its reach: |p| + |q| <= 2 degree for
w, 2 degree - 1 for n w conj(xi) and 2 degree - 2 for w h.  With z = x + iy
these are integer combinations of real moments: each chunk of
representatives tabulates the monomials of x_2..x_m, y_1..y_m and stacks
the real weight rows by levels k = 2 degree..0, level k being level k + 1
times x_1 followed by the rows of reach k.  The moments against the
monomials of degree t are one matrix product of the levels >= t, a prefix
of the stack, with those table rows, so each summed point costs one
multiply-add per moment a row reaches: with the conj(xi) rows 5,841 at
degree 5 in C^2, against 9,009 for every row to 2 degree, and 21,615
(against 48,048) at degree 4 in C^3.  One sparse
binomial map turns the sum of the chunks into mu.  A chunk holds the
largest power of two of representatives whose table fits in 4 MB (at least
64), so chunk boundaries depend only on the basis and the rule.

Determinism: chunk boundaries are fixed by the basis and the rule, and each
chunk's real moments are added into one running sum in chunk order, so
reports are bit-identical on every run given a fixed BLAS build and BLAS
thread count.  The moment products, the pencil reduction and the eigensolves
go through BLAS and LAPACK, so a different build may change the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (
    CholeskyFailure,
    IllConditionedGram,
    JobValidationError,
    NoPositiveEigenvalue,
)
from .frames import hermitize
from .jets import graded_exponents
from .quadrature import QuadratureRule
from .runtime import sum_chunks

MAX_DEGREE = 6

GRAM_DROP_TOL = 1e-13       # relative; below this a direction is null on M
GRAM_COND_TOL = 1e-12       # retained directions below this are ambiguous

TABLE_BYTES = 4 << 20       # real monomial table of one assembly chunk
MIN_CHUNK = 64              # points per assembly chunk, at least


def check_kernel_tol(kernel_tol):
    """kernel_tol if in (0, 1); at 0 kernel values pass as lambda1, at 1 none."""
    if not 0.0 < kernel_tol < 1.0:
        raise JobValidationError(f"kernel_tol must lie in (0, 1), got {kernel_tol!r}")
    return kernel_tol


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
        arr = np.asarray(graded_exponents(m, degree), dtype=np.intp)
        return cls(m=m, degree=degree, holo=arr[:, :m], anti=arr[:, m:])

    def __len__(self):
        return self.holo.shape[0]

    def truncate(self, degree):
        """The basis of a lower degree: a prefix of this one."""
        size = int(np.sum(self.holo.sum(axis=1) + self.anti.sum(axis=1) <= degree))
        return MonomialBasis(m=self.m, degree=degree, holo=self.holo[:size],
                             anti=self.anti[:size])


class _Monomials:
    """The monomials of ``nvar`` variables of degree <= ``degree``, as rows.

    Rows are graded by degree; segment v of the degree-t block is variable v
    times the rows of the degree-(t-1) block whose lowest variable is >= v,
    which form a contiguous tail of that block, so the table is built by
    multiplying whole row slices by one variable.  ``rank`` maps the key
    e @ radix of an exponent vector e to its row.
    """

    def __init__(self, nvar, degree):
        blocks = [np.zeros((1, nvar), dtype=np.intp)]
        steps = []      # (first row, parent start, parent stop, variable)
        # start: first row of the last block; tails[v]: offset in it of the
        # rows whose lowest variable is >= v
        start, tails = 0, [0] * nvar
        for _ in range(degree):
            prev = blocks[-1]
            stop = start + len(prev)
            block, new_tails = [], []
            for v in range(nvar):
                child = prev[tails[v]:].copy()
                child[:, v] += 1
                row = stop + sum(len(c) for c in block)
                new_tails.append(row - stop)
                steps.append((row, start + tails[v], stop, v))
                block.append(child)
            start, tails = stop, new_tails
            blocks.append(np.concatenate(block))
        self.degree = degree
        self.exps = np.concatenate(blocks)
        self.steps = steps
        self.ends = np.cumsum([len(b) for b in blocks])   # rows of degree <= t
        self.radix = (degree + 1) ** np.arange(nvar)
        self.rank = np.zeros((degree + 1) ** nvar, dtype=np.intp)
        self.rank[self.exps @ self.radix] = np.arange(len(self.exps))

    def __len__(self):
        return self.exps.shape[0]

    def table(self, variables):
        """Values at the points of the variables (nvar, P): an (N, P) array."""
        out = np.empty((len(self), variables.shape[1]), dtype=variables.dtype)
        out[0] = 1.0
        for row, lo, hi, v in self.steps:
            np.multiply(out[lo:hi], variables[v], out=out[row:row + hi - lo])
        return out


def _binomial_map(m, bimon, table):
    """The integer map from real moments to the complex moments of ``bimon``.

    z^p conj(z)^q = sum_beta prod_j K[p_j, q_j, beta_j] x^(p+q-beta) y^beta,
    and block s of the real moments holds x_1^s times the ``table`` rows of
    degree <= bimon.degree - s.  Returns the entries (row, column, coefficient)
    of the real and of the imaginary part of the map; those of (q, p) mirror
    those of (p, q), so the moments of real weights are Hermitian.
    """
    top = bimon.degree
    offsets = np.concatenate([[0], np.cumsum(table.ends[::-1])])
    # K[p, q, b]: the coefficient of t^b in (1 + it)^p (1 - it)^q, the
    # product of the rows p of A and q of conj(A), A[p] = (1 + it)^p
    A = np.zeros((top + 1, 2 * top + 1), dtype=np.complex128)
    A[0, 0] = 1.0
    for i in range(top):
        A[i + 1] = A[i] + 1j * np.roll(A[i], 1)
    K = np.zeros((top + 1, top + 1, 2 * top + 1), dtype=np.complex128)
    for b in range(top + 1):
        K[:, :, b:] += A[:, b, None, None] * np.conj(A[None, :, :2 * top + 1 - b])
    p, q = bimon.exps[:, :m], bimon.exps[:, m:]
    row, coef = np.arange(len(bimon)), np.ones(len(bimon), dtype=np.complex128)
    beta = np.zeros((len(bimon), 0), dtype=np.intp)
    for j in range(m):
        # every entry spreads over beta_j = 0..p_j + q_j
        reps = p[row, j] + q[row, j] + 1
        bj = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        row = np.repeat(row, reps)
        beta = np.column_stack([np.repeat(beta, reps, axis=0), bj])
        coef = np.repeat(coef, reps) * K[p[row, j], q[row, j], bj]
        row, beta, coef = row[coef != 0], beta[coef != 0], coef[coef != 0]
    alpha = p[row] + q[row] - beta
    col = offsets[alpha[:, 0]] + table.rank[
        alpha[:, 1:] @ table.radix[:m - 1] + beta @ table.radix[m - 1:]]
    return [(row[c != 0], col[c != 0], c[c != 0]) for c in (coef.real, coef.imag)]


@dataclass
class SpectralProblem:
    gram: np.ndarray
    stiffness: np.ndarray
    basis: MonomialBasis
    herm_deviation: float = 0.0
    ibp_deviation: float = 0.0

    def leading_block(self, degree):
        """The pencil of the degree-``degree`` sub-basis.  It keeps this
        pencil's deviations, which bound its own: a maximum over a leading
        block cannot exceed the maximum over the whole matrix."""
        basis = self.basis.truncate(degree)
        size = len(basis)
        return replace(self, gram=self.gram[:size, :size],
                       stiffness=self.stiffness[:size, :size], basis=basis)


def _chunk_points(table_rows):
    """Points per assembly chunk: the largest power of two whose table of
    ``table_rows`` real rows fits in TABLE_BYTES, and at least MIN_CHUNK."""
    chunk = MIN_CHUNK
    while 2 * chunk * table_rows * 8 <= TABLE_BYTES:
        chunk *= 2
    return chunk


@lru_cache(maxsize=None)
def _galerkin_plan(m, degree):
    """The index plan of ``_galerkin_matrices`` in C^m at this basis degree:
    the real monomial table and its bimonomial table, the weight rows by
    falling reach (``order``) and where a chunk reads them (``source``),
    the rows of h_kl and h_lk, k <= l, in A^-1 flattened (``upper``,
    ``lower``), the rows of each level (``sizes``), the stack rows of the
    levels >= t (``prefix``), the table rows of degree t (``bounds``), the
    slots of the real moments that the chunk sums fill, and the binomial
    map.  It holds no rule data, so it is built once."""
    top = 2 * degree
    table = _Monomials(2 * m - 1, top)
    ku, lu = np.triu_indices(m, 1)
    # the reach of each real weight row, and the rows by falling reach
    reach = np.repeat([top, top - 2, top - 1], [1, m * m, 2 * m])
    order = np.argsort(-reach, kind="stable")
    # the rows of A^-1 flattened that hold h_kl = A^-1[1 + k, 1 + l], k <= l,
    # and h_lk, and those of xi_k = A^-1[0, 1 + k]; a chunk reads each real
    # weight row off the rows of [w, Re A^-1, Im A^-1]
    hk, hl = np.triu_indices(m)
    upper, lower = (m + 1) * (1 + hk) + 1 + hl, (m + 1) * (1 + hl) + 1 + hk
    diag, off, xi = upper[hk == hl], upper[hk < hl], 1 + np.arange(m)
    re, im = 1, 1 + (m + 1) ** 2        # the first rows of Re A^-1 and Im A^-1
    source = np.concatenate([[0], re + diag, re + off, im + off, re + xi, im + xi])[order]
    sizes = [int(np.sum(reach >= k)) for k in range(top, -1, -1)]     # rows of level k
    # the weight row and the power of x_1 of each stack row
    stack_row = np.concatenate([order[:size] for size in sizes])
    stack_power = reach[stack_row] - np.repeat(np.arange(top, -1, -1), sizes)
    prefix = np.cumsum(sizes)[::-1]         # stack rows of the levels >= t
    bounds = np.concatenate([[0], table.ends])  # table rows of degree t
    offsets = np.concatenate([[0], np.cumsum(table.ends[::-1])])
    base = stack_row * offsets[-1] + offsets[stack_power]
    slots = np.concatenate([(base[:prefix[t], None] + np.arange(bounds[t], bounds[t + 1])).ravel()
                            for t in range(top + 1)])
    bimon = _Monomials(2 * m, top)
    return SimpleNamespace(table=table, ku=ku, lu=lu, upper=upper, lower=lower, order=order,
                           source=source, sizes=sizes, prefix=prefix, bounds=bounds,
                           offsets=offsets, slots=slots, bimon=bimon,
                           binomial=_binomial_map(m, bimon, table))


def _galerkin_matrices(rule: QuadratureRule, basis: MonomialBasis):
    """G, S, the stiffness by parts, and the largest |h - h^H| over the h
    they read, from moments.

    Every entry is a sum of point-weighted moments
    mu_c(p, q) = sum_i w_i c_i z_i^p conj(z_i)^q:
    G[u,v] = mu_1(a_u+b_v, b_u+a_v), and with h the frame's ambient Levi
    inverse (|dbar_b u|^2 = h^{k lbar} u_kbar conj(u_lbar))
    S[u,v] = sum_kl b_uk b_vl mu_{h_kl}(a_u+b_v-e_l, b_u+a_v-e_k).
    The stiffness by parts integrates (box_b phi_u) conj(phi_v), with
    box_b = -h^{k jbar} d_j dbar_k + n conj(xi)^k dbar_k.

    The real weight rows are w, w h_kk, w Re h_kl and w Im h_kl (k < l; h is
    Hermitian), n w Re conj(xi_k) and n w Im conj(xi_k).  The entries read
    a row's moments only up to its reach: 2 degree for w, 2 degree - 1 for
    the conj(xi) rows, 2 degree - 2 for the h rows.  A chunk builds one
    stack by levels k = 2 degree..0: level k is level k + 1 times x_1,
    followed by the rows of reach k, so a row at level k holds its weight
    times x_1^(reach - k), and the levels >= t form a prefix of the stack.
    The moments against the table's monomials of degree t in x_2..x_m,
    y_1..y_m are one product of that prefix with those table rows.  The sum
    of the chunks is scattered into the real moments of x_1^s times the
    table rows of degree <= 2 degree - s (entries beyond a row's reach stay
    0), and ``_binomial_map`` turns those into mu.

    The sums run over the rule's frame, which it holds at one point per
    torus orbit, each point weighted by its orbit's total weight.  A fixing
    rotation z_j -> e^{2 pi i s_j / R} z_j maps phi_u = z^a conj(z)^b to
    e^{2 pi i chi_u.s / R} phi_u, chi = a - b its charge, and h -> D h D*,
    conj(xi) -> D conj(xi), D = diag(e^{-2 pi i s_j / R}), so every integrand
    of entry (u, v) takes the character e^{2 pi i (chi_u - chi_v).s / R}.
    Over an orbit it sums to the representative's term when (chi_u -
    chi_v).s = 0 mod R for every fixing shift s, and to exactly 0 otherwise:
    the entries across those charge classes are set to 0.  One-point orbits
    keep every entry and every point's own term.
    """
    frame, orbits = rule.frame, rule.orbits
    m, n = frame.m, frame.n
    plan = _galerkin_plan(m, basis.degree)
    table, ku, lu, order, sizes, prefix, bounds = (
        plan.table, plan.ku, plan.lu, plan.order, plan.sizes, plan.prefix, plan.bounds)
    top = 2 * basis.degree
    herm_dev = 0.0

    def piece(sl):
        nonlocal herm_dev
        ww, pts = rule.orbit_weights[sl], frame.point[sl]
        # the one copy of A0^-1 at the representatives, weighted in place
        inv = frame.inv[..., sl].copy()
        flat, wh, cxi = inv.reshape((m + 1) ** 2, -1), inv[1:, 1:], inv[0, 1:]
        # h must be Hermitian: the weight rows read it above its diagonal only
        dev = flat[plan.upper]
        dev -= np.conj(flat[plan.lower])
        herm_dev = max(herm_dev, float(np.max(np.abs(dev))))
        wh *= ww
        np.conjugate(cxi, out=cxi)
        cxi *= n * ww
        weights = np.concatenate([ww[None], flat.real, flat.imag])[plan.source]
        x1, stack = pts[:, 0].real, np.empty((prefix[0], len(ww)))
        lo = hi = 0     # the rows of the level above
        for size in sizes:
            mid = 2 * hi - lo
            np.multiply(stack[lo:hi], x1, out=stack[hi:mid])
            stack[mid:hi + size] = weights[hi - lo:size]
            lo, hi = hi, hi + size
        values = table.table(np.concatenate([pts[:, 1:].real.T, pts.imag.T]))
        return np.concatenate([(stack[:prefix[t]] @ values[bounds[t]:bounds[t + 1]].T).ravel()
                               for t in range(top + 1)])

    real = np.zeros((len(order), plan.offsets[-1]))
    real.flat[plan.slots] = sum_chunks(piece, len(orbits.reps), _chunk_points(len(table)))
    bimon = plan.bimon
    moments = np.zeros((len(bimon), len(real)), dtype=np.complex128)
    for part, (row, col, coef) in zip((moments.real, moments.imag), plan.binomial):
        part[:] = np.stack([np.bincount(row, coef * r[col], minlength=len(bimon))
                            for r in real], axis=1)
    # the complex weights: w, w h_kl in column 1 + k m + l, n w conj(xi_k)
    re, im, xi = np.split(moments[:, 1 + m:], [len(ku), 2 * len(ku)], axis=1)
    h = np.zeros((len(bimon), m, m), dtype=np.complex128)
    h[:, range(m), range(m)] = moments[:, 1:1 + m]
    h[:, ku, lu], h[:, lu, ku] = re + 1j * im, re - 1j * im
    xi_re, xi_im = np.split(xi, 2, axis=1)
    mu = np.concatenate([moments[:, :1], h.reshape(-1, m * m), xi_re + 1j * xi_im], axis=1)

    a, b = basis.holo, basis.anti
    rp, rq = bimon.radix[:m], bimon.radix[m:]
    # the key of (a_u + b_v, b_u + a_v) is left[u] + right[v]
    left, right = a @ rp + b @ rq, b @ rp + a @ rq

    def gather(col, shift=0):
        """mu[(a_u + b_v, b_u + a_v) lowered by the key ``shift``, col].  An
        exponent lowered below 0 reads an arbitrary row: every such entry
        has coefficient 0."""
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
    # the charge class of each basis monomial: its labels chi.s mod R, chi =
    # a - b, over the fixing shifts s; an entry across classes sums to 0 over
    # every orbit
    classes = {}
    label = np.array([classes.setdefault(row.tobytes(), len(classes))
                      for row in (a - b) @ orbits.shifts % orbits.resolution])
    cross = label[:, None] != label
    for mat in (G, S, Sp):
        mat[cross] = 0.0
    return G, S, Sp, herm_dev


def assemble(rule: QuadratureRule, basis: MonomialBasis) -> SpectralProblem:
    """Gram and stiffness matrices of the dbar_b pairing of the rule's
    structure over the rule, with their deviations.

    The integration-by-parts deviation is the largest |S - S'|, S' the
    stiffness by parts, the integral of (box_b phi_u) conj(phi_v): on a
    closed surface both quadratures must agree to quadrature accuracy, which
    validates the operator end to end.  The Hermitian deviation is the
    largest |X - X^H| of G, S and the frame's Levi inverse h at the orbit
    representatives: the assembly reads h there only, and only above its
    diagonal.
    """
    G, S, Sp, herm_dev = _galerkin_matrices(rule, basis)
    herm_dev = max(herm_dev, float(np.max(np.abs(G - G.conj().T))),
                   float(np.max(np.abs(S - S.conj().T))))
    G = hermitize(G)
    S = hermitize(S)
    return SpectralProblem(
        gram=G, stiffness=S, basis=basis,
        herm_deviation=herm_dev, ibp_deviation=float(np.max(np.abs(S - Sp))),
    )


@dataclass
class SolveResult:
    eigenvalues: np.ndarray
    kernel_dim: int
    lambda1: float
    dropped_dim: int
    gram_cond: float


def solve(problem: SpectralProblem, kernel_tol=1e-6) -> SolveResult:
    """Ritz values of the (stiffness, gram) pencil on the numerical range of G.

    Ritz values below ``kernel_tol`` times max(1, the largest) count as the
    kernel of box_b; lambda1 is the least value above that threshold.
    """
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
    ibp_deviation: float
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
            "ibp_deviation": float(self.ibp_deviation),
            "lambda1_by_degree": {str(k): float(v) for k, v in self.lambda1_by_degree.items()},
            "monotone_ok": bool(self.monotone_ok),
            "quadrature": self.rule_meta,
        }


def estimate_lambda1(rule: QuadratureRule, degree, kernel_tol=1e-6,
                     check_monotonicity=True) -> SpectralReport:
    """assemble -> solve pipeline with a Ritz monotonicity diagnostic.

    One assembly at ``degree``; each lower degree from 2 up is solved on the
    leading principal block of that pencil.
    """
    basis = MonomialBasis.build(rule.frame.m, degree)
    problem = assemble(rule, basis)
    lower = range(2, degree) if check_monotonicity else ()
    by_degree = {d: solve(problem.leading_block(d), kernel_tol).lambda1 for d in lower}
    result = solve(problem, kernel_tol)
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
        rule_meta=rule.meta(),
    )
