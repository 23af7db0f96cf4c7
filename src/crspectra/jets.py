"""Truncated Taylor (jet) arithmetic in complex coordinates.

A jet stores all mixed Wirtinger partial derivatives of a scalar field at a
point, up to total order ``MAX_ORDER`` (4).  Coefficients are Taylor
coefficients (derivative divided by alpha!*beta!), so multiplication is a
plain truncated convolution.  Coefficient arrays may carry trailing batch
axes: shape ``(n_terms, *batch)`` over a batch of base points, which is how
the quadrature and assembly code evaluates thousands of points at once.

Products and series compositions run one kernel on supports, the sorted
terms that can be nonzero: ``JetSpace.product_plan`` picks the pairs of
``JetSpace.mul_table`` whose two factors lie in the operand supports, and
``product`` and ``horner`` (Horner's rule on a series about the constant
term) multiply only those pairs.  ``expressions`` lowers each expression
once into a cached program over static supports (the terms the tree lets
be nonzero); a ``Jet`` holds every term, and its product and ``exp`` run
the same kernel on full supports.  A ``Jet`` is otherwise a coefficient
container: the operator-level jets (``exp(log J)`` and the
volume-normalized defining function) need no other arithmetic.

All operations are pure; jets are immutable by convention.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
import numpy as np

from .errors import (
    DivisionByZeroJet,
    JetOrderError,
    LogOfNonpositive,
    NotRealValued,
)

MAX_ORDER = 4

# constant term magnitudes below this are treated as zero divisors
DIV_TOL = 1e-300


def _factorial_prod(exponents):
    out = 1
    for e in exponents:
        out *= math.factorial(e)
    return out


def graded_exponents(m: int, order: int):
    """Exponent vectors (alpha_1..alpha_m, beta_1..beta_m) of total order <=
    ``order``, by total order, lexicographic within each total."""
    exps = (e for e in itertools.product(range(order + 1), repeat=2 * m) if sum(e) <= order)
    return sorted(exps, key=lambda e: (sum(e), e))


class JetSpace:
    """Index tables for dense jets in ``m`` complex variables at one order."""

    def __init__(self, m: int, order: int):
        if order > MAX_ORDER:
            raise JetOrderError(f"jet order {order} exceeds maximum {MAX_ORDER}")
        if order < 0:
            raise JetOrderError(f"jet order {order} is negative")
        self.m = m
        self.order = order
        self.exps = [(e[:m], e[m:]) for e in graded_exponents(m, order)]
        self.index = {ab: i for i, ab in enumerate(self.exps)}
        self.n_terms = len(self.exps)
        conj = [self.index[(b, a)] for (a, b) in self.exps]
        self.conj_perm = np.asarray(conj, dtype=np.intp)
        # term indices of the first and mixed second derivatives, in the
        # layout of the read-offs below; None where the order is too low
        zero = (0,) * m
        eye = [tuple(int(t == s) for t in range(m)) for s in range(m)]
        self.holo_index = self.dbar_index = self.mixed_index = None
        if order >= 1:
            self.holo_index = np.asarray([self.index[(e, zero)] for e in eye], dtype=np.intp)
            self.dbar_index = np.asarray([self.index[(zero, e)] for e in eye], dtype=np.intp)
        if order >= 2:
            self.mixed_index = np.asarray(
                [[self.index[(ej, ek)] for ek in eye] for ej in eye], dtype=np.intp
            )
        self._mul_table = None
        self._dense_plans = None
        self._deriv_tables = {}

    def mul_table(self):
        """Every coefficient pair of a truncated product, as index arrays
        ``(i1, i2, out)`` sorted by output term ``out``."""
        if self._mul_table is None:
            pairs = []
            for i1, (a1, b1) in enumerate(self.exps):
                t1 = sum(a1) + sum(b1)
                for i2, (a2, b2) in enumerate(self.exps):
                    if t1 + sum(a2) + sum(b2) > self.order:
                        continue
                    a = tuple(x + y for x, y in zip(a1, a2))
                    b = tuple(x + y for x, y in zip(b1, b2))
                    pairs.append((self.index[(a, b)], i1, i2))
            pairs.sort()
            out = np.asarray([p[0] for p in pairs], dtype=np.intp)
            i1 = np.asarray([p[1] for p in pairs], dtype=np.intp)
            i2 = np.asarray([p[2] for p in pairs], dtype=np.intp)
            self._mul_table = (i1, i2, out)
        return self._mul_table

    def product_plan(self, sa, sb):
        """The pairs of a product of jets with supports ``sa`` and ``sb``
        (sorted, nonempty term indices): row positions in each factor, the
        first pair of each output term, and the product's support."""
        i1, i2, out = self.mul_table()
        pos_a = np.full(self.n_terms, -1, dtype=np.intp)
        pos_a[list(sa)] = np.arange(len(sa))
        pos_b = np.full(self.n_terms, -1, dtype=np.intp)
        pos_b[list(sb)] = np.arange(len(sb))
        keep = (pos_a[i1] >= 0) & (pos_b[i2] >= 0)
        ko = out[keep]
        starts = np.flatnonzero(np.diff(ko, prepend=-1))
        pa, pb = _row_selector(pos_a[i1[keep]]), _row_selector(pos_b[i2[keep]])
        return pa, pb, starts, ko[starts].tolist()

    def series_plans(self, sh):
        """The product plans of ``horner`` for a nilpotent part with support
        ``sh`` (None for each when ``sh`` is empty), and the support of the
        result."""
        support, plans = (0,), []
        for _ in range(self.order):
            plan = self.product_plan(support, sh) if len(sh) else None
            plans.append(plan)
            support = (0,) if plan is None else (0,) + tuple(plan[3])
        return plans, support

    def dense_plans(self):
        """The plans of a product and of a series on full supports."""
        if self._dense_plans is None:
            full = range(self.n_terms)
            self._dense_plans = (self.product_plan(full, full),
                                 self.series_plans(full[1:])[0])
        return self._dense_plans

    def deriv_table(self, alpha, beta):
        """Gather indices + factorial multipliers for d^alpha dbar^beta."""
        key = (tuple(alpha), tuple(beta))
        if key not in self._deriv_tables:
            k = sum(alpha) + sum(beta)
            target = jet_space(self.m, self.order - k)
            src = np.empty(target.n_terms, dtype=np.intp)
            mult = np.empty(target.n_terms, dtype=np.float64)
            for i, (a, b) in enumerate(target.exps):
                aa = tuple(x + y for x, y in zip(a, alpha))
                bb = tuple(x + y for x, y in zip(b, beta))
                src[i] = self.index[(aa, bb)]
                mult[i] = (_factorial_prod(aa) * _factorial_prod(bb)) / (
                    _factorial_prod(a) * _factorial_prod(b)
                )
            self._deriv_tables[key] = (target, src, mult)
        return self._deriv_tables[key]


def _row_selector(index):
    """``index`` as a row selector: a view (no copy) when it takes every row
    in order."""
    if np.array_equal(index, np.arange(len(index))):
        return slice(None)
    return index


def _constant_row(value):
    """A value over the batch as a single row."""
    return np.asarray(value, dtype=np.complex128)[None]


def product(x, y, plan):
    """Rows of a product, shape ``(len(support), *batch)``: the pairs of
    ``plan`` (from ``JetSpace.product_plan``) multiplied and summed per
    output term."""
    pa, pb, starts, _ = plan
    terms = x[pa] * y[pb]
    if len(starts) == len(terms):
        return terms
    return np.add.reduceat(terms, starts, axis=0)


def horner(series, h, plans):
    """Rows of sum_k series[k] h^k by Horner's rule, where ``h`` holds the
    rows of a nilpotent part and ``plans`` come from
    ``JetSpace.series_plans``; series[k] are arrays over the batch."""
    acc = _constant_row(series[-1])
    for k, plan in zip(range(len(series) - 2, -1, -1), plans):
        if plan is None:
            acc = _constant_row(series[k])
        else:
            acc = np.concatenate([_constant_row(series[k]), product(acc, h, plan)])
    return acc


@lru_cache(maxsize=None)
def jet_space(m: int, order: int) -> JetSpace:
    return JetSpace(m, order)


class Jet:
    """Truncated Taylor expansion at a (possibly batched) base point.

    Coefficients are stored densely; products and ``exp`` run the shared
    kernel on full supports.
    """

    __slots__ = ("space", "point", "coeffs", "is_real")

    def __init__(self, space, point, coeffs, is_real=False):
        self.space = space
        self.point = np.asarray(point, dtype=np.complex128)
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self.is_real = bool(is_real)

    @property
    def order(self):
        return self.space.order

    @property
    def m(self):
        return self.space.m

    @property
    def batch_shape(self):
        return self.coeffs.shape[1:]

    # --- coefficient access ----------------------------------------------

    def coefficient(self, alpha, beta):
        """Taylor coefficient (derivative / (alpha! * beta!))."""
        idx = self.space.index.get((tuple(alpha), tuple(beta)))
        if idx is None:
            raise JetOrderError(
                f"multi-index ({alpha}|{beta}) outside jet of order {self.order}"
            )
        return self.coeffs[idx]

    def partial(self, alpha, beta):
        """True mixed Wirtinger partial at the base point."""
        alpha, beta = tuple(alpha), tuple(beta)
        value = self.coefficient(alpha, beta)
        return value * (_factorial_prod(alpha) * _factorial_prod(beta))

    def constant_term(self):
        return self.coeffs[0]

    def _read_off(self, index, what):
        # first and mixed second derivatives have unit factorials, so each
        # is its Taylor coefficient; the term axes move behind the batch axes
        if index is None:
            raise JetOrderError(f"a jet of order {self.order} has no {what}")
        k = index.ndim
        return np.ascontiguousarray(
            np.moveaxis(self.coeffs[index], tuple(range(k)), tuple(range(-k, 0)))
        )

    def gradient(self):
        """Holomorphic gradient d_j f at the base point, shape (*batch, m)."""
        return self._read_off(self.space.holo_index, "gradient")

    def dbar_gradient(self):
        """Antiholomorphic gradient dbar_k f at the base point, shape (*batch, m)."""
        return self._read_off(self.space.dbar_index, "dbar_gradient")

    def mixed_hessian(self):
        """Mixed partials d_j dbar_k f at the base point, shape (*batch, m, m)."""
        return self._read_off(self.space.mixed_index, "mixed_hessian")

    # --- structural operations --------------------------------------------

    def truncate(self, order):
        if order > self.order:
            raise JetOrderError(f"cannot extend jet of order {self.order} to {order}")
        target = jet_space(self.m, order)
        return Jet(target, self.point, self.coeffs[: target.n_terms], self.is_real)

    def derivative(self, alpha, beta):
        """Jet of the mixed partial d^alpha dbar^beta f (order drops)."""
        alpha, beta = tuple(alpha), tuple(beta)
        k = sum(alpha) + sum(beta)
        if k > self.order:
            raise JetOrderError("derivative order exceeds jet order")
        target, src, mult = self.space.deriv_table(alpha, beta)
        coeffs = self.coeffs[src] * mult.reshape((-1,) + (1,) * len(self.batch_shape))
        # pure-holomorphic/antiholomorphic derivative counts swap the
        # conjugation symmetry, so the real flag survives only when both
        # derivative orders agree slotwise
        real = self.is_real and alpha == beta
        return Jet(target, self.point, coeffs, real)

    def conj(self):
        return Jet(
            self.space,
            self.point,
            np.conj(self.coeffs[self.space.conj_perm]),
            self.is_real,
        )

    # --- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if self.space is not other.space:
            raise JetOrderError(
                "jet mismatch: operands must share variable count and order"
            )
        if self.point.shape != other.point.shape or not np.array_equal(
            self.point, other.point
        ):
            raise JetOrderError("jet mismatch: operands must share the base point")

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compatible(other)
            plan, _ = self.space.dense_plans()
            return Jet(self.space, self.point, product(self.coeffs, other.coeffs, plan),
                       self.is_real and other.is_real)
        s = complex(other)
        return Jet(self.space, self.point, self.coeffs * s, self.is_real and s.imag == 0.0)

    __rmul__ = __mul__

    def exp(self):
        """exp(f) by Horner's rule on the series of exp about f's constant term."""
        _, plans = self.space.dense_plans()
        # a lone point runs as a batch of one, as in expression programs, so
        # each point's jet does not depend on the batch it comes in
        flat = self.coeffs.reshape(self.space.n_terms, -1)
        coeffs = horner(exp_series(flat[0], self.order), flat[1:], plans)
        return Jet(self.space, self.point, coeffs.reshape(self.coeffs.shape), self.is_real)

    def hermitized(self):
        """Average with its own conjugate-symmetrization and flag real.

        Kills roundoff asymmetry in jets that are real by construction
        (determinants of Hermitian jet matrices, for instance).
        """
        coeffs = 0.5 * (self.coeffs + np.conj(self.coeffs[self.space.conj_perm]))
        return Jet(self.space, self.point, coeffs, True)

    def reality_defect(self):
        """Max |coeff(a,b) - conj(coeff(b,a))| (zero for honestly real jets)."""
        return float(
            np.max(np.abs(self.coeffs - np.conj(self.coeffs[self.space.conj_perm])))
        )


# --- Taylor series of the compositions ------------------------------------
#
# Each function takes the constant term ``c`` of the inner jet (an array over
# the batch) and returns the coefficients ``series[k]`` of (f - c)^k up to the
# order, after checking that the composition is defined at every point.


def reciprocal_series(c, order):
    if np.any(np.abs(c) < DIV_TOL):
        raise DivisionByZeroJet("jet constant term vanishes")
    return [(-1.0) ** k / c ** (k + 1) for k in range(order + 1)]


def _positive_real(c, is_real, what):
    if not is_real:
        raise NotRealValued(f"{what} requires a real-flagged jet")
    if np.any(c.real <= 0.0):
        raise LogOfNonpositive(f"{what} requires a positive constant term")
    return c.real


def log_series(c, is_real, order):
    c = _positive_real(c, is_real, "log")
    series = [np.log(c)]
    for k in range(1, order + 1):
        series.append((-1.0) ** (k + 1) / (k * c**k))
    return series


def exp_series(c, order):
    e = np.exp(c)
    return [e / math.factorial(k) for k in range(order + 1)]


def pow_series(c, is_real, s, order):
    """Binomial series of f**s for real s."""
    c = _positive_real(c, is_real, "pow")
    series = []
    binom = 1.0
    for k in range(order + 1):
        series.append(binom * c ** (s - k))
        binom *= (s - k) / (k + 1)
    return series
