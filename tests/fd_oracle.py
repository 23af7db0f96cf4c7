"""Reference Wirtinger partials by central finite differences in 40-digit
arithmetic (mpmath), for the tests.

At the pinned step 1e-3 a float64 stencil for a 4th-order derivative is
dominated by cancellation noise (~1e-4 relative), so high precision is what
makes the 1e-5 tolerance meaningful.  It is an independent reference for the
jets: it shares no code with them, nor with the Cauchy-formula reference of
``crspectra.verification``.
"""

import functools
import itertools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np

from crspectra.expressions import BinOp, Call, Literal, Neg, Param, PowInt, Var

_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_mp(node, params, zvals):
    if isinstance(node, Literal):
        return mpmath.mpc(node.value)
    if isinstance(node, Param):
        return mpmath.mpc(params[node.name])
    if isinstance(node, Var):
        z = zvals[node.index - 1]
        return mpmath.conj(z) if node.conj else z
    if isinstance(node, Neg):
        return -_eval_mp(node.arg, params, zvals)
    if isinstance(node, BinOp):
        return _BINOPS[node.op](_eval_mp(node.left, params, zvals),
                                _eval_mp(node.right, params, zvals))
    if isinstance(node, PowInt):
        return _eval_mp(node.base, params, zvals) ** node.exponent
    if isinstance(node, Call):
        if node.name == "pow":
            base = _eval_mp(node.args[0], params, zvals)
            return mpmath.power(base, node.args[1].value.real)
        arg = _eval_mp(node.args[0], params, zvals)
        if node.name == "conj":
            return mpmath.conj(arg)
        if node.name == "re":
            return mpmath.mpc(arg.real)
        if node.name == "im":
            return mpmath.mpc(arg.imag)
        if node.name == "abs2":
            return arg * mpmath.conj(arg)
        if node.name == "log":
            return mpmath.log(arg)
        if node.name == "exp":
            return mpmath.exp(arg)
    raise TypeError(f"unknown node {node!r}")


_CENTRAL = {
    0: {0: Fraction(1)},
    1: {-1: Fraction(-1, 2), 1: Fraction(1, 2)},
    2: {-1: Fraction(1), 0: Fraction(-2), 1: Fraction(1)},
    3: {-2: Fraction(-1, 2), -1: Fraction(1), 1: Fraction(-1), 2: Fraction(1, 2)},
    4: {-2: Fraction(1), -1: Fraction(-4), 0: Fraction(6), 1: Fraction(-4), 2: Fraction(1)},
}


def _wirtinger_to_real(a, b):
    """(d/dz)^a (d/dzbar)^b as {(px, py): complex coeff} over real partials."""
    out = {}
    for p1 in range(a + 1):
        for p2 in range(b + 1):
            px = p1 + p2
            py = (a - p1) + (b - p2)
            coeff = (
                math.comb(a, p1)
                * math.comb(b, p2)
                * (-1j) ** (a - p1)
                * (1j) ** (b - p2)
                / 2 ** (a + b)
            )
            out[(px, py)] = out.get((px, py), 0.0) + coeff
    return out


@functools.lru_cache(maxsize=None)
def _stencil_plan(m, max_order):
    """Every mixed Wirtinger partial (alpha, beta) of total order k <=
    max_order in C^m as (k, [(offset, coefficient)]): the partial is
    sum coefficient * f(z + h offset) / h^k.  Each partial expands into
    real-axis partials per complex variable, each real partial into a
    product of central stencils; the terms are summed per offset, once per
    (m, max_order).  Every coefficient is a dyadic rational times a power of
    i, so the float sums are exact."""
    plan = {}
    for alpha in itertools.product(range(max_order + 1), repeat=m):
        for beta in itertools.product(range(max_order + 1), repeat=m):
            if sum(alpha) + sum(beta) > max_order:
                continue
            per_var = [_wirtinger_to_real(alpha[j], beta[j]) for j in range(m)]
            terms = {}
            for combo in itertools.product(*[pv.items() for pv in per_var]):
                coeff = 1.0 + 0.0j
                axis_orders = []
                for (px, py), c in combo:
                    coeff *= c
                    axis_orders += [px, py]
                for offsets in itertools.product(*[_CENTRAL[k].items() for k in axis_orders]):
                    weight = Fraction(1)
                    for _, w in offsets:
                        weight *= w
                    off = tuple(o for o, _ in offsets)
                    terms[off] = terms.get(off, 0.0) + coeff * float(weight)
            plan[alpha, beta] = (sum(alpha) + sum(beta),
                                 [(off, mpmath.mpc(c)) for off, c in terms.items() if c != 0])
    return plan


def _fd_once(expr, params, point, max_order, hmp):
    m = expr.m
    cache = {}

    def value_at(offset):
        if offset not in cache:
            zs = [
                mpmath.mpc(point[j]) + hmp * (offset[2 * j] + 1j * offset[2 * j + 1])
                for j in range(m)
            ]
            cache[offset] = _eval_mp(expr.root, params, zs)
        return cache[offset]

    results = {}
    for key, (order, terms) in _stencil_plan(m, max_order).items():
        total = mpmath.mpc(0)
        for off, c in terms:
            total += c * value_at(off)
        results[key] = total / hmp**order
    return results


def fd_partials(expr, params, point, max_order=4, h=1e-3, dps=40):
    """All mixed Wirtinger partials up to max_order by central differences.

    Returns {(alpha, beta): complex}.  Function values are computed in
    ``dps``-digit arithmetic and shared across partials; one Richardson
    step (steps h and h/2) removes the leading h^2 truncation term.
    """
    point = [complex(z) for z in np.asarray(point, dtype=complex)]
    with mpmath.workdps(dps):
        coarse = _fd_once(expr, params, point, max_order, mpmath.mpf(h))
        fine = _fd_once(expr, params, point, max_order, mpmath.mpf(h) / 2)
        return {
            key: complex((4 * fine[key] - coarse[key]) / 3) for key in coarse
        }
