"""Expression jets, which run a program lowered once over static supports,
against a reference evaluator that composes the dense reference algebra of
``dense_jet`` along the tree."""

import operator
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crspectra.errors import (
    DivisionByZeroJet,
    LogOfNonpositive,
    NotRealValued,
    UnboundParameter,
)
from crspectra.expressions import BinOp, Call, Literal, Neg, Param, PowInt, Var, parse
from crspectra.verification import random_expression
from dense_jet import DenseJet

JET_ERRORS = (DivisionByZeroJet, LogOfNonpositive, NotRealValued, UnboundParameter)
PARAMS = {"alpha": 0.7}
BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def oracle(node, params, point, order):
    """The jet of ``node`` by dense reference arithmetic, node by node."""
    m = point.shape[-1]

    def go(node):
        if isinstance(node, Literal):
            return DenseJet.constant(m, point, np.full(point.shape[:-1], node.value), order)
        if isinstance(node, Param):
            if node.name not in params:
                raise UnboundParameter(node.name)
            return DenseJet.constant(m, point, np.full(point.shape[:-1],
                                                       float(params[node.name])), order)
        if isinstance(node, Var):
            kind = "antiholomorphic" if node.conj else "holomorphic"
            return DenseJet.variable(point, node.index, kind, order)
        if isinstance(node, Neg):
            return -go(node.arg)
        if isinstance(node, BinOp):
            return BINOPS[node.op](go(node.left), go(node.right))
        if isinstance(node, PowInt):
            return go(node.base).pow_int(node.exponent)
        if node.name == "pow":
            s = node.args[1].value.real
            base = go(node.args[0])
            return base.pow_int(int(s)) if s == int(s) else base.pow_real(s)
        arg = go(node.args[0])
        if node.name == "abs2":
            return (arg * arg.conj()).copy(True)
        return {"conj": arg.conj, "re": arg.real_part, "im": arg.imag_part,
                "log": arg.log, "exp": arg.exp}[node.name]()

    return go(node)


def _tree(m):
    leaves = st.sampled_from(
        [f"z{j}" for j in range(1, m + 1)] + [f"conj(z{j})" for j in range(1, m + 1)]
        + ["alpha", "beta", "i", "0", "0.5", "1.7", "(0.3+2*i)"]
    )

    def grow(inner):
        two = st.tuples(inner, inner)
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), two).map(
                lambda t: f"({t[1][0]}){t[0]}({t[1][1]})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda a: f"-({a})"),
            st.tuples(st.sampled_from(["abs2", "re", "im", "conj", "exp", "log"]),
                      inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(["0.5", "-1", "2", "-0.5", "1.5"])).map(
                lambda t: f"pow({t[0]},{t[1]})"),
        )

    return st.recursive(leaves, grow, max_leaves=8)


CASES = st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), _tree(m)))
BATCHES = st.sampled_from([(), (1,), (7,)])


def _points(seed, m, batch):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.8, 0.8, batch + (m,)) + 1j * rng.uniform(-0.8, 0.8, batch + (m,))
    if batch == (7,):
        pts[1] = 0.0  # zero coefficients that are nonzero at the other points
        pts[2, 0] = 0.0
    return pts


def _agree(expr, params, pts, order):
    with np.errstate(all="ignore"):
        try:
            ref = oracle(expr.root, params, pts, order)
        except JET_ERRORS as exc:
            with pytest.raises(type(exc)):
                expr.jet(params, pts, order)
            return
        out = expr.jet(params, pts, order)
    assert out.is_real == (ref.is_real or expr.is_real)
    assert out.coeffs.shape == ref.coeffs.shape
    finite = np.isfinite(ref.coeffs)
    scale = max(1.0, float(np.max(np.abs(ref.coeffs[finite]), initial=0.0)))
    np.testing.assert_allclose(out.coeffs, ref.coeffs, rtol=1e-14, atol=1e-14 * scale,
                               equal_nan=True)
    # the static support holds every term the reference can make nonzero
    program = expr._programs[(pts.shape[-1], order)]
    outside = np.ones(out.coeffs.shape[0], dtype=bool)
    outside[list(program.supports[program.root])] = False
    assert not np.any(ref.coeffs[outside])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=CASES, order=st.integers(0, 4), batch=BATCHES, seed=st.integers(0, 2**32 - 1),
       bind_beta=st.booleans())
def test_program_matches_dense_jet_oracle(case, order, batch, seed, bind_beta):
    m, text = case
    expr = parse(text, m - 1)
    params = {**PARAMS, "beta": -1.3} if bind_beta else PARAMS
    _agree(expr, params, _points(seed, m, batch), order)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 2), order=st.integers(0, 4), batch=BATCHES,
       seed=st.integers(0, 2**32 - 1))
def test_program_matches_oracle_on_verify_expressions(n, order, batch, seed):
    expr, params, point = random_expression(np.random.default_rng(seed), n)
    pts = point + 0.05 * _points(seed, n + 1, batch)
    _agree(expr, params, pts, order)


def test_points_alone_and_in_a_batch_give_bit_equal_jets():
    rng = np.random.default_rng(11)
    texts = [
        "abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1",
        "(abs2(z1)+abs2(z2)+abs2(z3)-1)*(2+re(z1))",
        "exp(z1*conj(z2))/(2+abs2(z3))+log(1.5+abs2(z1-z2))*(0.3+i)",
        "pow(1.5+abs2(z1^2+conj(z3)),0.5)-im(z2^3)",
    ]
    pts = rng.uniform(-0.8, 0.8, (9, 3)) + 1j * rng.uniform(-0.8, 0.8, (9, 3))
    pts[3] = 0.0
    pts[5, 1] = 0.0
    for text in texts:
        expr = parse(text, 2)
        for order in range(5):
            batch = expr.jet({}, pts, order).coeffs
            for p in range(pts.shape[0]):
                alone = expr.jet({}, pts[p], order).coeffs
                assert np.array_equal(alone, batch[:, p]), (text, order, p)


@pytest.mark.parametrize(
    "text, z1, value, error",
    [("log(z1)", 1 + 1j, np.log(1 + 1j), NotRealValued),
     ("pow(z1,0.5)", 1 + 1j, np.power(1 + 1j, 0.5), NotRealValued),
     ("log(re(z1)-2)", 0.5, np.log(-1.5 + 0j), LogOfNonpositive),
     ("pow(re(z1)-2,1.5)", 0.5, np.power(-1.5 + 0j, 1.5), LogOfNonpositive)],
)
def test_value_path_takes_a_complex_log_or_pow_base_the_jet_path_refuses(text, z1, value,
                                                                          error):
    expr = parse(text, 1)
    point = np.array([z1, 0.0], dtype=complex)
    assert expr.value({}, point) == pytest.approx(value, rel=1e-15)
    with pytest.raises(error):
        expr.jet({}, point, 0)


def test_threads_racing_to_lower_a_program_get_one_answer():
    text = "exp(z1*conj(z2))/(2+abs2(z3))+abs2(z1)^2+re(z2^3)"
    pts = np.random.default_rng(3).normal(size=(5, 3)) * (1 + 0.5j)
    expected = {order: parse(text, 2).jet({}, pts, order).coeffs for order in (3, 4)}
    failures = []

    def worker(expr, barrier):
        barrier.wait()
        for order in (4, 3, 4):
            got = expr.jet({}, pts, order).coeffs
            if not np.array_equal(got, expected[order]):
                failures.append(order)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            expr = parse(text, 2)  # a fresh cache each round
            barrier = threading.Barrier(8)
            threads = [threading.Thread(target=worker, args=(expr, barrier))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert failures == []
