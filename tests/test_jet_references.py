"""The references that expression jets are checked against.

``verify`` checks the jets against Cauchy's formula by FFT
(``verification.cauchy_partials``), which reads the expression through
``_split_conj``: the tree rewritten as a holomorphic function of (z, conj z).
Here the rewrite is checked on the random expressions of ``verify`` and on
fixed trees that they never produce (``im``, and ``conj``/``re`` of
composites), and the jets are checked against the independent 40-digit
finite-difference oracle of ``fd_oracle`` on the random expressions.
"""

import numpy as np
import pytest

from crspectra.expressions import _eval_value, parse
from crspectra.verification import (
    NORMAL_FORM,
    _split_conj,
    cauchy_partials,
    jet_engine_cases,
    partial_errors,
)
from fd_oracle import fd_partials

NORMAL_FORM_PARAMS = {"kappa": 1.0, "gamma": 0.3}
FIXED = [
    (NORMAL_FORM, 1, NORMAL_FORM_PARAMS),
    ("conj(im(z1*conj(z2))+i*re(z1^2))", 1, {}),
    ("conj(conj(z1^2+i*z2)*abs2(re(z1)+im(z2)))", 1, {}),
    ("im(conj(z1)*z2)^2/(3+re(z2))", 1, {}),
    # the quartic of the curvature_n2 benchmark workload
    ("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1", 2, {}),
]
FIXED_CASES = [pytest.param(parse(text, n), params, id=text) for text, n, params in FIXED]
VERIFY_CASES = [
    pytest.param(expr, params, id=f"jet-engine-{k}")
    for k, (expr, params, _) in enumerate(jet_engine_cases())
]


@pytest.mark.parametrize("expr, params", FIXED_CASES + VERIFY_CASES)
def test_split_tree_at_z_and_conj_z_is_the_expression(expr, params):
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.8, 0.8, (200, expr.m)) + 1j * rng.uniform(-0.8, 0.8, (200, expr.m))
    split = _eval_value(_split_conj(expr.root, expr.m), params,
                        np.concatenate([z, np.conj(z)], axis=-1))
    value = expr.value(params, z)
    assert np.all(np.abs(split - value) <= 1e-13 * np.maximum(1.0, np.abs(value)))


@pytest.mark.parametrize("expr, params", FIXED_CASES)
def test_cauchy_partials_match_jets(expr, params):
    rng = np.random.default_rng(6)
    for point in rng.uniform(-0.5, 0.5, (3, expr.m)) + 1j * rng.uniform(-0.5, 0.5, (3, expr.m)):
        ref = cauchy_partials(expr, params, point, max_order=4)
        assert max(partial_errors(expr.jet(params, point, 4), ref)) <= 1e-8


def test_jets_match_fd_oracle_on_verify_expressions():
    errors = [
        err
        for expr, params, point in jet_engine_cases()
        for err in partial_errors(expr.jet(params, point, 4),
                                  fd_partials(expr, params, point, max_order=4))
    ]
    assert len(errors) == 4900
    assert max(errors) <= 1e-5
