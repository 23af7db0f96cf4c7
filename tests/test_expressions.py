import numpy as np
import pytest

from crspectra.errors import (
    ExpressionSyntaxError,
    IndexOutOfRange,
    UnboundParameter,
    UnknownIdentifier,
)
from crspectra.expressions import MAX_DEPTH, parse
from crspectra.reporting import run_job_data


def test_sphere_defining_function_parses():
    e = parse("abs2(z1)+abs2(z2)-1", 1)
    assert str(e) == "abs2(z1)+abs2(z2)-1"
    assert e.is_real


def test_normal_form_parses():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2 + gamma*(z1*conj(z1)^3 + z1^3*conj(z1))"
    e = parse(text, 1)
    assert e.parameters() == {"kappa", "gamma"}


def test_variable_index_validated_against_n():
    with pytest.raises(IndexOutOfRange):
        parse("abs2(z3)", 1)
    parse("abs2(z3)", 2)  # fine one dimension up


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("abs2(z1", 1)
    assert err.value.offset == 7


def test_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse("sin(z1)", 1)


def test_unbound_parameter():
    e = parse("kappa*abs2(z1)-1", 1)
    with pytest.raises(UnboundParameter):
        e.value({}, np.array([1.0, 0.0], dtype=complex))


def test_holomorphy_checks():
    assert parse("z1^2", 1).holomorphic
    assert not parse("conj(z1)", 1).holomorphic
    assert not parse("re(z1)", 1).holomorphic
    assert not parse("abs2(z1)", 1).holomorphic
    assert parse("exp(z1)*z2 - 3*i", 1).holomorphic


def test_conj_of_variable_becomes_conj_variable():
    e = parse("conj(z1)", 1)
    f = parse("conj(conj(z1))", 1)
    assert str(e) == "conj(z1)"
    assert str(f) == "z1"


def test_print_parse_round_trip_on_samples():
    samples = [
        "abs2(z1)+abs2(z2)-1",
        "-im(z2)+abs2(z1)+kappa*abs2(z1)^2",
        "(z1+z2)^3/(2+abs2(z1))",
        "pow(1.5+abs2(z1),0.5)-exp(0.2*z1*conj(z2))",
        "z1-(-z2)",
        "1/z1/z2",
        "2*(abs2(z1)+abs2(z2)-1)",
    ]
    for text in samples:
        e = parse(text, 1)
        again = parse(str(e), 1)
        assert again == e, text


def _random_tree_text(rng, depth=0):
    leaves = ["z1", "z2", "conj(z1)", "conj(z2)", "alpha",
              f"{rng.uniform(0.1, 2.0):.3f}", "i"]
    if depth > 3 or rng.random() < 0.3:
        return str(rng.choice(leaves))
    op = rng.choice(["+", "-", "*", "/", "^", "neg", "call"])
    a = _random_tree_text(rng, depth + 1)
    b = _random_tree_text(rng, depth + 1)
    if op == "^":
        return f"({a})^{int(rng.integers(0, 4))}"
    if op == "neg":
        return f"-({a})"
    if op == "call":
        fn = rng.choice(["abs2", "re", "im", "conj", "exp"])
        return f"{fn}({a})"
    return f"({a}){op}({b})"


@pytest.mark.parametrize("seed", range(20))
def test_print_parse_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    text = _random_tree_text(rng)
    e = parse(text, 1)
    assert parse(str(e), 1) == e


def test_order_zero_jet_matches_direct_eval():
    # 100 random expressions; skip draws that are singular at the point
    # (the jet path raises there, the direct path overflows)
    from crspectra.errors import DivisionByZeroJet, LogOfNonpositive

    params = {"alpha": 0.7}
    valid = 0
    seed = 0
    while valid < 100:
        rng = np.random.default_rng(3000 + seed)
        seed += 1
        e = parse(_random_tree_text(rng), 1)
        pts = rng.uniform(-0.8, 0.8, (1, 2)) + 1j * rng.uniform(-0.8, 0.8, (1, 2))
        try:
            jet = e.jet(params, pts, 0).constant_term()
        except (DivisionByZeroJet, LogOfNonpositive):
            continue
        direct = e.value(params, pts)
        if not np.all(np.isfinite(direct.view(float))):
            continue
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(jet - direct)) < 1e-15 * scale
        valid += 1


def test_real_flag_means_real_constant_term():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.8, 0.8, (50, 2)) + 1j * rng.uniform(-0.8, 0.8, (50, 2))
    for text in ["abs2(z1)+re(z2^2)", "im(z1*conj(z2))", "1.5+abs2(z1)*beta"]:
        e = parse(text, 1)
        assert e.is_real
        jet = e.jet({"beta": -0.4}, pts, 2)
        assert jet.is_real
        assert np.max(np.abs(jet.constant_term().imag)) <= 1e-15


def test_sphere_gradient_example():
    e = parse("abs2(z1)+abs2(z2)-1", 1)
    jet = e.jet({}, np.array([1.0, 0.0], dtype=complex), 1)
    assert jet.constant_term() == 0.0
    assert jet.partial((1, 0), (0, 0)) == pytest.approx(1.0)
    assert jet.partial((0, 1), (0, 0)) == pytest.approx(0.0)


def test_normal_form_jet_at_origin():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2"
    e = parse(text, 1)
    jet = e.jet({"kappa": 1.0}, np.zeros(2, dtype=complex), 2)
    assert jet.partial((0, 1), (0, 0)) == pytest.approx(0.5j)   # d/dw -Im w
    assert jet.partial((1, 0), (1, 0)) == pytest.approx(1.0)
    assert jet.partial((0, 1), (0, 1)) == pytest.approx(0.0)


def test_empty_expression_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("   ", 1)


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("z1 z2", 1)


@pytest.mark.parametrize(
    "text",
    ["(" * 2000 + "z1" + ")" * 2000, "-" * 2000 + "z1", "z1" + "+0*z1" * 1500],
    ids=["parentheses", "unary_minus", "long_sum"],
)
def test_expression_depth_is_bounded(tmp_path, text):
    with pytest.raises(ExpressionSyntaxError, match="nested deeper"):
        parse(text, 1)
    # inside a task the failure stays a per-task validation error
    job = {
        "dimension_n": 1,
        "defining_function": "abs2(z1)+abs2(z2)-1",
        "tasks": [{"kind": "invariance_check", "num_points": 2,
                   "defining_functions": ["abs2(z1)+abs2(z2)-1", text]}],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 2
    assert report["results"][0]["error"] == "ExpressionSyntaxError"


def test_expression_at_depth_limit_evaluates():
    # the deepest accepted tree: MAX_DEPTH - 1 nested calls around a leaf
    levels = MAX_DEPTH - 1
    e = parse("re(" * levels + "z1" + ")" * levels, 1)
    assert parse(str(e), 1) == e
    pt = np.array([0.3 + 0.2j, 0.1])
    assert e.jet({}, pt, 4).constant_term() == pytest.approx(0.3)
    assert e.value({}, pt) == pytest.approx(0.3)
