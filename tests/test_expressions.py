import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crspectra.errors import (
    ExpressionSyntaxError,
    IndexOutOfRange,
    UnboundParameter,
    UnknownIdentifier,
)
from crspectra.expressions import MAX_CHARGES, MAX_DEPTH, parse
from crspectra.reporting import run_job_data


def test_sphere_defining_function_parses():
    e = parse("abs2(z1)+abs2(z2)-1", 1)
    assert str(e) == "abs2(z1)+abs2(z2)-1"
    assert e.is_real


def test_normal_form_parses():
    text = "-im(z2) + abs2(z1) + kappa*abs2(z1)^2 + gamma*(z1*conj(z1)^3 + z1^3*conj(z1))"
    parse(text, 1)


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
    assert f == parse("z1", 1) and f.root == parse("z1", 1).root


@pytest.mark.parametrize("a, b", [("z1+z2", "z1-z2"), ("z1*z2", "z1/z2"), ("z1", "conj(z1)")])
def test_node_identity_tells_shapes_apart(a, b):
    # the operator and the conjugation flag are fields of one node class each,
    # so they must take part in both == and hash
    e, f = parse(a, 1), parse(b, 1)
    assert e != f
    assert e.root != f.root and hash(e.root) != hash(f.root)
    assert hash(e) != hash(f)
    assert e == parse(a, 1) and hash(e.root) == hash(parse(a, 1).root)


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


# --- torus charges ------------------------------------------------------------


def _fixes(charges, shift, R):
    """True when the grid rotation z_j -> e^{2 pi i shift_j / R} z_j fixes
    every charge."""
    return all(sum(k * s for k, s in zip(c, shift)) % R == 0 for c in charges)


@pytest.mark.parametrize("text, charges", [
    ("abs2(z1)", {(0, 0)}),
    ("re(z1^2)", {(2, 0), (-2, 0)}),
    ("im(z1*conj(z2))", {(1, -1), (-1, 1)}),
    ("conj(z1)*z2^3", {(-1, 3)}),
    ("(z1+conj(z2))*z2", {(1, 1), (0, 0)}),
    ("z1^1000", {(1000, 0)}),
    ("kappa*abs2(z1)^2-(0.5+i)", {(0, 0)}),
    ("abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1", {(0, 0)}),
    # exp, log, pow and / keep the union of their arguments' sets
    ("exp(re(z1))", {(0, 0), (1, 0), (-1, 0)}),
    ("log(1+abs2(z1))", {(0, 0)}),
    ("pow(abs2(z1+z2),0.5)", {(0, 0), (1, -1), (-1, 1)}),
    ("z1/z2", {(0, 0), (1, 0), (0, 1)}),
])
def test_charges_read_off_the_tree(text, charges):
    expr = parse(text, 1)
    assert expr.charges == charges
    assert expr.charges is expr.charges     # read once per expression


def test_charges_read_no_numbers():
    # 0*z1 vanishes, but the tree still carries z1's charge
    assert parse("abs2(z1)+0*z1", 1).charges == {(0, 0), (1, 0)}


@pytest.mark.parametrize("text", ["exp(re(z1))", "abs2(exp(z1))", "exp(z1)*conj(z1)"])
def test_lattice_charges_survive_products(text):
    # the series of exp reaches every multiple of e1, so no product cancels
    # e1: |exp(z1)|^2 = exp(2 re z1) is not invariant under z1 -> -z1
    charges = parse(text, 1).charges
    assert not _fixes(charges, (1, 0), 32) and not _fixes(charges, (16, 0), 32)
    assert _fixes(charges, (0, 1), 32)


def test_large_charge_sets_fall_back_to_generators():
    # the 40th power would hold 861 charges; its generators still see that
    # the half turn of both coordinates negates the base, which abs2 undoes
    expr = parse("abs2((z1+z2+conj(z1))^40)", 1)
    assert len(expr.charges) <= 4 * MAX_CHARGES
    fixed = [s for s in np.ndindex(8, 8) if _fixes(expr.charges, s, 8)]
    assert fixed == [(0, 0), (4, 4)]


def _tree():
    leaves = st.sampled_from(["z1", "z2", "conj(z1)", "conj(z2)", "alpha", "i", "0.5"])

    def grow(inner):
        two = st.tuples(inner, inner)
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), two).map(
                lambda t: f"({t[1][0]}){t[0]}({t[1][1]})"),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["abs2", "re", "im", "conj", "exp", "log"]),
                      inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(["0.5", "-1", "1.5"])).map(
                lambda t: f"pow({t[0]},{t[1]})"),
        )

    return st.recursive(leaves, grow, max_leaves=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_tree(), seed=st.integers(0, 2**32 - 1))
def test_charges_claim_no_symmetry_the_values_break(text, seed):
    # every quarter-turn rotation that fixes the charges leaves the values
    # unchanged (multiplying by i is exact, so only the evaluation rounds)
    expr = parse(text, 1)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.8, 0.8, (5, 2)) + 1j * rng.uniform(-0.8, 0.8, (5, 2))
    turn = np.array([1, 1j, -1, -1j])
    with np.errstate(all="ignore"):
        base = expr.value({"alpha": 0.7}, pts)
        for shift in np.ndindex(4, 4):
            if _fixes(expr.charges, shift, 4):
                moved = expr.value({"alpha": 0.7}, pts * turn[list(shift)])
                finite = np.isfinite(base) & (np.abs(base) < 1e8)
                np.testing.assert_allclose(moved[finite], base[finite], rtol=1e-9, atol=1e-9)
