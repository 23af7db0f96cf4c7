import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crspectra.errors import (
    DivisionByZeroJet,
    IndexOutOfRange,
    JetOrderError,
    LogOfNonpositive,
)
from crspectra.expressions import parse
from crspectra.jets import Jet, JetSpace, graded_exponents, jet_space
from dense_jet import DenseJet
from fd_oracle import fd_partials


def test_coordinate_jet_basic():
    j = parse("z1", 1).jet({}, [2.0 + 0.0j, 0.0], 2)
    assert j.coefficient((0, 0), (0, 0)) == 2.0
    assert j.coefficient((1, 0), (0, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2


def test_conjugate_coordinate_jet():
    j = parse("conj(z1)", 1).jet({}, [2.0, 0.0], 2)
    assert j.coefficient((0, 0), (0, 0)) == 2.0
    assert j.coefficient((0, 0), (1, 0)) == 1.0


def test_coordinate_index_out_of_range():
    # z3 parses one dimension up, and its jet needs a third coordinate
    with pytest.raises(IndexOutOfRange):
        parse("z3", 2).jet({}, [1.0, 0.0], 4)


def test_order_cap():
    with pytest.raises(JetOrderError):
        jet_space(2, 5)


def _graded_exponents_by_sorting(m, order):
    """The exponent vectors of total <= order by plain enumeration and sort."""
    exps = (e for e in itertools.product(range(order + 1), repeat=2 * m) if sum(e) <= order)
    return sorted(exps, key=lambda e: (sum(e), e))


def _mul_table_by_pairs(space):
    """(i1, i2, out) by a loop over every pair of terms, sorted as tuples."""
    pairs = []
    for i1, (a1, b1) in enumerate(space.exps):
        for i2, (a2, b2) in enumerate(space.exps):
            if sum(a1) + sum(b1) + sum(a2) + sum(b2) > space.order:
                continue
            a = tuple(x + y for x, y in zip(a1, a2))
            b = tuple(x + y for x, y in zip(b1, b2))
            pairs.append((space.index[(a, b)], i1, i2))
    pairs.sort()
    return tuple(np.asarray([p[k] for p in pairs], dtype=np.intp) for k in (1, 2, 0))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_index_tables_match_enumeration(m, order):
    want = _graded_exponents_by_sorting(m, order)
    got = graded_exponents(m, order)
    assert got.shape == (len(want), 2 * m)
    assert got.tolist() == [list(e) for e in want]
    space = JetSpace(m, order)
    assert space.exps == [(e[:m], e[m:]) for e in want]
    for got_col, want_col in zip(space.mul_table(), _mul_table_by_pairs(space)):
        assert got_col.dtype == np.intp
        np.testing.assert_array_equal(got_col, want_col)


def test_modulus_squared_expansion():
    prod = parse("z1*conj(z1)", 1).jet({}, [2.0, 0.0], 2)
    assert prod.coefficient((0, 0), (0, 0)) == 4.0
    assert prod.coefficient((1, 0), (1, 0)) == 1.0


def test_log_of_one_is_zero():
    one = parse("log(1)", 1).jet({}, [0.5, 0.5], 4)
    assert np.max(np.abs(one.coeffs)) == 0.0


def test_exp_log_round_trip():
    # f = 3 + re(z1) + |z1|^2 at a generic point, to order 4, through the
    # expression program and through Jet.exp
    pt = [0.3 + 0.1j, 0.0]
    f = parse("3+re(z1)+abs2(z1)", 1).jet({}, pt, 4)
    back = parse("exp(log(3+re(z1)+abs2(z1)))", 1).jet({}, pt, 4)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14
    back = parse("log(3+re(z1)+abs2(z1))", 1).jet({}, pt, 4).exp()
    assert back.is_real
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-14


def test_partial_restores_factorials():
    pt = [1.0, 0.0]
    f = parse("(z1*z1)*(conj(z1)*conj(z1))", 1).jet({}, pt, 4)
    assert f.partial((2, 0), (2, 0)) == pytest.approx(4.0)
    g = parse("z1*conj(z1)", 1).jet({}, pt, 4)
    assert g.partial((1, 0), (1, 0)) == pytest.approx(1.0)


def test_division_by_zero_jet():
    with pytest.raises(DivisionByZeroJet):
        parse("1/z1", 1).jet({}, [0.0, 0.0], 2)


def test_log_of_nonpositive():
    with pytest.raises(LogOfNonpositive):
        parse("log(-1)", 1).jet({}, [0.0, 0.0], 2)


def _one(order, point):
    space = jet_space(2, order)
    coeffs = np.zeros(space.n_terms, dtype=complex)
    coeffs[0] = 1.0
    return Jet(space, point, coeffs, is_real=True)


def test_order_mismatch_rejected():
    a, b = _one(2, [0.0, 0.0]), _one(3, [0.0, 0.0])
    with pytest.raises(JetOrderError):
        a * b


def test_base_point_mismatch_rejected():
    a, b = _one(2, [0.0, 0.0]), _one(2, [1.0, 0.0])
    with pytest.raises(JetOrderError):
        a * b


def _random_real_jet(rng, pt, order=4):
    space = jet_space(2, order)
    coeffs = rng.standard_normal(space.n_terms) + 1j * rng.standard_normal(space.n_terms)
    raw = Jet(space, pt, coeffs)
    out = raw.hermitized()
    out.coeffs[0] = abs(out.coeffs[0]) + 1.5  # keep log/pow territory safe
    return out


@pytest.mark.parametrize("seed", range(5))
def test_reality_propagation(seed):
    rng = np.random.default_rng(seed)
    pt = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
    a = _random_real_jet(rng, pt)
    b = _random_real_jet(rng, pt)
    # the library's product and exp, then the reference algebra's operators
    da, db = DenseJet.of(a), DenseJet.of(b)
    for out in (a * b, a.exp(), da + db, da / db, da.log(), da.pow_real(0.7)):
        assert out.is_real
        assert out.reality_defect() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_conj_involution_and_products(seed):
    rng = np.random.default_rng(100 + seed)
    pt = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
    space = jet_space(2, 4)
    mk = lambda: Jet(space, pt, rng.standard_normal(space.n_terms)
                     + 1j * rng.standard_normal(space.n_terms))
    f, g = mk(), mk()
    assert np.allclose(f.conj().conj().coeffs, f.coeffs)
    assert np.allclose((f * g).conj().coeffs, (f.conj() * g.conj()).coeffs)


@given(st.integers(0, 4), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_pow_int_matches_repeated_mul(order, k):
    rng = np.random.default_rng(order * 100 + abs(k))
    space = jet_space(2, 4)
    pt = np.array([0.2, -0.3 + 0.4j])
    coeffs = rng.standard_normal(space.n_terms) * 0.3
    f = DenseJet(space, pt, coeffs + 0j)
    f.coeffs[0] = 2.0  # invertible
    direct = f.pow_int(k)
    expected = DenseJet.constant(2, pt, 1.0, 4)
    for _ in range(abs(k)):
        expected = expected * f if k > 0 else expected / f
    assert np.max(np.abs(direct.coeffs - expected.coeffs)) < 1e-12


def test_batched_jets_match_loop():
    pts = np.array([[0.1, 0.2], [0.5 + 0.5j, -0.2], [1.0, 0.0]], dtype=complex)
    z1 = parse("z1", 1)
    batched = z1.jet({}, pts, 3)
    prod = batched * batched.conj()
    for i in range(3):
        single = z1.jet({}, pts[i], 3)
        expect = single * single.conj()
        assert np.allclose(prod.coeffs[:, i], expect.coeffs)


@given(
    m=st.integers(1, 3),
    order=st.integers(0, 4),
    batch=st.sampled_from([(), (1,), (6,)]),
    zero_a=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    zero_b=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_restricted_product_matches_dense_reference(m, order, batch, zero_a, zero_b, seed):
    # zero share 0.0 leaves full support, 1.0 makes the operand all zero
    rng = np.random.default_rng(seed)
    space = jet_space(m, order)
    pt = rng.standard_normal(batch + (m,)) + 0j

    def random_jet(zero_share):
        shape = (space.n_terms,) + batch
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[rng.random(shape) < 0.2] = 0.0  # zero at some points only
        coeffs[rng.random(space.n_terms) < zero_share] = 0.0
        return Jet(space, pt, coeffs)

    a, b = random_jet(zero_a), random_jet(zero_b)
    got = (a * b).coeffs

    i1, i2, out = space.mul_table()
    starts = np.searchsorted(out, np.arange(space.n_terms))
    pairs = a.coeffs[i1] * b.coeffs[i2]
    dense = np.add.reduceat(pairs, starts, axis=0)
    scale = np.add.reduceat(np.abs(pairs), starts, axis=0)
    assert np.all(np.abs(got - dense) <= 1e-14 * scale)

    # exp runs the same kernel's Horner loop; the reference runs its own
    got_exp, ref_exp = a.exp().coeffs, DenseJet.of(a).exp().coeffs
    assert np.all(np.abs(got_exp - ref_exp) <= 1e-14 * np.max(np.abs(ref_exp), axis=0))

    support_a = [i for i in range(space.n_terms) if np.any(a.coeffs[i] != 0)]
    support_b = [i for i in range(space.n_terms) if np.any(b.coeffs[i] != 0)]
    closure = set()
    for i in support_a:
        for j in support_b:
            (a1, b1), (a2, b2) = space.exps[i], space.exps[j]
            key = (tuple(x + y for x, y in zip(a1, a2)),
                   tuple(x + y for x, y in zip(b1, b2)))
            if sum(key[0]) + sum(key[1]) <= order:
                closure.add(space.index[key])
    outside = [t for t in range(space.n_terms) if t not in closure]
    assert np.all(got[outside] == 0)


def test_derivative_shifts_and_rescales():
    f = parse("z1^2*conj(z1)^2", 1).jet({}, [0.4, 0.7j], 4)
    d = f.derivative((1, 0), (0, 0))  # 2 z zbar^2
    assert d.order == 3
    assert d.partial((1, 0), (2, 0)) == pytest.approx(4.0)


def test_fourth_order_partials_match_fd_oracle_example():
    e = parse("exp(z1*conj(z1)+z2*conj(z2))", 1)
    pt = np.array([0.3, 0.2 - 0.1j])
    jet = e.jet({}, pt, 4)
    fd = fd_partials(e, {}, pt, max_order=4, h=1e-3)
    for (alpha, beta), ref in fd.items():
        val = complex(jet.partial(alpha, beta))
        assert abs(val - ref) <= 1e-5 * max(1.0, abs(ref))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (5,)])
def test_read_offs_equal_partials(m, order, batch):
    rng = np.random.default_rng(100 * m + order)
    space = jet_space(m, order)
    shape = (space.n_terms,) + batch
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = Jet(space, np.zeros(batch + (m,)), coeffs)
    zero = (0,) * m
    eye = [tuple(int(t == s) for t in range(m)) for s in range(m)]
    grad, dbar = f.gradient(), f.dbar_gradient()
    assert grad.shape == dbar.shape == (m,) + batch
    assert grad.flags.c_contiguous and dbar.flags.c_contiguous
    for j in range(m):
        assert np.array_equal(grad[j], f.partial(eye[j], zero))
        assert np.array_equal(dbar[j], f.partial(zero, eye[j]))
    if order < 2:
        with pytest.raises(JetOrderError):
            f.mixed_hessian()
        return
    hess = f.mixed_hessian()
    assert hess.shape == (m, m) + batch
    assert hess.flags.c_contiguous
    for j in range(m):
        for k in range(m):
            assert np.array_equal(hess[j, k], f.partial(eye[j], eye[k]))
