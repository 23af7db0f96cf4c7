import dataclasses
import tracemalloc

import numpy as np
import pytest

from chart_oracle import ChartOracle
from crspectra.errors import (
    CholeskyFailure,
    IllConditionedGram,
    JobValidationError,
    NoPositiveEigenvalue,
)
from crspectra.expressions import parse
from crspectra.frames import build_frame
from crspectra.quadrature import QuadratureSettings, _Orbits, build_quadrature
from crspectra.spectral import (
    MAX_DEGREE,
    MonomialBasis,
    SpectralProblem,
    _galerkin_matrices,
    _galerkin_plan,
    _Monomials,
    assemble,
    estimate_lambda1,
    solve,
)
from crspectra.verification import sphere_spectrum_oracle

SPHERE = parse("abs2(z1)+abs2(z2)-1", 1)
SQUARED = parse("(abs2(z1)+abs2(z2))^2-1", 1)
ELLIPSOID = parse("abs2(z1)+abs2(z2)+0.1*re(z1^2)-1", 1)
# the Reinhardt pullback of the unit sphere of C^3 under (z1, z2, z1^2/2), and
# a function that no rotation of the phase grid fixes
REINHARDT = parse("abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1", 1)
NO_SYMMETRY = parse("abs2(z1)+abs2(z2)+0.1*re(z1)+0.1*re(z2)-1", 1)


@pytest.fixture(scope="module")
def sphere_rule():
    return build_quadrature(SPHERE, QuadratureSettings("hopf_product", resolution=32))


def _row(basis, holo, anti):
    """The index of the basis monomial z^holo conj(z)^anti."""
    return np.flatnonzero((basis.holo == holo).all(axis=1)
                          & (basis.anti == anti).all(axis=1)).item()


def test_basis_enumeration():
    basis = MonomialBasis.build(2, 2)
    assert len(basis) == 15
    assert _row(basis, (0, 0), (0, 0)) == 0
    assert np.all(basis.holo[0] == 0) and np.all(basis.anti[0] == 0)


def test_low_degree_gram_and_stiffness(sphere_rule):
    basis = MonomialBasis.build(2, 1)  # 1, z1, z2, zbar1, zbar2
    problem = assemble(sphere_rule, basis)
    S = problem.stiffness
    # only the two antiholomorphic monomials carry dbar energy
    rank = np.linalg.matrix_rank(S, tol=1e-8)
    assert rank == 2
    i1 = _row(basis, (0, 0), (1, 0))
    assert S[i1, i1].real / problem.gram[i1, i1].real == pytest.approx(1.0, abs=1e-10)
    assert problem.herm_deviation <= 1e-9


def test_herm_deviation_sees_a_non_hermitian_levi_inverse(sphere_rule):
    # the assembly reads h only above its diagonal, so the diagnostic reads h
    inv = sphere_rule.frame.inv.copy()
    h = inv[1:, 1:]  # the frame reads h off A^-1
    h[1, 0] += 1e-6
    h[0, 0] += 2e-6j
    frame = dataclasses.replace(sphere_rule.frame, inv=inv)
    rule = dataclasses.replace(sphere_rule, frame=frame)
    problem = assemble(rule, MonomialBasis.build(2, 1))
    assert problem.herm_deviation == pytest.approx(4e-6, rel=1e-6)


def test_herm_deviation_reads_h_at_the_orbit_representatives():
    # the rule holds h at one point per orbit, and the assembly reads it
    # there: a perturbation at one representative shows
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=8))
    basis = MonomialBasis.build(2, 1)
    assert assemble(rule, basis).herm_deviation < 1e-12
    inv = rule.frame.inv.copy()
    inv[2, 1, 5] += 1e-6     # h[1, 0] at the sixth representative
    perturbed = dataclasses.replace(rule, frame=dataclasses.replace(rule.frame, inv=inv))
    assert assemble(perturbed, basis).herm_deviation == pytest.approx(1e-6, rel=1e-6)


def test_assembly_memory_does_not_grow_with_the_rule():
    # each chunk's moments go into one running sum and h is checked chunk by
    # chunk, so the memory assemble allocates is the same at 4x the points
    # (it grew with the points when every chunk's partial was kept)
    rho = parse("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1", 2)
    basis = MonomialBasis.build(3, 3)
    _galerkin_plan(3, 3)    # built once per process, outside both measurements
    peaks = []
    for samples in (8192, 32768):
        rule = build_quadrature(rho, QuadratureSettings("monte_carlo", samples=samples, seed=1))
        tracemalloc.start()
        try:
            assemble(rule, basis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_sphere_degree3_table(sphere_rule):
    problem = assemble(sphere_rule, MonomialBasis.build(2, 3))
    result = solve(problem)
    table, kernel = sphere_spectrum_oracle(3, 1)
    assert result.kernel_dim == kernel == 10
    nonzero = np.sort(result.eigenvalues[result.eigenvalues > 1e-6])
    expected = np.sort(np.concatenate([[ev] * mult for ev, mult in table.items()]))
    assert nonzero.shape == expected.shape
    assert np.max(np.abs(nonzero - expected)) < 1e-8


def test_rescaled_sphere_lambda1():
    rule = build_quadrature(SQUARED, QuadratureSettings("hopf_product", resolution=32))
    problem = assemble(rule, MonomialBasis.build(2, 2))
    assert solve(problem).lambda1 == pytest.approx(0.5, abs=1e-6)


def test_degenerate_basis_has_no_positive_eigenvalue(sphere_rule):
    basis = MonomialBasis.build(2, 0)
    problem = assemble(sphere_rule, basis)
    with pytest.raises(NoPositiveEigenvalue):
        solve(problem)


def test_stiffness_positive_semidefinite(sphere_rule):
    problem = assemble(sphere_rule, MonomialBasis.build(2, 3))
    result = solve(problem)
    assert result.eigenvalues[0] >= -1e-9


def test_integration_by_parts_consistency():
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=24))
    problem = assemble(rule, MonomialBasis.build(2, 3))
    scale = max(1.0, float(np.max(np.abs(problem.stiffness))))
    assert problem.ibp_deviation <= 1e-8 * scale


def test_estimate_lambda1_monotone(sphere_rule):
    report = estimate_lambda1(sphere_rule, 4)
    assert report.monotone_ok
    assert report.lambda1 == pytest.approx(1.0, abs=1e-8)
    assert report.lambda1_by_degree[2] >= report.lambda1_by_degree[4] - 1e-9
    assert report.kernel_dim == 15  # holomorphic monomials of degree <= 4


@pytest.mark.parametrize("kernel_tol", [0.0, -1.0, 1.0, float("nan")])
def test_solve_refuses_a_kernel_tol_outside_the_unit_interval(sphere_rule, kernel_tol):
    problem = assemble(sphere_rule, MonomialBasis.build(2, 1))
    with pytest.raises(JobValidationError, match=r"kernel_tol must lie in \(0, 1\)"):
        solve(problem, kernel_tol=kernel_tol)


def test_solve_kernel_tol_sets_the_split(sphere_rule):
    # Ritz values on the round sphere: 0 (x10), 1 (x2), 2, ..., largest 4; a
    # threshold of 0.3 * 4 moves the two 1s into the kernel
    problem = assemble(sphere_rule, MonomialBasis.build(2, 3))
    default, wide = solve(problem), solve(problem, kernel_tol=0.3)
    assert np.array_equal(default.eigenvalues, wide.eigenvalues)
    assert (default.kernel_dim, wide.kernel_dim) == (10, 12)
    assert default.lambda1 == pytest.approx(1.0, abs=1e-9)
    assert wide.lambda1 == pytest.approx(2.0, abs=1e-9)
    report = estimate_lambda1(sphere_rule, 3, kernel_tol=0.3)
    assert (report.lambda1, report.kernel_dim) == (wide.lambda1, wide.kernel_dim)
    block = solve(problem.leading_block(2), kernel_tol=0.3).lambda1
    assert report.lambda1_by_degree[2] == block


def test_solve_error_paths():
    basis = MonomialBasis.build(2, 0)
    # indefinite "gram" matrix
    bad = SpectralProblem(
        gram=np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
        stiffness=np.eye(2, dtype=complex),
        basis=basis,
    )
    with pytest.raises(CholeskyFailure):
        solve(bad)
    # gray-zone eigenvalue: too large to drop, too small to trust
    gray = SpectralProblem(
        gram=np.diag([1.0, 10.0 ** -12.5]).astype(complex),
        stiffness=np.eye(2, dtype=complex),
        basis=basis,
    )
    with pytest.raises(IllConditionedGram):
        solve(gray)


def test_dropped_dimension_counts_surface_relations(sphere_rule):
    # multiples of the defining function of total degree <= 3 span a
    # 5-dimensional null space: rho * {1, z1, z2, zbar1, zbar2}
    problem = assemble(sphere_rule, MonomialBasis.build(2, 3))
    assert solve(problem).dropped_dim == 5


@pytest.mark.parametrize("m", [2, 3])
def test_lower_degree_basis_is_a_prefix(m):
    for d in range(1, MAX_DEGREE + 1):
        low, high = MonomialBasis.build(m, d - 1), MonomialBasis.build(m, d)
        assert np.array_equal(high.holo[: len(low)], low.holo)
        assert np.array_equal(high.anti[: len(low)], low.anti)
        assert np.array_equal(high.truncate(d - 1).holo, low.holo)


def test_lambda1_by_degree_matches_separate_assemblies():
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=16))
    report = estimate_lambda1(rule, 4)
    assert sorted(report.lambda1_by_degree) == [2, 3, 4]
    for d, lam in report.lambda1_by_degree.items():
        problem = assemble(rule, MonomialBasis.build(2, d))
        direct = solve(problem).lambda1
        assert abs(lam - direct) <= 1e-12 * abs(direct)


def test_leading_block_keeps_the_pencils_deviations():
    rule = build_quadrature(ELLIPSOID, QuadratureSettings("hopf_product", resolution=16))
    problem = assemble(rule, MonomialBasis.build(2, 4))
    for d in (2, 3):
        block = problem.leading_block(d)
        size = len(block.basis)
        assert np.array_equal(block.basis.holo, MonomialBasis.build(2, d).holo)
        assert np.array_equal(block.gram, problem.gram[:size, :size])
        assert np.array_equal(block.stiffness, problem.stiffness[:size, :size])
        assert block.herm_deviation == problem.herm_deviation
        assert block.ibp_deviation == problem.ibp_deviation
        # the whole pencil's deviations bound those of the block's own assembly
        own = assemble(rule, MonomialBasis.build(2, d))
        assert own.herm_deviation <= block.herm_deviation
        assert own.ibp_deviation <= block.ibp_deviation


def _direct_monomial(z, a, b, da=None, db=None):
    """a_j b_k z^(a - e_j) conj(z)^(b - e_k) by plain powers (shifts optional)."""
    a, b = a.astype(float), b.astype(float)
    factor = 1.0
    if da is not None:
        factor *= a[da]
        a[da] -= 1
    if db is not None:
        factor *= b[db]
        b[db] -= 1
    if factor == 0.0:
        return np.zeros(z.shape[0], dtype=complex)
    return factor * np.prod(z ** a, axis=1) * np.prod(np.conj(z) ** b, axis=1)


def _dense_reference(rule, basis):
    """G, S and the stiffness by parts from the basis values, dbar_k and
    d_j dbar_k at every rule point, each monomial evaluated by plain powers,
    with a frame built at every point; the Levi inverse comes from the chart
    oracle, not from frame.h."""
    z, w = rule.points, rule.weights
    frame = build_frame(rule.rho, z, rule.params)
    m, n = frame.m, frame.n
    pairs = list(zip(basis.holo, basis.anti))
    values = np.stack([_direct_monomial(z, a, b) for a, b in pairs], axis=1)
    dbar = np.stack([
        np.stack([_direct_monomial(z, a, b, db=k) for a, b in pairs], axis=1)
        for k in range(m)
    ], axis=1)
    h = ChartOracle(frame.grad, frame.hessian).ambient_levi_inverse()
    gram = (values * w[:, None]).T @ np.conj(values)
    stiffness = sum(
        (dbar[:, k] * (w * h[:, k, l])[:, None]).T @ np.conj(dbar[:, l])
        for k in range(m) for l in range(m)
    )
    box = n * np.einsum("kp,pkb->pb", np.conj(frame.xi), dbar)
    for j in range(m):
        for k in range(m):
            mixed = np.stack([_direct_monomial(z, a, b, da=j, db=k) for a, b in pairs], axis=1)
            box -= h[:, k, j, None] * mixed
    by_parts = (box * w[:, None]).T @ np.conj(values)
    return gram, stiffness, by_parts


@pytest.mark.parametrize(
    "rho,settings,top",
    [
        (ELLIPSOID, QuadratureSettings("hopf_product", resolution=12), 6),
        (REINHARDT, QuadratureSettings("hopf_product", resolution=12), 5),
        (NO_SYMMETRY, QuadratureSettings("hopf_product", resolution=12), 5),
        (parse("abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)-1", 2),
         QuadratureSettings("monte_carlo", samples=1500, seed=4), 5),
    ],
    ids=["hopf-m2", "hopf-reinhardt", "hopf-no-symmetry", "monte_carlo-m3"],
)
def test_moment_assembly_matches_dense_reference(rho, settings, top):
    rule = build_quadrature(rho, settings)
    reference = _dense_reference(rule, MonomialBasis.build(rho.m, top))
    for degree in range(top + 1):
        basis = MonomialBasis.build(rho.m, degree)
        size = len(basis)
        for mat, want in zip(_galerkin_matrices(rule, basis), reference):
            want = want[:size, :size]
            assert np.max(np.abs(mat - want)) <= 1e-13 * np.max(np.abs(want))


def test_galerkin_plan_built_once_per_dimension_and_degree(sphere_rule):
    # the plan holds no rule data; a pencil from the cached plan equals the
    # one from a fresh plan bit for bit, so no assembly writes into it
    _galerkin_plan.cache_clear()
    basis = MonomialBasis.build(2, 3)
    first, again = assemble(sphere_rule, basis), assemble(sphere_rule, basis)
    info = _galerkin_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(first.gram, again.gram)
    assert np.array_equal(first.stiffness, again.stiffness)
    assert first.ibp_deviation == again.ibp_deviation


# the charge chi = a - b of z^a conj(z)^b picks up e^{2 pi i chi.s / R} under
# a grid rotation s; the pullback is fixed by every rotation, so only equal
# charges meet, and the ellipsoid's re(z1^2) by the half turn of z1 and every
# rotation of z2, so chi_1 meets chi_1 mod 2
@pytest.mark.parametrize("rho, reps, same", [
    (REINHARDT, 32, lambda du, dv: (du == 0) & (dv == 0)),
    (ELLIPSOID, 32 * 16, lambda du, dv: (du % 2 == 0) & (dv == 0)),
], ids=["reinhardt", "ellipsoid"])
def test_orbit_assembly_matches_the_per_point_pencil(rho, reps, same, monkeypatch):
    rule = build_quadrature(rho, QuadratureSettings("hopf_product", resolution=32))
    basis = MonomialBasis.build(2, 4)
    per_point = _galerkin_matrices(
        dataclasses.replace(rule, frame=build_frame(rho, rule.points),
                            orbits=_Orbits.single(*rule.points.shape)), basis)
    seen = []
    table = _Monomials.table
    monkeypatch.setattr(_Monomials, "table", lambda self, v: seen.append(v.shape[1]) or table(self, v))
    orbit = _galerkin_matrices(rule, basis)
    assert sum(seen) == reps
    chi = basis.holo - basis.anti
    cross = ~same(chi[:, None, 0] - chi[None, :, 0], chi[:, None, 1] - chi[None, :, 1])
    assert cross.any()
    for mat, want in zip(orbit[:3], per_point[:3]):
        assert np.max(np.abs(mat - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.all(mat[cross] == 0)
