"""Property test of the job error contract: whatever a job dict holds,
``run_job_data`` ends in exit code 0, 2 or 3, or refuses the whole job with a
``ValidationError`` (which the command line prints as ``error:`` with exit 2).

Sizes are bounded so that no draw builds a large array: at most 4 points per
task, 64 Monte Carlo samples, hopf resolution 4 and basis degree 2.  File
names use the alphabet "ab." only, so every file a job writes stays under
``tmp_path``.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from crspectra.errors import ValidationError
from crspectra.reporting import TASK_KEYS, TASK_KINDS, canonical_json, run_job_data

NAMES = st.text(alphabet="ab.", max_size=3)

# a value of any JSON kind, standing in for a malformed field
ODD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.floats(-2.5, 2.5),
    st.sampled_from([float("nan"), float("inf")]),
    NAMES,
    st.lists(st.integers(0, 1), max_size=2),
    st.dictionaries(NAMES, st.integers(0, 1), max_size=1),
)


def mostly(valid):
    """Draws from ``valid``, and now and then a malformed value instead."""
    return st.integers(0, 7).flatmap(lambda k: ODD if k == 7 else valid)


SPHERE_N1 = "abs2(z1)+abs2(z2)-1"
SPHERE_N2 = "abs2(z1)+abs2(z2)+abs2(z3)-1"
# J = 1 > 0 and a negative definite Levi form: fails the pseudoconvexity test
FLIPPED_N2 = "-(abs2(z1)+abs2(z2)+abs2(z3)-1)"
# radius 70: every ray walks the search grid out to t = 1.5^11 before rho
# changes sign, and |rho| there rounds above 1e-12
SPHERE_R70 = "abs2(z1)+abs2(z2)-4900"
EXPRESSIONS = st.sampled_from([
    SPHERE_N1,
    SPHERE_N2,
    "abs2(z1)+abs2(z2)+a*re(z1^2)-1",     # needs params["a"]
    "-(abs2(z1)+abs2(z2)-1)",              # J < 0: a numerical failure
    FLIPPED_N2,
    SPHERE_R70,
    "abs2(z1)+abs2(z2)-1+0.01*i*re(z1)",  # not real-valued
    "abs2(z1",
])
MAPS = st.lists(
    mostly(st.one_of(st.sampled_from(["z1", "z2", "z3", "0.5*z1^2"]), EXPRESSIONS)),
    max_size=3,
)
POINTS = st.sampled_from([
    [[[1.0, 0.0], [0.0, 0.0]]],
    [[[0.6, 0.0], [0.0, 0.8]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[2.0, 0.0], [0.0, 0.0]]],                      # off the surface
    [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],          # n = 2 point
    [[[1.0, 0.0]]],                                  # too few coordinates
])
DECOMPOSITION = st.fixed_dictionaries({}, optional={
    "N": mostly(st.floats(1.0, 2.0)),
    "nu": mostly(st.floats(0.5, 2.0)),
    "psi": mostly(st.sampled_from(["0.1*re(z1^2)", "abs2(z1)"])),
    "f_maps": mostly(MAPS),
})
TASK_FIELDS = {
    "seed": mostly(st.integers(0, 3)),
    "points": mostly(POINTS),
    "csv": mostly(st.one_of(st.sampled_from(["t.csv", "missing/t.csv"]), NAMES)),
    "kernel_tol": mostly(st.floats(1e-8, 1e-4)),
    "check_monotonicity": mostly(st.booleans()),
    "paneitz_positive": mostly(st.booleans()),
    "j": mostly(st.integers(1, 3)),
    "decomposition": mostly(DECOMPOSITION),
    "F_maps": mostly(MAPS),
    "defining_functions": mostly(MAPS),
}
SIZE_FIELDS = {
    "num_points": mostly(st.integers(1, 4)),
    "degree": mostly(st.integers(0, 2)),
}


def task_of(kind, keys):
    """Tasks of ``kind`` with fields among ``keys``.  The size fields are
    always present, because their defaults exceed the bounds above."""
    return st.fixed_dictionaries(
        {"kind": kind, **{k: SIZE_FIELDS[k] for k in keys if k in SIZE_FIELDS}},
        optional={k: TASK_FIELDS[k] for k in keys if k in TASK_FIELDS},
    )


# One branch per kind with the fields that kind reads, so that every kind
# is drawn about as often; one with a kind that is none; and one with a kind
# and the fields of every kind, which no kind reads all of.
EVERY_FIELD = [*SIZE_FIELDS, *TASK_FIELDS]
TASK = st.one_of(
    [task_of(st.just(kind), keys) for kind, keys in TASK_KEYS.items()]
    + [task_of(ODD, EVERY_FIELD), task_of(st.sampled_from(TASK_KINDS), EVERY_FIELD)]
)
QUADRATURE = st.fixed_dictionaries(
    {
        "resolution": mostly(st.integers(2, 4)),
        "samples": mostly(st.integers(1, 64)),
    },
    optional={
        "type": mostly(st.sampled_from(["hopf_product", "monte_carlo"])),
        "seed": mostly(st.integers(0, 3)),
    },
)
JOB = st.fixed_dictionaries(
    {
        "dimension_n": mostly(st.sampled_from([1, 2])),
        "defining_function": mostly(EXPRESSIONS),
        "quadrature": mostly(QUADRATURE),
        "tasks": mostly(st.lists(TASK, min_size=1, max_size=3)),
    },
    optional={
        "params": mostly(st.dictionaries(
            st.sampled_from(["a", "b"]),
            mostly(st.one_of(st.floats(-0.2, 0.2), st.just(10**400))),
            max_size=2,
        )),
        "output": mostly(st.one_of(st.sampled_from(["r.json", "missing/r.json"]), NAMES)),
    },
)


def _job(tasks, **fields):
    return {"dimension_n": 1, "defining_function": SPHERE_N1,
            "quadrature": {"resolution": 4, "samples": 16}, "tasks": tasks, **fields}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(job=JOB)
@example(job=_job([{"kind": "curvature", "num_points": 2, "csv": 5}]))
@example(job=_job([{"kind": "curvature", "num_points": 2, "csv": "missing/t.csv"}]))
@example(job=_job([{"kind": "curvature", "num_points": 2}], output="missing/r.json"))
@example(job=_job([{"kind": "bound_reilly", "F_maps": ["z1", 5]}]))
@example(job=_job([{"kind": "invariance_check", "defining_functions": [SPHERE_N1, None]}]))
@example(job=_job([{"kind": "spectrum", "degree": True}]))
@example(job=_job([{"kind": "bound_special", "j": 1.5, "num_points": 2}]))
@example(job=_job([{"kind": "curvature", "num_points": 2, "seed": True}]))
@example(job=_job([{"kind": "curvature", "num_points": 2}], params={"a": True}))
@example(job=_job([{"kind": "curvature", "num_points": 10**400}]))
@example(job=_job([{"kind": "spectrum", "degree": 1}],
                  quadrature={"type": "monte_carlo", "samples": 10**400}))
@example(job=_job([{"kind": "spectrum", "degree": 1}],
                  quadrature={"type": "hopf_product", "resolution": 10**400}))
@example(job=_job([{"kind": "spectrum", "degre": 5}]))
@example(job=_job([{"kind": "bound_upper",
                    "decomposition": {"N": "1", "f_maps": ["z1", "z2"]}}]))
@example(job=_job([{"kind": "bound_upper",
                    "decomposition": {"nu": True, "f_maps": ["z1", "z2"]}}]))
@example(job=_job([{"kind": "bound_upper",
                    "decomposition": {"f_maps": ["z1", "z2"], "Nu": 2}}]))
@example(job=_job([{"kind": "bound_upper",
                    "decomposition": {"f_maps": ["z1", "z2"], "psi": ""}}]))
@example(job=_job([{"kind": "bound_reilly", "F_maps": ["z1", "z2"]}],
                  defining_function="-(abs2(z1)+abs2(z2)-1)"))
@example(job=_job([{"kind": "invariants", "points": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}],
                  dimension_n=2, defining_function=FLIPPED_N2))
@example(job=_job([{"kind": "curvature", "num_points": 3}], defining_function=SPHERE_R70))
def test_any_job_dict_ends_in_an_exit_code(tmp_path, job):
    try:
        report, code = run_job_data(job, base_dir=tmp_path)
    except ValidationError:
        return
    assert code in (0, 2, 3)
    canonical_json(report)  # the report is finite and serializable


def test_points_task_on_a_radius_70_sphere_succeeds(tmp_path):
    job = _job([{"kind": "curvature", "num_points": 3}], defining_function=SPHERE_R70)
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0, report
