import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crspectra
from crspectra.cli import main
from crspectra.errors import JobValidationError
from crspectra.reporting import (
    CSV_COLUMNS, canonical_json, load_job, normalize_job, run_job_data,
)
from json_oracle import reference_csv, reference_json

SPHERE_JOB = {
    "dimension_n": 1,
    "defining_function": "abs2(z1)+abs2(z2)-1",
    "params": {},
    "quadrature": {"type": "hopf_product", "resolution": 12, "seed": 3},
    "tasks": [
        {"kind": "invariants", "num_points": 6},
        {"kind": "spectrum", "degree": 2, "check_monotonicity": False},
    ],
}


def test_canonical_json_formatting():
    payload = {"b": 1.0, "a": [0.1, 2, True, None], "c": {"x": 1e-17}}
    text = canonical_json(payload)
    assert text == '{"a":[0.10000000000000001,2,true,null],"b":1.0,"c":{"x":1.0000000000000001e-17}}'
    assert canonical_json(payload) == text  # stable
    # non-integral float tables are printed in one step; other lists go item by item
    payload = {
        "a": [2.0, -0.0, 1e16, 5e-324, 0.1],
        "b": [1.5, 2, True, -3.0],
        "c": [],
        "d": [[1.0, 2.5], (3, 0.25)],
        "e": np.array([0.5, -1.0]),
    }
    assert canonical_json(payload) == (
        '{"a":[2.0,-0.0,10000000000000000,4.9406564584124654e-324,0.10000000000000001],'
        '"b":[1.5,2,true,-3.0],"c":[],"d":[[1.0,2.5],[3,0.25]],"e":[0.5,-1.0]}'
    )


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": [1.0, float("nan")]})


def _table(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


# each is printed by the one-template table path, the item-by-item path, or
# a table path that falls back for some nests
CANONICAL_CASES = {
    "point_table": _table((5, 3, 2)).tolist(),
    "point_table_one_point": _table((1, 2, 2), 1).tolist(),
    "point_table_array": _table((4, 2, 2), 2),
    "report_like": {"points": _table((3, 2, 2), 3).tolist(), "r": _table(3, 4).tolist(),
                    "n": 2, "ok": True},
    "mixed": [0.5, 2, True, -3.0, None, "x"],
    "mixed_nest": [[1, 0.5], [True, 0.25], [0.125, False]],
    "ragged": [[0.5], [0.25, 0.125]],
    "ragged_depth": [[0.5, 0.25], 0.125],
    "tuples": ((0.5, 0.25), (0.125, 0.375)),
    "array_2d": _table((3, 4), 5),
    "float32": [np.float32(0.1), np.float32(0.7)],
    "float32_and_float": [[np.float32(0.1), 0.2], [0.3, np.float32(0.4)]],
    "float64_items": [np.float64(0.1), 0.3, np.float64(-2.5)],
    "negative_zero": [[0.5, -0.0], [0.25, 0.125]],
    "integral": [[2.0, 0.5], [0.25, 0.125]],
    "big_integral": [[1e16, 0.5], [0.25, 1e20]],
    "big_int": [[2**60, 0.5], [0.25, 10**17]],
    "integral_array": np.array([[2.0, 0.5], [-0.0, 1e16]]),
    "empty": [],
    "nested_empty": [[], []],
    "deep_empty": [[[]]],
    "empty_in_dict": {"a": [], "b": [[]], "c": ()},
    "complex": [1 + 2j, 0.5],
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_canonical_json_matches_item_by_item_reference(name):
    payload = CANONICAL_CASES[name]
    assert canonical_json(payload) == reference_json(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_in_a_nested_table_is_refused(bad):
    for payload in ([[0.5, bad], [0.25, 0.125]], [[0.5, 0.25], [bad]],
                    np.array([[0.5], [bad]])):
        with pytest.raises(ValueError):
            canonical_json({"x": payload})


def test_job_report_and_csv_match_item_by_item_reference(tmp_path):
    job = {
        "dimension_n": 2,
        "defining_function": "abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)-1",
        "tasks": [
            {"kind": "curvature", "num_points": 7, "csv": "sampled.csv"},
            {"kind": "invariants", "csv": "given.csv",
             "points": [[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.6, 0.8], [0.0, 0.0]]]},
            {"kind": "bound_lower", "num_points": 9},
        ],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    assert canonical_json(report) == reference_json(report)
    for entry in report["results"][:2]:
        result = entry["result"]
        text = (tmp_path / result["csv"]).read_text()
        assert text == reference_csv(result, CSV_COLUMNS)


def test_normalize_job_validates():
    with pytest.raises(JobValidationError):
        normalize_job({"dimension_n": 3, "defining_function": "z1", "tasks": []})
    with pytest.raises(JobValidationError):
        normalize_job({**SPHERE_JOB, "tasks": [{"kind": "nope"}]})
    with pytest.raises(JobValidationError):
        normalize_job({**SPHERE_JOB, "extra_key": 1})


def test_run_job_sphere(tmp_path):
    report, code = run_job_data(SPHERE_JOB, base_dir=tmp_path)
    assert code == 0
    inv, spec = report["results"]
    assert inv["status"] == "ok"
    assert np.allclose(inv["result"]["r"], 1.0)
    assert np.allclose(inv["result"]["J"], 1.0)
    assert np.allclose(inv["result"]["R_Theta"], 2.0)
    assert spec["result"]["lambda1"] == pytest.approx(1.0, abs=1e-8)


def test_report_determinism_bytes(tmp_path):
    r1, _ = run_job_data(SPHERE_JOB, base_dir=tmp_path)
    r2, _ = run_job_data(SPHERE_JOB, base_dir=tmp_path)
    assert canonical_json(r1) == canonical_json(r2)


def test_job_points_and_csv(tmp_path):
    job = {
        **SPHERE_JOB,
        "tasks": [
            {
                "kind": "curvature",
                "points": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                "csv": "table.csv",
            }
        ],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "point_re_1,point_im_1,point_re_2,point_im_2,r,J,detH,R_theta,D,R_Theta"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[4]) == pytest.approx(1.0)  # r at (1, 0)


def test_task_error_recorded_without_abort(tmp_path):
    job = {
        **SPHERE_JOB,
        "tasks": [
            {"kind": "bound_lower", "num_points": 4},  # n = 1 without flag
            {"kind": "invariants", "num_points": 4},
        ],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 2
    assert report["results"][0]["status"] == "error"
    assert report["results"][0]["error"] == "NotApplicable"
    assert report["results"][1]["status"] == "ok"


def test_invalid_expression_exit_code(tmp_path):
    job = {**SPHERE_JOB, "defining_function": "abs2(z3)"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["run", str(path)])
    assert code == 2


def test_numerical_failure_exit_code(tmp_path):
    job = {**SPHERE_JOB, "defining_function": "-(abs2(z1)+abs2(z2)-1)",
           "tasks": [{"kind": "invariants", "points": [[[1.0, 0.0], [0.0, 0.0]]]}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["run", str(path)])
    assert code == 3


# rho_{1 1bar} = 1e200 * 1e200 overflows to inf in the jet
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_non_finite_frame_is_a_task_error(tmp_path, capsys):
    # inf > 1e-9 x inf is false, so an infinite A0 passed the on-surface
    # check and its NaN frame reached the report, which refused to print it
    job = {"dimension_n": 1, "defining_function": "1e200*abs2(z1)*1e200+abs2(z2)-1",
           "tasks": [{"kind": "curvature", "points": [[[0, 0], [1, 0]]]}]}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["run", str(path)])
    assert code == 3
    entry = json.loads(capsys.readouterr().out.splitlines()[-1])["results"][0]
    assert entry["status"] == "error" and entry["error"] == "DegenerateFrame"
    assert entry["message"] == "non-finite bordered Hessian A0 at [0.+0.j 1.+0.j]"


def test_origin_outside_the_surface_is_a_validation_error(tmp_path):
    # the rays of every sampler start at the origin; rho(0) = 8 here
    job = {**SPHERE_JOB, "defining_function": "abs2(z1-3)+abs2(z2)-1",
           "tasks": [{"kind": "curvature", "num_points": 4},
                     {"kind": "spectrum", "degree": 1}]}
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 2
    for entry in report["results"]:
        assert entry["error"] == "JobValidationError"
        assert "rho(0) = 8.0" in entry["message"]


def test_run_job_writes_output(tmp_path):
    job = {**SPHERE_JOB, "output": "report.json"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    report, code = run_job_data(load_job(path), base_dir=path.parent)
    assert code == 0
    saved = json.loads((tmp_path / "report.json").read_text())
    assert saved["tool"]["name"] == "crspectra"
    assert saved["job"]["dimension_n"] == 1


@pytest.mark.parametrize("factor", ["1e9", "1e-9", "1e12"])
def test_invariance_check_accepts_a_rescaled_defining_function(tmp_path, factor):
    # |rho| on the sampled points grows with the factor (2.2e-7 at 1e9), but
    # so does |drho|: the frame's on-surface check is relative to both
    fns = ["abs2(z1)+abs2(z2)-1", f"{factor}*(abs2(z1)+abs2(z2)-1)"]
    job = {**SPHERE_JOB, "tasks": [{"kind": "invariance_check", "defining_functions": fns}]}
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    assert report["results"][0]["result"]["max_pairwise_diff"] < 1e-13


def test_invariance_check_refuses_another_surface(tmp_path):
    other = "abs2(z1)+abs2(z2)-1.01"
    job = {**SPHERE_JOB, "tasks": [
        {"kind": "invariance_check", "defining_functions": ["abs2(z1)+abs2(z2)-1", other]}]}
    report, code = run_job_data(job, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["error"] == "JobValidationError"
    assert str(crspectra.parse(other, 1)) in entry["message"]
    assert "does not vanish on the sampled surface" in entry["message"]


def test_cli_one_shot_invariants(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "invariants", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1",
        "--num-points", "4", "--resolution", "8", "--output", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"][0]["status"] == "ok"


def test_cli_output_in_missing_directory_is_a_validation_error(tmp_path, capsys):
    code = main([
        "invariants", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1", "--num-points", "2",
        "--output", str(tmp_path / "missing" / "r.json"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot write ")


def test_cli_bounds_upper(capsys):
    code = main([
        "bounds", "upper", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1",
        "--resolution", "12", "--f", "z1", "--f", "z2",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "value = 1" in text


def test_cli_spectrum_flag_overrides(capsys):
    code = main([
        "spectrum", "--rho", "(abs2(z1)+abs2(z2))^2-1", "--n", "1",
        "--degree", "2", "--resolution", "16",
    ])
    assert code == 0
    assert "lambda1 = 0.5" in capsys.readouterr().out


def test_cli_param_binding(capsys):
    code = main([
        "curvature", "--rho",
        "-im(z2) + abs2(z1) + kappa*abs2(z1)^2", "--n", "1",
        "--param", "kappa=1.0",
        "--points", "[[[0.0, 0.0], [0.0, 0.0]]]",
    ])
    assert code == 0
    assert "R_Theta" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, flags",
    [("params", ["--param", "a=1"]), ("quadrature", ["--resolution", "8"]),
     ("quadrature", ["--samples", "10"]), ("quadrature", ["--seed", "1"])],
    ids=["param", "resolution", "samples", "seed"],
)
def test_cli_override_of_a_non_object_block_is_a_validation_error(tmp_path, capsys,
                                                                   key, flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**SPHERE_JOB, key: [1, 2]}))
    assert main(["run", str(path), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} must be an object")


def test_cli_points_that_are_not_json_are_a_validation_error(capsys):
    code = main(["curvature", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1",
                 "--points", "[[[1, 0], [0, 0]]"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --points is not valid JSON")


@pytest.mark.parametrize("coordinate", [True, "1", 10**400], ids=["bool", "string", "huge_int"])
def test_point_coordinates_that_are_not_floats_are_validation_errors(tmp_path, capsys,
                                                                     coordinate):
    # np.asarray(..., dtype=float) reads true and "1" as 1.0 and overflows on
    # 10**400; each is refused through a job and through --points
    points = [[[coordinate, 0], [0, 0]]]
    task = {"kind": "curvature", "points": points}
    report, code = run_job_data({**SPHERE_JOB, "tasks": [task]}, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["error"] == "JobValidationError"
    assert entry["message"].startswith("points must")
    code = main(["curvature", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1",
                 "--points", json.dumps(points)])
    assert code == 2
    assert "JobValidationError: points must" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--num-points", "0"], ["--num-points", "-1"],
                                   ["--points", ""]],
                         ids=["num_points_0", "num_points_negative", "points_empty"])
def test_cli_empty_point_flags_are_validation_errors(capsys, flags):
    # none falls back to the default random points
    code = main(["curvature", "--rho", "abs2(z1)+abs2(z2)-1", "--n", "1", *flags])
    assert code == 2
    assert "R_Theta" not in capsys.readouterr().out


def test_cli_entry_point_subprocess():
    # the child finds the package where this process imported it from, so
    # the test also runs from a checkout without PYTHONPATH set
    src = str(Path(crspectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "crspectra.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "crspectra" in proc.stdout


def test_normal_form_curvature_job_value(tmp_path):
    job = {
        "dimension_n": 1,
        "defining_function": "-im(z2) + abs2(z1) + kappa*abs2(z1)^2 + gamma*(z1*conj(z1)^3 + z1^3*conj(z1))",
        "params": {"kappa": 1.0, "gamma": 0.3},
        "quadrature": {"type": "hopf_product", "resolution": 8},
        "tasks": [{"kind": "curvature", "points": [[[0.0, 0.0], [0.0, 0.0]]]}],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    value = report["results"][0]["result"]["R_Theta"][0]
    assert value == pytest.approx(2.0 ** (4.0 / 3.0), abs=1e-8)


def test_lower_bound_single_point_serializes(tmp_path):
    job = {
        **SPHERE_JOB,
        "tasks": [{"kind": "bound_lower", "num_points": 1, "paneitz_positive": True}],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    canonical_json(report)  # must not contain non-finite values


# the only grid rotation that fixes this function is the half turn of both
# coordinates, so its 13,824 rule points (resolution 24 cubed) fall into 6,912
# two-point orbits: two degree-3 assembly chunks of 4,096 representatives, so
# the Galerkin sums add up several chunks and drop the entries across charge
# classes (test_chunked_job_spans_assembly_chunks)
CHUNKED_JOB = {
    **SPHERE_JOB,
    "defining_function": "abs2(z1)+abs2(z2)+0.1*re(z1^2)+0.1*re(z1*z2)-1",
    "quadrature": {"type": "hopf_product", "resolution": 24, "seed": 3},
    "tasks": [{"kind": "spectrum", "degree": 3, "check_monotonicity": True}],
}
# 9,000 samples on the sphere: two Monte Carlo rule chunks of at most 8,192
# directions and three degree-3 assembly chunks of one-point orbits
CHUNKED_MONTE_CARLO_JOB = {
    **CHUNKED_JOB,
    "defining_function": SPHERE_JOB["defining_function"],
    "quadrature": {"type": "monte_carlo", "samples": 9000, "seed": 3},
}


def _assembly_chunk(job):
    from crspectra import spectral

    # a chunk tabulates the monomials of x2, y1, y2 up to degree 2 * degree
    degree = job["tasks"][0]["degree"]
    return spectral._chunk_points(len(spectral._Monomials(3, 2 * degree)))


def _job_rule(job):
    from crspectra.quadrature import QuadratureSettings, build_quadrature

    rho = crspectra.parse(job["defining_function"], job["dimension_n"])
    return build_quadrature(rho, QuadratureSettings(**job["quadrature"]))


def test_chunked_job_spans_assembly_chunks():
    rule = _job_rule(CHUNKED_JOB)
    assert len(rule) == 13_824 and len(rule.orbits.reps) == 6912
    assert rule.orbits.shifts.tolist() == [[0, 12], [0, 12]]
    assert _assembly_chunk(CHUNKED_JOB) == 4096


@pytest.mark.parametrize("job,chunks", [(CHUNKED_JOB, 2), (CHUNKED_MONTE_CARLO_JOB, 3)],
                         ids=["hopf_product", "monte_carlo"])
def test_running_sum_matches_stacked_chunk_sum(job, chunks, monkeypatch):
    # the Galerkin matrices from the running sum equal, bit for bit, those
    # from stacking every chunk's partial and summing along axis 0; the
    # assembly sums over the orbit representatives
    from crspectra import runtime, spectral

    rule = _job_rule(job)
    basis = spectral.MonomialBasis.build(rule.rho.m, job["tasks"][0]["degree"])
    assert len(runtime.chunk_slices(len(rule.orbits.reps), _assembly_chunk(job))) == chunks
    running = spectral._galerkin_matrices(rule, basis)
    monkeypatch.setattr(spectral, "sum_chunks", lambda fn, total, size: np.stack(
        [fn(sl) for sl in runtime.chunk_slices(total, size)]).sum(axis=0))
    stacked = spectral._galerkin_matrices(rule, basis)
    for got, want in zip(running, stacked):
        assert np.array_equal(got, want)


def _reports_at_blas_threads(job, tmp_path):
    """The stdout of ``crspectra run`` on ``job`` with BLAS on 1 and on 2
    threads, each in a fresh process."""
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    src = str(Path(crspectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for blas_threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas_threads}
        proc = subprocess.run(
            [sys.executable, "-m", "crspectra.cli", "run", str(job_path)],
            capture_output=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_blas_thread_count_does_not_change_report(tmp_path):
    outputs = _reports_at_blas_threads(CHUNKED_JOB, tmp_path)
    assert b'"status":"ok"' in outputs[0]
    assert outputs[0] == outputs[1]


# the surface, rule and tasks of the rule_n1 benchmark workload: at degree 5
# the Ritz values of the ill-conditioned tail move with the BLAS thread count
PULLBACK_MAPS = ["z1", "z2", "0.5*z1^2"]
PULLBACK_DEGREE5_JOB = {
    "dimension_n": 1,
    "defining_function": "abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1",
    "quadrature": {"type": "hopf_product", "resolution": 32, "seed": 0},
    "tasks": [
        {"kind": "bound_upper", "decomposition": {"N": 1, "nu": 1, "f_maps": PULLBACK_MAPS}},
        {"kind": "bound_reilly", "F_maps": PULLBACK_MAPS},
        {"kind": "bound_special", "j": 2, "num_points": 200, "seed": 0},
        {"kind": "bound_lower", "num_points": 200, "seed": 1, "paneitz_positive": True},
        {"kind": "spectrum", "degree": 5, "check_monotonicity": True},
    ],
}


def test_blas_thread_count_keeps_degree5_lambda1_and_bounds(tmp_path):
    outputs = _reports_at_blas_threads(PULLBACK_DEGREE5_JOB, tmp_path)
    one, two = ([entry["result"] for entry in json.loads(out.splitlines()[-1])["results"]]
                for out in outputs)
    assert [r.get("kind") for r in one] == [r.get("kind") for r in two]
    pairs = [(a["value"], b["value"]) for a, b in zip(one[:4], two[:4])]
    pairs.append((one[4]["lambda1"], two[4]["lambda1"]))
    for a, b in pairs:
        assert abs(a - b) <= 1e-12 * abs(a)


@pytest.mark.parametrize("degree", [9, 0])
def test_spectrum_degree_rejected_before_any_work(tmp_path, monkeypatch, degree):
    # degree 0 holds only the constant, so no Ritz value could be positive
    from crspectra import reporting, spectral

    ran = []
    monkeypatch.setattr(spectral, "assemble", lambda *a, **k: ran.append("assemble"))
    monkeypatch.setattr(reporting, "build_quadrature", lambda *a, **k: ran.append("rule"))
    job = {**SPHERE_JOB, "tasks": [{"kind": "spectrum", "degree": degree}]}
    report, code = run_job_data(job, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["error"] == "JobValidationError"
    assert f"got {degree}" in entry["message"]
    assert ran == []


@pytest.mark.parametrize("kernel_tol", [0, 2.0])
def test_spectrum_kernel_tol_outside_the_unit_interval_rejected_before_any_work(
        tmp_path, monkeypatch, kernel_tol):
    # at 0 a kernel Ritz value would pass as lambda1, at 1 or above none can
    from crspectra import reporting, spectral

    ran = []
    monkeypatch.setattr(spectral, "assemble", lambda *a, **k: ran.append("assemble"))
    monkeypatch.setattr(reporting, "build_quadrature", lambda *a, **k: ran.append("rule"))
    job = {**SPHERE_JOB, "tasks": [{"kind": "spectrum", "kernel_tol": kernel_tol}]}
    report, code = run_job_data(job, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["error"] == "JobValidationError"
    assert "kernel_tol must lie in (0, 1)" in entry["message"]
    assert ran == []


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "curvature", "num_points": 0},
        {"kind": "curvature", "num_points": -3},
        {"kind": "spectrum", "degree": "abc"},
        {"kind": "curvature", "seed": "x"},
        {"kind": "curvature", "points": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]]},
        {"kind": "bound_upper", "decomposition": {}},
        {"kind": "bound_reilly", "F_maps": []},
        {"kind": "bound_special", "j": "x"},
        {"kind": "spectrum", "kernel_tol": "x"},
        {"kind": "curvature", "num_points": 2, "csv": 5},
        {"kind": "curvature", "num_points": 2, "csv": "missing/t.csv"},
        {"kind": "bound_reilly", "F_maps": ["z1", 5]},
        {"kind": "invariance_check", "defining_functions": ["abs2(z1)+abs2(z2)-1", None]},
        {"kind": "spectrum", "degree": True},
        {"kind": "spectrum", "degree": 1.5},
        {"kind": "bound_special", "j": 1.5, "num_points": 2},
        {"kind": "curvature", "num_points": 2, "seed": True},
        {"kind": "curvature", "num_points": 2.5},
        {"kind": "spectrum", "kernel_tol": True},
        {"kind": "bound_upper", "decomposition": {"N": "1", "f_maps": ["z1", "z2"]}},
        {"kind": "bound_upper", "decomposition": {"nu": True, "f_maps": ["z1", "z2"]}},
        {"kind": "bound_upper", "decomposition": {"f_maps": ["z1", "z2"], "Nu": 2}},
        {"kind": "bound_upper", "decomposition": {"f_maps": ["z1", "z2"], "psi": None}},
        {"kind": "spectrum", "kernel_tol": 0},
        {"kind": "spectrum", "kernel_tol": -1},
        {"kind": "spectrum", "kernel_tol": 1},
    ],
    ids=["num_points_0", "num_points_negative", "degree_text", "seed_text",
         "ragged_points", "empty_decomposition", "empty_F_maps", "j_text",
         "kernel_tol_text", "csv_number", "csv_missing_directory", "F_maps_number",
         "defining_functions_null", "degree_true", "degree_fraction", "j_fraction",
         "seed_true", "num_points_fraction", "kernel_tol_true", "decomposition_N_text",
         "decomposition_nu_true", "decomposition_unknown_key", "decomposition_psi_null",
         "kernel_tol_0", "kernel_tol_negative", "kernel_tol_1"],
)
def test_malformed_task_fields_are_validation_errors(tmp_path, task):
    report, code = run_job_data({**SPHERE_JOB, "tasks": [task]}, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["status"] == "error"
    assert entry["error"] == "JobValidationError"


def test_empty_decomposition_psi_is_an_expression_error(tmp_path):
    dec = {"f_maps": ["z1", "z2"], "psi": ""}
    report, code = run_job_data({**SPHERE_JOB, "tasks": [
        {"kind": "bound_upper", "decomposition": dec}]}, base_dir=tmp_path)
    assert code == 2
    assert report["results"][0]["error"] == "ExpressionSyntaxError"


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "spectrum", "degre": 5},
        {"kind": "curvature", "num_points": 2, "degree": 2},
        {"kind": "bound_reilly", "F_maps": ["z1", "z2"], "seed": 1},
        {"kind": "bound_upper", "decomposition": {"f_maps": ["z1", "z2"]}, "csv": "t.csv"},
    ],
    ids=["spectrum_misspelled_degree", "curvature_degree", "reilly_seed", "upper_csv"],
)
def test_unknown_task_keys_refuse_the_job(tmp_path, task):
    with pytest.raises(JobValidationError, match="task 0: unknown"):
        run_job_data({**SPHERE_JOB, "tasks": [task]}, base_dir=tmp_path)


def test_every_task_key_of_a_kind_is_accepted():
    from crspectra.reporting import TASK_KEYS

    tasks = [{"kind": kind, **dict.fromkeys(keys)} for kind, keys in TASK_KEYS.items()]
    assert len(normalize_job({**SPHERE_JOB, "tasks": tasks})["tasks"]) == len(TASK_KEYS)


# rho(0) < 0, and every ray from the origin leaves {rho < 0} at |z| = 0.5 and
# meets M again at |z| = 1.2, where rho falls along the ray; the projection
# takes that crossing, in the grid bracket [1, 1.5] next to t = 1, and the Levi
# form of rho is negative definite
_INWARD_SHELL = "-(abs2(z1)+abs2(z2)+abs2(z3)-0.25)*(abs2(z1)+abs2(z2)+abs2(z3)-1.44)"


def test_frame_error_reported_by_every_rule_task(tmp_path):
    # the rule is built with its defining function's frame, so a surface
    # that is not strictly pseudoconvex fails every task that takes the
    # rule, bound_reilly included, although its bound uses the pullback frame
    maps = ["z1", "z2", "z3"]
    job = {
        "dimension_n": 2,
        "defining_function": _INWARD_SHELL,
        "quadrature": {"type": "monte_carlo", "samples": 50},
        "tasks": [
            {"kind": "bound_reilly", "F_maps": maps},
            {"kind": "spectrum", "degree": 1},
            {"kind": "bound_upper", "decomposition": {"f_maps": maps}},
        ],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 3
    assert [e["error"] for e in report["results"]] == ["NotStrictlyPseudoconvex"] * 3


def test_failed_rule_built_once_per_job(tmp_path, monkeypatch):
    from crspectra import reporting

    calls = []
    original = reporting.build_quadrature

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(reporting, "build_quadrature", counting)
    maps = ["z1", "z2", "z3"]
    job = {
        "dimension_n": 2,
        "defining_function": _INWARD_SHELL,
        "quadrature": {"type": "monte_carlo", "samples": 50},
        "tasks": [
            {"kind": "bound_reilly", "F_maps": maps},
            {"kind": "spectrum", "degree": 1},
            {"kind": "bound_upper", "decomposition": {"f_maps": maps}},
        ],
    }
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 3
    assert [e["error"] for e in report["results"]] == ["NotStrictlyPseudoconvex"] * 3
    assert len({e["message"] for e in report["results"]}) == 1
    assert len(calls) == 1


def test_verify_takes_no_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--resolution", "16"])
    assert exc.value.code == 2
    assert "--resolution" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "change, level, field",
    [
        ({"tasks": [{"kind": "curvature", "points": [[[NAN, 0.0], [0.0, 0.0]]]}]},
         "task", "points"),
        ({"tasks": [{"kind": "curvature", "points": [[[1.0, 0.0], [INF, 0.0]]]}]},
         "task", "points"),
        ({"tasks": [{"kind": "bound_reilly", "F_maps": ["1e400*z1", "z2"]}]},
         "task", "1e400"),
        ({"defining_function": "abs2(z1)+abs2(z2)-1e400"}, "job", "1e400"),
        ({"params": {"a": NAN}}, "job", "params['a']"),
        ({"params": {"a": -INF}}, "job", "params['a']"),
        ({"tasks": [{"kind": "spectrum", "kernel_tol": NAN}]}, "task", "kernel_tol"),
        ({"tasks": [{"kind": "bound_upper",
                     "decomposition": {"N": INF, "f_maps": ["z1", "z2"]}}]},
         "task", "decomposition N"),
    ],
    ids=["nan_point", "inf_point", "literal_in_task", "literal_in_rho",
         "nan_param", "inf_param", "nan_kernel_tol", "inf_N"],
)
def test_non_finite_inputs_are_validation_errors(tmp_path, capsys, change, level, field):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**SPHERE_JOB, **change}))  # NaN/Infinity tokens
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    if level == "job":  # refused before any task runs
        assert err.startswith("error: ") and field in err
    else:
        entry = json.loads(out.splitlines()[-1])["results"][0]
        assert entry["status"] == "error"
        assert entry["error"] in ("JobValidationError", "ExpressionSyntaxError")
        assert field in entry["message"]


UPPER_AND_SPECTRUM_TASKS = [
    {"kind": "bound_upper", "decomposition": {"N": 1, "nu": 1, "f_maps": ["z1", "z2"]}},
    {"kind": "spectrum", "degree": 4, "check_monotonicity": True},
]


def test_rule_frame_built_once_per_job(tmp_path, monkeypatch):
    from crspectra import frames

    sizes = []
    original = frames.frame_from_bordered

    def counting(point, *args, **kwargs):
        sizes.append(int(np.prod(np.shape(point)[:-1])))
        return original(point, *args, **kwargs)

    monkeypatch.setattr(frames, "frame_from_bordered", counting)
    job = {**SPHERE_JOB, "tasks": UPPER_AND_SPECTRUM_TASKS}
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    # the sphere is Reinhardt, so the rule's frame is built once, at one point
    # per torus orbit: one per colatitude node of the grid
    rule_points = report["results"][1]["result"]["quadrature"]["points"]
    resolution = SPHERE_JOB["quadrature"]["resolution"]
    assert rule_points == resolution**3
    assert sizes.count(resolution) == 1 and rule_points not in sizes


def test_rule_defining_function_jet_evaluated_once(tmp_path, monkeypatch):
    from crspectra.expressions import Expression

    rho_text = str(crspectra.parse(SPHERE_JOB["defining_function"], 1))
    points = []
    original = Expression.jet

    def counting(self, params, point, order):
        if order == 2 and str(self) == rho_text:
            points.append(int(np.prod(np.shape(point)[:-1])))
        return original(self, params, point, order)

    monkeypatch.setattr(Expression, "jet", counting)
    job = {**SPHERE_JOB, "tasks": UPPER_AND_SPECTRUM_TASKS}
    report, code = run_job_data(job, base_dir=tmp_path)
    assert code == 0
    # the rule's frame reads the order-2 jet at its orbit representatives,
    # one per colatitude node of the grid of the Reinhardt sphere; the bound
    # and the spectrum share that frame
    assert sum(points) == SPHERE_JOB["quadrature"]["resolution"]


FLAG_TASKS = {"paneitz_positive": {"kind": "bound_lower", "num_points": 5},
              "check_monotonicity": {"kind": "spectrum", "degree": 1}}


@pytest.mark.parametrize(
    "flag, value",
    [("paneitz_positive", "false"), ("paneitz_positive", 1), ("paneitz_positive", None),
     ("check_monotonicity", "no"), ("check_monotonicity", 0)],
    ids=["paneitz_text_false", "paneitz_one", "paneitz_null", "monotonicity_text_no",
         "monotonicity_zero"],
)
def test_task_flags_must_be_json_booleans(tmp_path, flag, value):
    task = {**FLAG_TASKS[flag], flag: value}
    report, code = run_job_data({**SPHERE_JOB, "tasks": [task]}, base_dir=tmp_path)
    entry = report["results"][0]
    assert code == 2
    assert entry["status"] == "error"
    assert entry["error"] == "JobValidationError"
    assert flag in entry["message"]


@pytest.mark.parametrize(
    "quadrature, field",
    [
        ({"type": "gauss"}, "type"),
        ({"type": 3}, "type"),
        ({"resolution": "abc"}, "resolution"),
        ({"resolution": None}, "resolution"),
        ({"resolution": 2.5}, "resolution"),
        ({"resolution": True}, "resolution"),
        ({"resolution": 1}, "resolution"),
        ({"samples": "x"}, "samples"),
        ({"samples": 1.5}, "samples"),
        ({"samples": 0}, "samples"),
        ({"seed": "x"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
        ("hopf_product", "object"),
    ],
    ids=["type_unknown", "type_number", "resolution_text", "resolution_null",
         "resolution_fraction", "resolution_bool", "resolution_1", "samples_text",
         "samples_fraction", "samples_0", "seed_text", "seed_negative", "seed_fraction",
         "seed_bool", "not_an_object"],
)
def test_malformed_quadrature_settings_are_validation_errors(tmp_path, capsys, quadrature,
                                                             field):
    job = {**SPHERE_JOB, "quadrature": quadrature, "tasks": UPPER_AND_SPECTRUM_TASKS[:1]}
    with pytest.raises(JobValidationError, match=field):
        run_job_data(job, base_dir=tmp_path)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    assert main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_integral_float_quadrature_settings_are_accepted():
    job = normalize_job({**SPHERE_JOB, "quadrature": {"resolution": 12.0, "seed": 3.0}})
    assert job["quadrature"]["resolution"] == 12 and job["quadrature"]["seed"] == 3


@pytest.mark.parametrize("change, field",
                         [({"params": {"a": True}}, "params['a']"),
                          ({"dimension_n": True}, "dimension_n")],
                         ids=["param_true", "dimension_true"])
def test_boolean_job_numbers_are_validation_errors(tmp_path, change, field):
    with pytest.raises(JobValidationError, match=re.escape(field)):
        run_job_data({**SPHERE_JOB, **change}, base_dir=tmp_path)


def test_integral_float_task_numbers_are_accepted(tmp_path):
    task = {"kind": "bound_special", "j": 2.0, "num_points": 3.0, "seed": 1.0}
    report, code = run_job_data({**SPHERE_JOB, "tasks": [task]}, base_dir=tmp_path)
    assert code == 0
    result = report["results"][0]["result"]
    assert result["diagnostics"]["j"] == 2 and result["diagnostics"]["sample_count"] == 3


_PULLBACK_MAPS = ["z1", "z2", "0.5*z1^2"]
# a rule job of every rule and bound kind: the pullback of the unit sphere of
# C^3 under (z1, z2, z1^2/2), on a resolution-16 rule of 4,096 points
RULE_JOB = {
    "dimension_n": 1,
    "defining_function": "abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1",
    "quadrature": {"type": "hopf_product", "resolution": 16},
    "tasks": [
        {"kind": "bound_upper", "decomposition": {"N": 1, "nu": 1, "f_maps": _PULLBACK_MAPS}},
        {"kind": "bound_reilly", "F_maps": _PULLBACK_MAPS},
        {"kind": "bound_special", "j": 2, "num_points": 200},
        {"kind": "bound_lower", "num_points": 200, "paneitz_positive": True},
        {"kind": "spectrum", "degree": 5, "check_monotonicity": True},
    ],
}
_PEAK_LOOP = """
import json, resource, sys
from crspectra.reporting import run_job_data
job, peaks = json.loads(sys.argv[1]), []
for _ in range(10):
    assert run_job_data(job)[1] == 0
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(json.dumps(peaks))
"""


def test_peak_memory_steady_over_repeated_jobs():
    # the peak resident set of one interpreter running the same job again and
    # again settles after a few jobs: what one job frees, the next reuses.
    # Growth from job 3 to job 10 read 0 to 2.6 MiB over 85 runs on Linux,
    # hence the 8 MiB margin; keeping each job's rule alive adds about
    # 10.5 MiB
    pytest.importorskip("resource")
    src = str(Path(crspectra.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_LOOP, json.dumps(RULE_JOB)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout)
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in KiB on Linux
    assert (peaks[9] - peaks[2]) * unit < 8 * 2**20, peaks
