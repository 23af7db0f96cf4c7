"""Job execution and deterministic report serialization.

Reports are canonical JSON: keys sorted, floats printed with 17 significant
digits (integral floats below 1e16 with one decimal, "1.0"), no whitespace
variation, so a job with a fixed seed produces byte-identical bytes on every
run.

Point tables and result columns are printed a table at a time: a list nest
that numpy reads as a rectangular float64 array with no integral value is
printed by one %-template that holds the nest's brackets and one %.17g
field per value.  Any other nest (ragged, with ints, bools, integral floats
or non-finite values) is printed item by item, so the bytes are those of
the item-by-item rules either way.  The CSV tables of point tasks go
through the same template path.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import Decomposition, lower_bound, reilly_bound, special_bound, upper_bound
from .errors import JobValidationError, NotOnSurface, NumericalError, ValidationError, whole_number
from .expressions import parse
from .operators import curvature_quantities
from .quadrature import QuadratureSettings, build_quadrature, points_on_surface
from .spectral import MAX_DEGREE, check_kernel_tol, estimate_lambda1

# the keys besides "kind" that each task kind reads; any other is refused
_POINT_KEYS = ("points", "num_points", "seed")
TASK_KEYS = {
    "invariants": ("csv", *_POINT_KEYS),
    "curvature": ("csv", *_POINT_KEYS),
    "bound_upper": ("decomposition",),
    "bound_reilly": ("F_maps",),
    "bound_special": ("j", *_POINT_KEYS),
    "bound_lower": ("paneitz_positive", *_POINT_KEYS),
    "spectrum": ("degree", "kernel_tol", "check_monotonicity"),
    "invariance_check": ("defining_functions", *_POINT_KEYS),
}
TASK_KINDS = tuple(TASK_KEYS)

CSV_COLUMNS = ("r", "J", "detH", "R_theta", "D", "R_Theta")

# Upper bound of num_points, far above any job this package ships (1,000
# points), so that a value numpy cannot allocate (10**400) is a validation
# error, not a traceback; quadrature.QuadratureSettings bounds the rule sizes.
MAX_POINTS = 10_000


# --- canonical serialization ------------------------------------------------


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in report")
    if x == int(x) and abs(x) < 1e16:
        # stabilize integral floats ("1" rather than platform-tail "1.0000...")
        return format(x, ".1f")
    return format(x, ".17g")


def _template(shape, levels, spec):
    """A %-template for a nest of the given shape: level i opens with
    levels[i][0], separates its items with levels[i][1] and closes with
    levels[i][2]; each value is one ``spec`` field."""
    if not shape:
        return spec
    start, sep, end = levels[0]
    inner = _template(shape[1:], levels[1:], spec)
    return start + sep.join([inner] * shape[0]) + end


def _plain(arr):
    """Whether %.17g prints every value of a float64 array as _format_float
    does: every value finite and none integral."""
    return bool(np.isfinite(arr).all()) and not (arr == np.trunc(arr)).any()


def _float_text(arr, levels, plain):
    """A float64 array as text in one % call, each value as _format_float
    prints it: straight through %.17g when ``plain`` (see _plain), else
    value by value."""
    flat = arr.ravel().tolist()
    if plain:
        return _template(arr.shape, levels, "%.17g") % tuple(flat)
    return _template(arr.shape, levels, "%s") % tuple(map(_format_float, flat))


def _float_table(values):
    """The JSON text of a rectangular nest of finite non-integral floats, or
    None.

    An int or bool that numpy upcasts is integral, so a nest that holds one
    (or an integral float, or a non-finite one) is left to the item-by-item
    path, which prints ints and integral floats its own way and refuses NaN
    and inf."""
    try:
        arr = np.asarray(values)
    except (ValueError, TypeError, OverflowError):  # ragged, or an int beyond float range
        return None
    if arr.dtype != np.float64 or arr.ndim == 0 or not _plain(arr):
        return None
    return _float_text(arr, (("[", ",", "]"),) * arr.ndim, True)


def canonical_json(obj) -> str:
    out = []
    _serialize(obj, out)
    return "".join(out)


def _serialize(obj, out):
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _serialize(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        table = _float_table(obj)
        if table is not None:
            out.append(table)
            return
        out.append("[")
        for i, v in enumerate(obj.tolist() if isinstance(obj, np.ndarray) else obj):
            if i:
                out.append(",")
            _serialize(v, out)
        out.append("]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        _serialize({"re": float(obj.real), "im": float(obj.imag)}, out)
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _echo(obj):
    """A job value for the report: non-finite numbers, which the task that
    reads them refuses, are spelled as strings so the report stays JSON."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _echo(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_echo(v) for v in obj]
    return obj


def _pairs_to_points(pairs, m):
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise JobValidationError(
            f"points must be arrays of {m} [re, im] number pairs"
        ) from None
    # float() reads true and "1" as 1.0; the other numeric fields refuse them
    bad = [x for x in np.asarray(pairs, dtype=object).flat if type(x) not in (int, float)]
    if bad:
        raise JobValidationError(f"points must hold numbers, got {bad[0]!r}")
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[1] != m or arr.shape[2] != 2:
        raise JobValidationError(
            f"points must be arrays of {m} [re, im] pairs, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise JobValidationError("points must be finite numbers")
    return arr[..., 0] + 1j * arr[..., 1]


# --- job handling -------------------------------------------------------------


def _whole_number(data, name, default, minimum, maximum=None):
    """data[name], or default, checked by ``errors.whole_number``."""
    return whole_number(data.get(name, default), name, minimum, maximum)


def _real_number(value, name):
    """value as a float; bools, non-numbers and non-finite numbers are
    validation errors."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int beyond the float range
        finite = False
    if not finite:
        raise JobValidationError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _quadrature_settings(data):
    """The job's quadrature block; QuadratureSettings checks its values."""
    if not isinstance(data, dict):
        raise JobValidationError("quadrature settings must be an object")
    extra = set(data) - {f.name for f in fields(QuadratureSettings)}
    if extra:
        raise JobValidationError(f"unknown quadrature settings {sorted(extra)}")
    return QuadratureSettings(**data)


def _decomposition(data, n):
    """The decomposition block of a bound_upper task."""
    if not isinstance(data, dict):
        raise JobValidationError("decomposition must be an object")
    extra = set(data) - {"N", "nu", "psi", "f_maps"}
    if extra:
        raise JobValidationError(f"unknown decomposition keys {sorted(extra)}")
    maps = data.get("f_maps")
    if not isinstance(maps, list) or not maps or not all(isinstance(s, str) for s in maps):
        raise JobValidationError("decomposition needs f_maps, a non-empty list of expressions")
    if "psi" in data and not isinstance(data["psi"], str):
        raise JobValidationError("decomposition psi must be an expression")
    return Decomposition(
        N=_real_number(data.get("N", 1.0), "decomposition N"),
        nu=_real_number(data.get("nu", 1.0), "decomposition nu"),
        psi=parse(data["psi"], n) if "psi" in data else None,
        f_maps=[parse(s, n) for s in maps],
    )


def normalize_job(job: dict) -> dict:
    if not isinstance(job, dict):
        raise JobValidationError("job file must contain a JSON object")
    known = {
        "dimension_n", "defining_function", "params", "quadrature", "tasks", "output",
    }
    extra = set(job) - known
    if extra:
        raise JobValidationError(f"unknown job keys {sorted(extra)}")
    n = _whole_number(job, "dimension_n", None, 1, 2)
    if not isinstance(job.get("defining_function"), str):
        raise JobValidationError("defining_function must be a string expression")
    params = job.get("params", {})
    if not isinstance(params, dict):
        raise JobValidationError("params must map names to real numbers")
    tasks = job.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise JobValidationError("tasks must be a non-empty list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or task.get("kind") not in TASK_KINDS:
            raise JobValidationError(
                f"task {i}: kind must be one of {', '.join(TASK_KINDS)}"
            )
        extra = set(task) - {"kind", *TASK_KEYS[task["kind"]]}
        if extra:
            raise JobValidationError(f"task {i}: unknown {task['kind']} keys {sorted(extra)}")
    quad = _quadrature_settings(job.get("quadrature", {}))
    out = {
        "dimension_n": n,
        "defining_function": job["defining_function"],
        "params": {str(k): _real_number(v, f"params[{k!r}]") for k, v in params.items()},
        "quadrature": quad.to_dict(),
        "tasks": tasks,
    }
    if "output" in job:
        out["output"] = str(job["output"])
    return out


class _JobContext:
    def __init__(self, job):
        self.job = job
        self.n = job["dimension_n"]
        self.params = job["params"]
        self.rho = parse(job["defining_function"], self.n)
        self.settings = QuadratureSettings(**job["quadrature"])
        self._rule = None
        self._rule_error = None

    @property
    def rule(self):
        """The job's quadrature rule, built once; a failed build is not
        retried, its error is raised again for every later rule task."""
        if self._rule_error is not None:
            raise self._rule_error.with_traceback(None)
        if self._rule is None:
            try:
                self._rule = build_quadrature(self.rho, self.settings, params=self.params)
            except (ValidationError, NumericalError) as exc:
                self._rule_error = exc
                raise
        return self._rule

    def task_points(self, task, default_count):
        if "points" in task:
            return _pairs_to_points(task["points"], self.rho.m)
        count = _whole_number(task, "num_points", default_count, 1, MAX_POINTS)
        seed = _whole_number(task, "seed", self.settings.seed, 0)
        return points_on_surface(self.rho, count, seed=seed, params=self.params)


def _expressions(task, key, minimum, n):
    """task[key] parsed: a list of at least ``minimum`` expression strings."""
    texts = task.get(key)
    if (not isinstance(texts, list) or len(texts) < minimum
            or not all(isinstance(s, str) for s in texts)):
        raise JobValidationError(
            f"{task['kind']} needs {key}, a list of at least {minimum} expressions"
        )
    return [parse(s, n) for s in texts]


def _task_flag(task, key, default):
    """task[key], which must be a JSON boolean; anything else (the string
    "false", 0, null) is a validation error."""
    value = task.get(key, default)
    if not isinstance(value, bool):
        raise JobValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _point_table(ctx, task, with_frame_diag):
    points = ctx.task_points(task, 20)
    q = curvature_quantities(ctx.rho, points, params=ctx.params)
    pairs = np.atleast_2d(points)
    result = {"points": np.stack([pairs.real, pairs.imag], -1).tolist()}
    for key in CSV_COLUMNS:
        result[key] = np.atleast_1d(q[key]).tolist()
    result["super_pseudoconvex"] = bool(np.min(q["D"]) > 0.0)
    if with_frame_diag:
        frame = q["frame"]
        transverse = np.abs(
            np.einsum("j...,jk...->k...", frame.xi, frame.hessian)
            - frame.r * np.conj(frame.grad)
        )
        result["diagnostics"] = {
            "on_surface_max": float(np.max(np.abs(frame.rho))),
            "xi_pairing_max": float(
                np.max(np.abs(np.einsum("k...,k...->...", frame.grad, frame.xi) - 1.0))
            ),
            "transverse_identity_max": float(np.max(transverse)),
        }
    return result, points


def _write_text(path, text):
    """Write a report or table; a path that cannot be written is a job input
    error."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise JobValidationError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(path, result):
    pts = np.asarray(result["points"])
    count, m = pts.shape[:2]
    header = []
    for j in range(m):
        header += [f"point_re_{j + 1}", f"point_im_{j + 1}"]
    header += list(CSV_COLUMNS)
    table = np.column_stack([pts.reshape(count, 2 * m)] + [result[c] for c in CSV_COLUMNS])
    rows = _float_text(table, (("", "\n", "\n"), ("", ",", "")), _plain(table))
    _write_text(path, ",".join(header) + "\n" + rows)


def _run_task(ctx, task, base_dir):
    kind = task["kind"]
    if kind in ("invariants", "curvature"):
        if "csv" in task and not isinstance(task["csv"], str):
            raise JobValidationError(f"csv must be a file name, got {task['csv']!r}")
        result, _ = _point_table(ctx, task, with_frame_diag=(kind == "invariants"))
        if "csv" in task:
            _write_csv(Path(base_dir, task["csv"]), result)
            result["csv"] = task["csv"]
        return result
    if kind == "spectrum":
        # checked before the rule is built or anything is assembled
        # degree 0 holds only the constant, which has no positive Ritz value
        degree = _whole_number(task, "degree", 3, 1, MAX_DEGREE)
        kernel_tol = check_kernel_tol(_real_number(task.get("kernel_tol", 1e-6), "kernel_tol"))
        monotonicity = _task_flag(task, "check_monotonicity", True)
        report = estimate_lambda1(ctx.rule, degree, kernel_tol=kernel_tol,
                                  check_monotonicity=monotonicity)
        return report.to_dict()
    if kind == "bound_upper":
        if "decomposition" not in task:
            raise JobValidationError("bound_upper needs a decomposition block")
        dec = _decomposition(task["decomposition"], ctx.n)
        return upper_bound(dec, ctx.rule).to_dict()
    if kind == "bound_reilly":
        maps = _expressions(task, "F_maps", 1, ctx.n)
        return reilly_bound(maps, ctx.rule).to_dict()
    if kind == "bound_special":
        points = ctx.task_points(task, 50)
        report = special_bound(ctx.rho, _whole_number(task, "j", 1, 1), points,
                               params=ctx.params)
        return report.to_dict()
    if kind == "bound_lower":
        paneitz = _task_flag(task, "paneitz_positive", False)
        points = ctx.task_points(task, 50)
        report = lower_bound(ctx.rho, points, params=ctx.params,
                             paneitz_positive=paneitz)
        return report.to_dict()
    if kind == "invariance_check":
        exprs = _expressions(task, "defining_functions", 2, ctx.n)
        points = ctx.task_points(task, 25)
        values = []
        for expr in exprs:
            try:
                values.append(curvature_quantities(expr, points, params=ctx.params)["R_Theta"])
            except NotOnSurface as exc:
                raise JobValidationError(
                    f"{expr} does not vanish on the sampled surface ({exc})"
                ) from exc
        values = np.asarray(values)
        diffs = [
            float(np.max(np.abs(values[i] - values[j])))
            for i in range(len(exprs))
            for j in range(i + 1, len(exprs))
        ]
        return {
            "defining_functions": task["defining_functions"],
            "num_points": int(points.shape[0]),
            "max_pairwise_diff": max(diffs),
            "normalized_scalar_first": values[0].tolist(),
        }
    raise JobValidationError(f"unhandled task kind {kind!r}")


def run_job_data(job: dict, base_dir="."):
    """Execute a job dict; returns (report dict, exit code).

    Task failures are recorded per task without aborting the remaining
    tasks.  Exit code: 0 all ok, 2 any validation error, 3 any numerical
    failure (validation wins when both occur).
    """
    job = normalize_job(job)
    ctx = _JobContext(job)
    results = []
    saw_validation = saw_numerical = False
    for i, task in enumerate(job["tasks"]):
        entry = {"task": task["kind"], "index": i}
        try:
            entry["status"] = "ok"
            entry["result"] = _run_task(ctx, task, base_dir)
        except ValidationError as exc:
            saw_validation = True
            entry["status"] = "error"
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
        except NumericalError as exc:
            saw_numerical = True
            entry["status"] = "error"
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
        results.append(entry)
    report = {
        "tool": {"name": "crspectra", "version": __version__},
        "job": _echo({k: v for k, v in job.items() if k != "output"}),
        "results": results,
    }
    if "output" in job:
        _write_text(Path(base_dir, job["output"]), canonical_json(report) + "\n")
    exit_code = 2 if saw_validation else (3 if saw_numerical else 0)
    return report, exit_code


def load_job(path):
    """The job dict of a JSON job file; a file that cannot be read, is not
    JSON or holds no object is a validation error."""
    path = Path(path)
    try:
        job = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise JobValidationError(f"cannot read job file {path}: {exc.strerror}") from None
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise JobValidationError(f"job file {path} is not valid JSON: {exc}") from None
    if not isinstance(job, dict):
        raise JobValidationError("job file must contain a JSON object")
    return job
