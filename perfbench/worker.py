"""Benchmark worker: runs crspectra jobs in a fresh process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and the thread settings pinned.  It reads one JSON request from stdin,
``{"mode": ..., "workload": ..., "seed": ..., "seconds": ...}``, and prints
one JSON object as its last line of stdout.  Modes:

* ``measure``: a warm-up job, then untraced jobs back to back (a closed
  loop with one client) for about ``seconds``, with a set-up probe
  (setup_probe.py, a fresh interpreter) after each; per-job wall and CPU
  time, set-up times, peak RSS over the run, and the gate on every
  report.
* ``trace``: one untraced job, the same job under the span tracer, and the
  untraced job again; the three reports must be byte-identical.
* ``once``: one untraced job (used for the single-thread baseline).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from crspectra import reporting

import gate
import workloads
from tracer import Tracer

SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
PROBE_TIMEOUT_S = 60


def run_job(job):
    """Wall and CPU seconds of one job, from run_job_data through the
    canonical report bytes."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report, _ = reporting.run_job_data(job)
    data = reporting.canonical_json(report).encode("utf-8")
    return report, data, time.perf_counter() - wall0, time.process_time() - cpu0


class Gate:
    """Applies gate.check to the reports of one workload and seed."""

    def __init__(self, workload, seed):
        stored = gate.load_reference(workload)
        self.ibp_scale = stored["ibp_scale"]
        self.reference = stored["values"] if seed == workloads.DEFAULT_SEED else None
        self.reference_sha256 = stored["report_sha256"] if self.reference else None
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, report, extra_failures=()):
        failures = gate.check(report, self.reference, self.ibp_scale)
        for index, reason in extra_failures:
            failures.setdefault(index, []).append(reason)
        self.attempted += len(report["results"])
        self.failed += len(failures)
        for index in sorted(failures):
            self.reasons.extend(f"task {index}: {r}" for r in failures[index])

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons[:20]}


def _all_tasks(job, reason):
    return [(i, reason) for i in range(len(job["tasks"]))]


def setup_seconds(job):
    """Set-up time of one fresh interpreter (setup_probe.py) for the job's
    defining function and n."""
    proc = subprocess.run(
        [sys.executable, str(SETUP_PROBE), job["defining_function"], str(job["dimension_n"])],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds):
    """One warm-up job, then timed jobs back to back until about ``seconds``
    have passed since the start.  A set-up probe follows each job, so that
    the probes sample the whole run and not one moment of a machine whose
    speed drifts."""
    check = Gate(workload, seed)
    deadline = time.perf_counter() + seconds
    job = workloads.make_job(workload, seed)
    report, first, warmup_s, _ = run_job(job)
    check.add(report)
    job_s, cpu_s, setup_s = [], [], [setup_seconds(job)]
    while True:
        job = workloads.make_job(workload, seed)
        report, data, wall, cpu = run_job(job)
        check.add(report, _all_tasks(job, "report bytes differ between repeats")
                  if data != first else ())
        job_s.append(wall)
        cpu_s.append(cpu)
        setup_s.append(setup_seconds(job))
        # start another job only if it is expected to end less than half a
        # step after the deadline, so a run lasts about ``seconds``
        step = statistics.median(job_s) + statistics.median(setup_s)
        if time.perf_counter() + step / 2 >= deadline:
            break
    # the peak over every job of the run: a single job's peak depends on how
    # the thread pool's chunks happen to overlap
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"job_s": job_s, "job_cpu_s": cpu_s, "setup_s": setup_s, "warmup_s": warmup_s,
            "peak_rss_mb": rss_mb, "report_sha256": hashlib.sha256(first).hexdigest(),
            **check.summary()}


def once(workload, seed):
    job = workloads.make_job(workload, seed)
    report, data, wall, _ = run_job(job)
    return {"job_s": wall, "tasks": len(report["results"]),
            "report_sha256": hashlib.sha256(data).hexdigest()}


def _task_result(report, kind):
    for entry in report["results"]:
        if entry["task"] == kind and entry["status"] == "ok":
            return entry["result"]
    return None


def layer_metrics(tracer, report):
    """Per-layer numbers of one traced job; 0 where a layer did not run."""
    calls, total, own, counters = tracer.calls, tracer.total_s, tracer.self_s, tracer.counters
    points_o4 = counters["expressions.jet.points.o4"]
    capacity = counters["runtime.map_chunks.capacity_s"]
    metrics = {
        "expressions.jet.self_s": own["expressions.jet"],
        "expressions.jet.calls": calls["expressions.jet"],
        "expressions.jet.points.o2": counters["expressions.jet.points.o2"],
        "expressions.jet.points.o4": points_o4,
        "expressions.jet.us_per_point.o4":
            1e6 * counters["expressions.jet.self_s.o4"] / points_o4 if points_o4 else 0.0,
        "expressions.value.self_s": own["expressions.value"],
        "frames.build_frame.calls": calls["frames.build_frame"],
        "frames.build_frame.total_s": total["frames.build_frame"],
        "frames.frame_from_jet.self_s": own["frames.frame_from_jet"],
        "operators.curvature_quantities.total_s": total["operators.curvature_quantities"],
        "operators.log_fefferman_jet.self_s": own["operators.log_fefferman_jet"],
        "quadrature.build_quadrature.total_s": total["quadrature.build_quadrature"],
        "quadrature.build_quadrature.self_s": own["quadrature.build_quadrature"],
        "quadrature.rule_points": counters["quadrature.rule_points"],
        "quadrature.project_rays.self_s": own["quadrature.project_rays"],
        "quadrature.project_rays.rays": counters["quadrature.project_rays.rays"],
        "quadrature.re_densify.total_s": total["quadrature.re_densify"],
        "quadrature.points_on_surface.total_s": total["quadrature.points_on_surface"],
        "spectral.assemble.self_s": own["spectral.assemble"],
        "spectral.assemble.calls": calls["spectral.assemble"],
        "spectral.assemble.basis_size_sum": counters["spectral.assemble.basis_size_sum"],
        "spectral.jacobi_eigh.self_s": own["spectral.jacobi_eigh"],
        "spectral.jacobi_eigh.calls": calls["spectral.jacobi_eigh"],
        "spectral.solve.total_s": total["spectral.solve"],
        "spectral.estimate_lambda1.total_s": total["spectral.estimate_lambda1"],
        "spectral.solve.gram_cond": tracer.observed.get("spectral.solve.gram_cond", 0.0),
        "spectral.solve.dropped_dim": tracer.observed.get("spectral.solve.dropped_dim", 0),
        "spectral.assemble.ibp_deviation":
            tracer.observed.get("spectral.assemble.ibp_deviation", 0.0),
        "bounds.upper_bound.total_s": total["bounds.upper_bound"],
        "bounds.reilly_bound.total_s": total["bounds.reilly_bound"],
        "bounds.special_bound.total_s": total["bounds.special_bound"],
        "bounds.lower_bound.total_s": total["bounds.lower_bound"],
        "bounds.validate_decomposition.self_s": own["bounds.validate_decomposition"],
        "reporting.run_job_data.self_s": own["reporting.run_job_data"],
        "reporting.canonical_json.self_s": own["reporting.canonical_json"],
        "runtime.map_chunks.calls": calls["runtime.map_chunks"],
        "runtime.map_chunks.chunks": counters["runtime.map_chunks.chunks"],
        "runtime.map_chunks.busy_s": counters["runtime.map_chunks.busy_s"],
        "runtime.map_chunks.efficiency":
            counters["runtime.map_chunks.busy_s"] / capacity if capacity else 0.0,
    }
    spectrum, lower = _task_result(report, "spectrum"), _task_result(report, "bound_lower")
    metrics["bounds.sandwich_gap"] = (
        spectrum["lambda1"] - lower["value"] if spectrum and lower else 0.0)
    invariance = _task_result(report, "invariance_check")
    metrics["operators.invariance_max_pairwise_diff"] = (
        invariance["max_pairwise_diff"] if invariance else 0.0)
    return metrics


def trace(workload, seed):
    """Untraced job (cold, as in a fresh CLI call), traced job, untraced job
    again: the overhead compares the traced job with the warm untraced one."""
    check = Gate(workload, seed)
    job = workloads.make_job(workload, seed)
    report, plain, cold_s, _ = run_job(job)
    check.add(report)
    with Tracer() as tracer:
        traced_report, traced, traced_s, _ = run_job(workloads.make_job(workload, seed))
    check.add(traced_report, _all_tasks(job, "traced report bytes differ from untraced")
              if traced != plain else ())
    warm_report, warm, untraced_s, _ = run_job(workloads.make_job(workload, seed))
    check.add(warm_report, _all_tasks(job, "report bytes differ between repeats")
              if warm != plain else ())
    metrics = layer_metrics(tracer, report)
    metrics.update({
        "reporting.report_bytes": len(plain),
        "reporting.report_matches_seed": (
            -1 if check.reference_sha256 is None
            else int(hashlib.sha256(plain).hexdigest() == check.reference_sha256)),
        "trace.job_s": traced_s,
        "trace.untraced_job_s": untraced_s,
        "trace.cold_job_s": cold_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.span_coverage": 1.0 - metrics["reporting.run_job_data.self_s"] / traced_s,
    })
    return {"metrics": metrics, "missing_targets": tracer.missing,
            "report_sha256": hashlib.sha256(plain).hexdigest(),
            "selftest_identical": traced == plain, **check.summary()}


def machine():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("CR_SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def main():
    request = json.loads(sys.stdin.read())
    workload, seed, mode = request["workload"], int(request["seed"]), request["mode"]
    if mode == "measure":
        out = measure(workload, seed, float(request["seconds"]))
    elif mode == "trace":
        out = trace(workload, seed)
    elif mode == "once":
        out = once(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["machine"] = machine()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
