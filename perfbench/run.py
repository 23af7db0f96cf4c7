"""crspectra benchmark: job-level metrics and an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rule_n1 --seed 3 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: a worker
process runs the workload's job back to back (a closed loop with one
client) for ``--seconds``, with a set-up probe in a fresh interpreter after
each job.  ``--trace 1`` gives the per-layer metrics from one traced job,
the tracing overhead, and a single-threaded baseline job.  Every report
goes through the correctness gate (gate.py).  ``--workload all`` runs every
workload in turn; with ``--trace 1`` at the default seed it is the
self-test that tracing leaves the report bytes unchanged.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
task error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Thread settings pinned for every measured process.  CR_SPECTRA_THREADS=2
# is the core count of the reference machine; BLAS is pinned to one thread
# because each runtime.map_chunks worker calls BLAS, and a threaded BLAS
# under two workers would oversubscribe the cores.
PINNED_ENV = {
    "CR_SPECTRA_THREADS": "2",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def _env(**overrides):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(overrides)
    return env


def _python(args, stdin=None, env=None):
    try:
        proc = subprocess.run(
            [sys.executable, *args], input=stdin, capture_output=True, text=True,
            cwd=ROOT, env=env or _env(), timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args[0]} did not finish in {exc.timeout} s")
    if proc.returncode != 0:
        raise BenchmarkError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(mode, workload, seed, seconds=0, env=None):
    request = json.dumps({"mode": mode, "workload": workload, "seed": seed,
                          "seconds": seconds})
    return json.loads(_python([str(HERE / "worker.py")], stdin=request, env=env))


def end_to_end(workload, seed, seconds):
    run = _worker("measure", workload, seed, seconds)
    samples = len(run["job_s"])
    metrics = {
        "job_s": (statistics.median(run["job_s"]), "s", samples),
        "job_cpu_s": (statistics.median(run["job_cpu_s"]), "s", samples),
        "setup_s": (statistics.median(run["setup_s"]), "s", len(run["setup_s"])),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }
    notes = {"warmup_job_s": run["warmup_s"], "job_s_all": run["job_s"],
             "setup_s_all": run["setup_s"]}
    return run, metrics, notes


def per_layer(workload, seed):
    run = _worker("trace", workload, seed)
    single = _worker("once", workload, seed, env=_env(CR_SPECTRA_THREADS="1"))
    metrics = {name: (value, _unit(name), 1) for name, value in run["metrics"].items()}
    metrics["runtime.single_thread_speedup"] = (
        single["job_s"] / run["metrics"]["trace.cold_job_s"], "ratio", 1)
    run["attempted"] += single["tasks"]
    if single["report_sha256"] != run["report_sha256"]:
        run["failed"] += single["tasks"]
        run["reasons"].append("single-thread report bytes differ from two threads")
    notes = {"selftest_identical": run["selftest_identical"],
             "missing_targets": run["missing_targets"],
             "single_thread_job_s": single["job_s"]}
    return run, metrics, notes


_UNITS = (
    ("_s", "s"), ("us_per_point.o4", "us"), ("report_bytes", "bytes"),
    ("matches_seed", "flag"), ("efficiency", "ratio"), ("coverage", "ratio"),
    ("speedup", "ratio"), ("gram_cond", "ratio"), ("ibp_deviation", "abs"),
    ("sandwich_gap", "abs"), ("pairwise_diff", "abs"),
)


def _unit(name):
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def run_workload(workload, seed, seconds, trace):
    if trace:
        run, metrics, notes = per_layer(workload, seed)
    else:
        run, metrics, notes = end_to_end(workload, seed, seconds)
    print(f"workload {workload}  seed {seed}  trace {trace}")
    print("machine " + json.dumps(run["machine"], sort_keys=True))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit:6s} n={samples}")
    print("notes " + json.dumps(notes))
    print(f"tasks attempted {run['attempted']}  failed {run['failed']}")
    for reason in run["reasons"]:
        print(f"  FAIL {reason}")
    return run["attempted"], run["failed"], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "crspectra" / "__init__.py").is_file():
        print(f"no crspectra sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
            attempted, failed = attempted + a, failed + f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u, _) in m.items()})
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
