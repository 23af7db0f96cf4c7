"""Regenerate reference/<workload>.json from the code in this checkout.

Run from the checkout root with the pinned thread settings:

    CR_SPECTRA_THREADS=2 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python3 perfbench/make_reference.py

Each file holds, at the default seed, the sha256 of the canonical report,
the values gate.reference_values compares (lambda1, bound values, curvature
tables), and, for workloads on an exact product rule, the stiffness scale
``max(1, max |S|)`` of the checked assembly that bounds the
integration-by-parts deviation.  The reference records the parent code's
results; regenerate it only when a change to the results is intended.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from crspectra import reporting, spectral

import gate
from workloads import DEFAULT_SEED, WORKLOADS, make_job


def main():
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    original = spectral.assemble
    scales = []

    def capture(*args, **kwargs):
        problem = original(*args, **kwargs)
        if problem.ibp_deviation is not None:
            scales.append(max(1.0, float(np.max(np.abs(problem.stiffness)))))
        return problem

    spectral.assemble = capture
    try:
        for name in WORKLOADS:
            scales.clear()
            job = make_job(name, DEFAULT_SEED)
            report, _ = reporting.run_job_data(job)
            data = reporting.canonical_json(report).encode("utf-8")
            exact_rule = job["quadrature"].get("type") == "hopf_product"
            stored = {
                "seed": DEFAULT_SEED,
                "report_sha256": hashlib.sha256(data).hexdigest(),
                "ibp_scale": max(scales) if exact_rule and scales else None,
                "values": gate.reference_values(report),
            }
            gate.reference_path(name).write_text(
                json.dumps(stored, sort_keys=True) + "\n", encoding="utf-8")
            print(name, stored["report_sha256"], stored["ibp_scale"])
    finally:
        spectral.assemble = original


if __name__ == "__main__":
    main()
