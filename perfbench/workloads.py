"""Job dicts of the benchmark workloads, generated from a seed.

Each workload is a plain crspectra job dict, the input a researcher would
write to a job file.  The seed only moves sample sets (task point seeds and
the quadrature seed that picks identity-check points); problem sizes are
fixed, so every seed does the same amount of work.

Two workloads, so that each run can be long: on a shared machine the CPU
speed drifts over tens of seconds, and only long runs average that out
within the benchmark's time limit.  ``rule_n1`` exercises the rule,
frame, spectral and bound layers; ``curvature_n2`` builds no rule and
chunks nothing, so a change to those layers should leave it unchanged.
``DEFAULT_SEED`` is the seed at which reports are compared against the
stored reference of the parent code.
"""

from __future__ import annotations

DEFAULT_SEED = 0

N2_QUARTIC = "abs2(z1)+abs2(z2)+abs2(z3)+0.1*re(z1^2)+0.05*abs2(z2)^2-1"
# pullback of the unit sphere of C^3 under (z1, z2, z1^2/2)
N1_PULLBACK = "abs2(z1)+abs2(z2)+0.25*abs2(z1^2)-1"
PULLBACK_MAPS = ["z1", "z2", "0.5*z1^2"]


def _rule_n1(seed):
    base = 2 * seed
    return {
        "dimension_n": 1,
        "defining_function": N1_PULLBACK,
        "quadrature": {"type": "hopf_product", "resolution": 32, "seed": seed},
        "tasks": [
            {"kind": "bound_upper",
             "decomposition": {"N": 1, "nu": 1, "f_maps": PULLBACK_MAPS}},
            {"kind": "bound_reilly", "F_maps": PULLBACK_MAPS},
            {"kind": "bound_special", "j": 2, "num_points": 200, "seed": base},
            {"kind": "bound_lower", "num_points": 200, "seed": base + 1,
             "paneitz_positive": True},
            {"kind": "spectrum", "degree": 5, "check_monotonicity": True},
        ],
    }


def _curvature_n2(seed):
    base = 4 * seed
    return {
        "dimension_n": 2,
        "defining_function": N2_QUARTIC,
        "quadrature": {"seed": seed},
        "tasks": [
            {"kind": "invariants", "num_points": 1000, "seed": base},
            {"kind": "curvature", "num_points": 1000, "seed": base + 1},
            {"kind": "bound_lower", "num_points": 1000, "seed": base + 2},
            {
                "kind": "invariance_check",
                "defining_functions": [N2_QUARTIC, f"({N2_QUARTIC})*(2+re(z1))"],
                "num_points": 1000,
                "seed": base + 3,
            },
        ],
    }


WORKLOADS = {
    "rule_n1": _rule_n1,
    "curvature_n2": _curvature_n2,
}


def make_job(name: str, seed: int) -> dict:
    """The job dict of workload ``name`` at ``seed`` (a non-negative integer)."""
    return WORKLOADS[name](int(seed))
