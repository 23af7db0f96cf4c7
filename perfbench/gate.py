"""Correctness gate applied to every job report the benchmark produces.

The checks hold at any seed.  At the default seed the report is also compared
with the reference values of the parent code stored in ``reference/``.
Failures are counted per task; a task fails once however many checks it
fails.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# bound_upper and bound_reilly describe the same function on the pullback
# surface, reached by two code paths
UPPER_REILLY_RTOL = 1e-10
# integration-by-parts deviation of the stiffness, relative to its scale
IBP_RTOL = 1e-7
REFERENCE_RTOL = 1e-8
TABLE_COLUMNS = ("r", "J", "detH", "R_theta", "D", "R_Theta")


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload):
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))


def reference_values(report):
    """The numbers compared with the reference: lambda1, every bound value and
    the curvature tables, keyed by task index and name."""
    values = {}
    for entry in report["results"]:
        if entry["status"] != "ok":
            continue
        key = f"{entry['index']}.{entry['task']}"
        result = entry["result"]
        if entry["task"] == "spectrum":
            values[f"{key}.lambda1"] = result["lambda1"]
        elif entry["task"].startswith("bound_"):
            values[f"{key}.value"] = result["value"]
        elif entry["task"] in ("invariants", "curvature"):
            for column in TABLE_COLUMNS:
                values[f"{key}.{column}"] = result[column]
        elif entry["task"] == "invariance_check":
            values[f"{key}.normalized_scalar_first"] = result["normalized_scalar_first"]
    return values


def _rel_diff(a, b, scale):
    return abs(a - b) / scale if scale > 0 else abs(a - b)


def _compare(name, got, want):
    """Scalars relative to themselves, tables relative to the largest entry."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{name}: table shape differs from the reference"
        scale = max(abs(x) for x in want)
        worst = max(_rel_diff(a, b, scale) for a, b in zip(got, want))
    else:
        worst = _rel_diff(got, want, abs(want))
    if worst > REFERENCE_RTOL:
        return f"{name}: relative difference {worst:.3e} from the reference"
    return None


def check(report, reference=None, ibp_scale=None):
    """Map task index -> list of failed checks (empty dict when all pass).

    ``reference`` is the stored value dict to compare with (default seed
    only); ``ibp_scale`` is the stiffness scale of the workload, given where
    the rule is an exact product rule.
    """
    failures = {}

    def fail(index, reason):
        failures.setdefault(index, []).append(reason)

    by_kind = {}
    for entry in report["results"]:
        index, result = entry["index"], entry.get("result")
        if entry["status"] != "ok":
            fail(index, f"{entry['task']}: {entry.get('error')}: {entry.get('message')}")
            continue
        by_kind.setdefault(entry["task"], entry)
        if entry["task"] == "spectrum":
            if not result["monotone_ok"]:
                fail(index, "spectrum: Ritz values not monotone in the degree")
            if ibp_scale is not None and not (
                result["ibp_deviation"] is not None
                and result["ibp_deviation"] <= IBP_RTOL * ibp_scale
            ):
                fail(index, f"spectrum: ibp_deviation {result['ibp_deviation']} "
                            f"> {IBP_RTOL} * {ibp_scale}")
        if entry["task"] in ("bound_upper", "bound_reilly"):
            if not result["diagnostics"]["identities_ok"]:
                fail(index, f"{entry['task']}: pointwise identities fail")

    upper, reilly = by_kind.get("bound_upper"), by_kind.get("bound_reilly")
    if upper and reilly:
        a, b = upper["result"]["value"], reilly["result"]["value"]
        if _rel_diff(a, b, abs(a)) > UPPER_REILLY_RTOL:
            fail(reilly["index"], f"bound_reilly {b!r} differs from bound_upper {a!r}")

    if reference is not None:
        got = reference_values(report)
        for name, want in reference.items():
            index = int(name.split(".", 1)[0])
            if name not in got:
                fail(index, f"{name}: missing from the report")
                continue
            reason = _compare(name, got[name], want)
            if reason:
                fail(index, reason)
    return failures
