"""Canonical JSON item by item: a test oracle for reporting.canonical_json.

Every list is walked one item at a time and every float is printed on its
own: integral floats below 1e16 with one decimal ("1.0", "-0.0"), all
others with 17 significant digits, and NaN or inf refused.  Nothing here
probes a nest as an array or formats a table in one step.
"""

import json

import numpy as np


def format_float(x):
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} in report")
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def reference_json(obj):
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + reference_json(obj[k]) for k in sorted(obj)
        ) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return reference_json({"re": float(obj.real), "im": float(obj.imag)})
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def reference_csv(result, columns):
    """The text of a point table's CSV file, one formatted float at a time."""
    pts = result["points"]
    m = len(pts[0])
    header = []
    for j in range(m):
        header += [f"point_re_{j + 1}", f"point_im_{j + 1}"]
    lines = [",".join(header + list(columns))]
    for i, row in enumerate(pts):
        cells = [format_float(v) for pair in row for v in pair]
        cells += [format_float(result[c][i]) for c in columns]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
