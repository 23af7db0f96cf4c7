"""Command-line front end.

Subcommands: ``run`` (job file), ``invariants``, ``curvature``,
``bounds upper|reilly|special|lower``, ``spectrum``, ``verify``.  Every job
field has a flag override.  Exit codes: 0 success, 2 input/validation
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import NumericalError, ValidationError
from .reporting import CSV_COLUMNS, canonical_json, load_job, run_job_data

GRAMMAR_HELP = """\
expression grammar:
  expr   := term (('+'|'-') term)*
  term   := factor (('*'|'/') factor)*
  factor := atom ('^' int)?
  atom   := number | 'i' | ident | ident '(' expr (',' expr)* ')'
          | '(' expr ')' | '-' atom
coordinates are z1..z9 (z1..z{n+1} valid for dimension n); 'i' is the
imaginary unit; functions: conj, re, im, abs2, log, exp, pow(e, s);
all other identifiers are named real parameters bound with --param.
"""


def _add_common(p):
    p.add_argument("--rho", help="defining function expression")
    p.add_argument("--n", type=int, choices=(1, 2), help="CR dimension n")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="bind a real parameter (repeatable)")
    p.add_argument("--quad-type", choices=("hopf_product", "monte_carlo"),
                   help="quadrature rule type (default hopf_product)")
    p.add_argument("--resolution", type=int, help="hopf_product resolution")
    p.add_argument("--samples", type=int, help="monte_carlo sample count")
    p.add_argument("--seed", type=int, help="random seed")
    p.add_argument("--output", help="write the report JSON to this path")


def _add_points(p, default):
    p.add_argument("--points", help="JSON array of points, each a list of "
                                    "[re, im] pairs per coordinate")
    p.add_argument("--num-points", type=int, default=default,
                   help=f"number of random on-surface points (default {default})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crspectra",
        description="pseudohermitian invariants and Kohn-Laplacian eigenvalue "
                    "bounds for strictly pseudoconvex hypersurfaces",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"crspectra {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON job file")
    p_run.add_argument("job", help="path to the job file")
    _add_common(p_run)

    for kind in ("invariants", "curvature"):
        p = sub.add_parser(kind, help=f"per-point {kind} table")
        _add_common(p)
        _add_points(p, 20)
        p.add_argument("--csv", help="also write a per-point CSV table")

    p_b = sub.add_parser("bounds", help="eigenvalue bounds")
    bsub = p_b.add_subparsers(dest="bound_kind", required=True)

    p_up = bsub.add_parser("upper", help="decomposition-based upper bound")
    _add_common(p_up)
    p_up.add_argument("--N", type=float, default=1.0)
    p_up.add_argument("--nu", type=float, default=1.0)
    p_up.add_argument("--psi", help="pluriharmonic part (default 0)")
    p_up.add_argument("--f", action="append", default=[], metavar="EXPR",
                      help="holomorphic map component (repeatable)")

    p_re = bsub.add_parser("reilly", help="sphere-immersion upper bound")
    _add_common(p_re)
    p_re.add_argument("--F", action="append", default=[], metavar="EXPR",
                      help="holomorphic immersion component (repeatable)")

    p_sp = bsub.add_parser("special", help="coordinate sign-condition bound")
    _add_common(p_sp)
    _add_points(p_sp, 50)
    p_sp.add_argument("--j", type=int, default=1, help="coordinate index (1-based)")

    p_lo = bsub.add_parser("lower", help="normalized-curvature lower bound")
    _add_common(p_lo)
    _add_points(p_lo, 50)
    p_lo.add_argument("--paneitz-positive", action="store_true",
                      help="assert the positive CR Paneitz operator hypothesis (n = 1)")

    p_spec = sub.add_parser("spectrum", help="Galerkin spectrum of the Kohn Laplacian")
    _add_common(p_spec)
    p_spec.add_argument("--degree", type=int, default=3, help="monomial basis degree, 1 to 6")
    p_spec.add_argument("--kernel-tol", type=float, default=1e-6)

    sub.add_parser("verify", help="run the built-in verification suite")
    return parser


def _parse_params(items):
    out = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"--param expects NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ValidationError(f"--param {name}: {value!r} is not a number")
    return out


def _quadrature_block(args):
    block = {}
    if args.quad_type:
        block["type"] = args.quad_type
    if args.resolution is not None:
        block["resolution"] = args.resolution
    if args.samples is not None:
        block["samples"] = args.samples
    if args.seed is not None:
        block["seed"] = args.seed
    return block


def _points_block(task, args):
    if args.points is not None:
        try:
            task["points"] = json.loads(args.points)
        except ValueError as exc:
            raise ValidationError(f"--points is not valid JSON: {exc}") from None
    elif args.num_points is not None:
        task["num_points"] = args.num_points
    return task


def _override(job, key, values):
    """Merge command-line values into the job's ``key`` object."""
    block = job.setdefault(key, {})
    if not isinstance(block, dict):
        raise ValidationError(f"{key} must be an object to take command-line overrides")
    block.update(values)


def _job_from_args(args, task):
    if not args.rho or args.n is None:
        raise ValidationError("--rho and --n are required without a job file")
    job = {
        "dimension_n": args.n,
        "defining_function": args.rho,
        "params": _parse_params(args.param),
        "quadrature": _quadrature_block(args),
        "tasks": [task],
    }
    if args.output:
        job["output"] = args.output
    return job


def _task_from_args(args):
    if args.command in ("invariants", "curvature"):
        task = _points_block({"kind": args.command}, args)
        if args.csv:
            task["csv"] = args.csv
        return task
    if args.command == "spectrum":
        return {"kind": "spectrum", "degree": args.degree, "kernel_tol": args.kernel_tol}
    if args.command == "bounds":
        if args.bound_kind == "upper":
            if not args.f:
                raise ValidationError("bounds upper needs at least one --f component")
            dec = {"N": args.N, "nu": args.nu, "f_maps": args.f}
            if args.psi:
                dec["psi"] = args.psi
            return {"kind": "bound_upper", "decomposition": dec}
        if args.bound_kind == "reilly":
            if not args.F:
                raise ValidationError("bounds reilly needs at least one --F component")
            return {"kind": "bound_reilly", "F_maps": args.F}
        if args.bound_kind == "special":
            return _points_block({"kind": "bound_special", "j": args.j}, args)
        if args.bound_kind == "lower":
            return _points_block(
                {"kind": "bound_lower", "paneitz_positive": args.paneitz_positive}, args
            )
    raise ValidationError(f"unhandled command {args.command}")


def _summarize(report):
    lines = []
    for entry in report["results"]:
        head = f"[{entry['index']}] {entry['task']}"
        if entry["status"] != "ok":
            lines.append(f"{head}: {entry['error']}: {entry['message']}")
            continue
        r = entry["result"]
        if "value" in r:
            lines.append(f"{head}: value = {r['value']:.12g}")
            diag = r.get("diagnostics", {})
            for key in ("condition_ok", "super_pseudoconvex", "warning", "note"):
                if key in diag:
                    lines.append(f"    {key} = {diag[key]}")
        elif "lambda1" in r:
            lines.append(
                f"{head}: lambda1 = {r['lambda1']:.12g} "
                f"(kernel dim {r['kernel_dim']}, basis {r['basis_size']})"
            )
        elif "max_pairwise_diff" in r:
            lines.append(f"{head}: max pairwise R_Theta diff = {r['max_pairwise_diff']:.3e}")
        elif "r" in r:
            lines.append(f"{head}: {len(r['r'])} points")
            for col in CSV_COLUMNS:
                lines.append(
                    f"    {col}: min {min(r[col]):.12g}  max {max(r[col]):.12g}"
                )
        else:
            lines.append(f"{head}: ok")
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            from .verification import format_results, run_all

            results = run_all()
            print(format_results(results))
            return 0 if all(r.passed for r in results) else 1

        if args.command == "run":
            overrides = {}
            if args.rho:
                overrides["defining_function"] = args.rho
            if args.n is not None:
                overrides["dimension_n"] = args.n
            job = load_job(args.job)
            job.update(overrides)
            params = _parse_params(args.param)
            if params:
                _override(job, "params", params)
            quad = _quadrature_block(args)
            if quad:
                _override(job, "quadrature", quad)
            if args.output:
                job["output"] = args.output
            report, code = run_job_data(job, base_dir=Path(args.job).parent)
        else:
            job = _job_from_args(args, _task_from_args(args))
            report, code = run_job_data(job, base_dir=".")
        print(_summarize(report))
        if "output" not in job:
            print(canonical_json(report))
        return code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
