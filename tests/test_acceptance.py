"""Acceptance suite: every shipped accuracy claim, one test per criterion.

The checks live in crspectra.verification so the CLI ``verify`` subcommand
runs exactly the same code; here each criterion is asserted individually
and printed as one pass/fail line.
"""

import pytest

from crspectra.verification import CHECKS, _Context

_ctx = _Context()
_results = {}


def _run(key):
    if key not in _results:
        fn = dict((k, f) for k, _, f in CHECKS)[key]
        _results[key] = fn(_ctx)
    return _results[key]


@pytest.mark.parametrize("key", [k for k, _, _ in CHECKS])
def test_acceptance(key):
    passed, detail = _run(key)
    line = f"{'PASS' if passed else 'FAIL'}  {key}: {detail}"
    print(line)
    assert passed, line


def test_checks_share_each_pencil(monkeypatch):
    # the a = 0.1 ellipsoid's degree-4 pencil serves both the sandwich and
    # the operator identities: three assemblies for the three ellipsoids
    import crspectra.verification as verification

    degrees = []
    original = verification.assemble

    def counting(rule, basis):
        degrees.append(basis.degree)
        return original(rule, basis)

    monkeypatch.setattr(verification, "assemble", counting)
    ctx, checks = _Context(), {k: f for k, _, f in CHECKS}
    for key in ("bound-sandwich", "operator-identities"):
        passed, detail = checks[key](ctx)
        assert passed, detail
    assert degrees == [4, 4, 4]
