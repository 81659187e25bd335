"""The cross-check suite as records: the one pass rule, the JSON rows, and
the FAIL path of `diskbands verify`, run in-process with one route of one
check replaced at its binding in `diskbands.verify`."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from diskbands import Check, ExpansionParams, cli, verify, verify_checks

GOLDEN = Path(__file__).resolve().parent / "golden"

NAMES = [
    "bessel-zero-residual",
    "disk-fd-eigenvalues",
    "disk-fd-convergence",
    "c0-closed-vs-quadrature",
    "correction-trace-vs-quadrature",
    "boundary-arc-length",
    "band-length-closed-vs-sweep",
]


def test_pass_rule_is_observed_within_bound():
    assert Check("x", 1.0, 1.0, "").passed is True
    assert Check("x", math.nextafter(1.0, 2.0), 1.0, "").passed is False
    assert Check("x", math.nan, 1.0, "").passed is False
    assert Check("x", math.inf, 1.0, "").passed is False


def test_observed_is_a_python_float():
    check = Check("x", np.float64(0.25), 0.5, "")
    assert type(check.observed) is float
    assert check.passed is True
    json.dumps({"passed": check.passed, "observed": check.observed})


def _neighbours(x, steps=50):
    # x and the `steps` floats on each side of it
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[1:] + [x] + above[1:]


def test_ratio_rule_equals_the_interval_test():
    # the convergence check passes on |r - 4| <= 0.5; the interval test
    # 3.5 <= r <= 4.5 it replaced is the reference
    rs = [r for x in (2.0, 3.5, 4.5, 8.0) for r in _neighbours(x)]
    rs += [math.inf, -math.inf, math.nan]
    for r in rs:
        assert (abs(r - 4.0) <= 0.5) == (3.5 <= r <= 4.5), r
        assert Check("r", abs(r - 4.0), 0.5, "").passed == (3.5 <= r <= 4.5), r


@pytest.mark.parametrize("grid", [33, 8, 64])
def test_suite_records(grid):
    checks = verify_checks(ExpansionParams(1e-3, 0.25), grid)
    assert [c.name for c in checks] == NAMES
    for c in checks:
        assert type(c.observed) is float and type(c.bound) is float
        assert c.passed is True, c
        assert 0.0 <= c.observed / c.bound < 1.0


def _run_verify(capsys, *args):
    code = cli.main(["verify", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FAULTS = [
    # (binding in diskbands.verify, replacement, the check it must fail)
    ("boundary_arc_length", lambda: 3.0, "boundary-arc-length"),
    # the NaN differences come before finite ones, which max() would keep
    ("c0_simple", lambda k, eta: math.nan, "c0-closed-vs-quadrature"),
]


@pytest.mark.parametrize("binding, replacement, failing", FAULTS)
def test_fail_path_text(monkeypatch, capsys, binding, replacement, failing):
    monkeypatch.setattr(verify, binding, replacement)
    code, out, err = _run_verify(capsys)
    assert code == cli.EXIT_NUMERICAL
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "%s %s" % ("FAIL" if name == failing else "PASS", name) for name in NAMES
    ]
    assert err == "verify failed: %s\n" % failing


@pytest.mark.parametrize("binding, replacement, failing", FAULTS)
def test_fail_path_json(monkeypatch, capsys, binding, replacement, failing):
    monkeypatch.setattr(verify, binding, replacement)
    code, out, err = _run_verify(capsys, "--format", "json")
    assert code == cli.EXIT_NUMERICAL
    rows = json.loads(out, parse_constant=_reject_constant)["rows"]
    assert [r["name"] for r in rows] == NAMES
    assert [r["passed"] for r in rows] == [name != failing for name in NAMES]
    assert err == "verify failed: %s\n" % failing
    # a NaN observed value is written as null; the detail text keeps it
    nan_rows = [r for r in rows if r["detail"].endswith("= nan")]
    assert [r["name"] for r in nan_rows] == ([failing] if binding == "c0_simple" else [])
    assert all(r["observed"] is None for r in nan_rows)
    assert all(r["observed"] is not None for r in rows if r not in nan_rows)


def test_even_grid_prints_the_golden_text(capsys):
    code, out, _ = _run_verify(capsys, "--grid", "8")
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "verify.txt").read_text(encoding="utf-8")


def _reject_constant(token):
    # json.loads calls this for NaN and Infinity, which strict JSON lacks
    raise ValueError("non-standard JSON constant %s" % token)


def test_json_rows_match_text_lines(capsys):
    code, text, _ = _run_verify(capsys)
    assert code == cli.EXIT_OK
    code, out, _ = _run_verify(capsys, "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["meta"] == {"epsilon": 0.001, "m": 0.25, "gamma": 0.75, "grid": 33}
    rows = doc["rows"]
    assert [list(r) for r in rows] == [["name", "observed", "bound", "passed", "detail"]] * 7
    assert ["PASS %s: %s" % (r["name"], r["detail"]) for r in rows] == text.splitlines()


def test_checks_visit_each_distinct_floquet_point_once(monkeypatch):
    # FloquetPoint folds pi to -pi, so 16 of the 25 points of floquet_axis(5)
    # are distinct: the c0 check quadratures each (mode, point, branch) once,
    # 32 for n = 0 and 256 for n = 1..4, and the correction-trace check
    # builds each (n, k, point) matrix once, 96 for n = 1..3 and k = 1, 2
    calls = {"c0_quadrature": [], "correction_matrix": []}
    for name, log in calls.items():
        route = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, route=route, log=log: log.append(args) or route(*args))
    checks = verify_checks(ExpansionParams(1e-3, 0.25), 33)
    assert all(c.passed for c in checks)
    assert len(calls["c0_quadrature"]) == len(set(calls["c0_quadrature"])) == 288
    assert len(calls["correction_matrix"]) == len(set(calls["correction_matrix"])) == 96
    assert len({args[1] for args in calls["c0_quadrature"]}) == 16
