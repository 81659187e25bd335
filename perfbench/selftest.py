"""Self-tests of the benchmark itself (not of diskbands).

    python3 perfbench/selftest.py

Checks that the output checks reject a perturbed row, that one seed gives
the same argv and stdout digests twice while two seeds give different argv,
that span self times plus un-spanned time add up to a traced op's wall time,
and that a boundary function that no longer exists reports as missing.
Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys

import checks
import run
import tracer
import workloads

ENV = run.child_env()


def _cli(argv: list[str]) -> bytes:
    child = run.Child([sys.executable, "-m", "diskbands", *argv], ENV)
    if child.code != 0:
        raise AssertionError("%s exited %d" % (argv, child.code))
    return child.stdout


def _perturb_csv(text: str, field: str, row: int) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    col = header.index(field)
    cells[col] = {"true": "false", "false": "true"}.get(cells[col]) or repr(float(cells[col]) * (1 + 1e-9))
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _perturb_json(text: str, path: tuple) -> str:
    doc = copy.deepcopy(json.loads(text))
    owner = doc["rows"]
    for key in path[:-1]:
        owner = owner[key]
    value = owner[path[-1]]
    owner[path[-1]] = (not value) if isinstance(value, bool) else value * (1 + 1e-9)
    return json.dumps(doc)


# argv, then how to perturb one row so that a check must catch it
CHECK_CASES = [
    (["zeros", "--n-max", "3", "--k-max", "4"], lambda t: _perturb_csv(t, "j", 5)),
    (["spectrum", "--count", "30", "--format", "json"], lambda t: _perturb_json(t, (17, "lambda0"))),
    (["bands", "--count", "10", "--error-constant", "2.5"], lambda t: _perturb_csv(t, "pad", 3)),
    (["bands", "--count", "10", "--format", "json"], lambda t: _perturb_json(t, (4, "length"))),
    (["gaps", "--count", "10", "--error-constant", "0.5"], lambda t: _perturb_csv(t, "certified", 0)),
    (["verify"], lambda t: t.replace("PASS", "FAIL", 1)),
    (["diagram", "--count", "3", "--grid", "9", "--format", "csv"], lambda t: _perturb_csv(t, "value", 0)),
    (["diagram", "--count", "3", "--grid", "9", "--format", "json"], lambda t: _perturb_json(t, (0, "samples", 0, "value"))),
]


def test_checks_catch_perturbed_rows():
    for argv, perturb in CHECK_CASES:
        out = _cli(argv)
        assert checks.check(argv, out) == [], (argv, checks.check(argv, out))
        bad = perturb(out.decode()).encode()
        assert bad != out, argv
        assert checks.check(argv, bad), "perturbed %s output passed its checks" % argv[0]


def _argv_prefix(workload: str, seed: int, cycles: int = 4):
    return list(itertools.islice(workloads.op_cycles(workload, seed), cycles))


def test_determinism():
    for workload in workloads.WORKLOADS:
        assert _argv_prefix(workload, 7) == _argv_prefix(workload, 7), workload
        assert _argv_prefix(workload, 7) != _argv_prefix(workload, 8), workload
    first, second = (run.untraced_pass("spectrum", 7, 0.0, ENV)[0] for _ in range(2))
    assert [(op["argv"], op["sha256"]) for op in first] == [(op["argv"], op["sha256"]) for op in second]
    assert all(not op["problems"] for op in first)


def test_span_times_add_up():
    argv = ["bands", "--count", "6", "--grid", "17"]
    child = run.Child([sys.executable, tracer.__file__, *argv], ENV)
    assert child.code == 0, child.stderr
    header, out, spans = tracer.read_child_output(child.stdout)
    assert out == _cli(argv)
    layer = tracer.analyse(header, spans)
    assert (tracer.self_times(spans) >= -1e-12).all()
    assert abs(layer["self_sum_s"] + layer["unspanned_s"] - layer["wall_s"]) <= 1e-9
    assert 0.0 < layer["unspanned_s"] < layer["wall_s"]
    assert layer["calls"][tracer.BOUNDARIES.index(("cli", "diskbands.cli", "main"))] == 1


def test_missing_boundary_is_reported():
    sys.path.insert(0, str(run.SRC))
    gone = (("kernel", "diskbands._core", "no_such_kernel"), ("kernel", "diskbands.no_such_module", "f"))
    assert tracer.install(tracer.Recorder(), gone) == ["missing", "missing"]
    status = ["ok"] * len(tracer.BOUNDARIES)
    status[0] = "missing"  # kernel.bessel_j_kernel
    metrics, _ = run.layer_metrics([], status)
    assert metrics["kernel.bessel_j_kernel.calls"] is None
    assert metrics["bands.kernel_calls_per_band"] is None
    assert run._metric_entry(None, "count/op")["status"] == "missing"
    assert metrics["bessel.bessel_j.calls"] == 0


def main() -> int:
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
            except AssertionError as exc:
                print("FAIL %s: %s" % (name, exc))
                return 1
            print("ok   %s" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
