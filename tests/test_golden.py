"""Golden outputs: every CLI run in tests/golden_cases.py must reproduce its
committed file in tests/golden/ byte for byte, and no command may reach
Lambda1 through a scalar entry point.
"""

import hashlib
import subprocess
import sys

import pytest

from diskbands import cli, corrections
from golden_cases import CASES, GOLDEN, first_difference, report, run


def test_every_golden_has_a_case():
    files = {p.name for p in GOLDEN.iterdir()} - {"modes.cfg"}
    assert files == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    proc = run(name)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


# the benchmark-sized diagram, 10 modes of 65^2 samples, too large for a
# golden file: the sha256 of its stdout; the error constant changes only the
# JSON meta
@pytest.mark.parametrize(
    "fmt, extra, digest",
    [
        ("csv", [], "6ee09549b457a6a039727583950408eda15519af7b6b2a0d2a6fde64e6e32742"),
        ("csv", ["--error-constant", "1.5"],
         "6ee09549b457a6a039727583950408eda15519af7b6b2a0d2a6fde64e6e32742"),
        ("json", [], "9486cd8853800b395e583feca885b4c12029769b5446dedb575ddb625fd4179a"),
        ("json", ["--error-constant", "1.5"],
         "820119aea84acd6266b4d543c851512e43c995fdc450e50396267c83ecfd711e"),
    ],
)
def test_benchmark_sized_diagram_is_pinned(fmt, extra, digest, capsys):
    argv = ["diagram", "--count", "10", "--grid", "65", "--epsilon", "0.00347",
            "--m", "0.3", "--format", fmt, *extra]
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == (2, "b\n", "x\n")
    # a missing final newline, a missing line and an extra line all count
    assert first_difference(b"a\nb\n", b"a\nb") == (2, "b\n", "b")
    assert first_difference(b"a\nb\n", b"a\n") == (2, "b\n", None)
    assert first_difference(b"", b"a\n") == (1, None, "a\n")
    with pytest.raises(ValueError):
        first_difference(b"a\n", b"a\n")


def test_report_shows_the_line_and_the_last_stderr_line():
    name = "verify.txt"
    golden = (GOLDEN / name).read_bytes()
    ok = subprocess.CompletedProcess([], 0, golden, b"")
    assert report(name, ok) == []
    lines = golden.decode().splitlines(True)
    changed = "".join(lines[:3] + ["PASS changed\n"] + lines[4:]).encode()
    assert report(name, subprocess.CompletedProcess([], 0, changed, b"")) == [
        "verify.txt: differs from its golden (exit 0)",
        "  first differing line: 4",
        "  golden: %r" % lines[3],
        "  run:    'PASS changed\\n'",
    ]
    failed = subprocess.CompletedProcess([], 3, b"", b"warning\ninternal error: boom\n")
    assert report(name, failed) == [
        "verify.txt: differs from its golden (exit 3)",
        "  first differing line: 1",
        "  golden: %r" % lines[0],
        "  run:    None",
        "  last stderr line: 'internal error: boom'",
    ]
    # a failing run whose stdout matches names only its stderr
    assert report(name, subprocess.CompletedProcess([], 1, golden, b""))[1:] == [
        "  last stderr line: None",
    ]


# the module-level scalar Lambda1 entry points, with CorrectionValue.lambda1_at
# the fourth; no command may reach Lambda1 through them
SCALAR_LAMBDA1 = ("lambda1_simple", "lambda1_multiple", "lambda_expansion")


@pytest.mark.parametrize(
    "name",
    [
        "bands_grid129.csv",
        "bands_count14_grid8.csv",
        "gaps_grid128.csv",
        "diagram_grid9.csv",
        "diagram_modes_cfg.csv",
        "verify.txt",
        "verify.json",
    ],
)
def test_commands_call_no_scalar_lambda1_entry_point(name, monkeypatch, capsys):
    # each entry point raises at every diskbands.* binding of it, as the
    # benchmark's tracer finds them, and the command still writes its golden
    def refuse(*args, **kwargs):
        raise AssertionError("a command called a scalar Lambda1 entry point")

    for attr in SCALAR_LAMBDA1:
        fn = getattr(corrections, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "diskbands" or mod_name.startswith("diskbands."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, refuse)
    monkeypatch.setattr(corrections.CorrectionValue, "lambda1_at", refuse)
    assert cli.main(CASES[name]) == cli.EXIT_OK, capsys.readouterr().err
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
