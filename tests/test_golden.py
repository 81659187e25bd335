"""Golden outputs: every CLI run below must reproduce its committed file
in tests/golden/ byte for byte, so any change to a printed digit, a row
order or an extremizer shows up here.  To regenerate after a deliberate
output change, run each argv below as
``python -m diskbands ... > tests/golden/<name>``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from diskbands import cli, corrections

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = str(GOLDEN / "modes.cfg")

CASES = {
    "bands_grid129.csv": ["bands", "--grid", "129"],
    "bands_grid129.json": ["bands", "--grid", "129", "--format", "json"],
    "bands_count14_grid8.csv": ["bands", "--count", "14", "--grid", "8"],
    "gaps_grid128.csv": ["gaps", "--grid", "128"],
    "gaps_grid128.json": ["gaps", "--grid", "128", "--format", "json"],
    "diagram.svg": ["diagram"],
    # two undetermined (hatched) bands, four certified gaps, no banner
    "diagram_count14_c5.svg": ["diagram", "--count", "14", "--error-constant", "5"],
    # one band, no gap, the uncertified banner
    "diagram_count1.svg": ["diagram", "--count", "1"],
    "diagram_grid9.csv": ["diagram", "--grid", "9", "--format", "csv"],
    "diagram_count4_grid5.json": [
        "diagram", "--count", "4", "--grid", "5", "--format", "json",
    ],
    "diagram_modes_cfg.csv": [
        "diagram", "--config", CONFIG, "--count", "4", "--grid", "5",
        "--format", "csv",
    ],
    "zeros.csv": ["zeros"],
    "zeros.json": ["zeros", "--format", "json"],
    "zeros_n2_k120.csv": ["zeros", "--n-max", "2", "--k-max", "120"],
    "spectrum.csv": ["spectrum"],
    "spectrum.json": ["spectrum", "--format", "json"],
    "spectrum_count1500.csv": ["spectrum", "--count", "1500"],
    "verify.txt": ["verify"],
    "verify.json": ["verify", "--format", "json"],
    "bands_modes_cfg.csv": ["bands", "--config", CONFIG],
    "gaps_modes_cfg.json": ["gaps", "--config", CONFIG, "--format", "json"],
}


def test_every_golden_has_a_case():
    files = {p.name for p in GOLDEN.iterdir()} - {"modes.cfg"}
    assert files == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    proc = subprocess.run(
        [sys.executable, "-m", "diskbands", *CASES[name]],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


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
