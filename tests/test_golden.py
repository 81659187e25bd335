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
