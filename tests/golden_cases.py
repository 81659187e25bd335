"""The golden outputs: the argv of each file in tests/golden/.

Every run below must reproduce its committed file byte for byte, so any
change to a printed digit, a row order or an extremizer shows up.  This
module needs only the standard library.  tests/test_golden.py imports it, and
run as a script,

    python tests/golden_cases.py

it runs every case with this interpreter against this checkout's src and
exits 1 if any run fails or differs from its golden.  To regenerate after a
deliberate output change, run each argv below as
``python -m diskbands ... > tests/golden/<name>``.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
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


def run(name: str) -> subprocess.CompletedProcess:
    """One case as a fresh ``python -m diskbands`` process of this
    checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "diskbands", *CASES[name]],
        capture_output=True,
        timeout=120,
        env=env,
    )


def main() -> int:
    failed = 0
    for name in sorted(CASES):
        proc = run(name)
        if proc.returncode != 0 or proc.stdout != (GOLDEN / name).read_bytes():
            failed += 1
            print("%s: differs from its golden (exit %d)" % (name, proc.returncode))
    print("%d of %d goldens match" % (len(CASES) - failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
