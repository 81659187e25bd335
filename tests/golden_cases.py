"""The golden outputs: the argv of each file in tests/golden/.

Every run below must reproduce its committed file byte for byte, so any
change to a printed digit, a row order or an extremizer shows up.  This
module needs only the standard library.  tests/test_golden.py imports it, and
run as a script,

    python tests/golden_cases.py

it runs every case with this interpreter against this checkout's src and
exits 1 if any run fails or differs from its golden.  For each such case it
prints the 1-based number of the first differing line with that line from
the golden and from the run, and for a non-zero exit the last stderr line.
To regenerate after a deliberate output change, run each argv below as
``python -m diskbands ... > tests/golden/<name>``.
"""

import itertools
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
    # the corners of the (n-max + 1) * k-max cap: the highest orders and the
    # deepest zeros
    "zeros_n200_k9.csv": ["zeros", "--n-max", "200", "--k-max", "9"],
    "zeros_n9_k200.csv": ["zeros", "--n-max", "9", "--k-max", "200"],
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


def first_difference(golden: bytes, output: bytes) -> tuple[int, str | None, str | None]:
    """The 1-based number of the first line where two different outputs
    differ, with that line of each (None past its end); a line keeps its
    end, so a missing final newline counts."""
    pairs = itertools.zip_longest(golden.splitlines(True), output.splitlines(True))
    for number, pair in enumerate(pairs, start=1):
        if pair[0] != pair[1]:
            return (number, *(None if v is None else v.decode(errors="replace") for v in pair))
    raise ValueError("the outputs are equal")


def report(name: str, proc: subprocess.CompletedProcess) -> list[str]:
    """The lines `main` prints for a case, none when the run matches."""
    golden = (GOLDEN / name).read_bytes()
    if proc.returncode == 0 and proc.stdout == golden:
        return []
    lines = ["%s: differs from its golden (exit %d)" % (name, proc.returncode)]
    if proc.stdout != golden:
        number, want, got = first_difference(golden, proc.stdout)
        lines.append("  first differing line: %d" % number)
        lines.append("  golden: %r" % (want,))
        lines.append("  run:    %r" % (got,))
    if proc.returncode != 0:
        last = proc.stderr.decode(errors="replace").splitlines()[-1:]
        lines.append("  last stderr line: %r" % (last[0] if last else None,))
    return lines


def main() -> int:
    failed = 0
    for name in sorted(CASES):
        lines = report(name, run(name))
        failed += bool(lines)
        for line in lines:
            print(line)
    print("%d of %d goldens match" % (len(CASES) - failed, len(CASES)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
