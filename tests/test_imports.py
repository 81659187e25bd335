"""The package's lazy exports, and the import floor of the commands: every
command, `verify` included, runs without loading numpy, and with numpy
blocked `verify` still writes its golden output; `zeros` and `spectrum` also
run without the Floquet modules, and no command loads xml.etree.  No command
loads dataclasses, inspect, traceback, typing, argparse, gettext, locale or
shutil, only JSON output loads json, only verify loads the boundary
quadrature, the Sturm solver and the verify-only first-order closed forms,
and only diagram loads the diagram writer."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import diskbands
from diskbands import bands, corrections, oracles, spectrum

# runs one command in-process, then reports its exit code and which of the
# heavy modules it loaded on stderr
PROBE = """
import json, sys
from diskbands.cli import main
code = main(sys.argv[1:])
heavy = [m for m in ("numpy", "xml.etree", "diskbands.bands") if m in sys.modules]
print(json.dumps({"exit": code, "heavy": heavy}), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--n-max", "3", "--k-max", "4"],
        ["zeros", "--n-max", "3", "--k-max", "4", "--format", "json"],
        ["spectrum", "--count", "20"],
        ["spectrum", "--count", "20", "--format", "json"],
    ],
)
def test_zero_commands_load_no_numpy(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == {"exit": 0, "heavy": []}
    assert proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--count", "10", "--grid", "129"],
        ["gaps", "--count", "10", "--grid", "128", "--format", "json"],
        ["diagram", "--count", "4", "--grid", "9", "--format", "csv"],
        ["diagram", "--count", "4", "--grid", "9", "--format", "json"],
        ["diagram", "--count", "14", "--format", "svg"],
        ["verify"],
        ["verify", "--format", "json"],
    ],
)
def test_sweep_commands_load_no_numpy(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {"exit": 0, "heavy": ["diskbands.bands"]}
    assert proc.stdout


# the modules a command loads beyond those a bare interpreter has already
# loaded, site hooks included, written without json; the command's own stdout
# goes to stdout
FLOOR_PROBE = """
import sys
from diskbands.cli import main
code = main(sys.argv[1:])
sys.stderr.write("%d %s" % (code, " ".join(sys.modules)))
"""

# dataclasses and traceback, with inspect, which dataclasses loads, are only
# set-up, typing only names types, and json is loaded only to write JSON
SETUP_ONLY = {"dataclasses", "inspect", "traceback", "typing"}

# argparse, with the gettext and locale it loads and the shutil its help
# formatter loads, would only read the command line
PARSER_ONLY = {"argparse", "gettext", "locale", "shutil"}


@pytest.mark.parametrize(
    "argv, writes_json",
    [
        (["zeros", "--n-max", "3", "--k-max", "4"], False),
        (["spectrum", "--count", "20"], False),
        (["spectrum", "--count", "20", "--format", "json"], True),
        (["bands", "--count", "10", "--grid", "129"], False),
        (["bands", "--count", "10", "--grid", "129", "--format", "json"], True),
        (["gaps", "--count", "10", "--grid", "128"], False),
        (["diagram", "--count", "4", "--grid", "9", "--format", "csv"], False),
        (["diagram", "--count", "14", "--format", "svg"], False),
        (["diagram", "--count", "4", "--grid", "9", "--format", "json"], True),
        (["verify"], False),
        (["verify", "--format", "json"], True),
    ],
)
def test_commands_load_no_setup_only_module(argv, writes_json):
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; sys.stderr.write(' '.join(sys.modules))"],
        capture_output=True, text=True, timeout=60,
    )
    proc = subprocess.run(
        [sys.executable, "-c", FLOOR_PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    code, *loaded = proc.stderr.splitlines()[-1].split(" ")
    assert code == "0"
    loaded = set(loaded) - set(bare.stderr.split(" "))
    assert "diskbands.cli" in loaded
    assert not loaded & SETUP_ONLY
    assert not loaded & PARSER_ONLY
    assert ("json" in loaded) is writes_json
    # the boundary quadrature serves verify's checks alone
    assert ("diskbands._quad" in loaded) is (argv[0] == "verify")
    # each command compiles only the code it runs: the Sturm solver and the
    # first-order closed forms serve verify, the diagram writer diagram
    assert ("diskbands._sturm" in loaded) is (argv[0] == "verify")
    assert ("diskbands._firstorder" in loaded) is (argv[0] == "verify")
    assert ("diskbands._diagram" in loaded) is (argv[0] == "diagram")


GOLDEN = Path(__file__).resolve().parent / "golden"

# runs verify in-process with numpy blocked: importing it raises ImportError
BLOCKED = """
import sys
sys.modules["numpy"] = None
from diskbands.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, golden",
    [(["verify"], "verify.txt"), (["verify", "--format", "json"], "verify.json")],
)
def test_verify_with_numpy_blocked_matches_golden(argv, golden):
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED, *argv], capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("argv", [["diagram"], ["diagram", "--format", "json"]])
def test_diagram_loads_no_xml_etree(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["exit"] == 0
    assert "xml.etree" not in report["heavy"]
    assert proc.stdout


def test_star_import_binds_all():
    namespace = {}
    exec("from diskbands import *", namespace)
    assert set(diskbands.__all__) <= set(namespace)
    for name in diskbands.__all__:
        assert namespace[name] is getattr(diskbands, name), name


def test_dir_lists_all():
    listed = dir(diskbands)
    assert "__all__" in listed
    assert set(diskbands.__all__) <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        diskbands.no_such_name
    assert getattr(diskbands, "BACKEND", "missing") == "missing"
    with pytest.raises(ImportError):
        exec("from diskbands import no_such_name", {})


# names that only the benchmark's tracer and their own unit tests call: not
# exported, but each still defined in its module
TRACER_ONLY = {
    "corrections": (
        "CorrectionValue",
        "Expansion",
        "MultipleCorrection",
        "lambda1_multiple",
        "lambda1_simple",
        "lambda_expansion",
    ),
    "bands": ("detect_gaps",),
    "oracles": ("convergence_ratios",),
}


def test_tracer_only_names_are_not_exported():
    for module, names in TRACER_ONLY.items():
        for name in names:
            assert name not in diskbands.__all__, name
            assert not hasattr(diskbands, name), name
            assert callable(getattr(getattr(diskbands, module), name)), name
    assert "BandLength" not in diskbands.__all__
    assert not hasattr(bands, "BandLength")


def test_every_tracer_boundary_resolves():
    # the benchmark's tracer wraps each BOUNDARIES function at its module
    # path and reports a missing one; read the table without importing it
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "BOUNDARIES"
    ]
    boundaries = ast.literal_eval(table)
    assert len(boundaries) > 20
    for _, module, path in boundaries:
        value = importlib.import_module(module)
        for attr in path.split("."):
            value = getattr(value, attr)
        assert callable(value), (module, path)


def test_moved_classes_keep_their_old_homes():
    assert corrections.ExpansionParams is spectrum.ExpansionParams
    assert corrections.QuadratureConvergenceError is spectrum.QuadratureConvergenceError
    assert oracles.OracleConvergenceError is spectrum.OracleConvergenceError
    assert bands.InternalConsistencyError is spectrum.InternalConsistencyError
    for name in (
        "ExpansionParams",
        "QuadratureConvergenceError",
        "OracleConvergenceError",
        "InternalConsistencyError",
    ):
        assert getattr(diskbands, name) is getattr(spectrum, name), name


def test_import_loads_no_module_until_asked():
    code = (
        "import sys, diskbands\n"
        "assert not [m for m in sys.modules if m.startswith('diskbands.')], sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
        "assert diskbands.oracles.RadialMesh is diskbands.RadialMesh\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
