"""Legal-input fuzzing of the command line (hypothesis, derandomized):
`cli.main` runs in-process on drawn argv words, namely commands, flags,
unique and ambiguous prefixes, `=` forms, repeats, negative numbers, stray
words and small in-range values, and every run must end with a documented
exit code and well-formed output."""

import contextlib
import csv
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskbands import cli

# the drawn runs take about 2 s on a 2-vCPU host; verify, at about 40 ms a
# run, is drawn less often than the table commands
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)

COMMANDS = ["zeros", "spectrum", "bands", "gaps", "diagram"] * 3 + ["verify"]
# each flag with a few unique prefixes and the in-range values it is drawn
# with most often; counts and grids are small, so that every run that
# starts its work ends in milliseconds
GOOD = {
    "--epsilon": (["--eps", "--ep"], ["1e-3", "0.0042", "1e-9", "0.3", "0.999"]),
    "--m": ([], ["0.25", "0.1", "0.4999", "1e-6", "0.33"]),
    "--grid": (["--gr", "--g"], ["3", "4", "5", "8", "9", "17"]),
    "--format": (["--fo", "--form"], ["json", "csv", "json", "svg"]),
    "--error-constant": (["--err", "--er"], ["0", "1", "0.5", "1e3", "-0"]),
    "--count": (["--cou", "--co"], ["1", "2", "3", "4", "7"]),
    "--n-max": (["--n"], ["0", "1", "3", "12"]),
    "--k-max": (["--k"], ["1", "2", "5", "13"]),
    # paths in the folder each run starts in: stdout, a file, a file in a
    # missing folder, the folder itself, and the config files it holds
    "--out": ([], ["-", "out.txt"] * 3 + ["missing/out.txt", "."]),
    "--config": (["--con"], ["good.cfg"] * 4 + ["bad.cfg", "missing.cfg", ".", "out.txt"]),
}
# words that must be refused or read as something else: the ambiguous --e
# (--epsilon, --error-constant) and --c (--config, --count), help, a stray
# --, an unknown flag, and values out of range, negative, not a number or
# not finite
JUNK_FLAGS = ["--e", "--c", "-h", "--help", "--", "-x", "--grid-size"]
JUNK_VALUES = [
    "-3", "-1", "0", "-0", "2", "2049", "2050", "100000", "1e-300", "0.5",
    "-0.25", "1e308", "nan", "inf", "-inf", "2.5", "0x10", "xml", "", "-",
    " ", "word", "-1e-3",
]


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "good.cfg").write_text("epsilon = 0.002\nc.default = 0.5\nc.1.1 = 2\ngrid = 5\n")
    (path / "bad.cfg").write_text("epsilon = 0.002\nc.0.0 = 1\n")
    return path


@st.composite
def argvs(draw):
    # argv as a list of items: the command (or none), flags with their value
    # as the next word or after "=", a flag without its value, and stray
    # words.  About one flag in eight is junk, a flag is mostly one that the
    # command takes, and the command comes first in most argvs, since a
    # command's own flag before it is an unrecognized word
    junk = st.sampled_from([False] * 15 + [True])
    command = draw(st.sampled_from(COMMANDS + [None]))
    own = ["--" + dest.replace("_", "-") for dest in cli._COMMANDS[command][3]] if command else []
    usual = [flag for flag in GOOD if flag not in ("--count", "--n-max", "--k-max")] + own
    items = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(junk):
            flag = draw(st.sampled_from(JUNK_FLAGS + sorted(GOOD)))
            values = JUNK_VALUES
        else:
            full = draw(st.sampled_from(usual))
            prefixes, values = GOOD[full]
            flag = draw(st.sampled_from([full, full, *prefixes]))
            if draw(junk):
                values = JUNK_VALUES
        value = draw(st.sampled_from(values))
        shape = draw(st.sampled_from(["next"] * 10 + ["equals"] * 5 + ["bare"]))
        items.append({"next": [flag, value], "equals": [flag + "=" + value], "bare": [flag]}[shape])
    if draw(junk):
        items.append([draw(st.sampled_from(COMMANDS + ["stray", "-5", "--", "-"]))])
    items = draw(st.permutations(items))
    if command is not None:
        at = draw(st.sampled_from([0] * 3 + [len(items)] + list(range(len(items)))))
        items.insert(at, [command])
    return [word for item in items for word in item]


@contextlib.contextmanager
def _inside(folder):
    # the folder each run starts in, where a junk --out value names a file
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        yield
    finally:
        os.chdir(cwd)


def _run(argv, folder):
    # exit code, stdout and stderr of one in-process run, and the text of the
    # out.txt it wrote
    stdout, stderr = io.StringIO(), io.StringIO()
    out_file = folder / "out.txt"
    if out_file.exists():
        out_file.unlink()
    with _inside(folder), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            # only -h and --help leave through SystemExit
            code = exc.code
    written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def _settings(argv, folder):
    # the settings that a run exiting 0 resolved, or None for help
    with _inside(folder), contextlib.redirect_stdout(io.StringIO()):
        try:
            args = cli._parse_args(argv)
        except SystemExit:
            return None
        cli._resolve_config(args)
    return args


def _refuse(constant):
    raise ValueError("not strict JSON: %s" % constant)


def _check(argv, folder):
    # the exit code and the format of the output checked
    code, out, err, written = _run(argv, folder)
    assert code in (0, 1, 2), (argv, code, err)
    lines = err.splitlines()
    if code == 1:
        # one error line, last, after any note or warning lines
        errors = [line for line in lines if line.startswith("error:")]
        assert len(errors) == 1 and errors == lines[-1:], (argv, err)
        assert all(line.startswith(("note:", "warning:")) for line in lines[:-1]), (argv, err)
    else:
        assert not any(line.startswith("error:") for line in lines), (argv, err)
    # the same argv writes the same bytes
    assert _run(argv, folder) == (code, out, err, written), argv
    if code != 0:
        return code, None
    args = _settings(argv, folder)
    if args is None or args.command == "verify":
        return code, None
    text = out if args.out in (None, "-") else (folder / args.out).read_text(encoding="utf-8")
    if args.format == "json":
        doc = json.loads(text, parse_constant=_refuse)
    elif args.format == "csv":
        # a header and rows of one width
        widths = {len(row) for row in csv.reader(io.StringIO(text))}
        assert len(widths) == 1 and text.endswith("\n"), argv
    if args.command == "gaps":
        # a certified gap lies between padded bands that do not overlap
        if args.format == "json":
            rows = [(r["gap_lower"], r["gap_upper"], r["certified"]) for r in doc["rows"]]
        else:
            rows = [(float(r["gap_lower"]), float(r["gap_upper"]), r["certified"] == "true")
                    for r in csv.DictReader(io.StringIO(text))]
        assert all(lower < upper for lower, upper, certified in rows if certified), argv
    return code, args.format


def test_drawn_argv_ends_well(folder):
    seen = set()

    @FUZZ
    @given(data=st.data())
    def check(data):
        seen.add(_check(data.draw(argvs()), folder))

    check()
    # the strategy is not so narrow that every run fails: json, csv and svg
    # output and usage errors all occur
    assert {(0, "json"), (0, "csv"), (0, "svg"), (1, None)} <= seen, sorted(seen, key=str)


@pytest.mark.parametrize("argv", [
    # a negative value, a prefix with "=", a flag without its value, a
    # repeated flag, a stray "--", and two gap tables
    ["diagram", "--grid=-3", "--fo=json", "--count", "2"],
    ["bands", "--e=0.5", "--count", "2"],
    ["gaps", "--count"],
    ["diagram", "--format", "json", "--count", "2", "--grid", "3", "--format=csv"],
    ["spectrum", "--", "--count", "2"],
    # certified gaps, in both formats, and pads that overlap
    ["gaps", "--count", "7", "--format", "json"],
    ["gaps", "--count", "7", "--err", "1e3", "--eps", "0.0042"],
])
def test_hand_argv_ends_well(folder, argv):
    _check(argv, folder)
