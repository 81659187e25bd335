"""Command-line interface, exercised through subprocesses and, where a
library function must be replaced, through `cli.main` in-process."""

import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from diskbands import ExpansionParams, ModeIndex, Parity, bands, cli, verify

CMD = [sys.executable, "-m", "diskbands"]


def run(*args, expect=0):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_zeros_table():
    proc = run("zeros", "--n-max", "2", "--k-max", "2")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [r["n"] for r in rows] == ["0", "0", "1", "1", "2", "2"]
    assert float(rows[0]["j"]) == pytest.approx(2.404825557695773, abs=1e-12)
    assert float(rows[2]["j"]) == pytest.approx(3.831705970207512, abs=1e-12)


# the corners of the zeros table cap, too large for golden files; the
# digests are those of the zero finder that evaluated every bisection midpoint
@pytest.mark.parametrize(
    "n_max, k_max, digest",
    [
        ("9", "200", "cb976a4792bf03994de8516097911a575bafd3c1be37f5a9ee7dcbc30f9ce41b"),
        ("200", "9", "57e5c1f0e5c977a5051935b8502662d5b9394de79cd1e79610e2a8bdd7e40ef9"),
    ],
)
def test_zeros_at_table_cap_corners_are_pinned(n_max, k_max, digest):
    proc = subprocess.run(
        CMD + ["zeros", "--n-max", n_max, "--k-max", k_max], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_spectrum_order():
    proc = run("spectrum", "--count", "6")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    labels = [(r["n"], r["k"], r["parity"]) for r in rows]
    assert labels == [
        ("0", "1", "simple"),
        ("1", "1", "c"),
        ("1", "1", "s"),
        ("2", "1", "c"),
        ("2", "1", "s"),
        ("0", "2", "simple"),
    ]
    values = [float(r["lambda0"]) for r in rows]
    assert values == sorted(values)


def test_bands_csv_columns():
    proc = run("bands", "--count", "4")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 4
    first = rows[0]
    assert float(first["lower"]) <= float(first["upper"])
    assert first["undetermined"] == "false"
    assert float(first["length"]) > 0.0
    cosine = rows[1]
    assert cosine["length"] == "0"
    assert float(cosine["lower"]) == float(cosine["upper"])


def test_bands_undetermined_rows():
    proc = run("bands", "--count", "12")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    tail = rows[-2:]
    for row in tail:
        assert row["n"] == "4"
        assert row["undetermined"] == "true"
        assert row["length"] == ""


def test_gaps_output():
    proc = run("gaps", "--count", "10")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 9
    first = rows[0]
    assert (first["below_n"], first["above_n"]) == ("0", "1")
    assert first["certified"] == "true"
    assert first["reason"] == ""
    flat = [r for r in rows if r["reason"] == "first-order-flat"]
    assert len(flat) == 1 and flat[0]["below_parity"] == "s"
    assert sum(1 for r in rows if r["certified"] == "true") == 4


def test_json_format():
    proc = run("bands", "--count", "3", "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["meta"]["epsilon"] == pytest.approx(1e-3)
    assert doc["meta"]["m"] == pytest.approx(0.25)
    assert doc["meta"]["gamma"] == pytest.approx(0.75)
    assert len(doc["rows"]) == 3
    assert doc["meta"]["uncertified"] is True


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "bands.csv"
    run("bands", "--count", "5", "--out", str(out))
    proc = run("bands", "--count", "5")
    assert out.read_bytes().decode() == proc.stdout


def test_flags_accepted_before_and_after_subcommand(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run("--epsilon", "1e-2", "bands", "--count", "4", "--out", str(a))
    run("bands", "--epsilon", "1e-2", "--count", "4", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_deterministic_output():
    one = run("bands", "--count", "10")
    two = run("bands", "--count", "10")
    assert one.stdout == two.stdout


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "epsilon = 1e-2\n"
        "m = 0.3\n"
        "grid = 17\n"
        "c.default = 1.0\n"
        "c.0.1 = 2.5\n"
    )
    proc = run("bands", "--count", "2", "--config", str(cfg))
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert float(rows[0]["pad"]) == pytest.approx(2.5 * 1e-2**0.9)
    assert float(rows[1]["pad"]) == pytest.approx(1.0 * 1e-2**0.9)

    # a UTF-8 byte-order mark before the first key reads the same
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
    assert run("bands", "--count", "2", "--config", str(bom)).stdout == proc.stdout

    # flags override config values
    proc2 = run("bands", "--count", "2", "--config", str(cfg), "--epsilon", "1e-4")
    rows2 = list(csv.DictReader(io.StringIO(proc2.stdout)))
    assert float(rows2[0]["pad"]) == pytest.approx(2.5 * 1e-4**0.9)


def main_json(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "key, text, flag, flag_text, read, from_file, from_flag",
    [
        ("epsilon", "0.01", "--epsilon", "0.02", lambda d: d["meta"]["epsilon"], 0.01, 0.02),
        ("m", "0.3", "--m", "0.35", lambda d: d["meta"]["m"], 0.3, 0.35),
        ("grid", "5", "--grid", "7", lambda d: d["meta"]["grid"], 5, 7),
        ("c.default", "2", "--error-constant", "3",
         lambda d: d["rows"][0]["pad"] / 1e-3**0.75, 2.0, 3.0),
    ],
)
def test_config_key_then_its_flag(
    tmp_path, capsys, key, text, flag, flag_text, read, from_file, from_flag
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s = %s\n" % (key, text))
    argv = ["bands", "--count", "1", "--format", "json", "--config", str(cfg)]
    assert read(main_json(argv, capsys)) == pytest.approx(from_file, rel=1e-12)
    # the flag before the subcommand, where its default is None, and after
    # it, where its default is SUPPRESS; either overrides the file
    for flagged in ([flag, flag_text] + argv, argv + [flag, flag_text]):
        assert read(main_json(flagged, capsys)) == pytest.approx(from_flag, rel=1e-12), flagged


@pytest.mark.parametrize("argv", [["--help"], ["bands", "--help"]])
def test_help_lists_each_setting_flag_once(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    # the option lines, indented by two spaces; the usage lines are indented
    # further
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    for flag in ["--" + row[0].replace("_", "-") for row in cli._KEYS.values()] + ["--config"]:
        assert listed.count(flag) == 1, flag


@pytest.mark.parametrize("command", ["zeros", "spectrum", "bands", "gaps", "diagram", "verify"])
def test_help_shows_each_flag_default(capsys, command):
    # every "(default X)" that --help prints is the value a run without the
    # flag uses
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    args = cli._build_parser().parse_args([command])
    cli._resolve_config(args)
    # one entry per option line: the flag, its metavar and its help
    entry = re.compile(r"--([a-z-]+) [A-Z_]+ .*\(default ([^)]*)\)")
    shown = dict(m.groups() for m in map(entry.fullmatch, re.split(r" (?=--[a-z])", text)) if m)
    for flag in ("epsilon", "m", "grid", "error-constant", "count", "n-max", "k-max"):
        dest = flag.replace("-", "_")
        if dest in args:
            assert float(shown.pop(flag)) == getattr(args, dest), flag
    # a setting whose default is None states it in words
    assert shown == {"out": "stdout"}


def test_config_format_and_out_keys(tmp_path, capsys):
    out = tmp_path / "table.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\nout = %s\n" % out)
    argv = ["spectrum", "--count", "2", "--config", str(cfg)]
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert len(json.loads(out.read_text())["rows"]) == 2
    # the flags override both keys; --out - is standard output
    assert cli.main(argv + ["--format", "csv", "--out", "-"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("n,k,parity,lambda0\n")

    # a format from the file overrides the diagram's svg default
    cfg.write_text("format = json\n")
    doc = main_json(["diagram", "--count", "1", "--grid", "3", "--config", str(cfg)], capsys)
    assert len(doc["rows"][0]["samples"]) == 9
    cfg.write_text("format = svg\n")
    assert cli.main(["diagram", "--count", "1", "--config", str(cfg)]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("<?xml")
    assert cli.main(["zeros", "--config", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: format svg is only available for the diagram command\n"
    )


def test_error_constant_flag_drops_per_mode_constants(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c.0.1 = 2.5\nc.1.1 = 4\n")
    argv = ["bands", "--count", "3", "--grid", "3", "--format", "json", "--config", str(cfg)]
    pads = [r["pad"] / 1e-3**0.75 for r in main_json(argv, capsys)["rows"]]
    assert pads == pytest.approx([2.5, 4.0, 4.0], rel=1e-12)
    pads = [r["pad"] / 1e-3**0.75 for r in main_json(argv + ["--error-constant", "1"], capsys)["rows"]]
    assert pads == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


@pytest.mark.parametrize(
    "line, message",
    [
        ("grid = 3.5", "config key grid: bad integer '3.5'"),
        ("epsilon = small", "config key epsilon: bad number 'small'"),
        ("m = ", "config key m: bad number ''"),
        ("c.default = x", "config key c.default: bad number 'x'"),
        ("c.0.1 = 1e", "config key c.0.1: bad number '1e'"),
    ],
)
def test_bad_config_values(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["bands", "--config", str(cfg)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: %s\n" % message


def test_negative_zero_error_constant_prints_as_zero(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("c.0.1 = -0\n")
    for fmt in ("csv", "json"):
        argv = ["bands", "--count", "2", "--grid", "3", "--format", fmt]
        assert cli.main(argv + ["--error-constant", "0"]) == cli.EXIT_OK
        expected = capsys.readouterr().out
        for extra in (["--error-constant", "-0"], ["--config", str(cfg)]):
            assert cli.main(argv + extra) == cli.EXIT_OK
            assert capsys.readouterr().out == expected, (fmt, extra)


# eps just below 1 leaves a pad of almost C; the largest accepted C keeps
# every padded band finite, the largest float does not
@pytest.mark.parametrize(
    "command, formats",
    [("bands", ("csv", "json")), ("gaps", ("csv", "json")), ("diagram", ("svg", "csv", "json"))],
)
def test_largest_error_constant_prints_finite_numbers(capsys, command, formats):
    argv = [command, "--count", "6", "--grid", "5", "--epsilon", "0.9999999999999999",
            "--error-constant", "1e300"]
    for fmt in formats:
        assert cli.main(argv + ["--format", fmt]) == cli.EXIT_OK, fmt
        out = capsys.readouterr().out
        assert re.search(r"(?i)\b(inf|infinity|nan)\b", out) is None, fmt
        if fmt == "json":
            json.loads(out)


def test_error_constant_above_cap_is_a_usage_error(tmp_path, capsys):
    top = "1.7976931348623157e308"
    argv = ["bands", "--count", "1", "--epsilon", "0.9999999999999999"]
    default = tmp_path / "default.cfg"
    default.write_text("c.default = %s\n" % top)
    per_mode = tmp_path / "per_mode.cfg"
    per_mode.write_text("c.0.1 = %s\n" % top)
    for extra in (["--error-constant", top], ["--config", str(default)],
                  ["--config", str(per_mode)]):
        for fmt in ("csv", "json"):
            assert cli.main(argv + extra + ["--format", fmt]) == cli.EXIT_USAGE, extra
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: error_constant must lie in [0, 1e+300], got 1.7976931348623157e+308\n"
            )


def test_uncertified_note_on_stderr():
    proc = run("gaps", "--count", "4")
    assert "uncertified" in proc.stderr
    quiet = run("gaps", "--count", "4", "--error-constant", "0.1")
    assert "uncertified" not in quiet.stderr


def test_pad_swamp_warning_is_one_line():
    for command in ("gaps", "diagram"):
        proc = run(command, "--count", "30", "--epsilon", "0.5", "--m", "0.45")
        lines = proc.stderr.splitlines()
        assert sum(line.startswith("warning: eps^gamma") for line in lines) == 1, command
        assert "cli.py" not in proc.stderr


def test_diagram_svg(tmp_path):
    out = tmp_path / "diagram.svg"
    run("diagram", "--count", "10", "--out", str(out))
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    bands = [e for e in root.iter() if e.get("class", "").startswith("band")]
    assert len(bands) == 10
    gaps = [e for e in root.iter() if e.get("class") == "gap"]
    assert len(gaps) == 4


def test_diagram_csv_sweep():
    proc = run("diagram", "--count", "2", "--format", "csv", "--grid", "5")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert len(rows) == 2 * 25
    assert {r["parity"] for r in rows} == {"simple", "c"}


def test_svg_rejected_for_tables():
    proc = subprocess.run(
        CMD + ["bands", "--format", "svg"], capture_output=True, text=True
    )
    assert proc.returncode == 1


def test_svg_rejected_for_verify_before_any_check(monkeypatch, capsys):
    def checks(params, grid_resolution):
        raise AssertionError("the check suite ran")

    monkeypatch.setattr(verify, "verify_checks", checks)
    assert cli.main(["verify", "--format", "svg"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: format svg is only available for the diagram command\n"


def test_usage_errors():
    for args in (
        ["bands", "--epsilon", "-1"],
        ["bands", "--m", "0.5"],
        ["zeros", "--n-max", "-3"],
        ["bands", "--grid", "2"],
        ["nonsense"],
        ["bands", "--no-such-flag"],
        ["bands", "--epsilon", "1"],
        # the pad C eps^gamma overflows to infinity, which strict JSON
        # cannot hold
        ["bands", "--count", "2", "--epsilon", "1e300", "--m", "0.45",
         "--error-constant", "1e10", "--format", "json"],
    ):
        proc = subprocess.run(CMD + args, capture_output=True, text=True)
        assert proc.returncode == 1, args
        assert proc.stdout == "", args
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, args


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon 1e-3\n")
    proc = subprocess.run(
        CMD + ["bands", "--config", str(bad)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    missing = subprocess.run(
        CMD + ["bands", "--config", str(tmp_path / "nope.cfg")],
        capture_output=True,
        text=True,
    )
    assert missing.returncode == 1
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("niceness = 3\n")
    proc2 = subprocess.run(
        CMD + ["bands", "--config", str(unknown)], capture_output=True, text=True
    )
    assert proc2.returncode == 1


def test_config_file_not_utf8_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"m = 0.25\xff\n")
    proc = run("bands", "--config", str(bad), expect=1)
    assert proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [line for line in proc.stderr.splitlines() if line]
    assert len(errors) == 1
    assert errors[0].startswith("error: cannot read config file %s: " % bad)
    assert "Traceback" not in proc.stderr


def test_config_file_size_cap(tmp_path, capsys):
    # a file of MAX_CONFIG_CHARS characters is read; one more is an error
    cfg = tmp_path / "big.cfg"
    line = "m = 0.3\n"
    cfg.write_text(line + "#" * (cli.MAX_CONFIG_CHARS - len(line)))
    argv = ["bands", "--count", "1", "--grid", "3", "--format", "json", "--config", str(cfg)]
    assert main_json(argv, capsys)["meta"]["m"] == 0.3
    cfg.write_text(line + "#" * (cli.MAX_CONFIG_CHARS - len(line) + 1))
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config file %s holds more than %d characters\n" % (
        cfg, cli.MAX_CONFIG_CHARS)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
def test_endless_config_file_is_one_error_line():
    # a file that never ends is read only up to the cap; the address-space
    # limit turns a read without bound into a MemoryError instead of
    # exhausting the machine
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    proc = subprocess.run(
        CMD + ["spectrum", "--config", "/dev/zero"], capture_output=True, text=True,
        timeout=120, preexec_fn=limit,
    )
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: config file /dev/zero holds more than %d characters\n" % (
        cli.MAX_CONFIG_CHARS)


def test_nonfinite_constants_and_grid_cap_are_config_errors(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("c.1.1 = inf\n")
    # per-mode keys that name no mode: n < 0 or k < 1
    negative_n = tmp_path / "negative_n.cfg"
    negative_n.write_text("c.-1.0 = 5\n")
    zero_k = tmp_path / "zero_k.cfg"
    zero_k.write_text("c.0.0 = 2\n")
    for args in (
        ["bands", "--error-constant", "inf"],
        ["bands", "--error-constant", "nan"],
        ["bands", "--config", str(cfg)],
        ["bands", "--grid", str(cli.MAX_GRID + 1)],
        ["bands", "--config", str(negative_n)],
        ["bands", "--config", str(zero_k)],
    ):
        assert cli.main(args) == cli.EXIT_USAGE, args
        assert capsys.readouterr().err.startswith("error: "), args


def test_internal_value_error_is_not_a_usage_error(monkeypatch, capsys):
    for fault in (
        ValueError("operands could not be broadcast together"),
        ZeroDivisionError("float division by zero"),
        IndexError("list index out of range"),
    ):

        def broken(count):
            raise fault

        monkeypatch.setattr(cli, "enumerate_spectrum", broken)
        assert cli.main(["spectrum"]) == cli.EXIT_INTERNAL, fault
        err = capsys.readouterr().err
        assert err.startswith("internal failure: "), fault
        assert "Traceback" in err, fault


def test_closed_stdout_is_one_error_line():
    # the reader goes away after the header; the writer must report it once,
    # without a traceback, and exit 1 as for an unwritable --out
    proc = subprocess.Popen(
        CMD + ["diagram", "--count", "10", "--grid", "65", "--format", "csv",
               "--error-constant", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline() == "n,k,parity,eta1,eta2,value\n"
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1]
    assert proc.returncode == cli.EXIT_USAGE, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_full_stdout_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a write to stdout that fails for any reason, not only a closed pipe,
    # is reported once, without a traceback, and exits 1
    class FullStdout:
        def __init__(self, fd):
            self.fd = fd

        def writelines(self, chunks):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", FullStdout(handle.fileno()))
        assert cli.main(["spectrum", "--count", "5"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write to standard output: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_stdout_to_a_full_device_is_one_error_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            CMD + ["spectrum", "--count", "5"], stdout=full, stderr=subprocess.PIPE,
            text=True, timeout=120,
        )
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_diagram_sample_cap_is_checked_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("diagram computed bands before its sample check")

    out = tmp_path / "samples.txt"
    for fmt in ("csv", "json"):
        argv = ["diagram", "--count", "10", "--grid", str(cli.MAX_GRID),
                "--format", fmt, "--out", str(out)]
        with monkeypatch.context() as patch:
            patch.setattr(bands, "band_table", no_work)
            assert cli.main(argv) == cli.EXIT_USAGE, fmt
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), fmt
        assert not out.exists()

    # the cap is on count * grid^2, inclusive, and svg draws no samples
    monkeypatch.setattr(cli, "MAX_DIAGRAM_SAMPLES", 2 * 5 * 5)
    assert cli.main(["diagram", "--count", "2", "--grid", "5", "--format", "csv"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 25
    assert cli.main(["diagram", "--count", "3", "--grid", "5", "--format", "json"]) == cli.EXIT_USAGE
    assert cli.main(["diagram", "--count", "3", "--grid", "5"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("<?xml")


def test_diagram_streams_its_samples(monkeypatch):
    # the first chunk is written before the modes' samples are all drawn, so
    # neither the samples nor the document is held whole, and no chunk
    # holds more than one eta1 row of samples
    events = []
    sweep = bands.brillouin_sweep

    def drawn(*args):
        events.append("drawn")
        return sweep(*args)

    class Stdout:
        def writelines(self, chunks):
            events.extend(chunks)

        def flush(self):
            pass

    monkeypatch.setattr(bands, "brillouin_sweep", drawn)
    monkeypatch.setattr(sys, "stdout", Stdout())
    for fmt in ("csv", "json"):
        events.clear()
        argv = ["diagram", "--count", "2", "--grid", "65", "--format", fmt]
        assert cli.main(argv) == cli.EXIT_OK
        assert events.count("drawn") == 2, fmt
        second = events.index("drawn", events.index("drawn") + 1)
        assert any(e != "drawn" for e in events[:second]), fmt
        chunks = [e for e in events if e != "drawn"]
        text = "".join(chunks)
        if fmt == "json":
            # a chunk holds at most one eta1 row of samples
            assert max(c.count('"value"') for c in chunks) <= 65
            # the chunks join to the json.dumps text of the document they hold
            doc = json.loads(text)
            assert [len(row["samples"]) for row in doc["rows"]] == [65 * 65, 65 * 65]
            assert text == json.dumps(doc, indent=1) + "\n"
        else:
            assert max(c.count("\n") for c in chunks) <= 65
            assert len(text.splitlines()) == 1 + 2 * 65 * 65


def test_nonfinite_float_is_an_internal_failure(monkeypatch, capsys):
    # strict JSON has no NaN or infinity, and json.dumps would write them as
    # bare tokens by default; the emitter raises instead, in every position,
    # and so does the CSV writer
    for bad in (math.nan, math.inf, -math.inf):
        for row in (
            {"eta1": 0.0, "value": bad},
            {"name": "x", "value": bad},
            {"rows": [1.0, [bad]]},
        ):
            with pytest.raises(ValueError):
                "".join(cli._json_chunks({}, [row]))
        for row in (
            {"name": "x", "value": bad},
            {"below": {"n": 1, "gap": bad}},
            {"eta": [0.0, bad]},
        ):
            with pytest.raises(ValueError):
                "".join(cli._csv_chunks([row]))
    # a type json.dumps does not name is not guessed
    for row in ({"value": [np.int64(1)]}, {"rows": {1, 2}}):
        with pytest.raises(TypeError):
            "".join(cli._json_chunks({}, [row]))

    for fmt in ("csv", "json"):
        for bad in (math.nan, math.inf):
            monkeypatch.setattr(
                bands, "brillouin_sweep", lambda m, params, grid: ([0.0] * grid, [bad] * grid**2)
            )
            argv = ["diagram", "--count", "1", "--grid", "3", "--format", fmt]
            assert cli.main(argv) == cli.EXIT_INTERNAL
            err = capsys.readouterr().err
            assert "internal failure: ValueError" in err and "Traceback" in err


def _block_case(grid, kind):
    # the axis and values of a block: a swept mode, the lam0 * n values of
    # an undetermined mode, or floats of every magnitude with 17 digits
    params = ExpansionParams(1e-3, 0.25, 1.5)
    if kind == "swept":
        return bands.brillouin_sweep(ModeIndex(1, 1, Parity.COSINE), params, grid)
    if kind == "undetermined":
        return bands.brillouin_sweep(ModeIndex(4, 1, Parity.COSINE), params, grid)
    rng = np.random.default_rng(grid)
    values = rng.uniform(-1.0, 1.0, grid * grid) * 10.0 ** rng.integers(-320, 308, grid * grid)
    return [float(a) for a in rng.uniform(-4.0, 4.0, grid)], values.tolist()


# a % and a %-spec in a key and in the cells baked into the templates
BLOCK_HEAD = {"n": 4, "name": "100% %s%%d", "pair": {"a": 0.1 + 0.2, "b": None}, "on": [True, 7]}


@pytest.mark.parametrize("kind", ["swept", "undetermined", "random"])
@pytest.mark.parametrize("grid", [3, 4, 8, 9, 65])
def test_block_writes_its_expanded_samples(grid, kind):
    axis, values = _block_case(grid, kind)
    keys = ("eta1", "e%ta2", "value")
    block = cli._Block(keys, axis, values)
    samples = [
        {keys[0]: cli._jnum(a), keys[1]: cli._jnum(b), keys[2]: cli._jnum(values[i * grid + j])}
        for i, a in enumerate(axis)
        for j, b in enumerate(axis)
    ]
    # json: the list of sample dicts json.dumps writes
    meta = {"grid": grid}
    text = "".join(cli._json_chunks(meta, [{**BLOCK_HEAD, "samples": block}] * 2))
    expanded = {"meta": meta, "rows": [{**BLOCK_HEAD, "samples": samples}] * 2}
    assert text == json.dumps(expanded, indent=1) + "\n"
    # csv: the lines of the flattened rows, the head cells first
    chunks = list(cli._csv_chunks([{**BLOCK_HEAD, "samples": block}] * 2))
    flat = [{**BLOCK_HEAD, **sample} for sample in samples] * 2
    assert "".join(chunks) == "".join(cli._csv_chunks(flat))
    assert max(c.count("\n") for c in chunks) <= grid


def test_block_guards():
    axis = [0.0, 1.0, 2.0]
    empty = {"n": 1, "samples": cli._Block(("a", "b", "c"), [], [])}
    text = "".join(cli._json_chunks({}, [empty]))
    assert text == json.dumps({"meta": {}, "rows": [{"n": 1, "samples": []}]}, indent=1) + "\n"
    for axis_, values, error in (
        (axis, [1.0] * 8, ValueError),
        (axis, [1.0] * 8 + [math.nan], ValueError),
        (axis, [1.0] * 8 + [-math.inf], ValueError),
        # finite floats whose sum overflows pass
        (axis, [1e308, 1e308] + [1.0] * 7, None),
        ([0.0, math.inf, 2.0], [1.0] * 9, ValueError),
        (axis, [np.float64(1.0)] * 9, TypeError),
        (axis, [1.0] * 8 + [1], TypeError),
        ([0.0, np.float64(1.0), 2.0], [1.0] * 9, TypeError),
    ):
        block = cli._Block(("eta1", "eta2", "value"), axis_, values)
        for write in (
            lambda b: cli._json_chunks({}, [{"n": 1, "samples": b}]),
            lambda b: cli._csv_chunks([{"n": 1, "samples": b}]),
        ):
            if error is None:
                "".join(write(block))
            else:
                with pytest.raises(error):
                    "".join(write(block))


def test_count_and_zero_caps_are_checked_before_any_work(monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the command ran before its cap check")

    too_many = str(cli.MAX_COUNT + 1)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "enumerate_spectrum", no_work)
        patch.setattr(cli, "bessel_zero", no_work)
        patch.setattr(bands, "band_table", no_work)
        for argv in (
            ["spectrum", "--count", too_many],
            ["spectrum", "--count", "100000000000000000000"],
            ["bands", "--count", too_many],
            ["gaps", "--count", too_many],
            ["diagram", "--count", too_many],
            ["zeros", "--n-max", str(cli.MAX_N + 1)],
            ["zeros", "--k-max", str(cli.MAX_K + 1)],
            # each flag within its cap, the zeros table above its own
            ["zeros", "--n-max", str(cli.MAX_N), "--k-max", str(cli.MAX_K)],
            ["zeros", "--n-max", "200", "--k-max", "10"],
            # each flag within its cap, the sweep count * grid^2 above its own,
            # in every format
            ["bands", "--count", "101", "--grid", str(cli.MAX_GRID)],
            ["gaps", "--count", "500", "--grid", "1025"],
            ["diagram", "--count", "101", "--grid", str(cli.MAX_GRID)],
            ["diagram", "--count", str(cli.MAX_COUNT), "--grid", "290", "--format", "json"],
        ):
            assert cli.main(argv) == cli.EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), argv

    # every cap is inclusive
    monkeypatch.setattr(cli, "MAX_COUNT", 3)
    monkeypatch.setattr(cli, "MAX_N", 2)
    monkeypatch.setattr(cli, "MAX_K", 3)
    assert cli.main(["spectrum", "--count", "3"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    assert cli.main(["gaps", "--count", "4"]) == cli.EXIT_USAGE
    assert cli.main(["zeros", "--n-max", "2", "--k-max", "3"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3
    assert cli.main(["zeros", "--n-max", "3", "--k-max", "3"]) == cli.EXIT_USAGE
    assert cli.main(["zeros", "--n-max", "2", "--k-max", "4"]) == cli.EXIT_USAGE
    monkeypatch.setattr(cli, "MAX_ZEROS", 6)
    assert cli.main(["zeros", "--n-max", "1", "--k-max", "3"]) == cli.EXIT_OK
    assert cli.main(["zeros", "--n-max", "2", "--k-max", "2"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 2 * (1 + 6)
    assert cli.main(["zeros", "--n-max", "2", "--k-max", "3"]) == cli.EXIT_USAGE
    monkeypatch.setattr(cli, "MAX_SWEEP", 2 * 5 * 5)
    assert cli.main(["bands", "--count", "2", "--grid", "5"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2
    for command in ("bands", "gaps", "diagram"):
        assert cli.main([command, "--count", "3", "--grid", "5"]) == cli.EXIT_USAGE, command
        assert cli.main([command, "--count", "2", "--grid", "7"]) == cli.EXIT_USAGE, command
    assert capsys.readouterr().out == ""
