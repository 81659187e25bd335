"""Command-line front end.

Subcommands: zeros, spectrum, bands, gaps, diagram, verify.  Tables are
emitted as CSV (default) or JSON; diagram renders an SVG band picture, and
verify prints the check records of `diskbands.verify` as PASS/FAIL lines
(csv) or JSON.  Every numeric is printed with 15 significant digits and
identical inputs produce byte-identical output.  Exit codes: 0 ok, 1 usage or
config error, 2 numerical failure, 3 internal consistency failure or other
internal fault.

Each subcommand names its handler in `_build_parser`, and each setting is one
row of `_KEYS`: its config key, the dest, type, default and help of its flag,
which `_add_common_flags` generates from the row.  A handler reads every
setting from its parsed arguments, which `_resolve_config` fills in from the
flags, then the config file, then the defaults.  Every size a command is
asked for (`--count`, the zeros table, the sweep `count * grid^2`) is checked
against its cap before any work.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import traceback
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .bessel import ZeroFindingError, bessel_zero
from .spectrum import (
    ExpansionParams,
    InternalConsistencyError,
    ModeIndex,
    OracleConvergenceError,
    QuadratureConvergenceError,
    enumerate_spectrum,
)

# the Floquet modules load inside the commands that use them, so zeros and
# spectrum start without them
if TYPE_CHECKING:
    from .bands import BandInterval
    from .corrections import FloquetPoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INTERNAL = 3

_FORMATS = ("csv", "json", "svg")

# largest --grid accepted: a band's extremes take O(grid) table entries, and
# only diagram's csv and json samples, capped below, hold grid^2 values per
# mode (bands --count 100 at this size runs in 0.3-0.6 s and peaks at about
# 18 MB RSS)
MAX_GRID = 2049

# largest --count, --n-max and --k-max accepted, each chosen so that its
# command at that cap, with the other flags at their defaults, runs in a
# few seconds (spectrum --count 5000 in about 2 s on a 2-vCPU Xeon)
MAX_COUNT = 5000
MAX_N = 200
MAX_K = 200

# the caps above multiply, so the work is capped too: the zeros table
# (n_max + 1) * k_max, which keeps each flag's cap legal with the other at its
# default, and the sweep count * grid^2 of bands, gaps and diagram, kept as it
# was when every band swept its whole grid; at either cap a command runs in a
# few seconds
MAX_ZEROS = 2000
MAX_SWEEP = 100 * MAX_GRID**2

# largest count * grid^2 that diagram writes as csv or json, one row per
# sample; both stream their samples, so the cap bounds time, not memory
MAX_DIAGRAM_SAMPLES = 513 * 513


class ConfigError(ValueError):
    """Bad flag, bad config file, or invalid parameter combination."""


# every printed number has 15 significant digits
_fmt = "%.15g".__mod__


def _jnum(x: float) -> float:
    # round-trip through the printed precision so JSON and CSV agree
    return float(_fmt(x))


# config key -> (dest of its flag, type, default, help); the flag is the
# dest with "-" for "_", so c.default sets --error-constant, and c.<n>.<k>
# keys set one mode's constant in args.error_constants; a format of None
# means svg for diagram and csv for every other command
_KEYS = {
    "epsilon": ("epsilon", float, 1e-3, "small parameter in (0, 1)"),
    "m": ("m", float, 0.25, "density exponent in (0, 1/2)"),
    "grid": ("grid", int, 33, "eta grid resolution per axis, 3 to %d" % MAX_GRID),
    "format": ("format", str, None, "output format (default csv; diagram defaults to svg)"),
    "out": ("out", str, None, "output file (default stdout)"),
    "c.default": ("error_constant", float, 0.0, "error pad constant C for every mode, 0 for uncertified pads"),
}

# largest config file read, in characters: room for more than 40,000
# c.<n>.<k> lines
MAX_CONFIG_CHARS = 1 << 20


def _load_config_file(path: str) -> dict[str, str]:
    try:
        # utf-8-sig drops the byte-order mark some editors write first
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read(MAX_CONFIG_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from exc
    if len(text) > MAX_CONFIG_CHARS:
        raise ConfigError(
            "config file %s holds more than %d characters" % (path, MAX_CONFIG_CHARS)
        )
    entries: dict[str, str] = {}
    # text mode has turned every line end into "\n"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                "%s:%d: expected 'key = value', got %r" % (path, lineno, line)
            )
        key, _, value = line.partition("=")
        entries[key.strip()] = value.strip()
    return entries


def _mode_key(key: str) -> tuple[int, int]:
    # the (n, k) of a c.<n>.<k> key
    if not key.startswith("c."):
        raise ConfigError("unknown config key %r" % (key,))
    parts = key.split(".")
    if len(parts) != 3:
        raise ConfigError("config key %r: error constants use c.<n>.<k>" % (key,))
    try:
        n, k = int(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError("config key %r: n and k must be integers" % (key,)) from exc
    if n < 0 or k < 1:
        raise ConfigError("config key %r: need n >= 0 and k >= 1" % (key,))
    return n, k


def _resolve_config(args: argparse.Namespace) -> None:
    """Fill in each setting of `args` that no flag set, from the config file,
    then from its default; validate them, and set `args.params` and
    `args.error_constants`."""
    # the flag --error-constant sets one constant for every mode and drops
    # the file's per-mode constants; the file's c.default keeps them
    one_constant = args.error_constant is not None
    constants: dict[tuple[int, int], float] = {}
    entries = _load_config_file(args.config) if args.config is not None else {}
    for key, text in entries.items():
        name, kind = _KEYS[key][:2] if key in _KEYS else (_mode_key(key), float)
        try:
            value = kind(text)
        except ValueError as exc:
            word = "integer" if kind is int else "number"
            raise ConfigError("config key %s: bad %s %r" % (key, word, text)) from exc
        if key in _KEYS:
            # flags override the file
            if getattr(args, name) is None:
                setattr(args, name, value)
        elif not one_constant:
            constants[name] = value
    for name, _, default, _ in _KEYS.values():
        if getattr(args, name) is None:
            setattr(args, name, default)
    # svg is the diagram's default format, and only the diagram draws it
    if args.format is None:
        args.format = "svg" if args.command == "diagram" else "csv"
    elif args.format == "svg" and args.command != "diagram":
        raise ConfigError("format svg is only available for the diagram command")
    # ExpansionParams owns the rules for epsilon, m and error constants
    try:
        args.params = ExpansionParams(args.epsilon, args.m, args.error_constant)
        for c in constants.values():
            ExpansionParams(args.epsilon, args.m, c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    args.error_constants = constants
    if not (3 <= args.grid <= MAX_GRID):
        raise ConfigError(
            "grid resolution must lie in [3, %d], got %r" % (MAX_GRID, args.grid)
        )
    if args.format not in _FORMATS:
        raise ConfigError("unknown output format %r" % (args.format,))


def _emit(chunks, args: argparse.Namespace) -> None:
    """Write the strings of `chunks` in turn to --out, or to stdout."""
    if args.out is None or args.out == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            # the reader closed the pipe, or the device is full; point stdout
            # at devnull so that the flush at interpreter exit does not fail
            # a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError("cannot write to standard output: %s" % exc) from exc
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ConfigError("cannot write output file %s: %s" % (args.out, exc)) from exc


# ------------------------------------------------------------------ tables
#
# Every table is a non-empty iterable of rows in their JSON shape.  JSON
# writes each row with json.dumps.  The CSV header and cells derive from that
# shape: a nested dict becomes <key>_<subkey> columns, a list <key>_1,
# <key>_2, ...; None prints as an empty cell and booleans as true/false.
# Rows hold only JSON types (floats as Python floats), and every float is
# stored rounded by _jnum, so the 15 significant digits of the CSV and the
# JSON numbers agree.  Neither format has a text for a NaN or an infinity,
# so a non-finite float raises ValueError.
#
# The one other value kind is a _Block, a function sampled on the eta grid,
# which holds its floats raw and must be the last value of its row.  JSON
# writes it as the list of {eta1, eta2, value} dicts of its samples, each
# float rounded by _jnum.  CSV writes one line per sample, the row's other
# cells first, under the block's key names as columns.  Both format each eta
# once per axis and write one eta1 row of the grid at a time through one
# %-template, mapped over the (eta2, value) pairs; a block is the one part of
# a table not written by json.dumps, as a sweep writes up to 513^2 samples.
# Both formats write one string per row, or per eta1 row of a block.
# CSV prints the raw floats: %.15g prints a float as it prints its _jnum
# (DBL_DIG is 15).


@dataclass(frozen=True)
class _Block:
    """Samples of a function on the grid `axis` x `axis`: `values` holds the
    value at (axis[i], axis[j]) at index i * len(axis) + j, and `keys` names
    the eta1, eta2 and value of a sample."""

    keys: tuple[str, str, str]
    axis: list[float]
    values: list[float]


def _check_block(block: _Block) -> None:
    # every sample is checked once, in bulk, before any of it is written
    if len(block.values) != len(block.axis) ** 2:
        raise ValueError("a block on %d grid points holds %d values"
                         % (len(block.axis), len(block.values)))
    for floats in (block.axis, block.values):
        odd = set(map(type, floats)) - {float}
        if odd:
            raise TypeError("a block holds a %s, not a float" % odd.pop().__name__)
        _check_finite(floats)


def _block_rows(block: _Block, eta_text):
    # (eta1 text, eta2 texts, values) of each eta1 row of the block, each eta
    # formatted once by eta_text
    _check_block(block)
    etas = list(map(eta_text, block.axis))
    size = len(etas)
    for i, eta1 in enumerate(etas):
        yield eta1, etas, block.values[i * size:(i + 1) * size]


def _columns(row: dict) -> list[str]:
    names = []
    for key, v in row.items():
        if isinstance(v, dict):
            names += ["%s_%s" % (key, sub) for sub in v]
        elif isinstance(v, list):
            names += ["%s_%d" % (key, i) for i in range(1, len(v) + 1)]
        elif type(v) is _Block:
            names += v.keys
        else:
            names.append(key)
    return names


def _cells(values) -> str:
    return ",".join([_CELL[type(v)](v) for v in values])


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return _fmt(x)
    raise ValueError("a table has no text for the float %r" % x)


def _check_finite(floats) -> None:
    # a sum that is not finite holds a NaN or an infinity, or overflowed, and
    # only then is each value checked
    if not math.isfinite(sum(floats)):
        for x in floats:
            _float_text(x)


# CSV text of each JSON value type; a dict or a list spans one cell per member
_CELL = {
    float: _float_text,
    int: str,
    str: str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "",
    dict: lambda v: _cells(v.values()),
    list: _cells,
}


def _csv_chunks(rows):
    # the header, then the lines of each row: one, or those of each eta1 row
    # of its block
    rows = iter(rows)
    first = next(rows)
    yield ",".join(_columns(first)) + "\n"
    for row in itertools.chain((first,), rows):
        *cells, last = row.values()
        if type(last) is not _Block:
            yield _cells(row.values()) + "\n"
            continue
        head = (_cells(cells) + ",").replace("%", "%%") if cells else ""
        for eta1, etas, values in _block_rows(last, _fmt):
            template = head + eta1.replace("%", "%%") + ",%s,%.15g\n"
            yield "".join(map(template.__mod__, zip(etas, values)))


# every row is written by one encoder, as json.dumps(row, indent=1) writes it
_JSON = json.JSONEncoder(indent=1, allow_nan=False)


def _json_samples(block: _Block):
    # the text of a block's list of sample dicts as the last value of a row,
    # its samples at depth 4, one eta1 row of the grid per string
    k1, k2, k3 = ["\n     " + _JSON.encode(k).replace("%", "%%") + ": " for k in block.keys]
    opening = "["
    for eta1, etas, values in _block_rows(block, lambda x: repr(_jnum(x))):
        # a sample dict whose eta2 text and value fill %s and %r
        template = "\n    {" + k1 + eta1.replace("%", "%%") + "," + k2 + "%s," + k3 + "%r\n    }"
        yield opening + ",".join(map(template.__mod__, zip(etas, map(float, map(_fmt, values)))))
        opening = ","
    yield "[]" if opening == "[" else "\n   ]"


def _json_chunks(meta: dict, rows):
    """Yield the text of `json.dumps({"meta": meta, "rows": rows}, indent=1)
    + "\n"`, drawing the row dicts of `rows`, which is never empty, as they
    are written.  A row is written by json.dumps and indented to its depth
    line by line, which is exact because JSON text never holds a raw newline
    inside a string; a non-finite float raises ValueError, and a value that
    json.dumps cannot write raises TypeError.  A _Block, the last value of
    its row, is written as the list of its samples, `{eta1, eta2, value}`
    dicts under its keys with every float rounded by _jnum, one eta1 row of
    the grid per string."""
    head, _, tail = _JSON.encode({"meta": meta, "rows": [None]}).rpartition("null")
    sep = head
    for row in rows:
        key, last = next(reversed(row.items()), (None, None))
        if type(last) is _Block:
            # the row's text up to the value of its last key
            text = _JSON.encode({**row, key: None})[:-len("null\n}")]
            yield sep + text.replace("\n", "\n  ")
            yield from _json_samples(last)
            yield "\n  }"
        else:
            yield sep + _JSON.encode(row).replace("\n", "\n  ")
        sep = ",\n  "
    yield tail + "\n"


def _write_table(args: argparse.Namespace, rows, uncertified: bool | None = None) -> None:
    """Emit `rows`, any iterable of row dicts, as CSV lines or as one JSON
    document with a meta block, writing as the rows are drawn."""
    if args.format == "csv":
        _emit(_csv_chunks(rows), args)
        return
    meta: dict = {
        "epsilon": _jnum(args.epsilon),
        "m": _jnum(args.m),
        "gamma": _jnum(args.params.gamma),
        "grid": args.grid,
    }
    if uncertified is not None:
        meta["uncertified"] = uncertified
    _emit(_json_chunks(meta, rows), args)


def _mode_fields(m: ModeIndex) -> dict:
    return {"n": m.n, "k": m.k, "parity": m.parity.value}


def _eta(p: FloquetPoint) -> list[float]:
    return [_jnum(p.eta1), _jnum(p.eta2)]


def _band_table(args: argparse.Namespace) -> tuple[list[BandInterval], bool]:
    """The band records of the first `args.count` modes, and whether any pad
    is uncertified, which a note on stderr reports."""
    from .bands import band_table

    bands = band_table(args.count, args.params, args.grid, args.error_constants)
    uncertified = any(
        args.error_constants.get((b.mode.n, b.mode.k), args.error_constant) == 0.0
        for b in bands
    )
    if uncertified:
        print(
            "note: error constant C = 0 for some modes; pads are uncertified",
            file=sys.stderr,
        )
    return bands, uncertified


# ---------------------------------------------------------------- commands


def _check_range(name: str, value: int, least: int, most: int) -> None:
    if not (least <= value <= most):
        raise ConfigError("%s must lie in [%d, %d], got %r" % (name, least, most, value))


def cmd_zeros(args: argparse.Namespace) -> int:
    _check_range("--n-max", args.n_max, 0, MAX_N)
    _check_range("--k-max", args.k_max, 1, MAX_K)
    _check_range("(n-max + 1) * k-max", (args.n_max + 1) * args.k_max, 1, MAX_ZEROS)
    rows = [
        {"n": n, "k": k, "j": _jnum(bessel_zero(n, k).value)}
        for n in range(args.n_max + 1)
        for k in range(1, args.k_max + 1)
    ]
    _write_table(args, rows)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    rows = [
        {**_mode_fields(p.mode), "lambda0": _jnum(p.lambda0)}
        for p in enumerate_spectrum(args.count)
    ]
    _write_table(args, rows)
    return EXIT_OK


def cmd_bands(args: argparse.Namespace) -> int:
    bands, uncertified = _band_table(args)
    rows = [
        {
            **_mode_fields(b.mode),
            "lower": _jnum(b.lower),
            "upper": _jnum(b.upper),
            "length": None if b.length is None else _jnum(b.length),
            "pad": _jnum(b.pad),
            "undetermined": b.undetermined,
            "eta_min": _eta(b.extrema_eta[0]),
            "eta_max": _eta(b.extrema_eta[1]),
        }
        for b in bands
    ]
    _write_table(args, rows, uncertified)
    return EXIT_OK


def cmd_gaps(args: argparse.Namespace) -> int:
    from .bands import gap_reports

    bands, uncertified = _band_table(args)
    reports = gap_reports(bands, args.params)
    rows = [
        {
            "below": _mode_fields(r.below),
            "above": _mode_fields(r.above),
            "gap_lower": _jnum(r.gap_lower),
            "gap_upper": _jnum(r.gap_upper),
            "certified": r.certified,
            "reason": r.reason,
        }
        for r in reports
    ]
    _write_table(args, rows, uncertified)
    return EXIT_OK


def _render_svg(bands: list[BandInterval], reports, uncertified: bool) -> str:
    # every text and attribute value written here is a number, a mode label
    # built from integers and a Parity value, or a fixed string, so nothing
    # needs XML escaping
    top, bottom = 50, 600
    low = min(b.lower for b in bands)
    high = max(b.upper for b in bands)
    span = (high - low) or 1.0
    lo = low - 0.03 * span
    hi = high + 0.03 * span

    def ypos(v: float) -> float:
        return bottom - (v - lo) / (hi - lo) * (bottom - top)

    # bands fill x 170..230 with their labels at 238; gap bars sit at 156
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="460" height="640" viewBox="0 0 460 640">'
        '<defs><pattern id="hatch" patternUnits="userSpaceOnUse" width="6" height="6">'
        '<path d="M0,6 L6,0" stroke="#666666" stroke-width="1" /></pattern></defs>'
        # spectral axis with end labels
        '<line x1="120" y1="%.2f" x2="120" y2="%.2f" stroke="#000000" stroke-width="1" />'
        % (ypos(lo), ypos(hi))
    ]
    for value in (low, high):
        out.append(
            '<text x="112" y="%.2f" font-size="11" text-anchor="end">%s</text>'
            % (ypos(value) + 4, _fmt(value))
        )
    for b in bands:
        y_hi = ypos(b.upper)
        y_lo = ypos(b.lower)
        out.append(
            '<rect class="%s" x="170" y="%.2f" width="60" height="%.2f" fill="%s" stroke="#223355" stroke-width="0.6" />'
            '<text x="238" y="%.2f" font-size="11">%s</text>'
            % (
                "band band-undetermined" if b.undetermined else "band",
                y_hi,
                max(y_lo - y_hi, 0.75),
                "url(#hatch)" if b.undetermined else "#4477aa",
                0.5 * (y_lo + y_hi) + 4,
                b.mode.label(),
            )
        )
    for rep in reports:
        if not rep.certified:
            continue
        y1 = ypos(rep.gap_lower)
        y2 = ypos(rep.gap_upper)
        out.append(
            '<line class="gap" x1="156" y1="%.2f" x2="156" y2="%.2f" stroke="#aa3322" stroke-width="2" />'
            '<text x="150" y="%.2f" font-size="10" text-anchor="end" fill="#aa3322">gap %g..%g</text>'
            % (y1, y2, 0.5 * (y1 + y2) + 4, _jnum(rep.gap_lower), _jnum(rep.gap_upper))
        )
    if uncertified:
        out.append(
            '<text x="16" y="24" font-size="12" fill="#aa3322">'
            "uncertified pads (error constant 0 for some modes)</text>"
        )
    out.append("</svg>\n")
    return "".join(out)


def cmd_diagram(args: argparse.Namespace) -> int:
    total = args.count * args.grid**2
    if args.format != "svg" and total > MAX_DIAGRAM_SAMPLES:
        raise ConfigError(
            "diagram --format %s writes count * grid^2 = %d samples, at most %d"
            % (args.format, total, MAX_DIAGRAM_SAMPLES)
        )
    from .bands import brillouin_sweep, gap_reports

    bands, uncertified = _band_table(args)
    reports = gap_reports(bands, args.params) if args.count >= 2 else []
    if args.format == "svg":
        _emit([_render_svg(bands, reports, uncertified)], args)
        return EXIT_OK
    # each mode is swept only when the writer reaches its row
    rows = (
        {
            **_mode_fields(b.mode),
            "samples": _Block(
                ("eta1", "eta2", "value"),
                *brillouin_sweep(b.mode, args.params, args.grid),
            ),
        }
        for b in bands
    )
    _write_table(args, rows, uncertified)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verify_checks

    checks = verify_checks(args.params, args.grid)
    if args.format == "json":
        # strict JSON has no NaN or infinity: a non-finite observed value is
        # written as null, and the detail text keeps it
        rows = [
            {"name": c.name,
             "observed": _jnum(c.observed) if math.isfinite(c.observed) else None,
             "bound": _jnum(c.bound), "passed": c.passed, "detail": c.detail}
            for c in checks
        ]
        _write_table(args, rows)
    else:
        lines = ["%s %s: %s\n" % ("PASS" if c.passed else "FAIL", c.name, c.detail) for c in checks]
        _emit(lines, args)
    failing = [c.name for c in checks if not c.passed]
    if failing:
        print("verify failed: %s" % failing[0], file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ------------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _add_common_flags(parser: argparse.ArgumentParser, default) -> None:
    # the same flags hang off the main parser and every subcommand; the
    # subcommand copies use SUPPRESS so an absent flag does not clobber a
    # value parsed before the subcommand name
    for name, kind, value, text in _KEYS.values():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=kind, default=default,
            help=text if value is None else "%s (default %g)" % (text, value),
            choices=_FORMATS if name == "format" else None,
        )
    parser.add_argument("--config", default=default, help="key=value config file; flags override it")


def _build_parser() -> _Parser:
    common_main = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common_main, None)
    common_sub = argparse.ArgumentParser(add_help=False)
    _add_common_flags(common_sub, argparse.SUPPRESS)

    parser = _Parser(
        prog="diskbands", description=__doc__.splitlines()[0], parents=[common_main]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("zeros", parents=[common_sub], help="table of Bessel zeros j_{n,k}")
    p.add_argument("--n-max", type=int, default=8, help="largest order n, 0 to %d (default %%(default)s)" % MAX_N)
    p.add_argument("--k-max", type=int, default=5, help="zeros per order, 1 to %d (default %%(default)s)" % MAX_K)
    p.set_defaults(handler=cmd_zeros)
    for name, handler, least, text in (
        ("spectrum", cmd_spectrum, 1, "leading limit eigenvalues in order"),
        ("bands", cmd_bands, 1, "band intervals with pads and lengths"),
        ("gaps", cmd_gaps, 2, "gap reports for adjacent band pairs"),
        ("diagram", cmd_diagram, 1, "band diagram (SVG) or sweep samples"),
    ):
        p = sub.add_parser(name, parents=[common_sub], help=text)
        p.add_argument("--count", type=int, default=10, help="modes, %d to %d (default %%(default)s)" % (least, MAX_COUNT))
        p.set_defaults(handler=handler, least_count=least)
    verify = sub.add_parser("verify", parents=[common_sub], help="run the numerical cross-check suite")
    verify.set_defaults(handler=cmd_verify)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # library warnings print as one "warning:" line, like "note:" and "error:"
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _resolve_config(args)
        if "count" in args:
            _check_range("--count", args.count, args.least_count, MAX_COUNT)
            # spectrum lists modes; the other commands sweep grid^2 points per mode
            if args.command != "spectrum":
                _check_range("count * grid^2", args.count * args.grid**2, 1, MAX_SWEEP)
        return args.handler(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ZeroFindingError, OracleConvergenceError, QuadratureConvergenceError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    except InternalConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # validation raises ConfigError; any other exception is a fault of
        # the program, not of its input, and its traceback follows
        print("internal failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
