"""Command-line front end.

Subcommands: zeros, spectrum, bands, gaps, diagram, verify.  Tables are
emitted as CSV (default) or JSON; diagram renders an SVG band picture, and
verify prints the check records of `diskbands.verify` as PASS/FAIL lines
(csv) or JSON.  Every numeric is printed with 15 significant digits and
identical inputs produce byte-identical output.  Exit codes: 0 ok, 1 usage or
config error, 2 numerical failure, 3 internal consistency failure or other
internal fault.

Each subcommand is one row of `_COMMANDS`: its handler, help, least --count
and own flags; each setting is one row of `_KEYS`: its config key, the dest,
type, default and help of its flag.  `_parse_args` reads argv against these
tables, and `_help` writes the --help texts from them; the standard library's
argparse, with the gettext, locale and shutil it loads, never loads.  A
handler reads every setting from its parsed arguments, which
`_resolve_config` fills in from the flags, then the config file, then the
defaults.  Every size a command is asked for (`--count`, the zeros table,
the sweep `count * grid^2`) is checked against its cap before any work.  The
json module loads only when a command writes JSON, and traceback only to
report an internal failure; typing never loads.  The diagram handler, its
SVG renderer and the writers of its sample blocks live in `_diagram`, which
only diagram loads.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import warnings

from .bessel import ZeroFindingError, bessel_zero
from .spectrum import (
    ExpansionParams,
    InternalConsistencyError,
    ModeIndex,
    OracleConvergenceError,
    QuadratureConvergenceError,
    Record,
    enumerate_spectrum,
    limit_eigenvalue,
)

# the Floquet modules load inside the commands that use them, so zeros and
# spectrum start without them; the BandInterval of diskbands.bands and the
# FloquetPoint of diskbands.corrections in annotations below are never
# evaluated, so nothing is imported for them

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
# few seconds (spectrum --count 5000 in about 0.6 s on a 2-vCPU Xeon)
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


def _resolve_config(args: _Args) -> None:
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
    _check_range("grid resolution", args.grid, 3, MAX_GRID)
    if args.format not in _FORMATS:
        raise ConfigError("unknown output format %r" % (args.format,))


def _emit(chunks, args: _Args) -> None:
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
# writes its rows with json.dumps, a list of up to _JSON_BATCH of them per
# call, since the encoder's setup costs about as much as a short row.  The
# CSV header and cells derive from that shape: a nested dict becomes
# <key>_<subkey> columns, a list <key>_1, <key>_2, ...; None prints as an
# empty cell and booleans as true/false.
# Rows hold only JSON types (floats as Python floats), and every float is
# stored rounded by _jnum, so the 15 significant digits of the CSV and the
# JSON numbers agree.  Neither format has a text for a NaN or an infinity,
# so a non-finite float raises ValueError.
#
# The one other value kind is a _Block, a function sampled on the eta grid,
# which holds its floats raw and must be the last value of its row; only
# diagram makes one, so its writers, `_block_rows` and `_json_samples`,
# live in `_diagram` and load with the first block written.  JSON
# writes it as the list of {eta1, eta2, value} dicts of its samples, each
# float rounded by _jnum.  CSV writes one line per sample, the row's other
# cells first, under the block's key names as columns.  A block is the one
# part of a table not written by json.dumps, as a sweep writes up to 513^2
# samples: both formats turn each eta into text once per axis and each
# distinct value once per block, since a sweep repeats its values, and join
# those texts one eta1 row of the grid at a time.  A sweep repeats whole
# rows too (eta1 <-> -eta1, and every row of a flat band), so a block joins
# the texts of each distinct row once, with a "\0" between two samples, and
# every repeat of the row reuses that text.  The writer puts the row's head
# before it and in place of each "\0": for CSV the row's other cells and
# eta1, for JSON the sample dict's opening with eta1 and the eta2 key.  CSV
# writes one string per row, JSON one per batch of rows, and both one per
# eta1 row of a block.  CSV prints the raw floats: %.15g prints a float as
# it prints its _jnum (DBL_DIG is 15).  JSON refuses the few finite floats
# above the largest 15-digit one, whose _jnum is an infinity, as it refuses
# a row's infinity.


# the most rows that one json.dumps call writes
_JSON_BATCH = 1024


class _Block(Record):
    """Samples of a function on the grid `axis` x `axis`: `values` holds the
    value at (axis[i], axis[j]) at index i * len(axis) + j, and `keys` names
    the eta1, eta2 and value of a sample."""

    keys: tuple[str, str, str]
    axis: list[float]
    values: list[float]


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
        from ._diagram import _block_rows

        head = _cells(cells) + "," if cells else ""
        for eta1, samples in _block_rows(last, _fmt, ","):
            line = head + eta1 + ","
            yield line + samples.replace("\0", "\n" + line) + "\n"


def _ends_in_block(row: dict) -> bool:
    return type(next(reversed(row.values()), None)) is _Block


def _json_chunks(meta: dict, rows):
    """Yield the text of `json.dumps({"meta": meta, "rows": rows}, indent=1)
    + "\n"`, drawing the row dicts of `rows`, which is never empty, as they
    are written.  Each run of rows without a block is written by json.dumps
    as lists of at most _JSON_BATCH rows, each list's text less its brackets
    indented one level deeper line by line, which is exact because JSON text
    never holds a raw newline inside a string; a non-finite float raises
    ValueError, and a value that json.dumps cannot write raises TypeError.
    A _Block, the last value of its row, is written by `_json_samples` as
    the list of its samples, `{eta1, eta2, value}` dicts under its keys with
    every float rounded by _jnum, one eta1 row of the grid per string."""
    # json loads here, on the one path that writes JSON; every row is written
    # by one encoder, as json.dumps(rows, indent=1) writes it
    import json

    encode = json.JSONEncoder(indent=1, allow_nan=False).encode
    head, _, tail = encode({"meta": meta, "rows": [None]}).rpartition("null")
    sep = head
    for blocks, run in itertools.groupby(rows, _ends_in_block):
        if not blocks:
            while batch := list(itertools.islice(run, _JSON_BATCH)):
                # the list's text less its opening "[\n " and closing "\n]"
                yield sep + encode(batch)[3:-2].replace("\n", "\n ")
                sep = ",\n  "
            continue
        from ._diagram import _json_samples

        for row in run:
            # the row's text up to the value of its last key
            key = next(reversed(row))
            text = encode({**row, key: None})[:-len("null\n}")]
            yield sep + text.replace("\n", "\n  ")
            yield from _json_samples(row[key], encode)
            yield "\n  }"
            sep = ",\n  "
    yield tail + "\n"


def _write_table(args: _Args, rows, uncertified: bool | None = None) -> None:
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


def _band_table(args: _Args) -> tuple[list[BandInterval], bool]:
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


def cmd_zeros(args: _Args) -> int:
    _check_range("--n-max", args.n_max, 0, MAX_N)
    _check_range("--k-max", args.k_max, 1, MAX_K)
    _check_range("(n-max + 1) * k-max", (args.n_max + 1) * args.k_max, 1, MAX_ZEROS)
    rows = [
        {"n": n, "k": k, "j": _jnum(bessel_zero(n, k))}
        for n in range(args.n_max + 1)
        for k in range(1, args.k_max + 1)
    ]
    _write_table(args, rows)
    return EXIT_OK


def cmd_spectrum(args: _Args) -> int:
    rows = [
        {**_mode_fields(m), "lambda0": _jnum(limit_eigenvalue(m))}
        for m in enumerate_spectrum(args.count)
    ]
    _write_table(args, rows)
    return EXIT_OK


def cmd_bands(args: _Args) -> int:
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


def cmd_gaps(args: _Args) -> int:
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


def cmd_diagram(args: _Args) -> int:
    from ._diagram import cmd_diagram

    return cmd_diagram(args)


def cmd_verify(args: _Args) -> int:
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


def _count_command(handler, text: str, least: int) -> tuple:
    # a command that takes --count, at least `least` modes
    return handler, text, least, {"count": (10, "modes, %d to %d" % (least, MAX_COUNT))}


# subcommand -> (handler, help, least --count, its own flags); each own flag
# is an integer, dest -> (default, help), and the least --count is None for
# a command without that flag
_COMMANDS = {
    "zeros": (cmd_zeros, "table of Bessel zeros j_{n,k}", None, {
        "n_max": (8, "largest order n, 0 to %d" % MAX_N),
        "k_max": (5, "zeros per order, 1 to %d" % MAX_K),
    }),
    "spectrum": _count_command(cmd_spectrum, "leading limit eigenvalues in order", 1),
    "bands": _count_command(cmd_bands, "band intervals with pads and lengths", 1),
    "gaps": _count_command(cmd_gaps, "gap reports for adjacent band pairs", 2),
    "diagram": _count_command(cmd_diagram, "band diagram (SVG) or sweep samples", 1),
    "verify": (cmd_verify, "run the numerical cross-check suite", None, {}),
}


class _Args:
    """The settings of one run: `command`, and one attribute per flag dest."""


def _flags(command: str | None) -> dict:
    # flag -> (dest, type, default, help) of every flag that --help lists
    # after -h: the _KEYS flags and --config, then the command's own
    rows = [*_KEYS.values(), ("config", str, None, "key=value config file; flags override it")]
    if command is not None:
        rows += [(dest, int, *row) for dest, row in _COMMANDS[command][3].items()]
    return {"--" + row[0].replace("_", "-"): row for row in rows}


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: diskbands [options] {%s} [options]" % ",".join(_COMMANDS), "",
                 __doc__.splitlines()[0], "", "commands:"]
        lines += ["  %-10s%s" % (name, row[1]) for name, row in _COMMANDS.items()]
    else:
        lines = ["usage: diskbands %s [options]" % command, "", _COMMANDS[command][1]]
    lines += ["", "options:", "  -h, --help", "      show this help message and exit"]
    for flag, (dest, _, default, text) in _flags(command).items():
        metavar = "{%s}" % ",".join(_FORMATS) if dest == "format" else dest.upper()
        if default is not None:
            text = "%s (default %g)" % (text, default)
        lines += ["  %s %s" % (flag, metavar), "      " + text]
    return "\n".join(lines) + "\n"


def _is_flag(word: str) -> bool:
    # "-" alone, a number and a text with a space are values, as argparse
    # reads them, so that --epsilon -1 reaches its validation
    if not word.startswith("-") or word == "-" or " " in word:
        return False
    try:
        float(word)
    except ValueError:
        return True
    return False


def _parse_args(argv: list[str]) -> _Args:
    """The settings `argv` names: `command`, each common flag's value or None
    where it is absent, and each of the command's own flags' value or
    default.  Flags go before or after the command, with their value as the
    next word or after "="; a unique prefix names a flag, and the last of a
    repeated flag wins.  -h or --help prints the help of the program, or of
    the command named before it, and exits 0; every usage fault raises one
    ConfigError."""
    args = _Args()
    args.command = None
    flags = _flags(None)
    for dest, *_ in flags.values():
        setattr(args, dest, None)
    # words no flag or command takes, reported together at the end
    extras = []
    words = iter(argv)
    for word in words:
        if not _is_flag(word):
            if args.command is not None:
                extras.append(word)
            elif word in _COMMANDS:
                args.command = word
                flags = _flags(word)
                for dest, row in _COMMANDS[word][3].items():
                    setattr(args, dest, row[0])
            else:
                raise ConfigError("argument command: invalid choice: %r (choose from %s)"
                                  % (word, ", ".join(map(repr, _COMMANDS))))
            continue
        name, equals, value = word.partition("=")
        known = [*flags, "--help"] if name.startswith("--") and name != "--" else []
        names = [name] if name in known else [flag for flag in known if flag.startswith(name)]
        if len(names) > 1:
            raise ConfigError("ambiguous option: %s could match %s" % (name, ", ".join(names)))
        if word == "-h" or names == ["--help"]:
            if equals:
                raise ConfigError("argument -h/--help: ignored explicit argument %r" % value)
            sys.stdout.write(_help(args.command))
            raise SystemExit(EXIT_OK)
        if not names:
            extras.append(word)
            continue
        flag = names[0]
        dest, kind = flags[flag][:2]
        if not equals:
            value = next(words, None)
            if value is None or _is_flag(value):
                raise ConfigError("argument %s: expected one argument" % flag)
        try:
            setattr(args, dest, kind(value))
        except ValueError:
            raise ConfigError("argument %s: invalid %s value: %r"
                              % (flag, kind.__name__, value)) from None
        if dest == "format" and value not in _FORMATS:
            raise ConfigError("argument --format: invalid choice: %r (choose from %s)"
                              % (value, ", ".join(map(repr, _FORMATS))))
    if args.command is None:
        raise ConfigError("the following arguments are required: command")
    if extras:
        raise ConfigError("unrecognized arguments: %s" % " ".join(extras))
    return args


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    # library warnings print as one "warning:" line, like "note:" and "error:"
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        _resolve_config(args)
        handler, _, least, _ = _COMMANDS[args.command]
        if least is not None:
            _check_range("--count", args.count, least, MAX_COUNT)
            # spectrum lists modes; the other commands sweep grid^2 points per mode
            if args.command != "spectrum":
                _check_range("count * grid^2", args.count * args.grid**2, 1, MAX_SWEEP)
        return handler(args)
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
        # the program, not of its input, and its traceback follows; traceback
        # loads only here, so that no command pays for it on the way in
        import traceback

        print("internal failure: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    # run as `python -m diskbands.cli`: _diagram's `from .cli import` must
    # find this module, not load a second one whose ConfigError main misses
    sys.modules.setdefault("diskbands.cli", sys.modules[__name__])
    sys.exit(main())
