"""The diagram command: the band picture as SVG, or each band's Brillouin
sweep samples as CSV or JSON rows ending in a `cli._Block`.  Only diagram
makes blocks, so their writers live here too, loaded by `cli._csv_chunks`
and `cli._json_chunks` with the first block they write.  A sweep repeats
whole eta1 rows, so `_block_rows` builds the text of each distinct row once
per block, and each writer puts the row's own head into it.
"""

from __future__ import annotations

import math

from . import cli
from .cli import EXIT_OK, ConfigError, _Block, _band_table, _emit, _float_text, _fmt, _jnum
from .cli import _mode_fields, _write_table

# BandInterval and _Args in annotations below are never evaluated


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


def _block_rows(block: _Block, text, mid: str):
    # (eta1 text, row text) of each eta1 row of the block: the row's sample
    # texts, each its eta2 text, mid and its value text, joined by "\0", in
    # whose place the writer puts its text between two samples; neither text
    # nor mid writes a "\0".  A row text depends on the row's values alone,
    # and a sweep repeats whole rows (eta1 <-> -eta1, and every row of a flat
    # band), so each distinct row is built once per block, and the values of
    # the rows built are formatted once each.  Zeros are the exception, as
    # 0.0 == -0.0 would share the texts "0" and "-0" under one key: a zero is
    # formatted once per sample, and a block holding one builds every row
    _check_block(block)
    etas = list(map(text, block.axis))
    size = len(etas)
    memo = {}
    # a row's text joins parts: at even places each eta2 text and mid, after
    # a "\0" but for the first, and at odd places the row's value texts
    parts = [None] * 2 * size
    parts[::2] = ["\0" * (j > 0) + eta2 + mid for j, eta2 in enumerate(etas)]

    def build(row):
        memo.update([(v, text(v)) for v in set(row).difference(memo) if v])
        parts[1::2] = [memo.get(v) or text(v) for v in row]
        return "".join(parts)

    rows = (block.values[i * size:(i + 1) * size] for i in range(size))
    if 0.0 in block.values:
        yield from zip(etas, map(build, rows))
        return
    built = {}
    for eta1, row in zip(etas, rows):
        key = tuple(row)
        joined = built.get(key)
        if joined is None:
            joined = built[key] = build(row)
        yield eta1, joined


def _json_float_text(x: float) -> str:
    # the JSON text of a block float, as json.dumps writes its _jnum; the few
    # finite floats above the largest 15-digit one round to an infinity
    y = _jnum(x)
    if math.isfinite(y):
        return repr(y)
    raise ValueError("a table has no text for the float %r" % x)


def _check_finite(floats) -> None:
    # a sum that is not finite holds a NaN or an infinity, or overflowed, and
    # only then is each value checked
    if not math.isfinite(sum(floats)):
        for x in floats:
            _float_text(x)


def _json_samples(block: _Block, encode):
    # the text of a block's list of sample dicts as the last value of a row,
    # its samples at depth 4, one eta1 row of the grid per string; each
    # distinct value's text is its _jnum's repr, as json.dumps writes it, and
    # a value whose _jnum is an infinity raises ValueError
    k1, k2, k3 = ["\n     " + encode(k) + ": " for k in block.keys]
    opening = "["
    # a row text holds "\1" for the "," and value key of each sample, so the
    # rows a block keeps take less memory; JSON escapes every control
    # character, so no key or number writes a "\0" or "\1"
    for eta1, samples in _block_rows(block, _json_float_text, "\1"):
        # each sample dict opens with the row's eta1 and its eta2 key
        head = "\n    {" + k1 + eta1 + "," + k2
        samples = samples.replace("\1", "," + k3).replace("\0", "\n    }," + head)
        yield opening + head + samples + "\n    }"
        opening = ","
    yield "[]" if opening == "[" else "\n   ]"


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


def cmd_diagram(args: _Args) -> int:
    total = args.count * args.grid**2
    if args.format != "svg" and total > cli.MAX_DIAGRAM_SAMPLES:
        raise ConfigError(
            "diagram --format %s writes count * grid^2 = %d samples, at most %d"
            % (args.format, total, cli.MAX_DIAGRAM_SAMPLES)
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
