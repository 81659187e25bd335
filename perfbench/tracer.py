"""Span tracer for one traced CLI op, and the analysis of its spans.

Run as a child process::

    PYTHONPATH=src python3 perfbench/tracer.py bands --count 10 --grid 129

It imports diskbands, swaps every boundary function in ``BOUNDARIES`` for a
timing wrapper at each binding in the loaded ``diskbands.*`` modules whose
value is that function object, runs ``cli.main(argv)`` with stdout captured,
and writes to its own stdout one JSON header line, the captured CLI output,
and the spans as packed arrays.  Spans stay in memory until the op ends.

The parent side (``read_child_output``, ``analyse``) imports nothing from
diskbands: this module is the benchmark's, not the package's.
"""

from __future__ import annotations

import functools
import importlib
import io
import json
import sys
import time
from array import array

import numpy as np

# (layer, module, attribute path) of every function whose calls are timed.
# The kernel layer is `_core`, which re-exports the compiled or pure-Python
# lane; `corrections` also covers `_quad`, which runs inside its spans.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("kernel", "diskbands._core", "bessel_j_kernel"),
    ("kernel", "diskbands._core", "tridiag_smallest_eigenvalues"),
    ("bessel", "diskbands.bessel", "bessel_j"),
    ("bessel", "diskbands.bessel", "bessel_j_prime"),
    ("bessel", "diskbands.bessel", "bessel_zero"),
    ("spectrum", "diskbands.spectrum", "enumerate_spectrum"),
    ("spectrum", "diskbands.spectrum", "limit_eigenvalue"),
    ("corrections", "diskbands.corrections", "lambda1_simple"),
    ("corrections", "diskbands.corrections", "lambda1_multiple"),
    ("corrections", "diskbands.corrections", "CorrectionValue.lambda1_at"),
    ("corrections", "diskbands.corrections", "lambda_expansion"),
    ("corrections", "diskbands.corrections", "correction_matrix"),
    ("corrections", "diskbands.corrections", "c0_simple"),
    ("corrections", "diskbands.corrections", "c0_multiple"),
    ("bands", "diskbands.bands", "band_interval"),
    ("bands", "diskbands.bands", "band_length"),
    ("bands", "diskbands.bands", "detect_gaps"),
    ("bands", "diskbands.bands", "swept_band_width"),
    ("bands", "diskbands.bands", "brillouin_sweep"),
    ("oracles", "diskbands.oracles", "c0_quadrature"),
    ("oracles", "diskbands.oracles", "disk_dirichlet_eigenvalues"),
    ("oracles", "diskbands.oracles", "convergence_ratios"),
    ("oracles", "diskbands.oracles", "boundary_arc_length"),
    ("cli", "diskbands.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))


def metric_name(index: int) -> str:
    """``<layer>.<function>`` for BOUNDARIES[index]."""
    layer, _, attr = BOUNDARIES[index]
    return "%s.%s" % (layer, attr)


# ------------------------------------------------------------- child side


class Recorder:
    """Spans as parallel packed arrays: function index, parent span (-1 for
    none), start and end on the perf_counter clock."""

    def __init__(self):
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.zero_keys: set = set()

    def wrap(self, fn, index: int, record_args: bool):
        func, parent, start, end, stack = self.func, self.parent, self.start, self.end, self.stack
        zero_keys = self.zero_keys
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if record_args:
                zero_keys.add(args + tuple(sorted(kwargs.items())))
            sid = len(func)
            func.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper


def _resolve(module: str, attr: str):
    # (owner, name, function) or None when the boundary no longer exists
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return (owner, name, fn) if callable(fn) else None


def install(recorder: Recorder, boundaries=BOUNDARIES) -> list[str]:
    """Wrap every boundary at each of its bindings; returns per-boundary
    status, "ok" or "missing"."""
    status = []
    for index, (_, module, attr) in enumerate(boundaries):
        found = _resolve(module, attr)
        if found is None:
            status.append("missing")
            continue
        owner, name, fn = found
        wrapper = recorder.wrap(fn, index, record_args=attr == "bessel_zero")
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
        else:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "diskbands" or mod_name.startswith("diskbands."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
        status.append("ok")
    return status


def run_traced(argv: list[str], boundaries=BOUNDARIES) -> bytes:
    """Trace one ``cli.main(argv)``; returns the child's wire output."""
    t0 = time.perf_counter()
    import diskbands  # noqa: F401  (loads every module before patching)
    import diskbands.cli

    recorder = Recorder()
    status = install(recorder, boundaries)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        code = diskbands.cli.main(argv)
    finally:
        sys.stdout = real_stdout
    t1 = time.perf_counter()
    out = captured.getvalue().encode("utf-8")
    header = {
        "exit": code,
        "t0": t0,
        "t1": t1,
        "status": status,
        "spans": len(recorder.func),
        "zeros_distinct": len(recorder.zero_keys),
        "out_bytes": len(out),
    }
    return b"".join(
        [
            json.dumps(header).encode() + b"\n",
            out,
            recorder.func.tobytes(),
            recorder.parent.tobytes(),
            recorder.start.tobytes(),
            recorder.end.tobytes(),
        ]
    )


# ------------------------------------------------------------ parent side


def read_child_output(raw: bytes):
    """(header, cli stdout, spans) from a traced child's wire output; spans
    is a dict of numpy arrays func, parent, start, end."""
    line_end = raw.index(b"\n")
    header = json.loads(raw[:line_end])
    pos = line_end + 1
    out = raw[pos : pos + header["out_bytes"]]
    pos += header["out_bytes"]
    n = header["spans"]
    spans = {}
    for key, dtype in (("func", np.int32), ("parent", np.int32), ("start", np.float64), ("end", np.float64)):
        size = n * np.dtype(dtype).itemsize
        spans[key] = np.frombuffer(raw[pos : pos + size], dtype=dtype)
        pos += size
    if pos != len(raw):
        raise ValueError("traced child wrote %d bytes, expected %d" % (len(raw), pos))
    return header, out, spans


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the union of its child spans.  Spans come
    from one thread, so children of a span are disjoint and nested inside it
    and their union is their sum."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def under(spans, ancestor: int) -> np.ndarray:
    """Mask of spans with a span of function `ancestor` among their ancestors."""
    func, parent = spans["func"], spans["parent"]
    mask = np.zeros(len(func), dtype=bool)
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.nonzero(live)[0]
        mask[idx] |= func[anc[idx]] == ancestor
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return mask


def analyse(header, spans) -> dict:
    """Per-op layer numbers from one traced child."""
    nfunc = len(BOUNDARIES)
    func = spans["func"]
    own = self_times(spans)
    calls = np.bincount(func, minlength=nfunc)
    self_s = np.bincount(func, weights=own, minlength=nfunc)
    wall = header["t1"] - header["t0"]
    spanned = float(np.sum((spans["end"] - spans["start"])[spans["parent"] < 0]))
    index = {metric_name(i): i for i in range(nfunc)}
    kernel = func == index["kernel.bessel_j_kernel"]
    return {
        "calls": calls,
        "self_s": self_s,
        "wall_s": wall,
        "unspanned_s": wall - spanned,
        "self_sum_s": float(np.sum(own)),
        "kernel_under_band": int(np.sum(kernel & under(spans, index["bands.band_interval"]))),
        "kernel_under_zero": int(np.sum(kernel & under(spans, index["bessel.bessel_zero"]))),
        "zeros_distinct": header["zeros_distinct"],
        "out_bytes": header["out_bytes"],
    }


if __name__ == "__main__":
    wire = run_traced(sys.argv[1:])
    sys.stdout.buffer.write(wire)
    sys.stdout.buffer.flush()
