"""Output checks against an independent reference.

Every numeric the CLI prints is recomputed from ``scipy.special``, which
shares no code with diskbands.  ``check(argv, stdout)`` returns a list of
problems; an empty list means the op's output is correct.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
from scipy.special import jn_zeros, jv

SOFT_CELL_AREA = 1.0 - math.pi / 4.0
GAP_REASONS = {"undetermined-band", "shared-leading-term", "first-order-flat", "pads-overlap"}

# j_{n,k} for n < 30, k <= 20 agrees with jn_zeros to 7e-16 relative; values
# are printed with 15 significant digits.
REL_TOL = 1e-13
# band lengths and sweep samples pass through a few more float operations
FORMULA_TOL = 1e-12


@lru_cache(maxsize=None)
def _zeros(n: int, kmax: int) -> np.ndarray:
    return jn_zeros(n, kmax)


def zero(n: int, k: int) -> float:
    return float(_zeros(n, max(k, 20))[k - 1])


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(abs(want), 1e-300)


def _flags(argv: list[str]) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


class _Run:
    """Parameters of one op, parsed from its argv the way the CLI reads them."""

    def __init__(self, argv: list[str]):
        flags = _flags(argv)
        self.command = argv[0]
        self.epsilon = float(flags.get("--epsilon", "1e-3"))
        self.m = float(flags.get("--m", "0.25"))
        self.c = float(flags.get("--error-constant", "0"))
        self.grid = int(flags.get("--grid", "33"))
        self.count = int(flags.get("--count", "10"))
        self.n_max = int(flags.get("--n-max", "8"))
        self.k_max = int(flags.get("--k-max", "5"))
        self.format = flags.get("--format", "svg" if self.command == "diagram" else "csv")
        self.scale = self.epsilon ** (2.0 * self.m)
        self.pad = self.c * self.epsilon ** min(3.0 * self.m, 1.0)


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _rows(run: _Run, text: str) -> list[dict]:
    if run.format == "json":
        return json.loads(text)["rows"]
    return _csv_rows(text)


def _num(v) -> float | None:
    if v is None or v == "":
        return None
    return float(v)


def limit_spectrum(count: int) -> list[tuple[int, int, float]]:
    """First `count` limit eigenvalues (n, k, 4 j_{n,k}^2) ascending, each
    n >= 1 zero listed twice (cosine and sine branch)."""
    cut = 10.0
    while True:
        # j_{n,k} >= j_{0,k} > (k - 1/4) pi, so index kmax lies beyond the cut
        # for every order, and j_{n,1} > n ends the order scan
        kmax = int(cut / math.pi) + 2
        pool = []
        n = 0
        while _zeros(n, kmax)[0] <= cut:
            pool += [(z, n, k) for k, z in enumerate(_zeros(n, kmax), start=1) if z <= cut]
            n += 1
        pool.sort()
        out = []
        for z, n, k in pool:
            out += [(n, k, 4.0 * z * z)] * (1 if n == 0 else 2)
        if len(out) >= count:
            return out[:count]
        cut *= 1.5


# ----------------------------------------------------------- per command


def check_zeros(run: _Run, text: str) -> list[str]:
    rows = _rows(run, text)
    want = (run.n_max + 1) * run.k_max
    problems = [] if len(rows) == want else ["zeros: %d rows, want %d" % (len(rows), want)]
    for r in rows:
        n, k, j = int(r["n"]), int(r["k"]), float(r["j"])
        if not _close(j, zero(n, k), REL_TOL):
            problems.append("zeros: j(%d,%d) = %r, reference %r" % (n, k, j, zero(n, k)))
    return problems


def check_spectrum(run: _Run, text: str) -> list[str]:
    rows = _rows(run, text)
    if len(rows) != run.count:
        return ["spectrum: %d rows, want %d" % (len(rows), run.count)]
    problems = []
    reference = limit_spectrum(run.count)
    for i, (r, (_, _, lam_ref)) in enumerate(zip(rows, reference)):
        n, k, lam = int(r["n"]), int(r["k"]), float(r["lambda0"])
        own = 4.0 * zero(n, k) ** 2
        if not _close(lam, own, REL_TOL):
            problems.append("spectrum: lambda0(%d,%d) = %r, 4 j^2 = %r" % (n, k, lam, own))
        if not _close(lam, lam_ref, REL_TOL):
            problems.append("spectrum: row %d = %r, ordered reference %r" % (i, lam, lam_ref))
    return problems


def band_length(n: int, k: int, parity: str, scale: float) -> float | None:
    """Closed-form leading band length of one branch; None if undetermined."""
    if n == 0:
        z = zero(0, k)
        return (2.0 * math.pi / SOFT_CELL_AREA) * jv(1, z) ** 2 * scale
    if n % 4 == 0:
        return None
    if parity == "c":
        return 0.0
    z = zero(n, k)
    num = 64.0 if n % 4 == 2 else 16.0
    return abs(num / (z * n * n * SOFT_CELL_AREA) * (jv(n - 1, z) - jv(n + 1, z))) * scale


def check_bands(run: _Run, text: str) -> list[str]:
    rows = _rows(run, text)
    if len(rows) != run.count:
        return ["bands: %d rows, want %d" % (len(rows), run.count)]
    problems = []
    for r in rows:
        n, k, parity = int(r["n"]), int(r["k"]), r["parity"]
        lower, upper, pad = float(r["lower"]), float(r["upper"]), float(r["pad"])
        length = _num(r["length"])
        label = "bands (%d,%d,%s)" % (n, k, parity)
        if not lower <= upper:
            problems.append("%s: lower %r > upper %r" % (label, lower, upper))
        if not _close(pad, run.pad, FORMULA_TOL):
            problems.append("%s: pad %r, C eps^gamma = %r" % (label, pad, run.pad))
        if (r["undetermined"] in (True, "true")) != (n > 0 and n % 4 == 0):
            problems.append("%s: undetermined flag %r" % (label, r["undetermined"]))
        want = band_length(n, k, parity, run.scale)
        if (want is None) != (length is None) or (
            want is not None and not _close(length, want, FORMULA_TOL)
        ):
            problems.append("%s: length %r, closed form %r" % (label, length, want))
    return problems


def check_gaps(run: _Run, text: str) -> list[str]:
    rows = _rows(run, text)
    if len(rows) != run.count - 1:
        return ["gaps: %d rows, want %d" % (len(rows), run.count - 1)]
    problems = []
    for i, r in enumerate(rows):
        certified = r["certified"] in (True, "true")
        reason = r["reason"] or ""
        lower, upper = float(r["gap_lower"]), float(r["gap_upper"])
        if certified != (reason == "") or (certified and not upper > lower):
            problems.append(
                "gaps row %d: certified=%s reason=%r gap [%r, %r]" % (i, certified, reason, lower, upper)
            )
        if reason and reason not in GAP_REASONS:
            problems.append("gaps row %d: unknown reason %r" % (i, reason))
        if reason == "pads-overlap" and upper > lower:
            problems.append("gaps row %d: pads-overlap but gap [%r, %r] is open" % (i, lower, upper))
    return problems


def check_verify(run: _Run, text: str) -> list[str]:
    lines = text.splitlines()
    if not lines:
        return ["verify: no output"]
    return ["verify: %s" % line for line in lines if not line.startswith("PASS ")]


def _diagram_samples(run: _Run, text: str):
    # yields (n, k, parity, eta1, eta2, value) for every sample
    if run.format == "json":
        for row in json.loads(text)["rows"]:
            for s in row["samples"]:
                yield row["n"], row["k"], row["parity"], s["eta1"], s["eta2"], s["value"]
    else:
        for r in _csv_rows(text):
            yield (int(r["n"]), int(r["k"]), r["parity"],
                   float(r["eta1"]), float(r["eta2"]), float(r["value"]))


def check_diagram(run: _Run, text: str) -> list[str]:
    samples = list(_diagram_samples(run, text))
    want = run.count * run.grid * run.grid
    problems = [] if len(samples) == want else ["diagram: %d samples, want %d" % (len(samples), want)]
    if not all(math.isfinite(s[5]) for s in samples):
        problems.append("diagram: non-finite sample")
    ground = [s for s in samples if s[:3] == (0, 1, "simple")]
    if len(ground) != run.grid * run.grid:
        problems.append("diagram: %d samples of mode (0,1)" % len(ground))
    z = zero(0, 1)
    amp0 = (2.0 * math.pi / SOFT_CELL_AREA) * jv(1, z) ** 2
    for _, _, _, e1, e2, value in ground[:: max(1, len(ground) // 7)]:
        want_v = 4.0 * z * z + run.scale * amp0 * (math.cos(0.5 * e1) * math.cos(0.5 * e2)) ** 2
        if not _close(value, want_v, FORMULA_TOL):
            problems.append("diagram: (0,1) at (%r, %r) = %r, formula %r" % (e1, e2, value, want_v))
    return problems


CHECKS = {
    "zeros": check_zeros,
    "spectrum": check_spectrum,
    "bands": check_bands,
    "gaps": check_gaps,
    "verify": check_verify,
    "diagram": check_diagram,
}


def check(argv: list[str], stdout: bytes) -> list[str]:
    """Problems found in one op's stdout; [] when every check holds."""
    run = _Run(argv)
    try:
        return CHECKS[run.command](run, stdout.decode("utf-8"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return ["%s: unreadable output (%s: %s)" % (run.command, type(exc).__name__, exc)]
