"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test prints `PASS`/`FAIL criterion N (...)` with the worst observed
deviation and wall time, then asserts.  Tolerances and runtime caps are the
shipped contract, not aspirational targets; do not loosen them here.
"""

import math
import subprocess
import sys
import time

from diskbands import (
    SOFT_CELL_AREA,
    ExpansionParams,
    FloquetPoint,
    ModeIndex,
    Parity,
    RadialMesh,
    bessel_j,
    bessel_zero,
    branch_for,
    Branch,
    band_length,
    band_table,
    c0_multiple,
    c0_quadrature,
    c0_simple,
    correction_matrix,
    disk_mesh_doubling,
    enumerate_spectrum,
    error_ratios,
    floquet_axis,
    gap_reports,
    swept_band_width,
)
from diskbands.corrections import lambda1_grid

import numpy as np


def _finish(num, name, violations, elapsed, cap, detail=""):
    ok = not violations and elapsed < cap
    line = "%s criterion %d (%s): %s[%.2fs < %gs]" % (
        "PASS" if ok else "FAIL",
        num,
        name,
        (detail + " ") if detail else "",
        elapsed,
        cap,
    )
    print(line)
    if elapsed >= cap:
        violations.append("runtime %.2fs exceeded %gs cap" % (elapsed, cap))
    assert not violations, "; ".join(str(v) for v in violations[:10])


def _series_j(n, x):
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    total = term
    for t in range(1, 200):
        term *= -(half * half) / (t * (n + t))
        total += term
        if abs(term) < 1e-20 * max(1e-300, abs(total)):
            break
    return total


def _bisect(f, a, b):
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if fa * f(mid) <= 0.0:
            b = mid
        else:
            a = mid
            fa = f(a)
    return 0.5 * (a + b)


def test_criterion_1_bessel_zeros():
    start = time.perf_counter()
    violations = []
    worst = 0.0
    zeros = {}
    for n in range(0, 13):
        for k in range(1, 9):
            z = bessel_zero(n, k)
            zeros[(n, k)] = z
            resid = abs(bessel_j(n, z))
            worst = max(worst, resid)
            if resid > 1e-12:
                violations.append("residual %.3g at (%d,%d)" % (resid, n, k))
    for n in range(0, 12):
        for k in range(1, 8):
            if not zeros[(n, k)] < zeros[(n + 1, k)] < zeros[(n, k + 1)]:
                violations.append("interlacing broken at (%d,%d)" % (n, k))
    j01 = _bisect(lambda x: _series_j(0, x), 2.0, 3.0)
    j11 = _bisect(lambda x: _series_j(1, x), 3.0, 4.5)
    if abs(zeros[(0, 1)] - j01) > 1e-10:
        violations.append("j_{0,1} off bisection by %.3g" % abs(zeros[(0, 1)] - j01))
    if abs(zeros[(1, 1)] - j11) > 1e-10:
        violations.append("j_{1,1} off bisection by %.3g" % abs(zeros[(1, 1)] - j11))
    elapsed = time.perf_counter() - start
    _finish(1, "bessel zeros", violations, elapsed, 1, "max residual %.2g" % worst)


def test_criterion_2_spectrum_order():
    start = time.perf_counter()
    expected = [
        (0, 1, "simple"),
        (1, 1, "c"),
        (1, 1, "s"),
        (2, 1, "c"),
        (2, 1, "s"),
        (0, 2, "simple"),
        (3, 1, "c"),
        (3, 1, "s"),
        (1, 2, "c"),
        (1, 2, "s"),
    ]
    got = [
        (m.n, m.k, m.parity.value) for m in enumerate_spectrum(10)
    ]
    violations = [] if got == expected else ["order mismatch: %r" % (got,)]
    elapsed = time.perf_counter() - start
    _finish(2, "limit spectrum order", violations, elapsed, 1, "10 modes")


def test_criterion_3_disk_oracle():
    start = time.perf_counter()
    violations = []
    worst_rel = 0.0
    mesh = RadialMesh(2048)
    for n in (0, 1, 2):
        # one solve per mesh serves the eigenvalues and the ratios
        coarse, fine = disk_mesh_doubling(n, 2, mesh)
        for k, value in enumerate(coarse, start=1):
            exact = 4.0 * bessel_zero(n, k) ** 2
            rel = abs(value - exact) / exact
            worst_rel = max(worst_rel, rel)
            if rel > 1e-3:
                violations.append("rel err %.3g at n=%d k=%d" % (rel, n, k))
        for ratio in error_ratios(n, coarse, fine):
            if not 3.5 <= ratio <= 4.5:
                violations.append("convergence ratio %.3g at n=%d" % (ratio, n))
    elapsed = time.perf_counter() - start
    _finish(3, "disk oracle", violations, elapsed, 10, "max rel err %.2g" % worst_rel)


def test_criterion_4_correction_closed_forms():
    start = time.perf_counter()
    violations = []
    worst = 0.0
    axis = floquet_axis(9)
    for k in (1, 2):
        simple_mode = ModeIndex(0, k, Parity.SIMPLE)
        for e1 in axis:
            for e2 in axis:
                eta = FloquetPoint(e1, e2)
                diff = abs(c0_simple(k, eta) - c0_quadrature(simple_mode, eta))
                worst = max(worst, diff)
                if diff > 1e-8:
                    violations.append("simple k=%d diff %.3g" % (k, diff))
    for n in range(1, 7):
        for k in (1, 2):
            mode = ModeIndex(n, k, Parity.COSINE)
            for cc, cs in ((1.0, 0.0), (0.0, 1.0)):
                for e1 in axis:
                    for e2 in axis:
                        eta = FloquetPoint(e1, e2)
                        closed = c0_multiple(n, k, eta, cc, cs)
                        quad = c0_quadrature(mode, eta, coeff_c=cc, coeff_s=cs)
                        diff = abs(closed - quad)
                        worst = max(worst, diff)
                        if diff > 1e-8:
                            violations.append(
                                "n=%d k=%d diff %.3g" % (n, k, diff)
                            )
                        if n % 4 == 0 and closed != 0j:
                            violations.append("n=%d closed form not zero" % n)
    elapsed = time.perf_counter() - start
    _finish(
        4,
        "compatibility coefficients vs quadrature",
        violations,
        elapsed,
        30,
        "max |closed - quad| %.2g" % worst,
    )


def _trace_case_formula(n, k, eta):
    # test-local restatement of the trace case split
    z = bessel_zero(n, k)
    gap = bessel_j(n - 1, z) - bessel_j(n + 1, z)
    pref = gap / (z * SOFT_CELL_AREA)
    a, b = 0.5 * eta.eta1, 0.5 * eta.eta2
    if n % 4 == 0:
        return 0.0
    if n % 4 == 2:
        return pref * (64.0 / n**2) * math.sin(a) ** 2 * math.sin(b) ** 2
    return (
        -pref
        * (16.0 / n**2)
        * (math.sin(a) ** 2 * math.cos(b) ** 2 + math.cos(a) ** 2 * math.sin(b) ** 2)
    )


def test_criterion_5_correction_matrix():
    start = time.perf_counter()
    violations = []
    worst_tr = 0.0
    worst_det = 0.0
    axis = floquet_axis(9)
    for n in range(1, 7):
        for k in (1, 2):
            for e1 in axis:
                for e2 in axis:
                    eta = FloquetPoint(e1, e2)
                    M = correction_matrix(n, k, eta)
                    det = abs(np.linalg.det(M))
                    worst_det = max(worst_det, det)
                    if det > 1e-10:
                        violations.append("det %.3g at n=%d k=%d" % (det, n, k))
                    eigs = sorted(np.linalg.eigvals(M), key=abs)
                    tr = np.trace(M)
                    if abs(eigs[0]) > 1e-10 or abs(eigs[1] - tr) > 1e-10:
                        violations.append("eigs not {0, tr} at n=%d k=%d" % (n, k))
                    diff = abs(tr - _trace_case_formula(n, k, eta))
                    worst_tr = max(worst_tr, diff)
                    if diff > 1e-8:
                        violations.append("trace diff %.3g at n=%d k=%d" % (diff, n, k))
    elapsed = time.perf_counter() - start
    _finish(
        5,
        "correction matrix",
        violations,
        elapsed,
        30,
        "max |det| %.2g, max trace diff %.2g" % (worst_det, worst_tr),
    )


def test_criterion_6_band_lengths():
    start = time.perf_counter()
    violations = []
    worst = 0.0
    pairs = []
    for entry in enumerate_spectrum(10):
        nk = (entry.n, entry.k)
        if nk not in pairs:
            pairs.append(nk)
    for eps in (1e-2, 1e-3):
        for m in (0.1, 0.25, 0.4):
            params = ExpansionParams(eps, m)
            for n, k in pairs:
                parity = Parity.SIMPLE if n == 0 else Parity.SINE
                mode = ModeIndex(n, k, parity)
                if branch_for(mode) is Branch.UNDETERMINED:
                    continue
                closed = band_length(mode, params)
                swept = swept_band_width(n, k, params)
                rel = abs(swept - closed) / closed
                worst = max(worst, rel)
                if rel > 1e-8:
                    violations.append(
                        "width rel diff %.3g at (%d,%d) eps=%g m=%g" % (rel, n, k, eps, m)
                    )
            doubled = ExpansionParams(2.0 * eps, m)
            for n, k in pairs:
                ratio = swept_band_width(n, k, doubled) / swept_band_width(n, k, params)
                if abs(ratio / 2.0 ** (2.0 * m) - 1.0) > 1e-10:
                    violations.append(
                        "scaling ratio %.12g at (%d,%d) m=%g" % (ratio, n, k, m)
                    )
    elapsed = time.perf_counter() - start
    _finish(
        6, "band lengths", violations, elapsed, 10, "max rel diff %.2g" % worst
    )


def test_criterion_7_gap_detection():
    start = time.perf_counter()
    violations = []
    params = ExpansionParams(1e-3, 0.25)
    reports = gap_reports(band_table(10, params), params)
    by_pair = {(r.below.label(), r.above.label()): r for r in reports}
    certified = {p for p, r in by_pair.items() if r.certified}
    expected_certified = {
        ("0,1,simple", "1,1,c"),
        ("2,1,s", "0,2,simple"),
        ("0,2,simple", "3,1,c"),
        ("3,1,s", "1,2,c"),
    }
    if certified != expected_certified:
        violations.append("certified set %r" % (sorted(certified),))
    for pair in (("1,1,c", "1,1,s"), ("2,1,c", "2,1,s"), ("3,1,c", "3,1,s"), ("1,2,c", "1,2,s")):
        if by_pair[pair].reason != "shared-leading-term":
            violations.append("%r reason %r" % (pair, by_pair[pair].reason))
    if by_pair[("1,1,s", "2,1,c")].reason != "first-order-flat":
        violations.append("flat pair reason %r" % by_pair[("1,1,s", "2,1,c")].reason)
    wide_reports = gap_reports(band_table(12, params), params)
    wide = {(r.below.label(), r.above.label()): r for r in wide_reports}
    for pair in (("1,2,s", "4,1,c"), ("4,1,c", "4,1,s")):
        if wide[pair].reason != "undetermined-band":
            violations.append("%r reason %r" % (pair, wide[pair].reason))
    elapsed = time.perf_counter() - start
    _finish(
        7,
        "gap detection",
        violations,
        elapsed,
        5,
        "%d certified of %d" % (len(certified), len(reports)),
    )


def test_criterion_8_symmetry():
    start = time.perf_counter()
    violations = []
    worst = 0.0
    two_pi = 2.0 * math.pi
    axis = floquet_axis(9)

    def lambda1(mode, eta):
        # Lambda1 at eta: entry (0, 1) of the 2x2 grid on (eta1, eta2)
        return lambda1_grid(mode, (eta.eta1, eta.eta2))[1]

    def check(label, value, reference):
        nonlocal worst
        diff = abs(value - reference)
        scale = max(1.0, abs(reference))
        worst = max(worst, diff / scale)
        if diff > 1e-12 * scale:
            violations.append("%s diff %.3g" % (label, diff))

    for e1 in axis:
        for e2 in axis:
            eta = FloquetPoint(e1, e2)
            negated = eta.negated()
            shifted = FloquetPoint(e1 + two_pi, e2 - two_pi)
            for k in (1, 2):
                mode = ModeIndex(0, k, Parity.SIMPLE)
                base = lambda1(mode, eta)
                check("simple negation", lambda1(mode, negated), base)
                check("simple shift", lambda1(mode, shifted), base)
            for n in (1, 2, 3):
                mode = ModeIndex(n, 1, Parity.SINE)
                base = lambda1(mode, eta)
                check("sine negation", lambda1(mode, negated), base)
                check("sine shift", lambda1(mode, shifted), base)
    simple = ModeIndex(0, 1, Parity.SIMPLE)
    peak = lambda1(simple, FloquetPoint(0.0, 0.0))
    grid_max = max(
        lambda1(simple, FloquetPoint(e1, e2)) for e1 in axis for e2 in axis
    )
    if grid_max > peak:
        violations.append("simple correction not maximal at origin")
    elapsed = time.perf_counter() - start
    _finish(8, "symmetry suite", violations, elapsed, 5, "max rel drift %.2g" % worst)


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    violations = []
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 1e-3\nm = 0.25\ngrid = 33\n")
    cmd = [sys.executable, "-m", "diskbands", "bands", "--format", "csv", "--config", str(cfg)]
    one = subprocess.run(cmd, capture_output=True, timeout=120)
    two = subprocess.run(cmd, capture_output=True, timeout=120)
    if one.returncode != 0 or two.returncode != 0:
        violations.append("bands exit codes %d/%d" % (one.returncode, two.returncode))
    if one.stdout != two.stdout:
        violations.append("bands output not byte-identical")
    verify = subprocess.run(
        [sys.executable, "-m", "diskbands", "verify"], capture_output=True, timeout=300
    )
    if verify.returncode != 0:
        violations.append(
            "verify exited %d: %s" % (verify.returncode, verify.stderr.decode()[-200:])
        )
    elapsed = time.perf_counter() - start
    _finish(
        9,
        "CLI determinism",
        violations,
        elapsed,
        300,
        "%d bytes stable" % len(one.stdout),
    )
