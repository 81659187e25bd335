"""Independent numerical routes: radial solver and boundary quadrature."""

import array
import cmath
import math
import sys

import numpy as np
import pytest

from diskbands import _quad, cli, corrections, oracles
from diskbands._quad import arc_integrals, panel_rule
from diskbands import (
    FloquetPoint,
    ModeIndex,
    OracleConvergenceError,
    Parity,
    RadialMesh,
    bessel_zero,
    boundary_arc_length,
    c0_multiple,
    c0_quadrature,
    c0_simple,
    disk_dirichlet_eigenvalues,
    disk_mesh_doubling,
    error_ratios,
    floquet_axis,
)
from diskbands.oracles import convergence_ratios


def _bits(values):
    return array.array("d", values).tobytes()


_LEGGAUSS = np.polynomial.legendre.leggauss(4)


def test_base_rule_equals_leggauss_bitwise():
    x, w = _LEGGAUSS
    assert _bits(_quad._NODES) == x.tobytes()
    assert _bits(_quad._WEIGHTS) == w.tobytes()


def _reference_panel_rule(a, b, panels):
    # the panel rule as numpy broadcast it from leggauss(4)
    x, w = _LEGGAUSS
    width = (b - a) / panels
    half = 0.5 * width
    centers = a + width * np.arange(panels) + half
    nodes = (centers[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (panels, x.size)).ravel()
    return nodes, weights


def test_panel_rule_equals_broadcast_construction_bitwise():
    # every panel count up to the correction matrix's 1024-panel cap and
    # beyond, on the four quarter-arcs that both quadratures integrate over
    for q in range(4):
        a, b = q * math.pi / 2.0, (q + 1) * math.pi / 2.0
        for panels in range(1, 2049):
            nodes, weights = panel_rule(a, b, panels)
            ref_nodes, ref_weights = _reference_panel_rule(a, b, panels)
            assert _bits(nodes) == ref_nodes.tobytes(), (a, b, panels)
            assert _bits(weights) == ref_weights.tobytes(), (a, b, panels)


def _reference_assemble(n, mesh):
    # the finite-volume assembly as numpy arrays
    h = mesh.h
    r = h * np.arange(1, mesh.points + 1)
    r_plus = r + 0.5 * h
    r_minus = r - 0.5 * h
    diag = (r_minus + r_plus) / (h * h)
    if n > 0:
        diag = diag + (n * n) / r
    mass = r.copy()
    if n == 0:
        diag[0] = r_plus[0] / (h * h)
        mass[0] = 9.0 * h / 8.0
    off = -r_plus[:-1] / (h * h)
    return diag / mass, off / np.sqrt(mass[:-1] * mass[1:])


def test_assemble_equals_array_assembly_bitwise():
    for points in (16, 512, 1025, 2049):
        mesh = RadialMesh(points)
        for n in range(4):
            diag, off = oracles._assemble(n, mesh)
            ref_diag, ref_off = _reference_assemble(n, mesh)
            assert _bits(diag) == ref_diag.tobytes(), (points, n)
            assert _bits(off) == ref_off.tobytes(), (points, n)


def test_mesh_spacing():
    mesh = RadialMesh(99)
    assert mesh.h == pytest.approx(0.5 / 100)
    doubled = mesh.doubled()
    assert doubled.points == 199
    assert doubled.h == pytest.approx(mesh.h / 2)
    with pytest.raises(ValueError):
        RadialMesh(8)


def test_eigenvalues_match_squared_zeros():
    mesh = RadialMesh(512)
    for n in (0, 1, 2, 3):
        numeric = disk_dirichlet_eigenvalues(n, 3, mesh)
        for k, value in enumerate(numeric, start=1):
            exact = 4.0 * bessel_zero(n, k) ** 2
            assert value == pytest.approx(exact, rel=5e-5)
        assert all(a < b for a, b in zip(numeric, numeric[1:]))


def test_scheme_is_second_order():
    mesh = RadialMesh(256)
    for n in (0, 1, 2):
        for ratio in convergence_ratios(n, 2, mesh):
            assert 3.5 < ratio < 4.5


def test_count_capped_by_mesh():
    with pytest.raises(ValueError):
        disk_dirichlet_eigenvalues(0, 10, RadialMesh(16))


def test_convergence_check_passes_on_fine_mesh():
    values = disk_mesh_doubling(1, 2, RadialMesh(256))[0]
    assert len(values) == 2


def test_quadrature_matches_closed_forms():
    eta = FloquetPoint(1.2, -0.7)
    simple = c0_quadrature(ModeIndex(0, 1, Parity.SIMPLE), eta)
    assert simple == pytest.approx(c0_simple(1, eta), abs=1e-10)
    for n, cc, cs in ((1, 1.0, 0.0), (2, 0.0, 1.0), (3, 0.3, 0.9)):
        quad = c0_quadrature(ModeIndex(n, 1, Parity.COSINE), eta, coeff_c=cc, coeff_s=cs)
        assert quad == pytest.approx(c0_multiple(n, 1, eta, cc, cs), abs=1e-10)


def test_quadrature_vanishes_for_order_multiple_of_four():
    eta = FloquetPoint(0.9, 2.0)
    for cc, cs in ((1.0, 0.0), (0.0, 1.0)):
        val = c0_quadrature(ModeIndex(4, 1, Parity.COSINE), eta, coeff_c=cc, coeff_s=cs)
        assert abs(val) < 1e-10


def test_quadrature_panel_validation():
    eta = FloquetPoint(0.4, 0.4)
    with pytest.raises(ValueError):
        c0_quadrature(ModeIndex(1, 1, Parity.COSINE), eta, panels=4)


def test_quadrature_convergence_guard():
    # a fast-oscillating integrand is under-resolved at the minimum panel
    # count; the doubling check reports it instead of returning a wrong value
    eta = FloquetPoint(1.0, 1.0)
    with pytest.raises(OracleConvergenceError):
        c0_quadrature(ModeIndex(41, 1, Parity.COSINE), eta, panels=8)
    val = c0_quadrature(ModeIndex(6, 1, Parity.COSINE), eta, panels=32)
    assert val == pytest.approx(c0_multiple(6, 1, eta, 1.0, 0.0), abs=1e-10)


def test_boundary_measure():
    assert boundary_arc_length() == pytest.approx(math.pi, abs=1e-12)
    assert boundary_arc_length(panels=32) == pytest.approx(math.pi, abs=1e-12)


# the phase sign pair (s1, s2) of each quarter-arc Q1..Q4
_QUADRANT_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))

# the worst |arc_integrals - exact| over n = 0..8 and the eta below was
# 4.4e-9, 1.6e-11, 6.3e-14 and 2.2e-15 at 8, 16, 32 and 64 panels
_ARC_BOUNDS = {8: 1e-8, 16: 5e-11, 32: 2e-13, 64: 1e-14}


def _exact_arc_integrals(n, eta1, eta2):
    # sum over the quarter-arcs [a, b] of the phase times the integral of
    # cos(n t), (sin nb - sin na)/n, and of sin(n t), (cos na - cos nb)/n
    ic = 0j
    isn = 0j
    for q, (s1, s2) in enumerate(_QUADRANT_SIGNS):
        a, b = q * math.pi / 2.0, (q + 1) * math.pi / 2.0
        phase = cmath.exp(0.5j * (s1 * eta1 + s2 * eta2))
        if n == 0:
            ic += phase * (b - a)
        else:
            ic += phase * ((math.sin(n * b) - math.sin(n * a)) / n)
            isn += phase * ((math.cos(n * a) - math.cos(n * b)) / n)
    return ic, isn


def test_arc_integrals_match_exact_quarter_arc_integrals():
    near_pi = math.nextafter(math.pi, 0.0)
    etas = [
        (0.0, 0.0), (0.3, -1.1), (1.0, 1.0), (-2.0, 0.7), (3.0, 3.1),
        (math.pi, 0.0), (-math.pi, math.pi), (near_pi, -near_pi),
    ]
    worst = dict.fromkeys(_ARC_BOUNDS, 0.0)
    for n in range(9):
        for e1, e2 in etas:
            exact = _exact_arc_integrals(n, e1, e2)
            for panels, bound in _ARC_BOUNDS.items():
                got = arc_integrals(n, e1, e2, panels)
                case = (n, e1, e2, panels)
                error = max(abs(g - x) for g, x in zip(got, exact))
                assert error <= bound, case
                worst[panels] = max(worst[panels], error)
                # negating eta conjugates every phase exactly, so the sums
                # are conjugate bit for bit, up to the sign of a zero
                mirrored = arc_integrals(n, -e1, -e2, panels)
                assert [m == g.conjugate() for m, g in zip(mirrored, got)] == [True, True], case
    # the worst error falls under each doubling of the panels
    errors = list(worst.values())
    assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors


def _reference_boundary_integral(n, eta, coeff_c, coeff_s, panels):
    # the boundary integral node by node in node order, the sign pair of
    # each node's phase read from its cos/sin; also returns the node count
    # and the sum of the terms' moduli
    total = 0j
    moduli = []
    for quarter in range(4):
        theta, w = panel_rule(
            quarter * math.pi / 2.0, (quarter + 1) * math.pi / 2.0, panels
        )
        for t, wt in zip(theta, w):
            s1 = 1.0 if math.cos(t) > 0.0 else -1.0
            s2 = 1.0 if math.sin(t) > 0.0 else -1.0
            phase = cmath.exp(0.5j * (s1 * eta.eta1 + s2 * eta.eta2))
            angular = coeff_c * math.cos(n * t) + coeff_s * math.sin(n * t)
            term = wt * phase * angular
            total += term
            moduli.append(abs(term))
    return total, len(moduli), math.fsum(moduli)


def test_arc_integrals_within_rounding_of_per_node_loop():
    # the per-node loop sums its terms in node order, each addition rounding
    # by up to eps of the partial sum, so it lies within (nodes - 1) eps of
    # sum |terms| of the exact sum, plus a few ulps of each term; the fsum
    # per sign pair in arc_integrals is within a few eps.  The worst seen
    # below was 26 eps sum |terms|, at 32 panels (512 nodes).
    eps = sys.float_info.epsilon
    axis = floquet_axis(9)
    pairs = ((1.0, 0.0), (0.0, 1.0), (1, 0), (1 + 0j, 0j), (0.3 - 0.4j, 0.9 + 0.2j))
    for n in range(7):
        for panels in (16, 32):
            for e1 in axis:
                for e2 in axis:
                    eta = FloquetPoint(e1, e2)
                    ic, isn = arc_integrals(n, eta.eta1, eta.eta2, panels)
                    for cc, cs in pairs:
                        got = cc * ic + cs * isn
                        ref, nodes, size = _reference_boundary_integral(n, eta, cc, cs, panels)
                        case = (n, panels, e1, e2, cc, cs)
                        assert abs(got - ref) <= (nodes + 4) * eps * size, case


def _fine_mesh_shifted_solve(monkeypatch):
    # the fine mesh of RadialMesh(512) has 1025 points; moving its
    # eigenvalues by 10% must trip the 5% Richardson guard
    real = oracles.tridiag_smallest_eigenvalues

    def solve(d, e, count, starts=()):
        values = real(d, e, count, starts)
        return [1.1 * v for v in values] if len(d) > 1000 else values

    monkeypatch.setattr(oracles, "tridiag_smallest_eigenvalues", solve)


def test_mesh_doubling_guard_raises(monkeypatch):
    _fine_mesh_shifted_solve(monkeypatch)
    with pytest.raises(OracleConvergenceError):
        disk_mesh_doubling(1, 2, RadialMesh(512))[0]
    with pytest.raises(OracleConvergenceError):
        disk_mesh_doubling(0, 2, RadialMesh(512))
    # without the guard the shifted solve goes through
    assert len(disk_dirichlet_eigenvalues(1, 2, RadialMesh(512))) == 2


def test_mesh_doubling_guard_rejects_nan(monkeypatch):
    # a NaN eigenvalue on the fine mesh must not pass the 5% bound
    real = oracles.tridiag_smallest_eigenvalues

    def solve(d, e, count, starts=()):
        values = real(d, e, count, starts)
        return [math.nan] * len(values) if len(d) > 1000 else values

    monkeypatch.setattr(oracles, "tridiag_smallest_eigenvalues", solve)
    with pytest.raises(OracleConvergenceError):
        disk_mesh_doubling(0, 2, RadialMesh(512))


_NAN_PAIR = complex(math.nan, math.nan)


def test_quadrature_guard_rejects_nan(monkeypatch):
    # a NaN integral moves by NaN under panel doubling, which is no agreement
    monkeypatch.setattr(oracles, "arc_integrals", lambda *args: (_NAN_PAIR, _NAN_PAIR))
    with pytest.raises(OracleConvergenceError):
        c0_quadrature(ModeIndex(1, 1, Parity.COSINE), FloquetPoint(0.4, 0.4))


def test_verify_reports_nan_quadrature(monkeypatch, capsys):
    monkeypatch.setattr(oracles, "arc_integrals", lambda *args: (_NAN_PAIR, _NAN_PAIR))
    assert cli.main(["verify"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: boundary quadrature for ")


def test_verify_reports_mesh_doubling_failure(monkeypatch, capsys):
    _fine_mesh_shifted_solve(monkeypatch)
    assert cli.main(["verify"]) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure: mesh doubling moved eigenvalue")


def test_mesh_doubling_matches_separate_solves():
    mesh = RadialMesh(256)
    for n in (0, 1, 2):
        coarse, fine = disk_mesh_doubling(n, 2, mesh)
        assert coarse == disk_dirichlet_eigenvalues(n, 2, mesh)
        assert fine == disk_dirichlet_eigenvalues(n, 2, mesh.doubled())
        assert error_ratios(n, coarse, fine) == convergence_ratios(n, 2, mesh)


def test_oracles_bind_no_closed_form_geometry():
    # the quadrature is an independent route: neither it nor the quarter-arc
    # engine it shares with the correction matrix may read the closed forms
    # it is checked against
    for name in ("quadrant_phase", "Quadrant", "_PHASE_SIGNS", "c0_simple", "c0_multiple"):
        assert not hasattr(oracles, name), name
    closed_forms = ("c0_simple", "c0_multiple", "correction_matrix")
    for name in vars(_quad):
        assert name not in closed_forms and not name.startswith("lambda1_"), name


def _recorded_arc_integrals(monkeypatch):
    # the arguments of every call to the arc-integral engine, recorded at each
    # diskbands.* binding of it, as the benchmark's tracer finds bindings;
    # each call still reaches the engine and its cache
    engine = _quad.arc_integrals
    calls = []

    def recorded(*args):
        calls.append(args)
        return engine(*args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "diskbands" or mod_name.startswith("diskbands."):
            for key, value in list(vars(mod).items()):
                if value is engine:
                    monkeypatch.setattr(mod, key, recorded)
    return calls


def test_every_boundary_quadrature_runs_through_arc_integrals(monkeypatch):
    # one engine: patching arc_integrals at each binding reaches all three
    # quadratures
    calls = _recorded_arc_integrals(monkeypatch)
    eta = FloquetPoint(0.4, -1.3)
    for name, run in (
        ("correction_matrix", lambda: corrections.correction_matrix(1, 1, eta)),
        ("c0_quadrature", lambda: c0_quadrature(ModeIndex(1, 1, Parity.COSINE), eta)),
        ("boundary_arc_length", boundary_arc_length),
    ):
        calls.clear()
        run()
        assert calls, name


def _complex_bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _assert_cached_values_fresh(calls):
    # every distinct call is now a cache hit, and the value it returns is
    # bitwise that of a fresh, uncached computation
    misses = arc_integrals.cache_info().misses
    for args in set(calls):
        assert _complex_bits(arc_integrals(*args)) == _complex_bits(arc_integrals.__wrapped__(*args)), args
    assert arc_integrals.cache_info().misses == misses


_C0_CHECK_MODES = [
    ModeIndex(n, k, Parity.SIMPLE if n == 0 else Parity.COSINE) for n in range(5) for k in (1, 2)
]


def test_c0_cache_equals_fresh_arc_integrals_bitwise(monkeypatch):
    # verify's c0 check (n 0..4, both k, both coefficient pairs, every eta on
    # floquet_axis(5), panels 16 and 32): FloquetPoint reduces pi to -pi, so
    # the 25 points are 16, and each of the 160 distinct integrals is
    # computed once; every cached integral and every c0 value is bitwise
    # that of the uncached engine
    axis = floquet_axis(5)
    etas = [FloquetPoint(a, b) for a in axis for b in axis]
    arc_integrals.cache_clear()
    calls = _recorded_arc_integrals(monkeypatch)
    cases = []
    for mode in _C0_CHECK_MODES:
        for eta in etas:
            for cc, cs in ((1.0, 0.0), (0.0, 1.0)):
                cases.append((mode, eta, cc, cs, c0_quadrature(mode, eta, cc, cs)))
    assert arc_integrals.cache_info().misses == len(set(calls)) == 160
    # FloquetPoint reads -0.0 as 0.0, so no call passes -0.0
    assert all(math.copysign(1.0, v) == 1.0 for args in calls for v in args[1:3] if v == 0.0)
    _assert_cached_values_fresh(calls)
    monkeypatch.setattr(oracles, "arc_integrals", arc_integrals.__wrapped__)
    for mode, eta, cc, cs, value in cases:
        assert _complex_bits([value]) == _complex_bits([c0_quadrature(mode, eta, cc, cs)])


def test_verify_computes_each_arc_integral_once(monkeypatch):
    # the c0 check's 160 integrals, the arc-length check's one, and the 48
    # that only the correction-trace check needs (n 1..3, 16 points, panels
    # 8; its panels-16 integrals are the c0 check's), each computed once
    arc_integrals.cache_clear()
    calls = _recorded_arc_integrals(monkeypatch)
    assert cli.main(["verify"]) == 0
    assert arc_integrals.cache_info().misses == len(set(calls)) == 209
    _assert_cached_values_fresh(calls)
    # points built from -0.0 are points of 0.0, so they hit the same entries
    for eta in (FloquetPoint(-0.0, 0.0), FloquetPoint(0.0, -0.0), FloquetPoint(-0.0, -0.0)):
        for mode in _C0_CHECK_MODES:
            c0_quadrature(mode, eta)
    assert arc_integrals.cache_info().misses == 209


def test_signed_zero_eta_gives_the_same_arc_integrals_bitwise():
    # the cache key does not tell -0.0 from 0.0, so each signed-zero variant
    # of a point must give the 0.0 point's integrals bitwise: n 0..8, panels
    # 8, 16 and 32, every point of floquet_axis(5) plus two others
    engine = arc_integrals.__wrapped__
    values = [*floquet_axis(5), 0.7, -1.9]
    compared = 0
    for n in range(9):
        for panels in (8, 16, 32):
            for e1 in values:
                for e2 in values:
                    variants = [
                        (s1, s2)
                        for s1 in ((0.0, -0.0) if e1 == 0.0 else (e1,))
                        for s2 in ((0.0, -0.0) if e2 == 0.0 else (e2,))
                    ]
                    ref = _complex_bits(engine(n, *variants[0], panels))
                    for s1, s2 in variants[1:]:
                        assert _complex_bits(engine(n, s1, s2, panels)) == ref, (n, s1, s2, panels)
                        compared += 1
    assert compared == 9 * 3 * 15
