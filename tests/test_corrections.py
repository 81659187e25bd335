"""Floquet phase bookkeeping and first-order correction formulas."""

import cmath
import math

import numpy as np
import pytest

from diskbands import (
    SOFT_CELL_AREA,
    Branch,
    ExpansionParams,
    FloquetPoint,
    ModeIndex,
    Parity,
    UndeterminedCorrectionError,
    bessel_j,
    bessel_zero,
    branch_for,
    c0_multiple,
    c0_quadrature,
    c0_simple,
    band_length,
    correction_matrix,
    enumerate_spectrum,
    floquet_axis,
    limit_eigenvalue,
)
from diskbands import _quad, corrections
from diskbands.corrections import (
    CorrectionValue,
    lambda1_multiple,
    lambda1_simple,
    lambda_expansion,
)
from diskbands._quad import arc_integrals, panel_rule

TWO_PI = 2.0 * math.pi


def test_floquet_point_reduction():
    p = FloquetPoint(0.3 + TWO_PI, -0.4 - 2 * TWO_PI)
    assert p.eta1 == pytest.approx(0.3, abs=1e-14)
    assert p.eta2 == pytest.approx(-0.4, abs=1e-14)
    assert FloquetPoint(math.pi, 0.0).eta1 == -math.pi
    q = FloquetPoint(-math.pi, 1.0)
    assert q.eta1 == -math.pi
    # -0.0 is normalized so representations are unique
    assert math.copysign(1.0, FloquetPoint(-0.0, 0.0).eta1) == 1.0


def test_floquet_point_negation():
    p = FloquetPoint(0.7, -1.2)
    np_ = p.negated()
    assert (np_.eta1, np_.eta2) == (-0.7, 1.2)
    # the -pi edge folds back to -pi, not +pi
    assert FloquetPoint(-math.pi, 0.0).negated().eta1 == -math.pi


def _quadrant_phases(monkeypatch, e1, e2):
    # the boundary engine's phase of each quadrant Q1..Q4: I_c with a unit
    # dot on that quarter-arc alone, from the uncached engine, so the fake
    # dots neither hit nor enter the shared cache
    phases = []
    for q in range(4):
        dots = tuple((1.0 if i == q else 0.0, 0.0) for i in range(4))
        monkeypatch.setattr(_quad, "_arc_dots", lambda n, panels: dots)
        phases.append(arc_integrals.__wrapped__(0, e1, e2, 8)[0])
    monkeypatch.undo()
    return phases


def test_quadrant_phase_values(monkeypatch):
    assert _quadrant_phases(monkeypatch, 0.0, 0.0) == [1.0] * 4
    p1, p2, _, _ = _quadrant_phases(monkeypatch, math.pi - 1e-15, 0.0)
    assert p1 == pytest.approx(1j, abs=1e-12)
    assert p2 == pytest.approx(-1j, abs=1e-12)
    p1 = _quadrant_phases(monkeypatch, 0.8, -0.6)[0]
    assert p1 == pytest.approx(cmath.exp(0.5j * (0.8 - 0.6)))


def test_opposite_quadrant_phases_conjugate(monkeypatch):
    p1, p2, p3, p4 = _quadrant_phases(monkeypatch, 1.1, 2.3)
    assert p1 * p3 == pytest.approx(1.0)
    assert p2 * p4 == pytest.approx(1.0)
    for p in (p1, p2, p3, p4):
        assert abs(p) == pytest.approx(1.0)


def test_expansion_params_validation():
    p = ExpansionParams(1e-3, 0.25)
    assert p.gamma == pytest.approx(0.75)
    assert p.first_order_scale == pytest.approx(1e-3**0.5)
    assert p.pad == 0.0
    assert ExpansionParams(1e-2, 0.4).gamma == pytest.approx(1.0)
    assert ExpansionParams(1e-2, 0.4, 2.0).pad == pytest.approx(2.0 * 1e-2)
    assert ExpansionParams(1e-2, 0.4, 1e300).error_constant == 1e300
    for bad in (
        dict(epsilon=0.0, m=0.25),
        dict(epsilon=-1.0, m=0.25),
        dict(epsilon=1.0, m=0.25),
        dict(epsilon=1e-3, m=0.0),
        dict(epsilon=1e-3, m=0.5),
        dict(epsilon=1e-3, m=0.25, error_constant=-1.0),
        dict(epsilon=1e-3, m=0.25, error_constant=math.nextafter(1e300, math.inf)),
        dict(epsilon=1e-3, m=0.25, error_constant=1.7976931348623157e308),
    ):
        with pytest.raises(ValueError):
            ExpansionParams(**bad)


def test_c0_simple_closed_form():
    z = bessel_zero(0, 1)
    expected = math.pi * bessel_j(1, z) / (z * SOFT_CELL_AREA)
    assert c0_simple(1, FloquetPoint(0.0, 0.0)) == pytest.approx(expected, rel=1e-14)
    assert c0_simple(1, FloquetPoint(math.pi, math.pi)) == pytest.approx(0.0, abs=1e-12)
    eta = FloquetPoint(0.9, -1.4)
    assert c0_simple(1, eta) == pytest.approx(c0_simple(1, eta.negated()), rel=1e-14)


def test_c0_multiple_structure():
    eta = FloquetPoint(1.3, 0.7)
    assert c0_multiple(4, 1, eta, 1.0, 0.0) == 0j
    assert c0_multiple(4, 1, eta, 0.0, 1.0) == 0j
    # even orders couple only through sine, odd orders only off-axis
    assert c0_multiple(2, 1, FloquetPoint(0.0, 1.0), 0.0, 1.0) == pytest.approx(0j, abs=1e-15)
    v = c0_multiple(2, 1, eta, 0.0, 1.0)
    assert abs(v.imag) < 1e-15 and v.real != 0.0
    w = c0_multiple(1, 1, eta, 1.0, 0.0)
    assert abs(w.real) < 1e-15 and w.imag != 0.0


def test_c0_against_quadrature_spot_checks():
    for mode, cc, cs in (
        (ModeIndex(1, 1, Parity.COSINE), 1.0, 0.0),
        (ModeIndex(2, 1, Parity.SINE), 0.0, 1.0),
        (ModeIndex(3, 1, Parity.COSINE), 0.7, -0.2),
    ):
        for eta in (FloquetPoint(0.8, 1.9), FloquetPoint(-2.0, 0.3)):
            closed = c0_multiple(mode.n, mode.k, eta, cc, cs)
            quad = c0_quadrature(mode, eta, coeff_c=cc, coeff_s=cs)
            assert closed == pytest.approx(quad, abs=1e-10)


def test_c0_conjugate_under_negation():
    eta = FloquetPoint(0.9, 2.1)
    for n in (1, 2, 3, 5, 6):
        a = c0_multiple(n, 1, eta, 0.4, 0.8)
        b = c0_multiple(n, 1, eta.negated(), 0.4, 0.8)
        assert b == pytest.approx(a.conjugate(), abs=1e-15)


def test_lambda1_simple_profile():
    peak = lambda1_simple(1, FloquetPoint(0.0, 0.0))
    assert peak > 0.0
    z = bessel_zero(0, 1)
    expected = TWO_PI / SOFT_CELL_AREA * (bessel_j(1, z)) ** 2
    assert peak == pytest.approx(expected, rel=1e-14)
    assert lambda1_simple(1, FloquetPoint(math.pi, math.pi)) == pytest.approx(0.0, abs=1e-13)
    for eta in (FloquetPoint(0.4, 1.0), FloquetPoint(2.2, -0.9)):
        val = lambda1_simple(1, eta)
        assert 0.0 <= val <= peak + 1e-15
        assert val == pytest.approx(lambda1_simple(1, eta.negated()), rel=1e-14)
        swapped = FloquetPoint(eta.eta2, eta.eta1)
        assert val == pytest.approx(lambda1_simple(1, swapped), rel=1e-14)


def test_correction_matrix_rank_one():
    for n in (1, 2, 3):
        for eta in (FloquetPoint(1.1, 0.5), FloquetPoint(-0.8, 2.6)):
            M = correction_matrix(n, 1, eta)
            assert len(M) == 2 and all(len(row) == 2 for row in M)
            assert abs(np.linalg.det(M)) < 1e-10
            eigs = sorted(np.linalg.eigvals(M), key=abs)
            assert abs(eigs[0]) < 1e-10
            assert eigs[1] == pytest.approx(np.trace(M), abs=1e-10)
            assert M[0][1] == pytest.approx(M[1][0], abs=1e-12)


def test_correction_matrix_trace_matches_closed_form():
    for n in (1, 2, 3):
        for eta in (FloquetPoint(0.9, 1.7), FloquetPoint(-2.4, 0.6)):
            M = correction_matrix(n, 1, eta)
            corr = lambda1_multiple(n, 1, eta)
            assert np.trace(M).real == pytest.approx(corr.cosine + corr.sine, abs=1e-8)
            assert abs(np.trace(M).imag) < 1e-10


# the phase sign pair (s1, s2) of each quarter-arc Q1..Q4
_REFERENCE_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _reference_arc_trig_integrals(n, eta, panels):
    # the arc integrals as they were before the per-(n, panels) cache: the
    # panel rule and the cos/sin fsum dot products rebuilt at every call;
    # each dot also lies within 4 eps sum |w cos| (or sin) of numpy's dot
    ic = 0j
    isn = 0j
    for idx, (s1, s2) in enumerate(_REFERENCE_SIGNS):
        theta, w = panel_rule(idx * math.pi / 2, (idx + 1) * math.pi / 2, panels)
        phase = cmath.exp(0.5j * (s1 * eta.eta1 + s2 * eta.eta2))
        dots = []
        for trig, np_trig in ((math.cos, np.cos), (math.sin, np.sin)):
            terms = [wt * trig(n * t) for t, wt in zip(theta, w)]
            dot = math.fsum(terms)
            blas = float(np.dot(w, np_trig(n * np.asarray(theta))))
            bound = 4.0 * np.finfo(float).eps * math.fsum(abs(v) for v in terms)
            assert abs(dot - blas) <= bound, (n, panels, idx, dot, blas)
            dots.append(dot)
        ic += phase * dots[0]
        isn += phase * dots[1]
    return ic, isn


def _reference_correction_matrix(n, k, eta):
    # correction_matrix's panel doubling over the reference integrals; also
    # returns the panel count it stopped at
    z, gap = corrections._derivative_gap(n, k)
    pref = gap / (z * SOFT_CELL_AREA)
    panels = 8
    prev = None
    while True:
        cur = _reference_arc_trig_integrals(n, eta, panels)
        if prev is not None and max(abs(cur[0] - prev[0]), abs(cur[1] - prev[1])) < 1e-10:
            ic, isn = cur
            matrix = [
                [pref * (ic * ic), pref * (ic * isn)],
                [pref * (ic * isn), pref * (isn * isn)],
            ]
            return matrix, panels
        prev = cur
        panels *= 2


def test_correction_matrix_equals_uncached_loop_bitwise(monkeypatch):
    # correction_matrix imports arc_integrals from _quad on each call
    depth = []
    cached = _quad.arc_integrals

    def recorded(n, eta1, eta2, panels):
        depth.append(panels)
        return cached(n, eta1, eta2, panels)

    monkeypatch.setattr(_quad, "arc_integrals", recorded)
    axis = floquet_axis(9)
    for n in range(1, 8):
        for e1 in axis:
            for e2 in axis:
                eta = FloquetPoint(e1, e2)
                got = correction_matrix(n, 1, eta)
                ref, panels = _reference_correction_matrix(n, 1, eta)
                case = (n, e1, e2)
                assert depth[-1] == panels, case
                for got_row, ref_row in zip(got, ref):
                    for g, r in zip(got_row, ref_row):
                        assert g.real.hex() == r.real.hex(), case
                        assert g.imag.hex() == r.imag.hex(), case


@pytest.mark.parametrize("resolution", [3, 5, 9, 33])
def test_lambda1_range_is_the_grid_range_bitwise(resolution):
    # the closed-form range, hi - lo of lattice_extremes, reads
    # _lambda1_table on the lattice EXTREME_AXIS, whose points these grids
    # hold (each has an exact 0.0), and no other grid point lies beyond it
    axis = floquet_axis(resolution)
    modes = [
        m for m in enumerate_spectrum(40)
        if branch_for(m) in (Branch.SIMPLE, Branch.SINE)
    ]
    assert len(modes) > 10
    for mode in modes:
        values = corrections.lambda1_grid(mode, axis)
        lo, _, hi, _ = corrections.lattice_extremes(mode)
        span = hi - lo
        assert span.hex() == (max(values) - min(values)).hex(), mode.label()


def test_one_prefactor_feeds_every_double_mode_constant(monkeypatch):
    # the table, the closed-form range, the band length and the quadrature
    # matrix all read _first_order_prefactor; doubling it doubles each
    # exactly, since a factor of 2 is exact in every later float operation
    axis = floquet_axis(9)
    eta = FloquetPoint(0.9, -1.7)
    params = ExpansionParams(1e-3, 0.25)
    modes = [ModeIndex(n, k, Parity.SINE) for n in (1, 2, 3, 5, 6, 7) for k in (1, 2)]

    def constants():
        rows = []
        for m in modes:
            matrix = correction_matrix(m.n, m.k, eta)
            lo, _, hi, _ = corrections.lattice_extremes(m)
            rows.append((
                corrections.lambda1_grid(m, axis),
                hi - lo,
                band_length(m, params),
                matrix[0][0] + matrix[1][1],
            ))
        return rows

    before = constants()
    prefactor = corrections._first_order_prefactor
    monkeypatch.setattr(
        corrections, "_first_order_prefactor", lambda n, k: 2.0 * prefactor(n, k)
    )
    for (grid, span, length, trace), doubled in zip(before, constants()):
        assert doubled[0] == [2.0 * v for v in grid]
        assert doubled[1:] == (2.0 * span, 2.0 * length, 2.0 * trace)
        assert span != 0.0 and trace != 0.0


def test_lambda1_multiple_branches():
    corr = lambda1_multiple(2, 1, FloquetPoint(0.0, 1.3))
    assert corr.cosine == 0.0
    assert corr.sine == pytest.approx(0.0, abs=1e-13)
    c, s = lambda1_multiple(1, 1, FloquetPoint(1.0, 2.0))
    assert c == 0.0 and s != 0.0
    und = lambda1_multiple(4, 1, FloquetPoint(1.0, 2.0))
    assert und.undetermined
    assert und.cosine == 0.0 and und.sine == 0.0


def test_branch_dispatch():
    assert branch_for(ModeIndex(0, 1, Parity.SIMPLE)) is Branch.SIMPLE
    assert branch_for(ModeIndex(1, 1, Parity.COSINE)) is Branch.COSINE
    assert branch_for(ModeIndex(2, 1, Parity.SINE)) is Branch.SINE
    assert branch_for(ModeIndex(4, 1, Parity.SINE)) is Branch.UNDETERMINED
    assert branch_for(ModeIndex(8, 2, Parity.COSINE)) is Branch.UNDETERMINED

    eta = FloquetPoint(0.3, -0.4)
    cv = CorrectionValue(ModeIndex(1, 1, Parity.COSINE))
    assert cv.lambda1_at(eta) == 0.0
    sv = CorrectionValue(ModeIndex(1, 1, Parity.SINE))
    assert sv.lambda1_at(eta) == lambda1_multiple(1, 1, eta).sine
    uv = CorrectionValue(ModeIndex(4, 1, Parity.COSINE))
    assert (cv.branch, sv.branch, uv.branch) == (Branch.COSINE, Branch.SINE, Branch.UNDETERMINED)
    with pytest.raises(UndeterminedCorrectionError):
        uv.lambda1_at(eta)


def test_lambda_expansion_values():
    params = ExpansionParams(1e-4, 0.25, 0.5)
    eta = FloquetPoint(0.2, 0.1)
    mode = ModeIndex(0, 1, Parity.SIMPLE)
    lam0 = limit_eigenvalue(mode)
    exp = lambda_expansion(mode, eta, params)
    assert exp.value == pytest.approx(
        lam0 + params.first_order_scale * lambda1_simple(1, eta), rel=1e-14
    )
    assert exp.pad == pytest.approx(0.5 * 1e-4**0.75)
    assert not exp.undetermined

    cosine = lambda_expansion(ModeIndex(1, 1, Parity.COSINE), eta, params)
    assert cosine.value == limit_eigenvalue(ModeIndex(1, 1, Parity.COSINE))

    und = lambda_expansion(ModeIndex(4, 1, Parity.COSINE), eta, params)
    assert und.undetermined
    assert und.value == limit_eigenvalue(ModeIndex(4, 1, Parity.COSINE))


def test_lambda1_translation_invariance():
    # 2 pi shifts of either component leave every correction unchanged
    base = FloquetPoint(0.6, -1.1)
    shifted = FloquetPoint(0.6 + TWO_PI, -1.1 - TWO_PI)
    assert lambda1_simple(1, shifted) == pytest.approx(lambda1_simple(1, base), rel=1e-12)
    for n in (1, 2, 3):
        a = lambda1_multiple(n, 1, base)
        b = lambda1_multiple(n, 1, shifted)
        assert b.sine == pytest.approx(a.sine, rel=1e-12, abs=1e-12)
