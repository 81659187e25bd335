"""Band intervals, band lengths, gap certification, and the Brillouin sweep."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskbands import (
    SOFT_CELL_AREA,
    Branch,
    ExpansionParams,
    FloquetPoint,
    InternalConsistencyError,
    ModeIndex,
    Parity,
    UndeterminedCorrectionError,
    band_interval,
    band_length,
    band_table,
    bessel_j,
    bessel_j_prime,
    bessel_zero,
    branch_for,
    brillouin_sweep,
    enumerate_spectrum,
    floquet_axis,
    limit_eigenvalue,
    swept_band_width,
)
from diskbands import bands, cli
from diskbands import corrections
from diskbands.bands import detect_gaps
from diskbands.corrections import (
    EXTREME_AXIS,
    CorrectionValue,
    _derivative_gap,
    lambda1_extremes,
    lambda1_grid,
    lambda1_simple,
    lattice_extremes,
)

PARAMS = ExpansionParams(1e-3, 0.25)


def _mode(n, k, parity):
    return ModeIndex(n, k, parity)


def test_floquet_axis_equals_linspace_bitwise():
    for resolution in range(2, 4098):
        got = floquet_axis(resolution)
        assert type(got) is list and all(type(a) is float for a in got)
        want = np.linspace(-math.pi, math.pi, resolution)
        assert np.array(got).tobytes() == want.tobytes(), resolution


def test_floquet_axis_shape():
    axis = floquet_axis(33)
    assert axis[0] == -math.pi and axis[-1] == math.pi
    assert 0.0 in axis
    assert len(axis) == 33
    with pytest.raises(ValueError):
        floquet_axis(1)


def test_simple_band_extrema():
    band = band_interval(_mode(0, 1, Parity.SIMPLE), PARAMS)
    lam0 = limit_eigenvalue(_mode(0, 1, Parity.SIMPLE))
    assert band.lower == pytest.approx(lam0, rel=1e-14)
    assert band.upper > band.lower
    assert band.extrema_eta[1] == FloquetPoint(0.0, 0.0)
    # the minimum sits where both half-angle cosines vanish
    lo_eta = band.extrema_eta[0]
    assert abs(abs(lo_eta.eta1) - math.pi) < 1e-12
    assert abs(abs(lo_eta.eta2) - math.pi) < 1e-12
    peak = lambda1_simple(1, FloquetPoint(0.0, 0.0))
    assert band.width == pytest.approx(PARAMS.first_order_scale * peak, rel=1e-12)


def test_cosine_band_is_flat():
    band = band_interval(_mode(1, 1, Parity.COSINE), PARAMS)
    lam0 = limit_eigenvalue(_mode(1, 1, Parity.COSINE))
    assert band.lower == band.upper == lam0
    assert band.width == 0.0
    padded = band_interval(
        _mode(1, 1, Parity.COSINE), ExpansionParams(1e-3, 0.25, 2.0)
    )
    assert padded.upper - padded.lower == pytest.approx(2.0 * padded.pad)


def test_undetermined_band_is_pad_only():
    params = ExpansionParams(1e-3, 0.25, 1.5)
    band = band_interval(_mode(4, 1, Parity.COSINE), params)
    lam0 = limit_eigenvalue(_mode(4, 1, Parity.COSINE))
    assert band.undetermined
    assert band.lower == pytest.approx(lam0 - params.pad)
    assert band.upper == pytest.approx(lam0 + params.pad)


def test_band_length_closed_forms():
    simple = band_length(_mode(0, 1, Parity.SIMPLE), PARAMS)
    z = bessel_zero(0, 1)
    expected = 2.0 * math.pi / SOFT_CELL_AREA * bessel_j(1, z) ** 2
    assert simple == pytest.approx(expected * PARAMS.first_order_scale, rel=1e-12)

    assert band_length(_mode(4, 1, Parity.SINE), PARAMS) is None

    sine = band_length(_mode(2, 1, Parity.SINE), PARAMS)
    z2 = bessel_zero(2, 1)
    gap = bessel_j(1, z2) - bessel_j(3, z2)
    coef = abs(64.0 / (z2 * 4.0 * SOFT_CELL_AREA) * gap)
    assert sine == pytest.approx(coef * PARAMS.first_order_scale, rel=1e-12)

    odd = band_length(_mode(3, 1, Parity.SINE), PARAMS)
    z3 = bessel_zero(3, 1)
    coef3 = abs(16.0 / (z3 * 9.0 * SOFT_CELL_AREA) * 2.0 * bessel_j_prime(3, z3))
    assert odd == pytest.approx(coef3 * PARAMS.first_order_scale, rel=1e-12)


def test_band_lengths_match_swept_widths():
    for n, k in ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2)):
        parity = Parity.SIMPLE if n == 0 else Parity.SINE
        closed = band_length(_mode(n, k, parity), PARAMS)
        swept = swept_band_width(n, k, PARAMS)
        assert swept == pytest.approx(closed, rel=1e-8)
    with pytest.raises(ValueError):
        swept_band_width(4, 1, PARAMS)


@pytest.mark.parametrize("resolution", [8, 9, 33, 64])
def test_swept_width_is_the_band_record_length(resolution):
    # one sweep serves swept_band_width, band_interval and band_table; on
    # even grids, which miss eta = 0, the sharpened extremes still give the
    # closed-form length
    table = band_table(20, PARAMS, resolution)
    assert any(b.mode.n == 4 for b in table)
    for band in table:
        m = band.mode
        if m.n == 4:
            assert band.undetermined is (band.length is None)
            assert band.undetermined
        if m.parity is Parity.COSINE or (m.n % 4 == 0 and m.n > 0):
            continue
        swept = swept_band_width(m.n, m.k, PARAMS, resolution)
        assert swept == band_interval(m, PARAMS, resolution).length == band.length
        if resolution % 2 == 0:
            closed = band_length(m, PARAMS)
            assert abs(swept - closed) <= 1e-12 * abs(closed), m.label()


def test_band_width_scaling_in_epsilon():
    for eps in (1e-2, 1e-3, 1e-4):
        a = swept_band_width(0, 1, ExpansionParams(eps, 0.25))
        b = swept_band_width(0, 1, ExpansionParams(2.0 * eps, 0.25))
        assert b / a == pytest.approx(2.0**0.5, rel=1e-10)
    a = swept_band_width(1, 1, ExpansionParams(1e-3, 0.1))
    b = swept_band_width(1, 1, ExpansionParams(1e-3 * 4.0, 0.1))
    assert b / a == pytest.approx(4.0**0.2, rel=1e-10)


def test_band_interval_grid_stability():
    for n, k, parity in ((0, 1, Parity.SIMPLE), (2, 1, Parity.SINE), (3, 1, Parity.SINE)):
        coarse = band_interval(_mode(n, k, parity), PARAMS, grid_resolution=17)
        fine = band_interval(_mode(n, k, parity), PARAMS, grid_resolution=33)
        assert abs(coarse.lower - fine.lower) < 1e-6
        assert abs(coarse.upper - fine.upper) < 1e-6
    with pytest.raises(ValueError):
        band_interval(_mode(0, 1, Parity.SIMPLE), PARAMS, grid_resolution=2)


def test_pad_nesting():
    loose = band_interval(_mode(0, 1, Parity.SIMPLE), ExpansionParams(1e-3, 0.25, 1.0))
    tight = band_interval(_mode(0, 1, Parity.SIMPLE), PARAMS)
    assert loose.lower < tight.lower and tight.upper < loose.upper
    assert loose.pad == pytest.approx(1e-3**0.75)


def test_brillouin_sweep_layout():
    axis, values = brillouin_sweep(_mode(0, 1, Parity.SIMPLE), PARAMS, resolution=3)
    assert len(values) == 9
    etas = [(a, b) for a in axis for b in axis]
    # row-major: eta1 varies slowest
    assert etas[0] == (-math.pi, -math.pi)
    assert etas[1][0] == -math.pi and etas[1][1] == 0.0
    center = [v for eta, v in zip(etas, values) if eta == (0.0, 0.0)][0]
    assert center == max(values)


def test_sweep_extremes_match_band_interval():
    for n, k, parity in ((0, 1, Parity.SIMPLE), (1, 1, Parity.SINE), (2, 1, Parity.SINE)):
        band = band_interval(_mode(n, k, parity), PARAMS)
        _, values = brillouin_sweep(_mode(n, k, parity), PARAMS)
        assert min(values) >= band.lower - 1e-12
        assert max(values) <= band.upper + 1e-12
        assert min(values) == pytest.approx(band.lower, abs=1e-12)
        assert max(values) == pytest.approx(band.upper, abs=1e-12)


def test_gap_reasons_first_ten():
    reports = detect_gaps(10, PARAMS)
    assert len(reports) == 9
    by_pair = {
        (r.below.label(), r.above.label()): (r.certified, r.reason) for r in reports
    }
    assert by_pair[("0,1,simple", "1,1,c")] == (True, None)
    assert by_pair[("2,1,s", "0,2,simple")] == (True, None)
    assert by_pair[("0,2,simple", "3,1,c")] == (True, None)
    assert by_pair[("3,1,s", "1,2,c")] == (True, None)
    assert by_pair[("1,1,c", "1,1,s")] == (False, "shared-leading-term")
    assert by_pair[("2,1,c", "2,1,s")] == (False, "shared-leading-term")
    assert by_pair[("3,1,c", "3,1,s")] == (False, "shared-leading-term")
    assert by_pair[("1,2,c", "1,2,s")] == (False, "shared-leading-term")
    assert by_pair[("1,1,s", "2,1,c")] == (False, "first-order-flat")


def test_gap_reasons_with_undetermined_modes():
    reports = detect_gaps(12, PARAMS)
    by_pair = {(r.below.label(), r.above.label()): r for r in reports}
    r = by_pair[("1,2,s", "4,1,c")]
    assert not r.certified and r.reason == "undetermined-band"
    r2 = by_pair[("4,1,c", "4,1,s")]
    assert not r2.certified and r2.reason == "undetermined-band"
    assert sum(1 for r in reports if r.certified) == 4


def test_gap_endpoints_are_band_edges():
    reports = detect_gaps(6, PARAMS)
    first = reports[0]
    below = band_interval(_mode(0, 1, Parity.SIMPLE), PARAMS)
    above = band_interval(_mode(1, 1, Parity.COSINE), PARAMS)
    assert first.gap_lower == below.upper
    assert first.gap_upper == above.lower
    assert first.gap_lower < first.gap_upper


def test_gap_certification_needs_positive_width():
    # huge pads swallow every gap
    fat = ExpansionParams(1e-3, 0.25, 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = detect_gaps(6, fat)
    assert all(not r.certified for r in reports)
    assert any(r.reason == "pads-overlap" for r in reports)


def test_per_mode_error_constants():
    constants = {(0, 1): 3.0}
    reports = detect_gaps(4, PARAMS, error_constants=constants)
    first = reports[0]
    plain = detect_gaps(4, PARAMS)[0]
    pad = 3.0 * PARAMS.epsilon**PARAMS.gamma
    assert first.gap_lower == pytest.approx(plain.gap_lower + pad)
    assert first.gap_upper == plain.gap_upper


def test_pad_guard_warning():
    # eps^gamma dominating the narrowest first-order spread (the n=3 sine
    # branch) must trigger the warning; at small eps it stays quiet
    with pytest.warns(UserWarning):
        detect_gaps(8, ExpansionParams(0.5, 0.45))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        detect_gaps(8, PARAMS)


def test_detect_gaps_validation():
    with pytest.raises(ValueError):
        detect_gaps(1, PARAMS)


def test_detect_gaps_checks_swept_lengths(monkeypatch):
    # the grid route and the closed form of the band length must agree for
    # library callers too, not only in the command-line tables
    true_length = bands.band_length

    def perturbed(mode, params):
        exact = true_length(mode, params)
        return None if exact is None else exact * (1.0 + 1e-6)

    monkeypatch.setattr(bands, "band_length", perturbed)
    with pytest.raises(InternalConsistencyError):
        detect_gaps(10, PARAMS)


def _bump_off_the_lattice(monkeypatch):
    # the table's row nearest eta1 = pi/2 (exactly pi/2 on the 33- and
    # 5-point grids, 1.52 on the 32-point one), off the lattice, stands 1e-6
    # of the range above the lattice maximum
    table, lattice = corrections._lambda1_table, corrections._LATTICE
    row_sine = math.sin(0.25 * math.pi)

    def bumped(n, k, rows, columns):
        values = [v for row in table(n, k, lattice, lattice) for v in row]
        peak = max(values) + 1e-6 * (max(values) - min(values))
        return [
            [peak] * len(row) if abs(s - row_sine) < 0.03 else row
            for s, row in zip(rows[0], table(n, k, rows, columns))
        ]

    monkeypatch.setattr(corrections, "_lambda1_table", bumped)


def test_band_length_guard_sees_an_extreme_off_the_lattice(monkeypatch, capsys):
    # lambda1_range reads the table on the lattice only, so the swept length
    # is checked against it wherever the grid finds a larger extreme.  On
    # an even grid the bump lies well inside band_interval's grid slack and
    # far outside the 1e-8 band-length bound (on a grid that holds 0.0
    # band_interval sees it first)
    _bump_off_the_lattice(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="band length mismatch"):
        band_table(10, PARAMS, 32)
    assert cli.main(["bands", "--grid", "32"]) == cli.EXIT_INTERNAL
    assert cli.main(["verify", "--grid", "32"]) == cli.EXIT_NUMERICAL
    out = capsys.readouterr().out
    # the closed-form trace is the same table on verify's 5-point grid,
    # which holds eta1 = pi/2 too
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL correction-trace-vs-quadrature",
        "FAIL band-length-closed-vs-sweep",
    ]


def test_band_interval_guard_sees_grid_extremes_off_the_candidates(monkeypatch, capsys):
    # the grid scan's minimum, lifted by 5% of the band's scale, lies
    # beyond band_interval's slack of 0.75 step^2 of that scale (about 2.9%
    # at grid 33); the lattice candidates are left as they are
    true_extremes = bands.lambda1_extremes

    def lifted(mode, axis):
        lo, lo_eta, hi, hi_eta = true_extremes(mode, axis)
        if axis is not corrections.EXTREME_AXIS:
            lo += 0.05 * max(abs(lo), abs(hi), 1.0)
        return lo, lo_eta, hi, hi_eta

    monkeypatch.setattr(bands, "lambda1_extremes", lifted)
    with pytest.raises(InternalConsistencyError, match="disagree with analytic candidates"):
        band_table(10, PARAMS)
    assert cli.main(["bands"]) == cli.EXIT_INTERNAL
    assert cli.main(["verify"]) == cli.EXIT_INTERNAL
    assert "disagree with analytic candidates" in capsys.readouterr().err


def test_band_interval_guard_needs_bitwise_agreement_on_odd_grids(monkeypatch, capsys):
    # grid 33 holds 0.0 and so every lattice point, so there the grid scan
    # and the lattice candidates must agree bitwise: a grid minimum lifted
    # by 1% of the band's scale, inside the 2.9% slack of grid 33, raises,
    # and so does the off-lattice bump that only the band-length guard saw
    # on an even grid.  Grid 32 keeps the slack.
    true_extremes = bands.lambda1_extremes

    def lifted(mode, axis):
        lo, lo_eta, hi, hi_eta = true_extremes(mode, axis)
        if axis is not corrections.EXTREME_AXIS:
            lo += 0.01 * max(abs(lo), abs(hi), 1.0)
        return lo, lo_eta, hi, hi_eta

    def edges(grid):
        return [(b.lower, b.upper, b.length) for b in band_table(10, PARAMS, grid)]

    even = edges(32)
    with monkeypatch.context() as patch:
        patch.setattr(bands, "lambda1_extremes", lifted)
        with pytest.raises(InternalConsistencyError, match="disagree with analytic candidates"):
            band_table(10, PARAMS)
        assert cli.main(["bands"]) == cli.EXIT_INTERNAL
        assert edges(32) == even
    _bump_off_the_lattice(monkeypatch)
    with pytest.raises(InternalConsistencyError, match="disagree with analytic candidates"):
        band_table(10, PARAMS)
    assert cli.main(["bands"]) == cli.EXIT_INTERNAL
    assert "disagree with analytic candidates" in capsys.readouterr().err


def test_band_interval_accepts_every_odd_grid():
    # the bitwise check holds only where the axis holds 0.0; grid 51's
    # middle point is 2^-51, where a sine-branch extreme that the lattice
    # gives as 0.0 comes out tiny but nonzero, and the slack applies
    missing = [r for r in range(3, 302, 2) if 0.0 not in floquet_axis(r)]
    assert missing == [51, 83, 101, 151, 159, 165, 191, 201, 291, 301]
    for resolution in range(3, 302, 2):
        band_table(10, PARAMS, resolution)
    assert cli.main(["bands", "--grid", "51"]) == cli.EXIT_OK


def test_band_length_check_rejects_nan():
    # both comparisons of the swept against the closed-form length must
    # fail on a NaN length: the flat cosine branch and a swept branch
    for m in (_mode(1, 1, Parity.COSINE), _mode(0, 1, Parity.SIMPLE), _mode(1, 1, Parity.SINE)):
        with pytest.raises(InternalConsistencyError):
            bands._check_band_length(m, PARAMS, math.nan)


def test_detect_gaps_rejects_nan_closed_length(monkeypatch):
    true_length = bands.band_length

    def nan_length(mode, params):
        return None if true_length(mode, params) is None else math.nan

    monkeypatch.setattr(bands, "band_length", nan_length)
    with pytest.raises(InternalConsistencyError):
        detect_gaps(10, PARAMS)


def test_band_values_against_reference_numbers():
    band = band_interval(_mode(0, 1, Parity.SIMPLE), PARAMS)
    assert band.lower == pytest.approx(23.132744, abs=1e-5)
    assert band.upper == pytest.approx(23.382277, abs=1e-5)
    sine = band_interval(_mode(2, 1, Parity.SINE), PARAMS)
    assert sine.upper == pytest.approx(105.498466, abs=1e-5)
    assert sine.lower == pytest.approx(105.186646, abs=1e-4)



def _modes_up_to_seven():
    for n in range(8):
        for k in (1, 2):
            if n == 0:
                yield ModeIndex(0, k, Parity.SIMPLE)
            else:
                yield ModeIndex(n, k, Parity.COSINE)
                yield ModeIndex(n, k, Parity.SINE)


def _reference_lambda1(mode, eta):
    # the point-by-point formulas, Bessel constants recomputed at each call
    if mode.n == 0:
        z = bessel_zero(0, mode.k)
        amp = bessel_j(1, z) * math.cos(0.5 * eta.eta1) * math.cos(0.5 * eta.eta2)
        return (2.0 * math.pi / SOFT_CELL_AREA) * amp * amp
    if mode.parity is Parity.COSINE:
        return 0.0
    n = mode.n
    z = bessel_zero(n, mode.k)
    pref = (bessel_j(n - 1, z) - bessel_j(n + 1, z)) / (z * SOFT_CELL_AREA)
    sa, ca = math.sin(0.5 * eta.eta1), math.cos(0.5 * eta.eta1)
    sb, cb = math.sin(0.5 * eta.eta2), math.cos(0.5 * eta.eta2)
    if n % 4 == 2:
        return pref * (64.0 / (n * n)) * (sa * sa) * (sb * sb)
    return -pref * (16.0 / (n * n)) * (sa * sa * cb * cb + ca * ca * sb * sb)


# 5 is the axis of verify's correction-trace-vs-quadrature check
@pytest.mark.parametrize("resolution", [5, 8, 9])
def test_lambda1_grid_equals_scalar_bitwise(resolution):
    axis = floquet_axis(resolution)
    points = [FloquetPoint(float(a), float(b)) for a in axis for b in axis]
    for mode in _modes_up_to_seven():
        corr = CorrectionValue(mode)
        if corr.branch is Branch.UNDETERMINED:
            with pytest.raises(UndeterminedCorrectionError):
                lambda1_grid(mode, axis)
            with pytest.raises(UndeterminedCorrectionError):
                lambda1_extremes(mode, axis)
            continue
        grid = lambda1_grid(mode, axis)
        assert len(grid) == resolution * resolution
        for value, eta in zip(grid, points):
            assert value == corr.lambda1_at(eta), (mode.label(), eta)
            assert value == _reference_lambda1(mode, eta), (mode.label(), eta)


def _reference_scan(corr, points):
    lo, hi = math.inf, -math.inf
    lo_eta = hi_eta = points[0]
    for eta in points:
        v = corr.lambda1_at(eta)
        if v < lo:
            lo, lo_eta = v, eta
        if v > hi:
            hi, hi_eta = v, eta
    return lo, lo_eta, hi, hi_eta


@pytest.mark.parametrize("resolution", [8, 9, 33])
def test_band_interval_extremizers_match_strict_scan(resolution):
    axis = floquet_axis(resolution)
    grid_pts = [FloquetPoint(float(a), float(b)) for a in axis for b in axis]
    corners = (0.0, math.pi, -math.pi)
    cand_pts = [FloquetPoint(a, b) for a in corners for b in corners]
    params = ExpansionParams(1e-2, 0.3, 0.5)
    for mode in _modes_up_to_seven():
        corr = CorrectionValue(mode)
        if corr.branch is Branch.UNDETERMINED:
            continue
        lo, lo_eta, hi, hi_eta = _reference_scan(corr, grid_pts)
        cand_lo, cand_lo_eta, cand_hi, cand_hi_eta = _reference_scan(corr, cand_pts)
        if cand_lo < lo:
            lo, lo_eta = cand_lo, cand_lo_eta
        if cand_hi > hi:
            hi, hi_eta = cand_hi, cand_hi_eta
        band = band_interval(mode, params, resolution)
        assert band.extrema_eta == (lo_eta, hi_eta), mode.label()
        scale = params.first_order_scale
        lam0 = limit_eigenvalue(mode)
        assert band.lower == lam0 + scale * lo - params.pad
        assert band.upper == lam0 + scale * hi + params.pad


# every determined branch with n <= 15 and k <= 3, cosine branches included
BRANCHES = [
    mode
    for n in range(16)
    for k in (1, 2, 3)
    for mode in (
        [ModeIndex(0, k, Parity.SIMPLE)]
        if n == 0
        else [ModeIndex(n, k, Parity.COSINE), ModeIndex(n, k, Parity.SINE)]
    )
    if n == 0 or n % 4 != 0
]


def _first_extremes(values, axis):
    # argmin/argmax order: the first row-major index of the least and of the
    # greatest value
    size = len(axis)

    def at(index):
        return values[index], FloquetPoint(axis[index // size], axis[index % size])

    return (*at(values.index(min(values))), *at(values.index(max(values))))


def _bits(extremes):
    lo, lo_eta, hi, hi_eta = extremes
    return (lo.hex(), lo_eta.eta1.hex(), lo_eta.eta2.hex(),
            hi.hex(), hi_eta.eta1.hex(), hi_eta.eta2.hex())


@pytest.mark.parametrize(
    "axes",
    [
        [floquet_axis(r) for r in range(3, 67)],
        [floquet_axis(r) for r in range(67, 131)],
        [floquet_axis(r) for r in range(255, 258)],
        [EXTREME_AXIS],
    ],
    ids=["grids-3-66", "grids-67-130", "grids-255-257", "candidate-axis"],
)
def test_extremes_equal_first_occurrence_scan(axes):
    # the O(grid) candidate scan against the whole table, bitwise, values
    # and extremizer points alike
    for axis in axes:
        for mode in BRANCHES:
            want = _first_extremes(lambda1_grid(mode, axis), axis)
            got = lambda1_extremes(mode, axis)
            assert _bits(got) == _bits(want), (mode.label(), len(axis))


def test_lattice_extremes_equal_the_candidate_scan_bitwise():
    # band_interval's candidates, read from the lattice table, against the
    # general scan on EXTREME_AXIS, values and points alike, for every
    # determined branch among the first 5,000 modes
    modes = [m for m in enumerate_spectrum(5000) if branch_for(m) is not Branch.UNDETERMINED]
    assert len(modes) == 3794
    assert {branch_for(m) for m in modes} == {Branch.SIMPLE, Branch.COSINE, Branch.SINE}
    for mode in modes:
        want = lambda1_extremes(mode, EXTREME_AXIS)
        assert _bits(lattice_extremes(mode)) == _bits(want), mode.label()


def _numpy_table(mode, axis):
    # the row-major table as numpy arrays, with the float operations of
    # corrections._lambda1_table in the same order
    halves = [0.5 * FloquetPoint(a, 0.0).eta1 for a in axis]
    s = np.array([math.sin(h) for h in halves])
    c = np.array([math.cos(h) for h in halves])
    n = mode.n
    if mode.parity is Parity.COSINE:
        return np.zeros(len(axis) * len(axis))
    if n == 0:
        amp = ((-0.5 * _derivative_gap(0, mode.k)[1]) * c)[:, None] * c
        return ((2.0 * math.pi / SOFT_CELL_AREA) * amp * amp).ravel()
    z, gap = _derivative_gap(n, mode.k)
    pref = gap / (z * SOFT_CELL_AREA)
    if n % 4 == 2:
        return ((pref * (64.0 / (n * n)) * (s * s))[:, None] * (s * s)).ravel()
    return (-pref * (16.0 / (n * n)) * (
        (s * s)[:, None] * c * c + (c * c)[:, None] * s * s
    )).ravel()


def test_numpy_table_equals_lambda1_grid_bitwise():
    for resolution in (129, 130):
        axis = floquet_axis(resolution)
        for mode in BRANCHES:
            want = lambda1_grid(mode, axis)
            got = _numpy_table(mode, axis).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in want], mode.label()


@pytest.mark.parametrize("resolution", [511, 512, 513, 2048, 2049])
def test_extremes_equal_argmin_on_large_grids(resolution):
    # a pure-Python table at 2049^2 takes about a second per branch, so the
    # reference here is the same table in numpy (pinned bitwise equal to
    # lambda1_grid above) with argmin/argmax
    axis = floquet_axis(resolution)
    size = len(axis)
    for mode in BRANCHES:
        values = _numpy_table(mode, axis)
        lo, hi = int(np.argmin(values)), int(np.argmax(values))
        want = (
            float(values[lo]), FloquetPoint(axis[lo // size], axis[lo % size]),
            float(values[hi]), FloquetPoint(axis[hi // size], axis[hi % size]),
        )
        got = lambda1_extremes(mode, axis)
        assert _bits(got) == _bits(want), mode.label()


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    st.sampled_from(BRANCHES),
    st.lists(
        st.one_of(
            st.floats(-10.0, 10.0, allow_nan=False),
            st.sampled_from([0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi]),
        ),
        min_size=3,
        max_size=40,
    ),
)
# the eta1 = 7.7e-162 row has a subnormal slope: its entry at eta2 = 0.378
# rounds to 0 and ties the global minimum ahead of the w = min column
@example(ModeIndex(2, 2, Parity.SINE), [0.37781125918186925, 7.699862174152832e-162, math.pi])
@example(ModeIndex(2, 3, Parity.SINE), [0.14512552250891497, 2.514764455524206e-161, math.pi])
@example(ModeIndex(1, 1, Parity.SINE), [0.5 * math.pi, 1.0, -0.5 * math.pi, 1.0, 1e-200])
# every row near eta1 = pi/2, where a row is flat up to rounding and its
# extreme may sit at any column
@example(ModeIndex(1, 1, Parity.SINE), [0.5 * math.pi + 1e-3 * j for j in range(6)])
@example(ModeIndex(3, 2, Parity.SINE), [-0.5 * math.pi - 1e-3 * j for j in range(6)])
def test_extremes_equal_first_occurrence_scan_on_drawn_axes(mode, axis):
    want = _first_extremes(lambda1_grid(mode, axis), axis)
    assert _bits(lambda1_extremes(mode, axis)) == _bits(want)


def test_bands_binds_no_private_name_of_corrections():
    # the form of Lambda1 (its table, extreme scan and closed-form range)
    # lives in corrections; bands reaches it through public names only
    private = [
        value for name, value in vars(corrections).items()
        if name.startswith("_") and not name.startswith("__")
    ]
    for name, value in vars(bands).items():
        assert not any(value is p for p in private), name
