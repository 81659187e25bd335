"""Bessel evaluation and zero finding, checked against test-local references."""

import math
import random
import sys
import threading
from functools import lru_cache

import pytest

from diskbands import ZeroFindingError, bessel_j, bessel_j_prime, bessel_zero
from diskbands import _core, bessel, cli
from diskbands._core import bessel_j_kernel, bessel_j_pair
from diskbands.spectrum import enumerate_spectrum


def _reference_j(n: int, x: float) -> float:
    # plain power series; adequate below x ~ 12 where cancellation is mild
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


def _bisect(f, a: float, b: float) -> float:
    fa = f(a)
    assert fa * f(b) < 0.0
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


def test_values_against_series():
    for n in (0, 1, 2, 5, 9):
        x = 0.1
        while x < 11.0:
            assert bessel_j(n, x) == pytest.approx(_reference_j(n, x), abs=2e-13)
            x += 0.7


def test_trivial_arguments():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-14


def test_argument_validation():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(2, -0.5)
    with pytest.raises(ValueError):
        bessel_j(2, float("nan"))
    with pytest.raises(ValueError):
        bessel_zero(0, 0)


def test_three_term_recurrence():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    for n in range(1, 13):
        x = 0.5
        while x < 50.0:
            lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
            rhs = 2.0 * n / x * bessel_j(n, x)
            scale = max(abs(lhs), abs(rhs), 1e-3)
            assert abs(lhs - rhs) <= 1e-10 * scale
            x += 1.7


def test_derivative_against_finite_difference():
    h = 1e-5
    for n in (0, 1, 2, 6):
        for x in (0.7, 2.3, 5.1, 17.9):
            fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2.0 * h)
            assert bessel_j_prime(n, x) == pytest.approx(fd, abs=1e-8)


def test_pinned_first_zeros():
    assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-12)
    assert bessel_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-12)


def test_zeros_against_bisection():
    j01 = _bisect(lambda x: _reference_j(0, x), 2.0, 3.0)
    j11 = _bisect(lambda x: _reference_j(1, x), 3.0, 4.5)
    assert abs(bessel_zero(0, 1) - j01) < 1e-10
    assert abs(bessel_zero(1, 1) - j11) < 1e-10


def test_zero_record_fields():
    # the zero is a plain float, and the k = 3 zero lies between its
    # neighbours
    z = bessel_zero(2, 3)
    assert type(z) is float
    assert bessel_zero(2, 2) < z < bessel_zero(2, 4)
    assert bessel_j(2, z) == pytest.approx(0.0, abs=1e-12)


def test_zeros_increase_in_k():
    for n in (0, 4, 11):
        values = [bessel_zero(n, k) for k in range(1, 7)]
        assert all(a < b for a, b in zip(values, values[1:]))
        # spacing of consecutive zeros tends to pi; it never drops far below
        assert all(b - a > 2.9 for a, b in zip(values, values[1:]))


def test_interlacing_with_next_order():
    # j_{n,k} < j_{n+1,k} < j_{n,k+1}
    for n in range(0, 12):
        for k in range(1, 6):
            a = bessel_zero(n, k)
            b = bessel_zero(n + 1, k)
            c = bessel_zero(n, k + 1)
            assert a < b < c


def test_no_common_zeros_between_orders():
    for n in range(0, 6):
        for k in range(1, 5):
            z = bessel_zero(n, k)
            assert abs(bessel_j(n + 1, z)) > 1e-8


def _full_scan_brackets(n: int, k: int, pair=bessel_j_pair) -> list:
    # the first k sign-change brackets (a, J_n(a), b, J_n(b), J_{n+1}(b)) of
    # a pi/4 scan from the origin side that evaluates every grid point
    x = n + 1e-9 if n > 0 else 1e-9
    fx = pair(n, x)[0]
    brackets = []
    for _ in range(100000):
        xn = x + math.pi / 4
        fxn, above = pair(n, xn)
        while fxn == 0.0:
            xn += 1e-9
            fxn, above = pair(n, xn)
        if (fx > 0.0) != (fxn > 0.0):
            brackets.append((x, fx, xn, fxn, above))
            if len(brackets) == k:
                return brackets
        x, fx = xn, fxn
    raise AssertionError("reference scan exhausted")


def _evaluated_zero(n: int, bracket, midpoints=None) -> float:
    # the zero finder as it was before the replay: a bisection that
    # evaluates every midpoint (listed in `midpoints`), then Newton steps
    # with the slope of bessel_j_prime
    a, fa, b = bracket[:3]
    for _ in range(100):
        if b - a < 1e-3:
            break
        mid = 0.5 * (a + b)
        if midpoints is not None:
            midpoints.append(mid)
        fm = bessel_j_kernel(n, mid)
        if (fa > 0.0) != (fm > 0.0):
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    for _ in range(50):
        fr = bessel_j_kernel(n, root)
        if (fa > 0.0) != (fr > 0.0):
            b = root
        else:
            a, fa = root, fr
        if abs(fr) <= 1e-14:
            break
        if n == 0:
            slope = -bessel_j_kernel(1, root)
        else:
            slope = 0.5 * (bessel_j_kernel(n - 1, root) - bessel_j_kernel(n + 1, root))
        step = fr / slope if slope != 0.0 else 0.0
        nxt = root - step
        if step == 0.0 or nxt <= a or nxt >= b:
            nxt = 0.5 * (a + b)
        if nxt == root:
            break
        root = nxt
    assert abs(bessel_j_kernel(n, root)) <= 1e-12
    return root


def _fresh_scan_zero(n: int, k: int, midpoints=None) -> float:
    # the zero finder as it was before the per-order walk: a full pi/4 scan
    # from the origin side for every k, then the evaluated bisection
    return _evaluated_zero(n, _full_scan_brackets(n, k)[k - 1], midpoints)


def _key(bracket) -> tuple:
    # a bracket bitwise, but for J_n(a), which the zero finder reads only
    # through its sign
    a, fa, b, fb, above = bracket
    return a.hex(), fa > 0.0, b.hex(), fb.hex(), above.hex()


def test_walk_zeros_equal_fresh_scan_bitwise(cold_zeros):
    keys = [(n, k) for n in (0, 1, 2, 7, 29, 70, 131) for k in range(1, 41)]
    # the corners of the `zeros` table caps: n = 200 and k up to 200
    keys += [(200, k) for k in range(1, 10)]
    keys += [(n, k) for n in (0, 9) for k in range(195, 201)]
    reference = {key: _fresh_scan_zero(*key) for key in keys}
    scans = {n: _full_scan_brackets(n, max(k for m, k in keys if m == n)) for n, _ in keys}
    # k descending, orders interleaved: the first request walks each order
    # to its deepest k and every later one reads a bracket already passed
    for n, k in sorted(reference, key=lambda key: (-key[1], key[0])):
        assert bessel_zero(n, k) == reference[n, k], (n, k)
        assert _key(bessel._bracket(n, k)) == _key(scans[n][k - 1]), (n, k)
    # scattered requests, so that walks stop and resume at every depth
    bessel._zero_value.cache_clear()
    bessel._WALKS.clear()
    keys = sorted(reference)
    random.Random(5).shuffle(keys)
    for n, k in keys:
        assert bessel_zero(n, k) == reference[n, k], (n, k)
        assert _key(bessel._bracket(n, k)) == _key(scans[n][k - 1]), (n, k)


def test_walk_keeps_the_sign_of_a_skipped_left_end(cold_zeros, monkeypatch):
    # zeros 3.09 apart, just above the least spacing of J_n's zeros: the
    # second point after a bracket may then be the next bracket's left end,
    # which the walk skipped and does not evaluate; the bracket keeps the
    # last bracket's J_n(b) there, which has its sign
    def pair(n, x):
        return math.cos(math.pi * x / 3.09), math.sin(math.pi * x / 3.09)

    reference = _full_scan_brackets(0, 40, pair)
    xs = []

    def logged(n, x):
        xs.append(x)
        return pair(n, x)

    monkeypatch.setattr(bessel, "bessel_j_pair", logged)
    walked = [bessel._bracket(0, k) for k in range(1, 41)]
    assert [_key(b) for b in walked] == [_key(b) for b in reference]
    skipped = [k for k in range(1, 40) if walked[k][0] not in xs]
    assert skipped
    assert all(walked[k][1] == walked[k - 1][3] for k in skipped)
    # the walk evaluates each grid point once, in order, and none at its
    # start or at the two points after each bracket
    assert xs == sorted(set(xs))
    steps = round(walked[-1][2] / (math.pi / 4))
    assert len(xs) == steps - 2 * 39


_TABLE = [(n, k) for n in range(30) for k in range(1, 21)]


@lru_cache(maxsize=None)
def _table_reference() -> tuple[dict, dict]:
    # the table's zeros, and the midpoints of each one's evaluated bisection
    midpoints = {key: [] for key in _TABLE}
    return {key: _fresh_scan_zero(*key, midpoints[key]) for key in _TABLE}, midpoints


def _count_kernel_calls(monkeypatch) -> tuple[list[int], list]:
    # counts the bessel_j_kernel calls of the zero finder, all of them in
    # the bisection replay ([0]), and the Miller passes of the walk ([1]);
    # also lists the (n, x) of each kernel call
    calls = [0, 0]
    outside = []
    walking = [False]
    kernel, pair, bracket = bessel.bessel_j_kernel, bessel.bessel_j_pair, bessel._bracket

    def counted(n, x):
        calls[0] += 1
        outside.append((n, x))
        return kernel(n, x)

    def counted_pair(n, x):
        calls[1] += walking[0]
        return pair(n, x)

    def walk(n, k):
        walking[0] = True
        try:
            return bracket(n, k)
        finally:
            walking[0] = False

    monkeypatch.setattr(bessel, "bessel_j_kernel", counted)
    monkeypatch.setattr(bessel, "bessel_j_pair", counted_pair)
    monkeypatch.setattr(bessel, "_bracket", walk)
    return calls, outside


def test_replay_calls_the_kernel_only_inside_the_window(cold_zeros, monkeypatch):
    # the n <= 29, k <= 20 table calls the kernel only at a bisection
    # midpoint within _REPLAY_GUARD of the estimate, which lies within 2e-8
    # of the zero; the walk and the polish run on the pair kernel
    reference, _ = _table_reference()
    calls, outside = _count_kernel_calls(monkeypatch)
    for n, k in _TABLE:
        assert bessel_zero(n, k) == reference[n, k], (n, k)
    for n, x in outside:
        nearest = min(abs(x - z) for (m, _), z in reference.items() if m == n)
        assert nearest <= bessel._REPLAY_GUARD + 2e-8, (n, x)
    # 38 calls, where the evaluated bisection makes 6,000
    assert calls[0] <= 40
    # the walks skip the points below the first zero's bound and, after each
    # bracket, those below its spacing floor, and evaluate no skipped left
    # end: 785 passes, against a bound of 790
    assert calls[1] <= 790


def test_replay_without_guard_evaluates_every_midpoint(cold_zeros, monkeypatch):
    reference, _ = _table_reference()
    monkeypatch.setattr(bessel, "_REPLAY_GUARD", math.inf)
    calls, _ = _count_kernel_calls(monkeypatch)
    for n, k in _TABLE:
        assert bessel_zero(n, k) == reference[n, k], (n, k)
    # a pi/4 bracket halves 10 times before it is narrower than 1e-3
    assert calls[0] == 10 * len(_TABLE)


def _count_polishes(monkeypatch) -> dict:
    # the number of polishing Newton runs per (n, k): 2 when the check
    # rejected the replay that trusted the estimate
    polishes = {}
    newton, zero_value = bessel._newton, bessel._zero_value.__wrapped__
    current = [None]

    def counted(*args):
        polishes[current[0]] = polishes.get(current[0], 0) + 1
        return newton(*args)

    def value(n, k):
        current[0] = n, k
        return zero_value(n, k)

    monkeypatch.setattr(bessel, "_newton", counted)
    monkeypatch.setattr(bessel, "_zero_value", lru_cache(maxsize=None)(value))
    return polishes


@pytest.mark.parametrize("misplaced", ["past_nearest_midpoint", "3e-5_off_the_zero"])
def test_misplaced_estimate_falls_back_to_evaluated_bisection(cold_zeros, monkeypatch, misplaced):
    # "past_nearest_midpoint": the estimate lies 3e-5 beyond the
    # evaluated bisection's midpoint nearest the zero, on its far side from
    # the zero, so that midpoint takes the wrong side and the check must
    # reject every zero.  "3e-5_off_the_zero": the window [z + 1e-5, z +
    # 5e-5] excludes the zero z, and the check must reject exactly the zeros
    # with a midpoint closer than 1e-5 to the zero that the estimate gave
    # its side, and accept the others
    reference, midpoints = _table_reference()

    def misplaced_estimate(n, a, b, fb, above):
        nk, z = next((nk, z) for nk, z in reference.items() if nk[0] == n and a < z <= b)
        if misplaced == "3e-5_off_the_zero":
            return z + 3e-5
        m = min(midpoints[nk], key=lambda x: abs(x - z))
        return m + math.copysign(3e-5, m - z)

    monkeypatch.setattr(bessel, "_estimate", misplaced_estimate)
    polishes = _count_polishes(monkeypatch)
    calls, outside = _count_kernel_calls(monkeypatch)
    rejected = set()
    for n, k in _TABLE:
        start = len(outside)
        assert bessel_zero(n, k) == reference[n, k], (n, k)
        if polishes[n, k] == 2:
            rejected.add((n, k))
            # the rerun evaluates all 10 midpoints
            assert set(midpoints[n, k]) <= {x for _, x in outside[start:]}, (n, k)
        else:
            assert polishes[n, k] == 1, (n, k)
    if misplaced == "past_nearest_midpoint":
        assert rejected == set(_TABLE)
        assert calls[0] >= 10 * len(_TABLE)
    else:
        window = bessel._REPLAY_GUARD
        close = {
            key
            for key, z in reference.items()
            if any(z - bessel._SIGN_MARGIN < m < z + 3e-5 - window for m in midpoints[key])
        }
        assert rejected == close
        assert 0 < len(rejected) < len(_TABLE)


def test_replay_beyond_the_checked_slope_evaluates_every_midpoint(cold_zeros, monkeypatch):
    # past order 200 or argument 1030 the slope bound that sizes the window
    # is not checked, so the replay trusts no estimate there.  At j_{3393,1}
    # the slope is 0.005 and a trusted window ends the replay on an interval
    # without the zero, so the polishing run misses its tolerance.
    reference = {key: _fresh_scan_zero(*key) for key in ((3393, 1), (0, 329))}
    calls, _ = _count_kernel_calls(monkeypatch)
    for key, zero in reference.items():
        assert bessel_zero(*key) == zero, key
    assert bessel._bracket(0, 329)[2] > bessel._SLOPE_CHECKED_X
    assert calls[0] == 10 * len(reference)


def _listable_keys() -> set:
    # every zero the command line can list: both `zeros` caps (n <= 9 with
    # k up to 200, n <= 200 with k up to 9) and the modes of `spectrum
    # --count 5000`
    keys = {(n, k) for n in range(10) for k in range(1, 201)}
    keys |= {(n, k) for n in range(201) for k in range(1, 10)}
    return keys | {(mode.n, mode.k) for mode in enumerate_spectrum(5000)}


def test_every_listable_zero_equals_the_evaluated_bisection_bitwise(cold_zeros, monkeypatch):
    # the reference scans each order once from the origin side, evaluating
    # every grid point, then bisects each bracket evaluating every midpoint
    # and polishes with bessel_j_prime's slope; no zero may need the rerun
    polishes = _count_polishes(monkeypatch)
    keys = _listable_keys()
    assert len(keys) == 4898
    depth = {}
    for n, k in keys:
        depth[n] = max(depth.get(n, 0), k)
    worst = (0.0, None)
    for n, kmax in depth.items():
        for k, bracket in enumerate(_full_scan_brackets(n, kmax), start=1):
            if (n, k) not in keys:
                continue
            zero = _evaluated_zero(n, bracket)
            assert bessel_zero(n, k) == zero, (n, k)
            a, _, b, fb, above = bracket
            worst = max(worst, (abs(bessel._estimate(n, a, b, fb, above) - zero), (n, k)))
    assert set(polishes.values()) == {1}
    # the worst estimate is 1.73e-8 off, at (0, 8); the replay stays bitwise
    # for any estimate within _REPLAY_GUARD - _SIGN_MARGIN = 1e-5 of the
    # zero, 580 times that
    assert worst[0] < 2e-8, worst


def test_certified_steps_bound_the_kernel(cold_zeros, monkeypatch):
    # a polish that returns an iterate it never evaluated returns a bound on
    # the kernel's |J_n| there; with the certificate off (K = inf) every
    # polish evaluates its last iterate and every zero is bitwise the same
    keys = sorted(_listable_keys())
    bessel._zero_value.cache_clear()  # the spectrum found some of them
    bessel._WALKS.clear()
    newton, pair, kernel = bessel._newton, bessel.bessel_j_pair, bessel.bessel_j_kernel
    evaluated, polished = [], []
    monkeypatch.setattr(bessel, "bessel_j_pair", lambda n, x: evaluated.append(x) or pair(n, x))
    monkeypatch.setattr(bessel, "bessel_j_kernel", lambda n, x: evaluated.append(x) or kernel(n, x))

    def polish(n, *args):
        evaluated.clear()
        root, fr = newton(n, *args)
        polished.append((n, root, fr, root not in evaluated))
        return root, fr

    monkeypatch.setattr(bessel, "_newton", polish)
    zeros = [bessel_zero(n, k) for n, k in keys]
    assert len(polished) == len(keys)
    certified = [(n, root, bound) for n, root, bound, unevaluated in polished if unevaluated]
    # 4,788 of the 4,898; the largest bound is 8.5e-15, and the largest
    # |J_n| at a certified root 2.1e-15
    assert len(certified) >= 4700
    for n, root, bound in certified:
        assert abs(kernel(n, root)) <= bound <= 1e-14, (n, root)
    bessel._zero_value.cache_clear()
    bessel._WALKS.clear()
    polished.clear()
    monkeypatch.setattr(bessel, "_KERNEL_ERROR", math.inf)
    assert [bessel_zero(n, k) for n, k in keys] == zeros
    assert len(polished) == len(keys)
    assert not any(unevaluated for *_, unevaluated in polished)


def _polish_passes(monkeypatch, n: int, zero: float, offset: float) -> tuple[list, float, float]:
    # the points the polish evaluates from zero + offset in the bracket
    # [zero - 0.1, zero + 0.1], and the iterate and residual it returns
    xs = []
    monkeypatch.setattr(bessel, "bessel_j_pair", lambda m, x: xs.append(x) or bessel_j_pair(m, x))
    a = zero - 0.1
    root, fr = bessel._newton(n, a, bessel_j_kernel(n, a), zero + 0.1, zero + offset, 1e-14)
    monkeypatch.undo()
    return xs, root, fr


def test_certificate_needs_a_short_step_on_the_checked_range(cold_zeros, monkeypatch):
    # a Newton step just below 2^-27 lands unevaluated, one just above it
    # takes the pass that confirms it, at the same point
    zero = bessel_zero(5, 3)
    for scale, passes in ((0.99, 1), (1.01, 2)):
        xs, root, fr = _polish_passes(monkeypatch, 5, zero, scale * bessel._CERTIFIED_STEP)
        j, above = bessel_j_pair(5, xs[0])
        step = j / ((5 / xs[0]) * j - above)
        assert 0.98 < step / bessel._CERTIFIED_STEP < 1.02
        assert (step > bessel._CERTIFIED_STEP) == (passes == 2)
        assert len(xs) == passes and root == xs[0] - step, scale
        assert abs(bessel_j_kernel(5, root)) <= abs(fr) <= 1e-14
        assert (fr == bessel_j_kernel(5, root)) == (passes == 2)
    # past order 200 or argument 1030 no step is certified, however short
    for n, k, passes in ((200, 1, 1), (201, 1, 2), (0, 328, 1), (0, 329, 2)):
        zero = bessel_zero(n, k)
        assert (n > bessel._SLOPE_CHECKED_N or zero + 0.1 > bessel._SLOPE_CHECKED_X) == (passes == 2)
        xs, root, fr = _polish_passes(monkeypatch, n, zero, 1e-9)
        assert len(xs) == passes, (n, k)
        assert abs(fr) <= 1e-14


def test_first_zero_bound_lies_below_the_first_zero(cold_zeros):
    # the walk calls no kernel below n + 1.8557571 n^(1/3) (Qu & Wong 1999);
    # the least margin is 0.1766, at n = 200
    for n in range(1, 201):
        bound = n + bessel._FIRST_ZERO * n ** (1.0 / 3.0)
        assert bessel.zero_floor(n, 1) == bound
        assert bessel_zero(n, 1) - bound > 0.17, n


# the orders and depths of the `zeros` caps (n <= 9 with k up to 200, n <=
# 200 with k up to 9) and a grid in between
_FLOOR_KEYS = {(n, k) for n in range(10) for k in range(1, 201)}
_FLOOR_KEYS |= {(n, k) for n in range(201) for k in range(1, 10)}
_FLOOR_KEYS |= {(n, k) for n in range(10, 201, 10) for k in range(10, 101, 6)}


def test_spacing_floor_lies_below_the_next_zero(cold_zeros):
    # after the bracket (a, b] of j_{n,k} the walk skips the grid points
    # below a + floor - 1e-5, and the spectrum keys j_{n,k+1} at j_{n,k} +
    # floor: both must lie below j_{n,k+1}, the first by more than 1e-5
    margins = []
    for n, k in sorted(_FLOOR_KEYS):
        a, _, b = bessel._bracket(n, k)[:3]
        floor = bessel._spacing_floor(n, a, b)
        after = bessel_zero(n, k + 1)
        assert floor < after - bessel_zero(n, k), (n, k)
        assert bessel.zero_floor(n, k + 1) == bessel_zero(n, k) + floor
        margins.append((after - (a + floor), (n, k)))
    # the least is 6.6e-5, at (7, 110)
    least = min(margins)
    assert least[0] > 2e-5, least


@pytest.mark.parametrize("n, ks", [(201, range(1, 10)), (0, range(329, 336))])
def test_walk_past_the_checked_range_skips_two_points(cold_zeros, monkeypatch, n, ks):
    # past order 200 or argument 1030 the walk evaluates the third grid
    # point after each bracket, as it did before the spacing floor
    if ks[0] > 1:
        bessel._bracket(n, ks[0] - 1)
    xs = []
    monkeypatch.setattr(bessel, "bessel_j_pair", lambda m, x: xs.append(x) or bessel_j_pair(m, x))
    for k in ks:
        b = bessel._bracket(n, k)[2]
        if k == ks[-1]:
            break
        assert n > bessel._SLOPE_CHECKED_N or b > bessel._SLOPE_CHECKED_X
        third = b
        for _ in range(3):
            third += bessel._SCAN_STEP
        bessel._bracket(n, k + 1)
        assert xs[xs.index(b) + 1] == third, (n, k)


def test_slope_at_the_zeros_meets_the_replay_window(cold_zeros):
    # the sign margin 1e-5 needs |J_n'| >= 0.02 at every zero
    # the command line lists: the corners of the `zeros` caps and every mode
    # of `spectrum --count 5000`; the least is 0.0312, at (200, 1).  The
    # last zeros below argument 1030 at n = 0 and 200 keep it too.
    keys = {(n, k) for n in range(190, 201) for k in range(1, 10)}
    keys |= {(n, k) for n in range(10) for k in range(190, 201)}
    keys |= {(mode.n, mode.k) for mode in enumerate_spectrum(5000)}
    keys |= {(0, 328), (200, 234)}
    # |J_n| >= 0.02 * 1e-5 = 2e-7 beyond the margin, where the polished
    # zero lies within _RESIDUAL_TOL / 0.02 of the zero
    assert bessel._SIGN_MARGIN == 1e-5 + bessel._RESIDUAL_TOL / 0.02
    for n, k in keys:
        zero = bessel_zero(n, k)
        assert zero <= bessel._SLOPE_CHECKED_X, (n, k)
        assert abs(bessel_j_prime(n, zero)) >= 0.02, (n, k)
    assert bessel_zero(0, 329) > bessel._SLOPE_CHECKED_X
    assert bessel_zero(200, 235) > bessel._SLOPE_CHECKED_X


def _count_miller_passes(monkeypatch, work) -> int:
    calls = [0]
    miller = _core._miller

    def counted(n, x):
        calls[0] += 1
        return miller(n, x)

    monkeypatch.setattr(_core, "_miller", counted)
    work()
    return calls[0]


def _workload_passes(monkeypatch, capsys) -> tuple[int, int, int]:
    # the Miller passes of the benchmark's spectrum ops, in-process from cold
    # caches, and of both `zeros` caps in one process
    def run(*argv):
        assert cli.main(list(argv)) == 0
        assert capsys.readouterr().out

    def cold(*argv):
        bessel._zero_value.cache_clear()
        bessel._WALKS.clear()
        run(*argv)

    spectrum = _count_miller_passes(monkeypatch, lambda: cold("spectrum", "--count", "1500"))
    table = _count_miller_passes(monkeypatch, lambda: cold("zeros", "--n-max", "29", "--k-max", "20"))
    both = lambda: cold("zeros", "--n-max", "9", "--k-max", "200") or run("zeros", "--n-max", "200", "--k-max", "9")
    return spectrum, table, _count_miller_passes(monkeypatch, both)


def test_miller_passes_per_workload(cold_zeros, monkeypatch, capsys):
    # the walk skips the points below the first zero's bound and below each
    # bracket's spacing floor, the estimate costs no pass, the polish
    # certifies its last step instead of evaluating it, and the spectrum
    # finds only the zeros it lists and a few more: 2,667 passes for
    # `spectrum --count 1500`, against a bound of 2,690; 2,016 for the
    # 29 x 20 `zeros` table, against 2,035; 12,840 for both caps, against
    # 12,870
    spectrum, table, caps = _workload_passes(monkeypatch, capsys)
    assert spectrum <= 2690
    assert table <= 2035
    assert caps <= 12870


def test_uncertified_polish_takes_the_evaluated_pass_counts(cold_zeros, monkeypatch, capsys):
    # with the certificate off (K = inf) the polish evaluates its last step
    monkeypatch.setattr(bessel, "_KERNEL_ERROR", math.inf)
    assert _workload_passes(monkeypatch, capsys) == (3419, 2605, 16469)


def _failing_pair(fail_at: int, exc: BaseException):
    calls = [0]

    def pair(n, x):
        calls[0] += 1
        if calls[0] == fail_at:
            raise exc
        return bessel_j_pair(n, x)

    return pair


def test_walk_survives_exception_in_mid_walk(cold_zeros, monkeypatch):
    # the walk of J_7 to k = 30 first evaluates 10.93, the first grid point
    # above its first zero's bound, then one or two points per sign change;
    # calls 1 to 15 span its first twelve sign changes, and the last two
    # calls of an uninterrupted run are the polish's two passes, the second
    # of which certifies its step instead of evaluating it
    reference = [_fresh_scan_zero(7, k) for k in range(1, 31)]
    xs = []
    monkeypatch.setattr(bessel, "bessel_j_pair", lambda n, x: xs.append(x) or bessel_j_pair(n, x))
    bessel_zero(7, 30)
    monkeypatch.undo()
    last = len(xs)
    assert last > 16
    for fail_at in [*range(1, 16), last - 1, last]:
        exc = KeyboardInterrupt() if fail_at % 2 else RuntimeError("kernel fault")
        bessel._zero_value.cache_clear()
        bessel._WALKS.clear()
        monkeypatch.setattr(bessel, "bessel_j_pair", _failing_pair(fail_at, exc))
        with pytest.raises(type(exc)):
            bessel_zero(7, 30)
        monkeypatch.undo()
        # low k first: these read brackets the interrupted walk had passed
        for k in (1, 5, 30, 12, 29):
            assert bessel_zero(7, k) == reference[k - 1], (fail_at, k)
        assert [bessel_zero(7, k) for k in range(1, 31)] == reference, fail_at


def test_exhausted_scan_raises_without_walking_again(cold_zeros, monkeypatch):
    calls = [0]

    def never_changes_sign(n, x):
        calls[0] += 1
        return 1.0, 0.0

    monkeypatch.setattr(bessel, "bessel_j_pair", never_changes_sign)
    with pytest.raises(ZeroFindingError, match="scan exhausted"):
        bessel_zero(3, 1)
    # the start point and 100000 steps, as the fresh scan took, less the
    # four points below J_3's first zero's bound 5.68, which it skips
    assert calls[0] == 100001 - 4
    with pytest.raises(ZeroFindingError, match="scan exhausted"):
        bessel_zero(3, 2)
    assert calls[0] == 100001 - 4


def test_concurrent_walks_agree(cold_zeros):
    orders = (0, 3, 8)
    reference = {(n, k): _fresh_scan_zero(n, k) for n in orders for k in range(1, 26)}
    results = []

    def worker(seed):
        keys = sorted(reference)
        random.Random(seed).shuffle(keys)
        results.extend((key, bessel.bessel_zero(*key)) for key in keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6 * len(reference)
    assert all(value == reference[key] for key, value in results)
