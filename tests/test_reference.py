"""The kernels in `diskbands._core` and the solver in `diskbands._sturm`
against independent references: mpmath at 30 digits for J_n and its zeros,
LAPACK (`numpy.linalg.eigvalsh`) for the tridiagonal eigensolver.  The bounds sit a few times above the
largest errors observed on these samples.  The plain loops that the Miller
recurrence, the Sturm count and the bisection were tuned from are kept here
as bitwise references."""

import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskbands import _core, _sturm, bessel
from diskbands._core import bessel_j_kernel, bessel_j_pair
from diskbands._sturm import tridiag_smallest_eigenvalues
from diskbands.bessel import bessel_zero
from diskbands.oracles import RadialMesh, _assemble, disk_mesh_doubling
from diskbands.spectrum import enumerate_spectrum

mpmath.mp.dps = 30

# both kernel branches (power series below x = 4, Miller recurrence above)
# and the ends of the documented range n <= 60, x <= 1000
_XS = (
    0.0, 1e-3, 0.5, 1.0, 2.5, 3.9999, 4.0, 7.3, 12.0, 25.5, 48.0, 60.0,
    99.9, 150.0, 250.0, 333.3, 500.0, 640.0, 777.7, 900.0, 1000.0,
)


def test_bessel_j_against_mpmath():
    worst = 0.0
    for n in range(61):
        for x in _XS:
            ref = float(mpmath.besselj(n, x))
            worst = max(worst, abs(bessel_j_kernel(n, x) - ref))
    assert worst <= 1e-15


def test_bessel_zeros_against_mpmath():
    # a fifth of the n < 30, k <= 20 table, every n and every k represented;
    # the full table takes several seconds in mpmath
    worst = 0.0
    for n in range(30):
        for k in range(1, 21):
            if (n + k) % 5:
                continue
            ref = float(mpmath.besseljzero(n, k))
            worst = max(worst, abs(bessel_zero(n, k) - ref))
    assert worst <= 1e-13


def test_deep_bessel_zeros_against_mpmath():
    # deep k, up to j_{29,300} ~ 987, inside the documented x <= 1000 range
    worst = 0.0
    for n in (0, 1, 2, 5, 29):
        for k in (50, 80, 100, 120, 200, 300):
            ref = float(mpmath.besseljzero(n, k))
            worst = max(worst, abs(bessel_zero(n, k) - ref))
    assert worst <= 1e-13


def test_kernel_error_at_listable_zeros_is_half_the_certified_constant():
    # the zero finder's polish certifies its last Newton step assuming the
    # pair kernel errs by at most K in J_n and J_{n+1}.  At every listable
    # zero (both `zeros` caps and `spectrum --count 5000`, n <= 200, x up
    # to j_{9,200} = 642) the largest error is 7.2e-16, at j_{5,119}; here a
    # sample of them, the deepest, and the last zeros below the certified
    # argument bound 1030
    keys = {(n, k) for n in range(10) for k in range(1, 201)}
    keys |= {(n, k) for n in range(201) for k in range(1, 10)}
    keys |= {(mode.n, mode.k) for mode in enumerate_spectrum(5000)}
    sample = random.Random(37).sample(sorted(keys), 500)
    sample += [(5, 119), (9, 200), (200, 1), (200, 9), (0, 328), (200, 234)]
    worst = 0.0
    for n, k in sample:
        zero = bessel_zero(n, k)
        assert zero <= bessel._SLOPE_CHECKED_X, (n, k)
        value, above = bessel_j_pair(n, zero)
        worst = max(worst, abs(value - float(mpmath.besselj(n, zero))))
        worst = max(worst, abs(above - float(mpmath.besselj(n + 1, zero))))
    assert worst <= bessel._KERNEL_ERROR / 2


def test_tridiag_against_eigvalsh():
    rng = np.random.default_rng(7)
    diag = rng.uniform(1.0, 5.0, size=400)
    off = rng.uniform(-1.0, 1.0, size=399)
    got = tridiag_smallest_eigenvalues(diag, off, 5)
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ref = np.linalg.eigvalsh(matrix)[:5]
    assert len(got) == 5
    assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12


def test_tridiag_with_exact_zero_pivots_against_eigvalsh():
    # bisection midpoints land on a diagonal value, so a Sturm pivot is
    # exactly 0; counted as non-negative it made the count drop by one there
    # and gave 0.618 for the second eigenvalue of the first matrix
    cases = (
        ([0.0] * 4, [1.0] * 3),
        ([1.0, 1.0 + 1e-13, 1.0, 1.0 - 1e-13] * 3, [0.0, 1e-9, 0.0] * 3 + [0.0, 1e-9]),
        ([2.0] * 8, [0.0] * 7),
    )
    for diag, off in cases:
        got = tridiag_smallest_eigenvalues(diag, off, len(diag))
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref = np.linalg.eigvalsh(matrix)
        assert max(abs(a - b) for a, b in zip(got, ref)) <= 1e-12, diag


def _reference_miller(n, x, rescales):
    # Miller's recurrence one step per pass, the order's parity tested with
    # i % 2 and the rescale with abs(); rescales[0] counts the rescales
    m = int(x + 12.0 * x ** (1.0 / 3.0) + 25.0) + n
    if m % 2 == 1:
        m += 1
    jhi = 0.0
    jcur = 1e-30
    s = 2.0 * jcur
    result = 0.0
    i = m
    while i > 0:
        jlo = (2.0 * i / x) * jcur - jhi
        jhi = jcur
        jcur = jlo
        i -= 1
        if i == n:
            result = jcur
        if i == 0:
            s += jcur
        elif i % 2 == 0:
            s += 2.0 * jcur
        if abs(jcur) > 1e250:
            rescales[0] += 1
            jcur *= 1e-250
            jhi *= 1e-250
            s *= 1e-250
            result *= 1e-250
    return result / s


def test_paired_miller_equals_one_step_loop_bitwise(monkeypatch):
    # _miller's check-free pass also equals the rescaling loop in both
    # values; that loop reruns on every input where the one-step loop
    # rescaled, and never for x >= n (the zero finder's whole range)
    rescaling = _core._miller_rescaling
    reruns = [0]

    def counted(n, x):
        reruns[0] += 1
        return rescaling(n, x)

    def check_pass(n, x, rescaled):
        reruns[0] = 0
        got = _core._miller(n, x)
        assert [v.hex() for v in got] == [v.hex() for v in rescaling(n, x)], (n, x)
        assert reruns[0] == 1 if rescaled else reruns[0] <= 1, (n, x)
        assert reruns[0] == 0 or x < n, (n, x)
        return reruns[0]

    monkeypatch.setattr(_core, "_miller_rescaling", counted)
    rng = random.Random(2024)
    pairs = [(rng.randrange(60), rng.uniform(4.0, 1000.0)) for _ in range(11000)]
    rescales = [0]
    for n, x in pairs:
        before = rescales[0]
        assert _core._miller(n, x)[0] == _reference_miller(n, x, rescales), (n, x)
        check_pass(n, x, rescales[0] > before)
    assert rescales[0] == 0
    # high orders at small x grow past 1e250 on the way down to J_0
    fallbacks = 0
    for n in range(0, 301, 6):
        for x in (4.0, 4.5, 7.25, 20.0, 64.0, 150.5):
            before = rescales[0]
            assert _core._miller(n, x)[0] == _reference_miller(n, x, rescales), (n, x)
            fallbacks += check_pass(n, x, rescales[0] > before)
    assert rescales[0] > 100
    assert fallbacks > 0
    # the corners of the zero finder's range: n <= 200, n <= x <= 1030
    for n in range(0, 201, 5):
        for x in (max(n, 4.0), n + 0.5, 2.0 * n + 4.0, 1030.0):
            before = rescales[0]
            assert _core._miller(n, x)[0] == _reference_miller(n, x, rescales), (n, x)
            check_pass(n, x, rescales[0] > before)


def test_pair_kernel_against_one_step_loop_and_next_order():
    # the first value is the one-step loop's J_n bitwise, rescales included;
    # the second is J_{n+1} from the same pass
    rng = random.Random(13)
    pairs = [(rng.randrange(60), rng.uniform(4.0, 100.0)) for _ in range(3000)]
    rescales = [0]
    for n, x in pairs:
        value, above = _core.bessel_j_pair(n, x)
        assert value == _reference_miller(n, x, rescales), (n, x)
        assert abs(above - bessel_j_kernel(n + 1, x)) <= 1e-14, (n, x)
    for n in range(0, 301, 6):
        for x in (4.0, 4.5, 7.25, 20.0, 64.0):
            value, above = _core.bessel_j_pair(n, x)
            assert value == _reference_miller(n, x, rescales), (n, x)
            assert abs(above - bessel_j_kernel(n + 1, x)) <= 1e-14, (n, x)
    assert rescales[0] > 100
    # the kernel sums the J_n series alone, to the pair's value bitwise
    for n in range(0, 61, 3):
        for x in (0.0, 1e-3, 0.5, 1.0, 2.5, 3.9999):
            value, above = _core.bessel_j_pair(n, x)
            assert value.hex() == bessel_j_kernel(n, x).hex(), (n, x)
            assert abs(above - bessel_j_kernel(n + 1, x)) <= 1e-14, (n, x)
        pair = [v.hex() for v in _core.bessel_j_pair(n, 0.0)]
        assert pair == [(1.0 if n == 0 else 0.0).hex(), (0.0).hex()], n


def _reference_sturm_count(d, e, x):
    # the Sturm sweep squaring the off-diagonal entry at every row; a zero
    # pivot counts, as the -1e-290 that replaces it
    q = d[0] - x
    count = 1 if q <= 0.0 else 0
    for i in range(1, len(d)):
        if q == 0.0:
            q = -1e-290
        q = d[i] - x - e[i - 1] * e[i - 1] / q
        if q <= 0.0:
            count += 1
    return count


def _verify_matrices():
    # the disk oracle's matrices at the verify suite's meshes
    return [
        _assemble(n, mesh)
        for mesh in (RadialMesh(512), RadialMesh(512).doubled())
        for n in (0, 1, 2)
    ]


def _checked_sweeps(monkeypatch):
    # every count the solver takes from its table of squares on a verify
    # matrix, in its Sturm sweeps and in its Newton sweeps, checked against
    # the squaring sweep (so the bisection and the eigenvalues are
    # unchanged); returns the lists of Sturm and Newton sweep points
    sturm, newton = _sturm._sturm_count, _sturm._sturm_newton
    off_of = {tuple(diag): off for diag, off in _verify_matrices()}
    sturm_sweeps, newton_sweeps = [], []

    def checked_sturm(d, e2, x):
        count = sturm(d, e2, x)
        assert count == _reference_sturm_count(d, off_of[tuple(d)], x), x
        sturm_sweeps.append(x)
        return count

    def checked_newton(d, e2, x):
        count, slope = newton(d, e2, x)
        assert count == _reference_sturm_count(d, off_of[tuple(d)], x), x
        newton_sweeps.append(x)
        return count, slope

    monkeypatch.setattr(_sturm, "_sturm_count", checked_sturm)
    monkeypatch.setattr(_sturm, "_sturm_newton", checked_newton)
    return sturm_sweeps, newton_sweeps


def test_sturm_squares_equal_the_squaring_sweep(monkeypatch):
    sturm_sweeps, newton_sweeps = _checked_sweeps(monkeypatch)
    for diag, off in _verify_matrices():
        tridiag_smallest_eigenvalues(diag, off, 2)
    # unseeded: 105 Sturm and 78 Newton sweeps; 210 with the bracket of
    # half-width 1e-10, 592 when the bisection reused its counts with no
    # Newton hint and 684 when every midpoint was swept
    assert (len(sturm_sweeps), len(newton_sweeps)) == (105, 78)


def test_mesh_doubling_seeds_the_doubled_mesh(monkeypatch):
    # verify's three disk_mesh_doubling calls: each doubled-mesh Newton run
    # starts just below the coarse eigenvalue, 101 Sturm and 51 Newton
    # sweeps in all, where the same six solves unseeded take 105 and 78
    sturm_sweeps, newton_sweeps = _checked_sweeps(monkeypatch)
    for n in (0, 1, 2):
        disk_mesh_doubling(n, 2, RadialMesh(512))
    assert (len(sturm_sweeps), len(newton_sweeps)) == (101, 51)


def _reference_bisection(d, e, count):
    # the solver before it reused its counts: every midpoint of every
    # eigenvalue's bisection takes a squaring sweep
    n = len(d)
    lo = hi = d[0]
    for i in range(n):
        r = (abs(e[i - 1]) if i > 0 else 0.0) + (abs(e[i]) if i < n - 1 else 0.0)
        if d[i] - r < lo:
            lo = d[i] - r
        if d[i] + r > hi:
            hi = d[i] + r
    out = []
    for k in range(1, count + 1):
        a, b = lo, hi
        for _ in range(120):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if _reference_sturm_count(d, e, mid) >= k:
                b = mid
            else:
                a = mid
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                break
        out.append(0.5 * (a + b))
        lo = a
    return out


def _assert_solver_is_reference(d, e, count, *starts):
    got = tridiag_smallest_eigenvalues(d, e, count, *starts)
    ref = _reference_bisection(d, e, count)
    assert [v.hex() for v in got] == [v.hex() for v in ref], (d, e, count, starts)


def test_solver_equals_plain_bisection_on_the_disk_meshes():
    for mesh in (RadialMesh(512), RadialMesh(512).doubled()):
        for n in range(4):
            diag, off = _assemble(n, mesh)
            for count in range(1, 6):
                _assert_solver_is_reference(diag, off, count)


# per matrix, diagonals spread out, clustered on a few nearby values, or
# small integers that bisection midpoints hit exactly (a zero pivot); off-
# diagonals spread out, or drawn from values that vanish (splitting the
# matrix, so eigenvalues may repeat exactly), square to nothing or are small
# integers
_DIAGONALS = (
    st.floats(-100.0, 100.0),
    st.builds(
        lambda base, step: base + 1e-13 * step,
        st.sampled_from((-3.0, 1.0, 1.5)),
        st.integers(-3, 3),
    ),
    st.integers(-4, 4).map(float),
)
_OFF_DIAGONALS = (
    st.floats(-10.0, 10.0),
    st.sampled_from((0.0, -0.0, 1.0, -2.0, 1e-160, -1e-200)),
)


# Newton seeds: anywhere in the drawn spectra's range, on the small
# integers that the integer diagonals' eigenvalues may equal, or absurd
_SEEDS = st.one_of(
    st.floats(-130.0, 130.0),
    st.integers(-6, 6).map(float),
    st.sampled_from((math.nan, math.inf, -math.inf, 1e300, -1e300)),
)


@st.composite
def _tridiagonals(draw):
    size = draw(st.integers(1, 40))
    diag = draw(st.sampled_from(_DIAGONALS))
    off = draw(st.sampled_from(_OFF_DIAGONALS))
    return (
        draw(st.lists(diag, min_size=size, max_size=size)),
        draw(st.lists(off, min_size=size - 1, max_size=size - 1)),
        draw(st.integers(1, min(size, 6))),
        # no seeds, or a list shorter or longer than the count
        draw(st.none() | st.lists(_SEEDS, max_size=7)),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_tridiagonals())
@example(([0.0] * 4, [1.0] * 3, 4, None))
@example(([2.0] * 8, [0.0] * 7, 6, None))
@example(([1.0, 1.0 + 1e-13, 1.0, 1.0 - 1e-13] * 3, [0.0, 1e-9, 0.0] * 3 + [0.0, 1e-9], 6, None))
@example(([5.0, -1.0, 5.0, -1.0, 5.0], [1.0, 0.0, 1.0, 0.0], 5, None))
# the Newton hint's edge cases: a zero eigenvalue of multiplicity 3, an
# all-negative spectrum (the first run starts at 0, above every eigenvalue),
# a zero pivot at the first run's start, and two eigenvalues 8e-14 apart
# inside the bracket certified around the first run's estimate
@example(([0.0] * 3, [0.0] * 2, 3, None))
@example(([-5.0, -3.0, -4.0, -6.0], [1.0, 0.5, 0.25], 4, None))
@example(([0.0, 0.0], [0.0], 1, None))
@example(([3e-11, 2.0, 3e-11 + 8e-14], [0.0, 0.0], 3, None))
# seeded: a diagonal matrix seeded with its own eigenvalues, then with each
# seed one eigenvalue too high; the two eigenvalues 8e-14 apart with a first
# seed that its offset moves below the unseeded start, a second one above
# its eigenvalue, and no third
@example(([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0], 4, [1.0, 2.0, 3.0, 4.0]))
@example(([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0], 4, [2.0, 3.0, 4.0, 5.0]))
@example(([3e-11, 2.0, 3e-11 + 8e-14], [0.0, 0.0], 3, [3e-11 + 4e-14, 2.0]))
def test_solver_equals_plain_bisection_on_drawn_matrices(case):
    diag, off, count, starts = case
    if starts is None:
        _assert_solver_is_reference(diag, off, count)
    else:
        _assert_solver_is_reference(diag, off, count, starts)


@pytest.fixture(scope="module")
def verify_reference():
    return [
        [v.hex() for v in _reference_bisection(diag, off, 2)]
        for diag, off in _verify_matrices()
    ]


_WRONG = (math.nan, math.inf, -math.inf, 0.0, 1e300, -1e300)


@pytest.mark.parametrize("wrong", _WRONG)
@pytest.mark.parametrize("target", ("estimate", "slope"))
def test_a_wrong_hint_changes_no_eigenvalue(
    monkeypatch, verify_reference, target, wrong
):
    # a Newton estimate, or a Newton sweep's slope, replaced by an absurd
    # value: the hint may then settle fewer midpoints, but the counts it
    # takes are true, so the verify meshes' eigenvalues stay the plain
    # bisection's bitwise, with no exception; the replacement must be
    # called, or the test would pass with the hint untouched
    calls = []
    if target == "estimate":
        def wrong_estimate(*args):
            calls.append(args)
            return wrong

        monkeypatch.setattr(_sturm, "_newton_estimate", wrong_estimate)
    else:
        newton = _sturm._sturm_newton

        def wrong_slope(d, e2, x):
            calls.append(x)
            return newton(d, e2, x)[0], wrong

        monkeypatch.setattr(_sturm, "_sturm_newton", wrong_slope)
    got = [
        [v.hex() for v in tridiag_smallest_eigenvalues(diag, off, 2)]
        for diag, off in _verify_matrices()
    ]
    assert got == verify_reference
    assert calls


def _verify_seeds(reference, kind):
    # per verify matrix, the starts of one kind of wrong seed
    exact = [float.fromhex(v) for v in reference]
    if kind == "eigenvalue":
        return exact
    if kind == "above":
        # above the eigenvalue by ten times the seed's offset below it
        return [v + 10 * _sturm._SEED_OFFSET * v for v in exact]
    if kind == "short":
        return exact[:1]
    return [kind] * len(exact)


@pytest.mark.parametrize("kind", _WRONG + ("eigenvalue", "above", "short"))
def test_a_wrong_seed_changes_no_eigenvalue(monkeypatch, verify_reference, kind):
    # a seed is only where a Newton run starts: the counts the run takes
    # are true, so whatever the seed (absurd, the eigenvalue itself, above
    # it, or missing for the second eigenvalue), the verify meshes'
    # eigenvalues stay the plain bisection's bitwise, with no exception.
    # Every seed that lies above the unseeded start must be where its run
    # starts, or the test would pass with the seeds ignored
    estimate = _sturm._newton_estimate
    run_starts = []

    def recorded(d, e2, found, x, known):
        run_starts.append(x)
        return estimate(d, e2, found, x, known)

    monkeypatch.setattr(_sturm, "_newton_estimate", recorded)
    for (diag, off), ref in zip(_verify_matrices(), verify_reference):
        starts = _verify_seeds(ref, kind)
        run_starts.clear()
        got = tridiag_smallest_eigenvalues(diag, off, 2, starts)
        assert [v.hex() for v in got] == ref
        assert len(run_starts) == 2
        for k, start in enumerate(run_starts):
            unseeded = got[k - 1] + 1e-3 * max(1.0, abs(got[k - 1])) if k else 0.0
            expected = unseeded
            if k < len(starts):
                moved = starts[k] - _sturm._SEED_OFFSET * max(1.0, abs(starts[k]))
                if moved > unseeded:
                    expected = moved
            assert start == expected, (kind, k)
