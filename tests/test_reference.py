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

from diskbands import _core, _sturm
from diskbands._core import bessel_j_kernel
from diskbands._sturm import tridiag_smallest_eigenvalues
from diskbands.bessel import bessel_zero
from diskbands.oracles import RadialMesh, _assemble

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


def test_sturm_squares_equal_the_squaring_sweep(monkeypatch):
    # every count the solver takes from its table of squares, in its Sturm
    # sweeps and in its Newton sweeps, equals the squaring sweep's, so the
    # bisection and the eigenvalues are unchanged
    sturm, newton = _sturm._sturm_count, _sturm._sturm_newton
    sweeps = []

    def checked_sturm(d, e2, x):
        count = sturm(d, e2, x)
        assert count == _reference_sturm_count(d, off, x), x
        sweeps.append(x)
        return count

    def checked_newton(d, e2, x):
        count, slope = newton(d, e2, x)
        assert count == _reference_sturm_count(d, off, x), x
        sweeps.append(x)
        return count, slope

    monkeypatch.setattr(_sturm, "_sturm_count", checked_sturm)
    monkeypatch.setattr(_sturm, "_sturm_newton", checked_newton)
    for diag, off in _verify_matrices():
        tridiag_smallest_eigenvalues(diag, off, 2)
    # 132 Sturm and 78 Newton sweeps; 684 when every midpoint was swept and
    # 592 when the bisection reused its counts with no Newton hint
    assert len(sweeps) == 210


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


def _assert_solver_is_reference(d, e, count):
    got = tridiag_smallest_eigenvalues(d, e, count)
    ref = _reference_bisection(d, e, count)
    assert [v.hex() for v in got] == [v.hex() for v in ref], (d, e, count)


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


@st.composite
def _tridiagonals(draw):
    size = draw(st.integers(1, 40))
    diag = draw(st.sampled_from(_DIAGONALS))
    off = draw(st.sampled_from(_OFF_DIAGONALS))
    return (
        draw(st.lists(diag, min_size=size, max_size=size)),
        draw(st.lists(off, min_size=size - 1, max_size=size - 1)),
        draw(st.integers(1, min(size, 6))),
    )


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_tridiagonals())
@example(([0.0] * 4, [1.0] * 3, 4))
@example(([2.0] * 8, [0.0] * 7, 6))
@example(([1.0, 1.0 + 1e-13, 1.0, 1.0 - 1e-13] * 3, [0.0, 1e-9, 0.0] * 3 + [0.0, 1e-9], 6))
@example(([5.0, -1.0, 5.0, -1.0, 5.0], [1.0, 0.0, 1.0, 0.0], 5))
# the Newton hint's edge cases: a zero eigenvalue of multiplicity 3, an
# all-negative spectrum (the first run starts at 0, above every eigenvalue),
# a zero pivot at the first run's start, and two eigenvalues 8e-14 apart
# inside the bracket certified around the first run's estimate
@example(([0.0] * 3, [0.0] * 2, 3))
@example(([-5.0, -3.0, -4.0, -6.0], [1.0, 0.5, 0.25], 4))
@example(([0.0, 0.0], [0.0], 1))
@example(([3e-11, 2.0, 3e-11 + 8e-14], [0.0, 0.0], 3))
def test_solver_equals_plain_bisection_on_drawn_matrices(case):
    _assert_solver_is_reference(*case)


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
