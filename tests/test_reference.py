"""The kernels in `diskbands._core` against independent references:
mpmath at 30 digits for J_n and its zeros, LAPACK (`numpy.linalg.eigvalsh`)
for the tridiagonal eigensolver.  The bounds sit a few times above the
largest errors observed on these samples.  The plain loops that the Miller
recurrence, the Sturm count and the bisection were tuned from are kept here
as bitwise references."""

import random

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskbands import _core
from diskbands._core import bessel_j_kernel, tridiag_smallest_eigenvalues
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
            worst = max(worst, abs(bessel_zero(n, k).value - ref))
    assert worst <= 1e-13


def test_deep_bessel_zeros_against_mpmath():
    # deep k, up to j_{29,300} ~ 987, inside the documented x <= 1000 range
    worst = 0.0
    for n in (0, 1, 2, 5, 29):
        for k in (50, 80, 100, 120, 200, 300):
            ref = float(mpmath.besseljzero(n, k))
            worst = max(worst, abs(bessel_zero(n, k).value - ref))
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


def test_paired_miller_equals_one_step_loop_bitwise():
    rng = random.Random(2024)
    pairs = [(rng.randrange(60), rng.uniform(4.0, 1000.0)) for _ in range(11000)]
    rescales = [0]
    for n, x in pairs:
        assert _core._miller(n, x)[0] == _reference_miller(n, x, rescales), (n, x)
    assert rescales[0] == 0
    # high orders at small x grow past 1e250 on the way down to J_0
    for n in range(0, 301, 6):
        for x in (4.0, 4.5, 7.25, 20.0, 64.0, 150.5):
            assert _core._miller(n, x)[0] == _reference_miller(n, x, rescales), (n, x)
    assert rescales[0] > 100


def test_pair_kernel_against_one_step_loop_and_next_order():
    # the first value is the one-step loop's J_n bitwise (the kernel's value
    # on the series and zero-argument branches, rescales included); the
    # second is J_{n+1} from the same pass
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
    for n in range(0, 61, 3):
        for x in (0.0, 1e-3, 0.5, 1.0, 2.5, 3.9999):
            value, above = _core.bessel_j_pair(n, x)
            assert value == bessel_j_kernel(n, x), (n, x)
            assert abs(above - bessel_j_kernel(n + 1, x)) <= 1e-14, (n, x)


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


def test_sturm_squares_equal_the_squaring_sweep(monkeypatch):
    # every count the solver takes from its table of squares equals the
    # squaring sweep's, so the bisection and the eigenvalues are unchanged;
    # the matrices are the disk oracle's at the verify suite's meshes
    sweep = _core._sturm_count
    sweeps = []

    def checked(d, e2, x):
        count = sweep(d, e2, x)
        assert count == _reference_sturm_count(d, off, x), x
        sweeps.append(x)
        return count

    monkeypatch.setattr(_core, "_sturm_count", checked)
    for mesh in (RadialMesh(512), RadialMesh(512).doubled()):
        for n in (0, 1, 2):
            diag, off = _assemble(n, mesh)
            tridiag_smallest_eigenvalues(diag, off, 2)
    # the bisection reuses the counts it has taken: 684 sweeps when every
    # midpoint was swept
    assert len(sweeps) == 592


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
def test_solver_equals_plain_bisection_on_drawn_matrices(case):
    _assert_solver_is_reference(*case)
