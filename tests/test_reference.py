"""The kernels in `diskbands._core` against independent references:
mpmath at 30 digits for J_n and its zeros, LAPACK (`numpy.linalg.eigvalsh`)
for the tridiagonal eigensolver.  The bounds sit a few times above the
largest errors observed on these samples."""

import mpmath
import numpy as np

from diskbands._core import bessel_j_kernel, tridiag_smallest_eigenvalues
from diskbands.bessel import bessel_zero

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
