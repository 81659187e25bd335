"""Numerical kernels: evaluation of the Bessel function of the first kind
for integer order, the hot scalar loop.

Miller's recurrence runs first as a pass with no test inside its loop, and
the loop that rescales its values past 1e250 runs only when that pass ends
with a normalization sum outside (-1e240, 1e240).  Both give the same
values bitwise, and on the zero finder's range (n <= 200, n <= x <= 1030)
the rescaling loop never runs.
"""

from __future__ import annotations

# Series/recurrence switch.  Above this argument the alternating power series
# amplifies cancellation beyond ~1e-14 absolute, so Miller's backward
# recurrence takes over.
_SERIES_CUTOFF = 4.0


def bessel_j_kernel(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 and x >= 0 (arguments assumed validated)."""
    if x < _SERIES_CUTOFF:
        return _series(n, x)
    return _miller(n, x)[0]


def bessel_j_pair(n: int, x: float) -> tuple[float, float]:
    """(J_n(x), J_{n+1}(x)): the power series below _SERIES_CUTOFF, else one
    pass of Miller's recurrence (arguments assumed validated)."""
    if x < _SERIES_CUTOFF:
        return _series(n, x), _series(n + 1, x)
    return _miller(n, x)


def _series(n: int, x: float) -> float:
    # sum_t (-1)^t (x/2)^(n+2t) / (t! (n+t)!), summed until the next term is
    # negligible against the largest partial sum.
    half = 0.5 * x
    term = 1.0
    for i in range(1, n + 1):
        term *= half / i
    total = term
    scale = abs(term)
    t = 0
    while t < 400:
        t += 1
        term *= -(half * half) / (t * (n + t))
        total += term
        mag = abs(total)
        if mag > scale:
            scale = mag
        if abs(term) <= 1e-18 * scale:
            break
    return total


def _start_order(n: int, x: float) -> int:
    # the even order, well above both n and x, where the recurrence starts
    m = int(x + 12.0 * x ** (1.0 / 3.0) + 25.0) + n
    return m + 1 if m % 2 == 1 else m


def _miller(n: int, x: float) -> tuple[float, float]:
    # Backward recurrence J_{i-1} = (2i/x) J_i - J_{i+1} from the start order,
    # normalized by J_0 + 2 sum_t J_{2t} = 1; gives (J_n, J_{n+1}).  One pass
    # per pair of steps from the even order i (jcur = J_i, jhi = J_{i+1}) to
    # i - 2, each step overwriting the order above; J_i enters the sum at the
    # start of its pass, J_0 once after the last.  t is 2.0 * i, so t / x is
    # 2.0 * i / x exactly: these are _miller_rescaling's float steps in its
    # order, without its tests.  The unnormalized values are s * J_i up to
    # the start error, and |J_i| <= 1, so while |s| < 1e240 none can have
    # reached the 1e250 rescaling threshold; any other sum (inf and NaN
    # included) reruns the rescaling loop.  The passes add J_i, not 2 J_i,
    # and the sum is doubled before J_0 enters it.  Doubling commutes with
    # rounding short of overflow, and a sum that ends inside (-1e240, 1e240)
    # has no partial sum near overflow (its values stay below 1e250), so s
    # is bitwise the rescaling loop's sum, with one multiply fewer per pass.
    m = _start_order(n, x)
    top = n + 2 - n % 2  # the even order whose pass yields J_n
    jhi = s = 0.0
    jcur = 1e-30
    t = 2.0 * m
    for _ in range((m - top) // 2):
        s += jcur
        jhi = (t / x) * jcur - jhi
        jcur = ((t - 2.0) / x) * jhi - jcur
        t -= 4.0
    s += jcur
    jhi = (t / x) * jcur - jhi
    odd = jhi, jcur  # (J_n, J_{n+1}) for odd n
    jcur = ((t - 2.0) / x) * jhi - jcur
    t -= 4.0
    result, above = odd if n % 2 else (jcur, jhi)
    for _ in range(top // 2 - 1):
        s += jcur
        jhi = (t / x) * jcur - jhi
        jcur = ((t - 2.0) / x) * jhi - jcur
        t -= 4.0
    s = 2.0 * s + jcur
    if -1e240 < s < 1e240:
        return result / s, above / s
    return _miller_rescaling(n, x)


def _miller_rescaling(n: int, x: float) -> tuple[float, float]:
    # _miller's recurrence with the values rescaled whenever one exceeds
    # 1e250 in magnitude, tested by two comparisons, which cost less than a
    # call to abs(); J_{n+1} is the order above J_n when J_n is captured
    m = _start_order(n, x)
    jhi = 0.0
    jcur = 1e-30
    # even-order normalization sum, seeded with the start order (m is even)
    s = 2.0 * jcur
    result = above = 0.0
    # one pass per pair of steps from the even order i: to the odd order
    # i - 1, then to the even order i - 2, which enters the sum (J_0 once)
    n1 = n + 1
    n2 = n + 2
    for i in range(m, 0, -2):
        jlo = (2.0 * i / x) * jcur - jhi
        jhi = jcur
        jcur = jlo
        if i == n1:
            result = jcur
            above = jhi
        if jcur > 1e250 or jcur < -1e250:
            jcur *= 1e-250
            jhi *= 1e-250
            s *= 1e-250
            result *= 1e-250
            above *= 1e-250
        jlo = (2.0 * (i - 1) / x) * jcur - jhi
        jhi = jcur
        jcur = jlo
        if i == n2:
            result = jcur
            above = jhi
        s += 2.0 * jcur if i > 2 else jcur
        if jcur > 1e250 or jcur < -1e250:
            jcur *= 1e-250
            jhi *= 1e-250
            s *= 1e-250
            result *= 1e-250
            above *= 1e-250
    return result / s, above / s


def __getattr__(name):
    # PEP 562: the benchmark's tracer names the disk oracle's solver here, so
    # it resolves from `_sturm`, which loads only then
    if name == "tridiag_smallest_eigenvalues":
        from ._sturm import tridiag_smallest_eigenvalues

        return tridiag_smallest_eigenvalues
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
