"""Numerical kernels.

The two hot scalar loops: evaluation of the Bessel function of the first
kind for integer order, and the smallest eigenvalues of a symmetric
tridiagonal matrix by Sturm-count bisection.
"""

from __future__ import annotations

import math

# Series/recurrence switch.  Above this argument the alternating power series
# amplifies cancellation beyond ~1e-14 absolute, so Miller's backward
# recurrence takes over.
_SERIES_CUTOFF = 4.0


def bessel_j_kernel(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 and x >= 0 (arguments assumed validated)."""
    return bessel_j_pair(n, x)[0]


def bessel_j_pair(n: int, x: float) -> tuple[float, float]:
    """(J_n(x), J_{n+1}(x)): the power series below _SERIES_CUTOFF, else one
    pass of Miller's recurrence (arguments assumed validated)."""
    if x == 0.0:
        return (1.0 if n == 0 else 0.0), 0.0
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


def _miller(n: int, x: float) -> tuple[float, float]:
    # Backward recurrence J_{i-1} = (2i/x) J_i - J_{i+1} from a start order
    # well above both n and x, normalized by J_0 + 2 sum_t J_{2t} = 1; gives
    # (J_n, J_{n+1}), J_{n+1} being the order above J_n when J_n is captured.
    m = int(x + 12.0 * x ** (1.0 / 3.0) + 25.0) + n
    if m % 2 == 1:
        m += 1
    jhi = 0.0
    jcur = 1e-30
    # even-order normalization sum, seeded with the start order (m is even)
    s = 2.0 * jcur
    result = above = 0.0
    # one pass per pair of steps from the even order i: to the odd order
    # i - 1, then to the even order i - 2, which enters the sum (J_0 once);
    # the values are rescaled whenever one exceeds 1e250 in magnitude, tested
    # by two comparisons, which cost less than a call to abs()
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


def tridiag_smallest_eigenvalues(d, e, count: int) -> list[float]:
    """The `count` smallest eigenvalues of the symmetric tridiagonal matrix
    with diagonal `d` and off-diagonal `e`, ascending, by bisection on the
    Sturm count."""
    dl = [float(v) for v in d]
    el = [float(v) for v in e]
    e2 = [v * v for v in el]
    n = len(dl)
    lo = hi = dl[0]
    for i in range(n):
        r = (abs(el[i - 1]) if i > 0 else 0.0) + (abs(el[i]) if i < n - 1 else 0.0)
        if dl[i] - r < lo:
            lo = dl[i] - r
        if dl[i] + r > hi:
            hi = dl[i] + r
    # every (x, count) swept so far; the computed count is monotone in x
    # (Kahan; Demmel, Dhillon & Ren 1995), so a midpoint at or above a point
    # counting >= k, or at or below one counting < k, needs no sweep and the
    # bisection takes the same steps as one that sweeps every midpoint
    known: list[tuple[float, int]] = []
    out = []
    for k in range(1, count + 1):
        above = min((x for x, c in known if c >= k), default=math.inf)
        below = max((x for x, c in known if c < k), default=-math.inf)
        a, b = lo, hi
        for _ in range(120):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break
            if mid >= above:
                b = mid
            elif mid <= below:
                a = mid
            else:
                c = _sturm_count(dl, e2, mid)
                known.append((mid, c))
                if c >= k:
                    b = above = mid
                else:
                    a = below = mid
            if b - a <= 1e-12 * max(1.0, abs(a), abs(b)):
                break
        out.append(0.5 * (a + b))
        lo = a  # eigenvalue k+1 cannot lie below this bound
    return out


def _sturm_count(d, e2, x: float) -> int:
    # number of eigenvalues below x (LDL^T pivot sign count); e2 holds the
    # squared off-diagonal.  A zero pivot counts as negative, like the
    # -1e-290 that replaces it in the next row: the count is then the one
    # just above x, which keeps it monotone in x
    q = d[0] - x
    count = 1 if q <= 0.0 else 0
    for di, ei in zip(d[1:], e2):
        if not q:
            q = -1e-290
        q = di - x - ei / q
        if q <= 0.0:
            count += 1
    return count
