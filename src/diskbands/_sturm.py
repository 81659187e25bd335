"""Smallest eigenvalues of a symmetric tridiagonal matrix by Sturm-count
bisection, the disk oracle's solver; only `diskbands.oracles` imports it.

The bisection keeps every Sturm count it has taken and sweeps only the
midpoints those counts leave open.  Before each eigenvalue it takes a hint:
a Newton run from the left on det(T - x), whose sweeps compute the Sturm
pivots with the same float operations and so give the same counts, then
two counts at the Newton estimate times (1 -+ 1e-10) that certify a bracket.
The hint only adds counts; the computed count is monotone in x, so a count
settles a midpoint exactly when sweeping it would have given the same
decision, and every eigenvalue is bitwise the plain bisection's.
"""

from __future__ import annotations

import math

# relative half-width, on the bisection's scale max(1, |x|), of the bracket
# certified around a Newton estimate: on the disk meshes of 512 and 1025
# points (n <= 3, k <= 5) the estimates lie within 2.4e-11 of the eigenvalue
_HINT_WIDTH = 1e-10
# a Newton run ends when its step falls below this relative size; the error
# after a step from the left is about step^2 / (distance to the next
# eigenvalue), below the hint width on the disk meshes
_NEWTON_STOP = 1e-6
# a run on the disk meshes (n <= 3, k <= 5) takes at most 8 sweeps
_NEWTON_STEPS = 16


def tridiag_smallest_eigenvalues(d, e, count: int) -> list[float]:
    """The `count` smallest eigenvalues of the symmetric tridiagonal matrix
    with diagonal `d` and off-diagonal `e`, ascending, by bisection on the
    Sturm count.

    Before each eigenvalue's bisection, `_newton_estimate` runs Newton from
    the left (from 0 for the first, just above the last one found for the
    others) and two Sturm sweeps at the estimate -+ 1e-10 max(1, |estimate|)
    certify a bracket.  Every count these sweeps take is the one
    `_sturm_count` gives at that point, and the bisection's midpoints,
    comparisons and steps are the plain loop's: a count only settles a
    midpoint on the side a sweep there would give, so no decision and no
    eigenvalue changes.  A hint that fails (a zero pivot or slope, a step
    that is not finite, a count that is not the one below the eigenvalue,
    an eigenvalue found twice) only leaves more midpoints to sweep."""
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
        # a start 1e-3 above the last eigenvalue found keeps its error (up to
        # about 1e-10 relative) from moving the divided-out slope by more
        # than about 1e-4 relative
        start = out[-1] + 1e-3 * max(1.0, abs(out[-1])) if out else 0.0
        guess = _newton_estimate(dl, e2, out, start, known)
        if math.isfinite(guess):
            width = _HINT_WIDTH * max(1.0, abs(guess))
            for x in (guess - width, guess + width):
                known.append((x, _sturm_count(dl, e2, x)))
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


def _newton_estimate(d, e2, found: list[float], x: float, known) -> float:
    # Newton from x on det(T - x) with the eigenvalues `found` divided out,
    # towards the smallest eigenvalue above them; each sweep's (x, count)
    # enters `known`.  With S = sum_j 1/(lambda_j - x) over the eigenvalues
    # not found, all terms are positive left of the next one, so the step
    # 1/S never passes it in exact arithmetic.  NaN when a sweep's count is
    # not len(found), x is a found eigenvalue, the slope is not positive,
    # the step is not finite or _NEWTON_STEPS steps do not converge
    below = len(found)
    for _ in range(_NEWTON_STEPS):
        c, s = _sturm_newton(d, e2, x)
        known.append((x, c))
        if c != below:
            break
        slope = -s
        for lam in found:
            if lam == x:
                return math.nan
            slope -= 1.0 / (lam - x)
        if not slope > 0.0:
            break
        step = 1.0 / slope
        nxt = x + step
        if not math.isfinite(nxt):
            break
        if step <= _NEWTON_STOP * max(1.0, abs(nxt)):
            return nxt
        x = nxt
    return math.nan


def _sturm_newton(d, e2, x: float) -> tuple[int, float]:
    # _sturm_count's sweep, its pivots q_i computed by the same float
    # operations (di - x - t with t = ei / q is di - x - ei / q), so its count
    # is _sturm_count's; it also sums s = sum q_i'/q_i, the derivative of
    # log|det(T - x)|.  NaN for s when the last pivot is zero
    q = d[0] - x
    count = 1 if q <= 0.0 else 0
    dq = -1.0
    s = 0.0
    for di, ei in zip(d[1:], e2):
        if not q:
            q = -1e-290
        r = dq / q
        s += r
        t = ei / q
        dq = t * r - 1.0
        q = di - x - t
        if q <= 0.0:
            count += 1
    if not q:
        return count, math.nan
    return count, s + dq / q


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
