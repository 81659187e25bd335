"""Bessel functions of the first kind: values, derivatives, positive zeros.

Self-contained integer-order evaluation (power series for small argument,
Miller backward recurrence otherwise) with absolute accuracy near machine
precision for x <= 100, and a guaranteed-index zero finder:
`bessel_zero(n, k)` returns the k-th positive zero j_{n,k} as a float.  The
zero is bracketed by counting sign changes on a pi/4 scan, then estimated,
replayed, polished and checked.

- Estimate: the walk's Miller pass at the bracket's right end b gives J_n(b)
  and J_{n+1}(b), so J_n'(b) = (n/b) J_n(b) - J_{n+1}(b), and the Bessel
  equation gives the higher Taylor coefficients at b.  The zero of the
  degree-9 Taylor polynomial in the bracket is the estimate, at no pass.
- Replay: the bisection of the bracket down to width 1e-3 reads J_n only
  through its sign at each midpoint.  A midpoint more than _REPLAY_GUARD =
  2e-5 from the estimate takes its sign from the side of the estimate it
  lies on; only one inside that window calls the kernel.
- Polish: Newton steps from the midpoint of the replayed interval down to
  |J_n| <= 1e-14, each taking J_n and J_{n+1} from one Miller pass
  (`bessel_j_pair`) and the slope as (n/x) J_n - J_{n+1}, which differs
  from `bessel_j_prime`'s in the last bits only and moves none of the zeros
  that tests/test_bessel.py compares bitwise with the evaluated bisection.
  A step to y = x - s is taken without the pass that would confirm it when
  |s| <= 2^-27 on the checked range below and Taylor's theorem at x, with
  |J_n''| <= 1 and the kernel's error K = 2e-15 in each value, bounds the
  kernel's |J_n(y)| by at most 1e-14: the iteration would have stopped at
  y, so the zero is bitwise the evaluated one.  Most zeros take two passes
  where they took three.
- Check: the zero stands if its residual (or certified bound) is met and
  every midpoint that took its side from the estimate lies on that side of
  it, at least _SIGN_MARGIN (1e-5 plus the zero's own error bound) away.
  Near every zero the command line can list (n <= 200, x <= 1030) |J_n'| >=
  0.02 (the least is 0.031, at j_{200,1}), so there |J_n| >= 2e-7, far
  above the kernel's error: the kernel would have given every such sign,
  and the zero is bitwise the evaluated bisection's.  Otherwise, or beyond
  that range, the replay reruns with every midpoint evaluated.

The scan walks each order once.  `_WALKS[n]` keeps where the walk of J_n
stands and the sign-change brackets it has passed, so j_{n,k} costs only the
steps past the last bracket found, and the zeros of one order cost O(k)
Miller passes in all, in any request order.  The walk evaluates J_n at no
grid point below n + 1.8557571 n^(1/3), which Qu & Wong (Trans. AMS 351,
1999) prove lies below j_{n,1} for n > 0, so J_n > 0 there.  After each
bracket (a, b] it evaluates no grid point below a + `_spacing_floor(n, a,
b)` - 1e-5, and those points keep the sign of J_n(b): sqrt(x) J_n(x) solves
u'' + (1 - (n^2 - 1/4)/x^2) u = 0, so by Sturm comparison the next zero
lies at least the floor beyond the bracket's zero.  For n = 0 the floor is
pi / sqrt(1 + 1/(4 a^2)), below pi, so the walk skips the two points after
b.  For n >= 1 the zeros lie more than pi apart, and farther apart near x =
n, and the floor, an even iterate of the spacing map d -> pi / sqrt(1 -
(n^2 - 1/4)/(b + d)^2) from pi, skips more.  A skipped point lies more than
1e-5 before the next zero, where |J_n| is above the kernel's error by the
slope bound above, so the kernel would have given the same sign; past order
200 or argument 1030, where that bound is not checked, the floor is 3.5
pi/4 and the walk skips only the two points after b, which lie at least
0.72 from any zero.  Every skipped point still takes its float step and
counts against _MAX_SCAN, and a bracket starting at one keeps a value of
J_n's sign there, all the zero finder reads of J_n(a).  So the walk takes
the grid points a fresh scan from the origin side would take, and every
bracket, and every zero polished from it, is bitwise the same.
`zero_floor(n, k)` gives the spectrum a float below j_{n,k}, from Qu &
Wong's bound or from j_{n,k-1} and its floor, with no Miller pass.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._core import bessel_j_kernel, bessel_j_pair

_SCAN_STEP = math.pi / 4
_RESIDUAL_TOL = 1e-12
_MAX_BISECT = 100
_MAX_NEWTON = 50
_MAX_SCAN = 100000
# the distance from the polished zero beyond which the kernel's sign of J_n
# is certain on the range below, where |J_n'| >= 0.02 near every zero, and
# the half-width of the window around the estimate inside which the
# bisection replay still evaluates J_n
_SIGN_MARGIN = 1e-5 + _RESIDUAL_TOL / 0.02
_REPLAY_GUARD = 2e-5
# the orders and arguments on which that slope bound is checked
_SLOPE_CHECKED_N = 200
_SLOPE_CHECKED_X = 1030.0
# Qu & Wong's constant: j_{n,1} > n + _FIRST_ZERO * n^(1/3) for n > 0
_FIRST_ZERO = 1.8557571
# twice the kernel's largest absolute error in J_n and J_{n+1} measured
# against mpmath at the zeros the command line lists (7.2e-16), and the
# longest Newton step whose landing point the polish certifies unevaluated
_KERNEL_ERROR = 2e-15
_CERTIFIED_STEP = 2.0**-27


class ZeroFindingError(RuntimeError):
    """Raised when a zero search fails to meet the residual tolerance."""


def _check_order(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("order n must be a non-negative integer, got %r" % (n,))
    return n


def _check_argument(x) -> float:
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError("argument x must be finite and non-negative, got %r" % (x,))
    return x


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer order n >= 0 and real x >= 0."""
    return bessel_j_kernel(_check_order(n), _check_argument(x))


def bessel_j_prime(n: int, x: float) -> float:
    """d/dx J_n(x): -J_1 for n = 0, (J_{n-1} - J_{n+1})/2 for n >= 1."""
    n = _check_order(n)
    x = _check_argument(x)
    if n == 0:
        return -bessel_j_kernel(1, x)
    return 0.5 * (bessel_j_kernel(n - 1, x) - bessel_j_kernel(n + 1, x))


def bessel_zero(n: int, k: int) -> float:
    """j_{n,k}, the k-th positive zero of J_n, with |J_n(j_{n,k})| <= 1e-12."""
    n = _check_order(n)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError("zero index k must be a positive integer, got %r" % (k,))
    return _zero_value(n, k)


# n -> (x, J_n(x) or None at a skipped point, steps, brackets (a, a value of
# J_n(a)'s sign, b, J_n(b), J_{n+1}(b)) passed, the point below which the
# walk evaluates nothing) of the pi/4 walk of order n.  Each step stores one
# new tuple, so an exception in mid-walk leaves the last stored state, and
# threads walking one order at once at worst take steps twice.
_WALKS: dict[int, tuple[float, float | None, int, tuple, float]] = {}


def _bracket(n: int, k: int) -> tuple[float, float, float, float, float]:
    """Sign-change bracket k of the pi/4 walk of J_n, extending the walk
    only as far as bracket k."""
    walk = _WALKS.get(n)
    if walk is None:
        # J_n > 0 at the start, below the first zero
        x = n + 1e-9 if n > 0 else 1e-9
        walk = _WALKS[n] = (x, None, 0, (), zero_floor(n, 1))
    x, fx, steps, brackets, skip_below = walk
    while len(brackets) < k:
        if steps >= _MAX_SCAN:
            raise ZeroFindingError("scan exhausted before zero (n=%d, k=%d)" % (n, k))
        xn = x + _SCAN_STEP
        if xn < skip_below:
            x, fx, steps = xn, None, steps + 1
            _WALKS[n] = (x, fx, steps, brackets, skip_below)
            continue
        fxn, above = bessel_j_pair(n, xn)
        while fxn == 0.0:  # exact grid hit: nudge to restore a sign bracket
            xn += 1e-9
            fxn, above = bessel_j_pair(n, xn)
        # a skipped point (fx None) has the sign of the last bracket's right
        # end, or is positive before the first bracket
        last = fx if fx is not None else brackets[-1][3] if brackets else 1.0
        if (last > 0.0) != (fxn > 0.0):
            brackets += ((x, last, xn, fxn, above),)
            # the points below this bound keep the sign of J_n(xn) and lie
            # more than 1e-5 before the next zero
            skip_below = x + _spacing_floor(n, x, xn) - 1e-5
        x, fx, steps = xn, fxn, steps + 1
        _WALKS[n] = (x, fx, steps, brackets, skip_below)
    return brackets[k - 1]


def zero_floor(n: int, k: int) -> float:
    """A float below j_{n,k} that costs no Miller pass once j_{n,k-1} is
    found: Qu & Wong's bound for k = 1 (0 for n = 0), else j_{n,k-1} plus
    the spacing floor of its bracket."""
    if k == 1:
        return n + _FIRST_ZERO * n ** (1.0 / 3.0)
    a, _, b = _bracket(n, k - 1)[:3]
    return _zero_value(n, k - 1) + _spacing_floor(n, a, b)


def _spacing_floor(n: int, a: float, b: float) -> float:
    """A lower bound on j_{n,k+1} - j_{n,k}, and so on j_{n,k+1} - a, for
    the zero j_{n,k} in the walk's bracket (a, b].  sqrt(x) J_n(x) solves
    u'' + q u = 0 with q = 1 - (n^2 - 1/4)/x^2, so by Sturm comparison two
    consecutive zeros lie at least pi / sqrt(max q) apart, the maximum taken
    between them.  For n = 0, q falls with x and is largest at a.  For
    n >= 1 it rises, so the spacing d satisfies d >= g(d) = pi / sqrt(q(b +
    d)); g falls with d, so d lies above the fixed point of g, and the even
    iterates of g from pi lie below it.  Past the checked slope range the
    floor is 3.5 pi/4 = 2.75, below every spacing (the least floor, 3.07, is
    that of n = 0 at its first bracket's left end, 3 pi/4), so that the walk
    there skips only the two points after a bracket."""
    if n > _SLOPE_CHECKED_N or b > _SLOPE_CHECKED_X:
        return 3.5 * _SCAN_STEP
    if n == 0:
        return math.pi / math.sqrt(1.0 + 0.25 / (a * a))
    c = n * n - 0.25
    d = math.pi
    for _ in range(4):  # an even count
        d = math.pi / math.sqrt(1.0 - c / ((b + d) * (b + d)))
    return d


@lru_cache(maxsize=None)
def _zero_value(n: int, k: int) -> float:
    a, fa, b, fb, above = _bracket(n, k)
    est = _estimate(n, a, b, fb, above)
    # the window spans every midpoint beyond the checked slope bound, and in
    # the rerun once the check fails; left and right are the last midpoints
    # that took their side from the estimate
    checked = n <= _SLOPE_CHECKED_N and b <= _SLOPE_CHECKED_X
    for guard in (_REPLAY_GUARD, math.inf) if checked else (math.inf,):
        lo, flo, hi, left, right = a, fa, b, -math.inf, math.inf
        for _ in range(_MAX_BISECT):
            if hi - lo < 1e-3:
                break
            mid = 0.5 * (lo + hi)
            if mid < est - guard:
                lo = left = mid
            elif mid > est + guard:
                hi = right = mid
            else:
                fm = bessel_j_kernel(n, mid)
                if (flo > 0.0) != (fm > 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
        root, fr = _newton(n, lo, flo, hi, 0.5 * (lo + hi), 1e-14)
        if abs(fr) <= _RESIDUAL_TOL and left <= root - _SIGN_MARGIN and right >= root + _SIGN_MARGIN:
            return root
    raise ZeroFindingError("residual tolerance unmet after iteration cap (n=%d, k=%d)" % (n, k))


def _estimate(n: int, a: float, b: float, fb: float, above: float) -> float:
    """The zero in [a, b] of J_n's degree-9 Taylor polynomial at b, by four
    Newton steps from b: x^2 y'' + x y' + (x^2 - n^2) y = 0 gives its
    coefficients c_m of (x - b)^m from J_n(b) and J_n'(b)."""
    c = [0.0, 0.0, fb, (n / b) * fb - above]
    for m in range(8):
        t = b * (m + 1) * (2 * m + 1) * c[-1] + (m * m + b * b - n * n) * c[-2] + 2.0 * b * c[-3] + c[-4]
        c.append(-t / (b * b * (m + 1) * (m + 2)))
    h = 0.0
    for _ in range(4):
        p = dp = 0.0
        for coef in reversed(c[2:]):
            p, dp = p * h + coef, dp * h + p
        h = min(0.0, max(a - b, h - p / dp)) if dp else h
    return b + h


def _newton(n: int, a: float, fa: float, b: float, root: float, tol: float) -> tuple[float, float]:
    """Safeguarded Newton iteration for the zero of J_n in the sign bracket
    [a, b] from `root`, stopped once |J_n| <= tol; returns the last iterate
    and J_n there, or, when the last step is certified, the iterate it
    reaches and a bound <= tol on the kernel's |J_n| there, at no pass."""
    certify = n <= _SLOPE_CHECKED_N and b <= _SLOPE_CHECKED_X
    for _ in range(_MAX_NEWTON):
        fr, above = bessel_j_pair(n, root)
        if (fa > 0.0) != (fr > 0.0):
            b = root
        else:
            a, fa = root, fr
        if abs(fr) <= tol:
            break
        slope = (n / root) * fr - above  # J_n' = (n/x) J_n - J_{n+1}
        step = fr / slope if slope != 0.0 else 0.0
        nxt = root - step
        if step == 0.0 or nxt <= a or nxt >= b:
            nxt = 0.5 * (a + b)
        elif certify and abs(step) <= _CERTIFIED_STEP:
            # Taylor at root with |J_n''| <= 1: the step's rounding, the
            # slope's, the kernel's error at both ends, and the remainder
            bound = (abs(fr) + abs(slope) * (abs(nxt) + abs(step))) * 2.0**-52
            bound += _KERNEL_ERROR * (2.0 + (n / root + 1.0) * abs(step)) + 0.5 * step * step
            if bound <= tol:
                return nxt, bound
        if nxt == root:
            break
        root = nxt
    else:
        fr = bessel_j_kernel(n, root)  # root moved after the last evaluation
    return root, fr
