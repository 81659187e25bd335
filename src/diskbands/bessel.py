"""Bessel functions of the first kind: values, derivatives, positive zeros.

Self-contained integer-order evaluation (power series for small argument,
Miller backward recurrence otherwise) with absolute accuracy near machine
precision for x <= 100, and a guaranteed-index zero finder:
`bessel_zero(n, k)` returns the k-th positive zero j_{n,k} as a float.  The
zero is bracketed by counting sign changes on a pi/4 scan, then located,
replayed and polished.

- Locate: a safeguarded Newton iteration from the bracket's secant point,
  stopped once |J_n| <= _LOCATE_TOL = 2e-7, gives an estimate of the zero.
  Each step takes J_n and J_{n+1} from one Miller pass (`bessel_j_pair`)
  and the slope as J_n' = (n/x) J_n - J_{n+1}.
- Replay: the bisection of the bracket down to width 1e-3 reads J_n only
  through its sign at each midpoint, and a midpoint more than
  _REPLAY_GUARD = 2e-5 from the estimate takes its sign from the side of
  the estimate it lies on.  This is safe: near every zero the command line
  can list (n <= 200, x <= 1030) |J_n'| >= 0.02 (the least is 0.031, at
  j_{200,1}), so the estimate lies within 1e-5 of the zero, and a midpoint
  outside the window lies at least 1e-5 from it, where |J_n| >= 2e-7, far
  above the kernel's error, so the kernel would have given the same sign.
  Only a midpoint inside the window calls the kernel, and if the locating
  run missed its tolerance, or the bracket lies beyond that range, every
  midpoint does.
- Polish: the same Newton iteration from the midpoint of the replayed
  interval, which is the interval the evaluated bisection ends on, down to
  |J_n| <= 1e-14.  The paired slope differs from `bessel_j_prime`'s in the
  last bits only, and moves none of the zeros that tests/test_bessel.py
  compares bitwise with the finder that evaluated every midpoint and took
  that slope.

The scan walks each order once.  `_WALKS[n]` keeps where the walk of J_n
stands and the sign-change brackets it has passed, so j_{n,k} costs only the
steps past the last bracket found, and the zeros of one order cost O(k)
kernel calls in all, in any request order.  The walk calls the kernel at
no grid point below n + 1.8557571 n^(1/3), which Qu & Wong (Trans. AMS 351,
1999) prove lies below j_{n,1} for n > 0, so J_n > 0 there.  After each
bracket (a, b] it calls the kernel at no grid point below a +
`_spacing_floor(n, a, b)` - 1e-5, and those points keep the sign of
J_n(b): sqrt(x) J_n(x) solves u'' + (1 - (n^2 - 1/4)/x^2) u = 0, so by Sturm
comparison the next zero lies at least the floor beyond the bracket's zero.
For n = 0 the floor is pi / sqrt(1 + 1/(4 a^2)), below pi, so the walk skips
the two points after b.  For n >= 1 the zeros lie more than pi apart, and
farther apart near x = n, and the floor, an even iterate of the spacing map
d -> pi / sqrt(1 - (n^2 - 1/4)/(b + d)^2) from pi, skips more.  A skipped
point lies more than 1e-5 before the next zero, where |J_n| is above the
kernel's error by the slope bound above, so the kernel would have given the
same sign; past order 200 or argument 1030, where that bound is not checked,
the floor is 3.5 pi/4 and the walk skips only the two points after b, which
lie at least 0.72 from any zero.  Every skipped point still takes its float
step and counts against _MAX_SCAN.  When a bracket starts at a skipped
point, the kernel is called there once the sign change is seen.  So the walk
takes the grid points a fresh scan from the origin side would take and
evaluates every bracket end at the same point, and every bracket, and every
zero polished from it, is bitwise the same.  `zero_floor(n, k)` gives the
spectrum a float below j_{n,k}, from Qu & Wong's bound or from j_{n,k-1}
and its floor, with no Miller pass.
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
# the residual at which the locating Newton run stops, and the half-width of
# the window around its estimate inside which the bisection replay still
# evaluates J_n: 2 * _LOCATE_TOL / 0.02, the least slope near a zero of the
# range below
_LOCATE_TOL = 2e-7
_REPLAY_GUARD = 2e-5
# the orders and arguments on which that slope bound is checked
_SLOPE_CHECKED_N = 200
_SLOPE_CHECKED_X = 1030.0
# Qu & Wong's constant: j_{n,1} > n + _FIRST_ZERO * n^(1/3) for n > 0
_FIRST_ZERO = 1.8557571


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


# n -> (x, J_n(x) or None at a skipped point, steps taken, brackets
# (a, J_n(a), b, J_n(b)) passed, the point below which the walk calls no
# kernel) of the pi/4 walk of order n.  Each step stores one new tuple, so
# an exception in mid-walk leaves the last stored state, never a
# half-updated one; and threads walking one order at once store states of
# the same walk, so the worst a race costs is steps taken twice.
_WALKS: dict[int, tuple[float, float | None, int, tuple, float]] = {}


def _bracket(n: int, k: int) -> tuple[float, float, float, float]:
    """Sign-change bracket k of the pi/4 walk of J_n, extending the walk
    only as far as bracket k."""
    walk = _WALKS.get(n)
    if walk is None:
        # J_n > 0 below the first zero's bound
        skip_below = zero_floor(n, 1)
        x = n + 1e-9 if n > 0 else 1e-9
        fx = None if x < skip_below else bessel_j_kernel(n, x)
        walk = _WALKS[n] = (x, fx, 0, (), skip_below)
    x, fx, steps, brackets, skip_below = walk
    while len(brackets) < k:
        if steps >= _MAX_SCAN:
            raise ZeroFindingError("scan exhausted before zero (n=%d, k=%d)" % (n, k))
        xn = x + _SCAN_STEP
        if xn < skip_below:
            x, fx, steps = xn, None, steps + 1
            _WALKS[n] = (x, fx, steps, brackets, skip_below)
            continue
        fxn = bessel_j_kernel(n, xn)
        while fxn == 0.0:  # exact grid hit: nudge to restore a sign bracket
            xn += 1e-9
            fxn = bessel_j_kernel(n, xn)
        # a skipped point (fx None) has the sign of the last bracket's right
        # end, or is positive before the first bracket
        last = fx if fx is not None else brackets[-1][3] if brackets else 1.0
        if (last > 0.0) != (fxn > 0.0):
            if fx is None:
                fx = bessel_j_kernel(n, x)
            brackets += ((x, fx, xn, fxn),)
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
    a, _, b, _ = _bracket(n, k - 1)
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
    a, fa, b, fb = _bracket(n, k)
    est, fe = _newton(n, a, fa, b, a - fa * (b - a) / (fb - fa), _LOCATE_TOL)
    # with no trusted estimate, or beyond the checked slope bound, the window
    # spans every midpoint
    trusted = abs(fe) <= _LOCATE_TOL and n <= _SLOPE_CHECKED_N and b <= _SLOPE_CHECKED_X
    guard = _REPLAY_GUARD if trusted else math.inf
    lo, hi = est - guard, est + guard

    # the replayed bisection: the sign of J_n is known outside [lo, hi]
    for _ in range(_MAX_BISECT):
        if b - a < 1e-3:
            break
        mid = 0.5 * (a + b)
        if mid < lo:
            a = mid
        elif mid > hi:
            b = mid
        else:
            fm = bessel_j_kernel(n, mid)
            if (fa > 0.0) != (fm > 0.0):
                b = mid
            else:
                a, fa = mid, fm

    root, fr = _newton(n, a, fa, b, 0.5 * (a + b), 1e-14)
    if abs(fr) > _RESIDUAL_TOL:
        raise ZeroFindingError(
            "residual tolerance unmet after iteration cap (n=%d, k=%d)" % (n, k)
        )
    return root


def _newton(n: int, a: float, fa: float, b: float, root: float, tol: float) -> tuple[float, float]:
    """Safeguarded Newton iteration for the zero of J_n in the sign bracket
    [a, b] from `root`, stopped once |J_n| <= tol; returns the last iterate
    and J_n there."""
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
        if nxt == root:
            break
        root = nxt
    else:
        fr = bessel_j_kernel(n, root)  # root moved after the last evaluation
    return root, fr
