"""First-order Floquet corrections in closed form.

The two-scale expansion of an eigenvalue reads Lambda0 + eps^{2m} Lambda1(eta)
with an error pad C * eps^gamma, gamma = min(3m, 1).  For n = 0 (mod 4)
every first-order quantity vanishes and the correction is undetermined at
this order.

All that rests on the form of Lambda1 is here, keyed by ModeIndex: its grid
table (`lambda1_grid(mode, axis)`), the O(grid) scan for the table's
extremes (`lambda1_extremes(mode, axis)`), the lattice EXTREME_AXIS of exact
extremizers, {0, pi}^2, and the extremes and closed-form range max - min
there (`lattice_extremes`, `lambda1_range`), both read from the one table on
that lattice.  The commands and the acceptance gate reach Lambda1 only
through these.  Only `_lambda1_table` writes a Lambda1 constant, and it and
`correction_matrix` read one cached `_first_order_prefactor`, so a change to
the first-order constants edits those two functions.

The closed forms that only `verify` and the benchmark's tracer call, the
compatibility constants c0(eta), the rank-one correction matrix M of a
double eigenvalue (eigenvalues {0, tr M}) and the unexported scalar Lambda1
entry points, live in `_firstorder` and resolve here on first access (PEP
562), so the table commands never compile them.
"""

from __future__ import annotations

import enum
import functools
import math

from .bessel import bessel_j_prime, bessel_zero
# ExpansionParams and QuadratureConvergenceError live in the spectrum module
# and are re-exported here
from .spectrum import (
    ExpansionParams,
    ModeIndex,
    Parity,
    QuadratureConvergenceError,
    Record,
)

TWO_PI = 2.0 * math.pi
# area of the unit cell outside the inscribed disk of radius 1/2
SOFT_CELL_AREA = 1.0 - math.pi / 4.0


class UndeterminedCorrectionError(RuntimeError):
    """Numeric evaluation requested for a branch with no first-order data."""


def reduce_angle(v: float) -> float:
    """v reduced into [-pi, pi), -0.0 read as 0.0."""
    r = math.remainder(float(v), TWO_PI)
    if r >= math.pi:
        r -= TWO_PI
    return r + 0.0  # normalize -0.0


class FloquetPoint(Record):
    """eta = (eta1, eta2), reduced into [-pi, pi) on construction."""

    eta1: float
    eta2: float

    def __post_init__(self):
        object.__setattr__(self, "eta1", reduce_angle(self.eta1))
        object.__setattr__(self, "eta2", reduce_angle(self.eta2))

    def negated(self) -> "FloquetPoint":
        return FloquetPoint(-self.eta1, -self.eta2)


@functools.lru_cache(maxsize=None)
def _derivative_gap(n: int, k: int) -> tuple[float, float]:
    # (j_{n,k}, 2 J_n'(j_{n,k})), which is J_{n-1}(j) - J_{n+1}(j)
    z = bessel_zero(n, k)
    return z, 2.0 * bessel_j_prime(n, z)


@functools.lru_cache(maxsize=None)
def _first_order_prefactor(n: int, k: int) -> float:
    # 2 J_n'(j_{n,k}) / (j_{n,k} (1 - pi/4)), the factor of every double mode's Lambda1
    z, gap = _derivative_gap(n, k)
    return gap / (z * SOFT_CELL_AREA)


def _half_angle_factors(axis) -> tuple[list[float], list[float]]:
    # sin and cos of eta_i/2 at each reduced axis value
    halves = [0.5 * reduce_angle(a) for a in axis]
    return [math.sin(h) for h in halves], [math.cos(h) for h in halves]


def _lambda1_table(n: int, k: int, rows, columns) -> list[list[float]]:
    # Lambda1 of the simple mode (n = 0) or of the sine branch of the double
    # mode (n, k), n != 0 (mod 4), on a tensor grid, one list per row; `rows`
    # and `columns` are the (sin, cos) lists of _half_angle_factors for eta1
    # and eta2.  Each entry takes the float operations of the one-point
    # formula in the same order, so a 1x1 table is the scalar value.
    s1, c1 = rows
    s2, c2 = columns
    if n == 0:
        j1 = -0.5 * _derivative_gap(0, k)[1]
        scale = 2.0 * math.pi / SOFT_CELL_AREA
        return [
            [(scale * amp) * amp for amp in [u * b for b in c2]]
            for u in [j1 * a for a in c1]
        ]
    pref = _first_order_prefactor(n, k)
    if n % 4 == 2:
        q = pref * (64.0 / (n * n))
        w2 = [b * b for b in s2]
        return [[u * w for w in w2] for u in [q * (a * a) for a in s1]]
    coef = -pref * (16.0 / (n * n))
    return [
        [coef * ((p * c) * c + (r * s) * s) for s, c in zip(s2, c2)]
        for p, r in [(a * a, b * b) for a, b in zip(s1, c1)]
    ]


class Branch(enum.Enum):
    SIMPLE = "simple"
    COSINE = "cosine"
    SINE = "sine"
    UNDETERMINED = "undetermined"


def branch_for(mode: ModeIndex) -> Branch:
    if mode.n == 0:
        return Branch.SIMPLE
    if mode.n % 4 == 0:
        return Branch.UNDETERMINED
    return Branch.COSINE if mode.parity is Parity.COSINE else Branch.SINE


def _determined_branch(mode: ModeIndex) -> Branch:
    # the mode's branch; n = 0 (mod 4) has no first-order data and raises
    branch = branch_for(mode)
    if branch is Branch.UNDETERMINED:
        raise UndeterminedCorrectionError(
            "mode %s has no first-order correction data (n = 0 mod 4)" % mode.label()
        )
    return branch


def lambda1_grid(mode: ModeIndex, axis) -> list[float]:
    """Lambda1 of the mode's branch at every point (axis[i], axis[j]) of the
    tensor grid, as a list flattened row-major over eta1 (index
    i * len(axis) + j); equal, value for value, to
    `CorrectionValue(mode).lambda1_at` at the reduced point."""
    if _determined_branch(mode) is Branch.COSINE:
        return [0.0] * (len(axis) * len(axis))
    factors = _half_angle_factors(axis)
    table = _lambda1_table(mode.n, mode.k, factors, factors)
    return [v for row in table for v in row]


# candidate extremizer components: Lambda1 factors through cos/sin of eta_i/2,
# so extrema over the closed square lie on the tensor grid {0, pi}^2 (pi and
# -pi reduce to the same point)
EXTREME_AXIS = (0.0, math.pi)
_LATTICE = _half_angle_factors(EXTREME_AXIS)
# the lattice's points, row-major as the table on it; FloquetPoint is frozen,
# so every band can hold the same four
_LATTICE_POINTS = [FloquetPoint(a, b) for a in EXTREME_AXIS for b in EXTREME_AXIS]


# lambda1_extremes scans a row in full when its slope in w = sin^2(eta2/2) is
# below _FLAT_ROW times its scale, or below _TINY_SLOPE, where subnormal
# rounding (up to 2.5e-324 per entry) is no longer small against the scale;
# other rows only at the columns whose w lies within _W_WINDOW of the least
# or the greatest w
_FLAT_ROW = 1e-3
_TINY_SLOPE = 1e-290
_W_WINDOW = 1e-6


def lambda1_extremes(
    mode: ModeIndex, axis
) -> tuple[float, FloquetPoint, float, FloquetPoint]:
    """The first minimum and maximum of the mode's `lambda1_grid` over `axis`
    with their points, in row-major order as a strict `<` / `>` scan
    (argmin/argmax) finds them, from O(len(axis)) table entries."""
    # Why that is exact: every Lambda1 is a product of cos/sin of eta_i/2, so
    # row i is alpha_i + beta_i w_j in exact arithmetic, w_j = sin^2(eta_j/2)
    # (simple: beta = -alpha; n = 2 mod 4: alpha = 0; odd n: beta is
    # proportional to cos eta1).  Its extremes lie at the columns of least
    # and greatest w.  The computed entries carry a few ulps of the row scale
    # |alpha_i| + |beta_i|, about 1e-15 of it.  A column whose w lies more
    # than _W_WINDOW from both ends sits at least |beta_i| * 1e-6 > 1e-9 of
    # the scale from the row's extreme once |beta_i| > _FLAT_ROW times the
    # scale, so it cannot tie the computed extreme and only the window
    # columns are evaluated.  Rows with a smaller slope (odd n near
    # eta1 = +-pi/2, the all-zero n = 2 mod 4 row at eta1 = 0) and rows with
    # a subnormal slope (n = 2 mod 4 at |eta1| below about 1e-145) are
    # scanned in full; there are O(1) of them.  The first row holding the global
    # extreme and its first such column then give argmin/argmax's order.
    if _determined_branch(mode) is Branch.COSINE:
        origin = FloquetPoint(axis[0], axis[0])
        return 0.0, origin, 0.0, origin
    size = len(axis)
    s, c = _half_angle_factors(axis)
    w = [x * x for x in s]
    w_lo, w_hi = min(w), max(w)
    window = [j for j, x in enumerate(w) if x - w_lo <= _W_WINDOW or w_hi - x <= _W_WINDOW]
    # each row at w = 0 and w = 1 first, alpha_i and alpha_i + beta_i, then
    # at the window columns
    ends_and_window = ([0.0, 1.0] + [s[j] for j in window], [1.0, 0.0] + [c[j] for j in window])
    table = _lambda1_table(mode.n, mode.k, (s, c), ends_and_window)
    rows = [row[2:] for row in table]
    columns = [window] * size
    for i, (alpha, top, *_) in enumerate(table):
        beta = abs(top - alpha)
        if not (beta > _FLAT_ROW * (abs(alpha) + beta) and beta > _TINY_SLOPE):
            rows[i] = _lambda1_table(mode.n, mode.k, ([s[i]], [c[i]]), (s, c))[0]
            columns[i] = range(size)

    def first(extreme) -> tuple[float, FloquetPoint]:
        # the first row holding the extreme of all rows, then its first
        # column holding it
        tops = [extreme(row) for row in rows]
        i = tops.index(extreme(tops))
        j = rows[i].index(tops[i])
        return rows[i][j], FloquetPoint(axis[i], axis[columns[i][j]])

    return (*first(min), *first(max))


def lambda1_range(n: int, k: int) -> float | None:
    """max - min of Lambda1 over eta for the simple mode (n = 0) or the sine
    branch of the double mode (n, k): the `_lambda1_table` on the lattice
    EXTREME_AXIS, where the extremes lie in exact arithmetic; None for
    n = 0 (mod 4), where first-order theory is silent."""
    if n % 4 == 0 and n != 0:
        return None
    values = [v for row in _lambda1_table(n, k, _LATTICE, _LATTICE) for v in row]
    return max(values) - min(values)


def lattice_extremes(mode: ModeIndex) -> tuple[float, FloquetPoint, float, FloquetPoint]:
    """`lambda1_extremes(mode, EXTREME_AXIS)` from the lattice table that
    `lambda1_range` reads: its first minimum and maximum in row-major order,
    with their points."""
    if _determined_branch(mode) is Branch.COSINE:
        return 0.0, _LATTICE_POINTS[0], 0.0, _LATTICE_POINTS[0]
    values = [v for row in _lambda1_table(mode.n, mode.k, _LATTICE, _LATTICE) for v in row]
    lo, hi = min(values), max(values)
    return lo, _LATTICE_POINTS[values.index(lo)], hi, _LATTICE_POINTS[values.index(hi)]


# the names that `_firstorder` defines
_FIRST_ORDER = ("CorrectionValue", "Expansion", "MultipleCorrection", "c0_multiple", "c0_simple",
                "correction_matrix", "lambda1_multiple", "lambda1_simple", "lambda_expansion")


def __getattr__(name):
    # PEP 562: `_firstorder` loads only when one of its names is asked for
    if name in _FIRST_ORDER:
        from . import _firstorder

        return getattr(_firstorder, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
