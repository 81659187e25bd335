"""The first-order closed forms that only `verify` and the benchmark's tracer
call: the c0 constants, the correction matrix and the unexported scalar
Lambda1 entry points.  Each name resolves at `diskbands.corrections` too,
and the code here reads that module's `_derivative_gap`,
`_first_order_prefactor` and `_lambda1_table` at call time, so the
first-order constants keep one home there.
"""

from __future__ import annotations

import math

from . import corrections
from .corrections import SOFT_CELL_AREA, Branch, FloquetPoint, branch_for
from .spectrum import ExpansionParams, ModeIndex, QuadratureConvergenceError, Record
from .spectrum import limit_eigenvalue

_QUAD_TOL = 1e-10
_MAX_PANELS = 1024


def c0_simple(k: int, eta: FloquetPoint) -> float:
    """Compatibility constant of a simple mode:
    pi J_1(j_{0,k}) cos(eta1/2) cos(eta2/2) / (j_{0,k} (1 - pi/4))."""
    z, gap = corrections._derivative_gap(0, k)
    j1 = -0.5 * gap  # J_1(j_{0,k}) = -J_0'(j_{0,k})
    return (
        math.pi
        / (z * SOFT_CELL_AREA)
        * j1
        * math.cos(0.5 * eta.eta1)
        * math.cos(0.5 * eta.eta2)
    )


def c0_multiple(
    n: int, k: int, eta: FloquetPoint, coeff_c: complex, coeff_s: complex
) -> complex:
    """Compatibility constant of a double mode with angular coefficients
    (C_c, C_s); identically zero for n = 0 (mod 4)."""
    if n < 1:
        raise ValueError("n must be >= 1 for double modes, got %r" % (n,))
    if n % 4 == 0:
        return 0j
    z, gap = corrections._derivative_gap(n, k)
    base = gap / (n * z * SOFT_CELL_AREA)
    sa, ca = math.sin(0.5 * eta.eta1), math.cos(0.5 * eta.eta1)
    sb, cb = math.sin(0.5 * eta.eta2), math.cos(0.5 * eta.eta2)
    if n % 4 == 2:
        return 2.0 * base * coeff_s * sa * sb
    sign = 1.0 if n % 4 == 1 else -1.0
    return -1j * base * (sign * coeff_c * sa * cb + coeff_s * ca * sb)


def _lambda1_point(n: int, k: int, eta: FloquetPoint) -> float:
    rows = corrections._half_angle_factors((eta.eta1,))
    columns = corrections._half_angle_factors((eta.eta2,))
    return corrections._lambda1_table(n, k, rows, columns)[0][0]


def lambda1_simple(k: int, eta: FloquetPoint) -> float:
    """First-order correction of the simple mode (0, k):
    (2 pi / (1 - pi/4)) (J_1(j_{0,k}) cos(eta1/2) cos(eta2/2))^2."""
    return _lambda1_point(0, k, eta)


def correction_matrix(n: int, k: int, eta: FloquetPoint) -> list[list[complex]]:
    """Rank-one 2x2 matrix M, as nested lists, whose eigenvalues {0, tr M}
    split the first-order correction of the double mode (n, k); the arc
    integrals I_c, I_s are computed by composite Gauss-Legendre, panels
    doubled until stable."""
    # _quad, and cmath with it, loads on the first call: the c0 closed forms
    # need neither
    from ._quad import arc_integrals

    if n < 1:
        raise ValueError("n must be >= 1 for double modes, got %r" % (n,))
    pref = corrections._first_order_prefactor(n, k)
    panels = 8  # 32 nodes per quarter-arc
    prev: tuple[complex, complex] | None = None
    while panels <= _MAX_PANELS:
        cur = arc_integrals(n, eta.eta1, eta.eta2, panels)
        if prev is not None and max(
            abs(cur[0] - prev[0]), abs(cur[1] - prev[1])
        ) < _QUAD_TOL:
            ic, isn = cur
            off = pref * (ic * isn)
            return [[pref * (ic * ic), off], [off, pref * (isn * isn)]]
        prev = cur
        panels *= 2
    raise QuadratureConvergenceError(
        "arc integrals did not stabilize (n=%d, eta=(%g, %g))"
        % (n, eta.eta1, eta.eta2)
    )


class MultipleCorrection(Record):
    """Correction pair (cosine, sine) of a double mode; `undetermined` marks
    n = 0 (mod 4), where the pair is 0 only because first-order theory is
    silent and the true band width is unknown at this order."""

    cosine: float
    sine: float
    undetermined: bool

    def __iter__(self):
        yield self.cosine
        yield self.sine


def lambda1_multiple(n: int, k: int, eta: FloquetPoint) -> MultipleCorrection:
    """Closed-form correction pair (0, tr M) of the double mode (n, k)."""
    if n < 1 or k < 1:
        raise ValueError("double modes need n >= 1 and k >= 1, got (%r, %r)" % (n, k))
    if n % 4 == 0:
        return MultipleCorrection(0.0, 0.0, True)
    trace = _lambda1_point(n, k, eta)
    return MultipleCorrection(0.0, trace, False)


class CorrectionValue(Record):
    """Evaluable first-order correction Lambda1(eta) of one mode branch."""

    mode: ModeIndex

    @property
    def branch(self) -> Branch:
        return branch_for(self.mode)

    def lambda1_at(self, eta: FloquetPoint) -> float:
        if corrections._determined_branch(self.mode) is Branch.COSINE:
            return 0.0
        return _lambda1_point(self.mode.n, self.mode.k, eta)


class Expansion(Record):
    """Two-term eigenvalue value with its error pad; `undetermined` flags an
    unresolved eps^{2m}-order term (value then equals Lambda0)."""

    value: float
    pad: float
    undetermined: bool = False


def lambda_expansion(
    mode: ModeIndex, eta: FloquetPoint, params: ExpansionParams
) -> Expansion:
    """Lambda0 + eps^{2m} Lambda1(eta) with pad C eps^gamma, branch selected
    by the mode's parity."""
    lam0 = limit_eigenvalue(mode)
    if branch_for(mode) is Branch.UNDETERMINED:
        return Expansion(lam0, params.pad, True)
    lam1 = CorrectionValue(mode).lambda1_at(eta)
    return Expansion(lam0 + params.first_order_scale * lam1, params.pad, False)
