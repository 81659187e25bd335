"""Dirichlet Laplacian on the disk of radius 1/2: the leading-order spectrum.

Eigenvalues are 4 j_{n,k}^2 with eigenfunctions J_n(2 j_{n,k} r) times an
angular factor; n = 0 gives simple eigenvalues, n >= 1 double ones carrying a
cosine and a sine branch.  `enumerate_spectrum` lists them ascending with the
cosine branch preceding the sine branch of each double eigenvalue: it merges
the increasing zero sequences j_{n,1} < j_{n,2} < ... of the orders n through
a heap, and finds j_{n,k+1} only once j_{n,k} is listed, and j_{n+1,1} only
once j_{n,1} is.

The module also holds the expansion parameters and the error types that the
command line maps to exit codes; they need none of the Floquet modules, so
`diskbands zeros` and `diskbands spectrum` never load them.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass

from .bessel import BesselZero, bessel_j, bessel_zero

DISK_RADIUS = 0.5


class QuadratureConvergenceError(RuntimeError):
    """Panel doubling failed to stabilize a boundary integral."""


class OracleConvergenceError(RuntimeError):
    """Mesh or panel refinement failed to confirm the computed value."""


class InternalConsistencyError(RuntimeError):
    """Two routes to the same quantity disagreed beyond tolerance."""


@dataclass(frozen=True)
class ExpansionParams:
    """Small parameter eps in (0, 1), density exponent m in (0, 1/2), and the
    error-pad constant C in [0, 1e300] (0 meaning an uncertified pad)."""

    epsilon: float
    m: float
    error_constant: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1), got %r" % (self.epsilon,))
        if not (0.0 < self.m < 0.5):
            raise ValueError(
                "m must satisfy 0 < m < 1/2 (standing assumption of the "
                "two-term expansion), got %r" % (self.m,)
            )
        # the cap keeps every pad C eps^gamma, and a band padded by it, well
        # inside the floats that print and read back at 15 digits
        if not (0.0 <= self.error_constant <= 1e300):
            raise ValueError(
                "error_constant must lie in [0, 1e+300], got %r" % (self.error_constant,)
            )
        # -0.0 passes the sign check; stored as it is, it would print every
        # pad as -0
        if self.error_constant == 0.0:
            object.__setattr__(self, "error_constant", 0.0)

    @property
    def gamma(self) -> float:
        return min(3.0 * self.m, 1.0)

    @property
    def first_order_scale(self) -> float:
        return self.epsilon ** (2.0 * self.m)

    @property
    def pad(self) -> float:
        return self.error_constant * self.epsilon**self.gamma


class Parity(enum.Enum):
    SIMPLE = "simple"
    COSINE = "c"
    SINE = "s"


@dataclass(frozen=True)
class ModeIndex:
    """Angular order n, radial index k, and multiplicity branch."""

    n: int
    k: int
    parity: Parity

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError("n must be a non-negative integer, got %r" % (self.n,))
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError("k must be a positive integer, got %r" % (self.k,))
        if (self.n == 0) != (self.parity is Parity.SIMPLE):
            raise ValueError(
                "parity must be SIMPLE exactly when n = 0 (n=%d, parity=%s)"
                % (self.n, self.parity)
            )

    def label(self) -> str:
        return "%d,%d,%s" % (self.n, self.k, self.parity.value)


@dataclass(frozen=True)
class LimitEigenpair:
    mode: ModeIndex
    lambda0: float
    zero: BesselZero
    multiplicity: int


@dataclass(frozen=True)
class DiskEigenfunction:
    """J_n(2 j_{n,k} r) (C_c cos n theta + C_s sin n theta); coefficients are
    caller-supplied, no normalization is imposed."""

    mode: ModeIndex
    coeff_c: complex
    coeff_s: complex = 0j

    def __post_init__(self):
        if self.mode.parity is Parity.SIMPLE and self.coeff_s != 0:
            raise ValueError("simple modes carry no sine coefficient")


def limit_eigenvalue(mode: ModeIndex) -> LimitEigenpair:
    """Lambda0 = 4 j_{n,k}^2 with its Bessel zero attached."""
    zero = bessel_zero(mode.n, mode.k)
    lam0 = 4.0 * zero.value * zero.value
    return LimitEigenpair(mode, lam0, zero, 1 if mode.n == 0 else 2)


def eigenfunction_eval(f: DiskEigenfunction, r: float, theta: float) -> complex:
    """Value of the eigenfunction at polar point (r, theta), 0 <= r <= 1/2."""
    r = float(r)
    if not (0.0 <= r <= DISK_RADIUS):
        raise ValueError("r must lie in [0, 1/2], got %r" % (r,))
    n = f.mode.n
    radial = bessel_j(n, 2.0 * bessel_zero(n, f.mode.k).value * r)
    if f.mode.parity is Parity.SIMPLE:
        return radial * f.coeff_c
    return radial * (
        f.coeff_c * math.cos(n * theta) + f.coeff_s * math.sin(n * theta)
    )


def enumerate_spectrum(count: int) -> list[LimitEigenpair]:
    """The first `count` eigenpairs ascending by eigenvalue, double ones
    expanded into adjacent (cosine, sine) entries."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError("count must be a positive integer, got %r" % (count,))
    # merge the ascending zero sequences of the orders n = 0, 1, ...; since
    # j_{n,1} < j_{n+1,1}, order n + 1 need not enter the heap before j_{n,1}
    # leaves it
    heap = [(bessel_zero(0, 1).value, 0, 1)]
    out: list[LimitEigenpair] = []
    while len(out) < count:
        _, n, k = heapq.heappop(heap)
        parities = (Parity.SIMPLE,) if n == 0 else (Parity.COSINE, Parity.SINE)
        out += [limit_eigenvalue(ModeIndex(n, k, p)) for p in parities]
        heapq.heappush(heap, (bessel_zero(n, k + 1).value, n, k + 1))
        if k == 1:
            heapq.heappush(heap, (bessel_zero(n + 1, 1).value, n + 1, 1))
    return out[:count]
