"""Dirichlet Laplacian on the disk of radius 1/2: the leading-order spectrum.

A mode is a ModeIndex (n, k, parity).  Its eigenvalue is the float
`limit_eigenvalue(mode)` = 4 j_{n,k}^2, and `eigenfunction_eval` evaluates its
eigenfunction J_n(2 j_{n,k} r) times the angular combination the caller's
coefficients give.  n = 0 gives simple eigenvalues, n >= 1 double ones
carrying a cosine and a sine branch.  `enumerate_spectrum` lists the modes
ascending by eigenvalue with the cosine branch preceding the sine branch of
each double eigenvalue: it merges the increasing zero sequences j_{n,1} <
j_{n,2} < ... of the orders n through a heap.  Once j_{n,k} is listed, the
heap holds j_{n,k+1} under `bessel.zero_floor`'s lower bound, and once
j_{n,1} is, j_{n+1,1} under the larger of j_{n,1} and Qu & Wong's bound.  A
zero is found only when its bound reaches the top of the heap, so the
spectrum finds the zeros it lists and only a few more.

The module also holds the expansion parameters and the error types that the
command line maps to exit codes; they need none of the Floquet modules, so
`diskbands zeros` and `diskbands spectrum` never load them.  And it holds
`Record`, the frozen-record base of every record in the package, with its
`replace`: a plain class whose methods read the fields from a table, so that
defining a record execs no code and no command loads `dataclasses`.
"""

from __future__ import annotations

import enum
import heapq
import math

from .bessel import bessel_j, bessel_zero, zero_floor

DISK_RADIUS = 0.5


class Record:
    """Base of a frozen record, as @dataclass(frozen=True) makes one.  A
    subclass's fields are its own annotations, in order, each defaulting to
    its class attribute if it has one.  A record is built from its fields by
    position or keyword, then its `__post_init__` runs; it refuses assignment
    and deletion, equals a record of its own type with equal fields, hashes
    as the tuple of its fields, and prints as the dataclass would."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        # the field values in order, from positional and keyword arguments
        # and the defaults, as a call to the dataclass's __init__ binds them
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(
                "%s() takes %d arguments but %d were given" % (name, len(fields), len(args))
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError("%s() got an unexpected keyword argument %r" % (name, key))
            if key in values:
                raise TypeError("%s() got multiple values for argument %r" % (name, key))
            values[key] = value
        for key in fields:
            if key not in values and key not in cls._defaults:
                raise TypeError("%s() missing required argument %r" % (name, key))
        return [values[key] if key in values else cls._defaults[key] for key in fields]

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(["%s=%r" % pair for pair in zip(self._fields, self._values())]),
        )


def replace(record: Record, **changes) -> Record:
    """A new record of `record`'s type with `changes` to its fields, built,
    and so validated, like any other."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


class QuadratureConvergenceError(RuntimeError):
    """Panel doubling failed to stabilize a boundary integral."""


class OracleConvergenceError(RuntimeError):
    """Mesh or panel refinement failed to confirm the computed value."""


class InternalConsistencyError(RuntimeError):
    """Two routes to the same quantity disagreed beyond tolerance."""


class ExpansionParams(Record):
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


class ModeIndex(Record):
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


def limit_eigenvalue(mode: ModeIndex) -> float:
    """Lambda0 = 4 j_{n,k}^2, shared by both branches of a double mode."""
    z = bessel_zero(mode.n, mode.k)
    return 4.0 * z * z


def eigenfunction_eval(
    mode: ModeIndex, r: float, theta: float, coeff_c: complex = 1.0, coeff_s: complex = 0j
) -> complex:
    """J_n(2 j_{n,k} r) (C_c cos n theta + C_s sin n theta) at the polar point
    (r, theta), 0 <= r <= 1/2; the coefficients are the caller's, and no
    normalization is imposed."""
    if mode.parity is Parity.SIMPLE and coeff_s != 0:
        raise ValueError("simple modes carry no sine coefficient")
    r = float(r)
    if not (0.0 <= r <= DISK_RADIUS):
        raise ValueError("r must lie in [0, 1/2], got %r" % (r,))
    n = mode.n
    radial = bessel_j(n, 2.0 * bessel_zero(n, mode.k) * r)
    if mode.parity is Parity.SIMPLE:
        return radial * coeff_c
    return radial * (coeff_c * math.cos(n * theta) + coeff_s * math.sin(n * theta))


def enumerate_spectrum(count: int) -> list[ModeIndex]:
    """The modes of the first `count` eigenvalues ascending, double ones
    expanded into adjacent (cosine, sine) entries."""
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError("count must be a positive integer, got %r" % (count,))
    # merge the ascending zero sequences of the orders n = 0, 1, ... through
    # a heap of (key, n, k, exact): an exact entry's key is j_{n,k}, any
    # other's a lower bound on it, and the zero is found only when such an
    # entry reaches the top.  An exact entry on top lies below every key, so
    # below every zero not yet listed.  Order n + 1 enters once j_{n,1} is
    # listed, keyed at least j_{n,1}, since j_{n,1} < j_{n+1,1}.
    heap = [(bessel_zero(0, 1), 0, 1, True)]
    out: list[ModeIndex] = []
    while len(out) < count:
        z, n, k, exact = heap[0]
        if not exact:
            heapq.heapreplace(heap, (bessel_zero(n, k), n, k, True))
            continue
        parities = (Parity.SIMPLE,) if n == 0 else (Parity.COSINE, Parity.SINE)
        out += [ModeIndex(n, k, p) for p in parities]
        heapq.heapreplace(heap, (zero_floor(n, k + 1), n, k + 1, False))
        if k == 1:
            heapq.heappush(heap, (max(z, zero_floor(n + 1, 1)), n + 1, 1, False))
    return out[:count]
