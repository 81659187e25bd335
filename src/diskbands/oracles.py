"""Brute-force numerical cross-checks for the closed-form results.

Two independent routes: a radial finite-volume discretization of the
Dirichlet disk validating the limit eigenvalues 4 j_{n,k}^2, and direct
boundary quadrature of the compatibility integral validating the closed-form
c0(eta).  Neither route shares formulas with the modules it checks: the disk
solve knows nothing of Bessel zeros, and the quadrature weighs the radial
derivative of the disk eigenfunction by the quarter-arc integrals of
`_quad.arc_integrals`, which hold no closed form.

Each mode's prefactor is cached per (n, k), and `arc_integrals` caches its
own values.  `disk_mesh_doubling` solves a mesh and its doubled mesh once
each, so the eigenvalue check, the Richardson guard and the convergence
ratios share two solves.  Each solve's bisection (`_sturm`,
which only this module imports) reuses the Sturm counts it has taken,
sweeping only midpoints whose side they leave open, and takes its first
counts from a Newton estimate of each eigenvalue and a bracket of relative
half-width 1e-11 around it; the doubled mesh's Newton runs start just below
the coarse eigenvalues.  The eigenvalues are bitwise those of the bisection
that sweeps every midpoint.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._sturm import tridiag_smallest_eigenvalues
from ._quad import arc_integrals
from .bessel import bessel_j_prime, bessel_zero
from .corrections import FloquetPoint
# OracleConvergenceError lives in the spectrum module and is re-exported here
from .spectrum import ModeIndex, OracleConvergenceError, Parity, Record, limit_eigenvalue

_SOFT_AREA = 1.0 - math.pi / 4.0


class RadialMesh(Record):
    """Uniform radial grid on (0, 1/2): interior nodes r_i = i*h with
    h = (1/2)/(points + 1)."""

    points: int

    def __post_init__(self):
        if self.points < 16:
            raise ValueError("mesh needs at least 16 points, got %r" % (self.points,))

    @property
    def h(self) -> float:
        return 0.5 / (self.points + 1)

    def doubled(self) -> "RadialMesh":
        # 2*points + 1 interior nodes halves h exactly
        return RadialMesh(2 * self.points + 1)


def _assemble(n: int, mesh: RadialMesh) -> tuple[list[float], list[float]]:
    # finite volumes for -(r u')'/r + (n^2/r^2) u = lambda u on (0, 1/2),
    # u(1/2) = 0; rows are weighted by the cell mass r_i h, then the
    # generalized problem A u = lambda D u is symmetrized through D^{1/2}
    h = mesh.h
    hh = h * h
    r = [h * i for i in range(1, mesh.points + 1)]
    r_plus = [v + 0.5 * h for v in r]
    diag = [(v - 0.5 * h + p) / hh for v, p in zip(r, r_plus)]
    if n > 0:
        diag = [d + (n * n) / v for d, v in zip(diag, r)]
    mass = list(r)
    if n == 0:
        # merged origin cell [0, 3h/2]: zero flux through r = 0, mass
        # integral of r dr gives 9h/8 after the 1/h row scaling
        diag[0] = r_plus[0] / hh
        mass[0] = 9.0 * h / 8.0
    sym_diag = [d / m for d, m in zip(diag, mass)]
    sym_off = [
        -p / hh / math.sqrt(m0 * m1) for p, m0, m1 in zip(r_plus, mass, mass[1:])
    ]
    return sym_diag, sym_off


def disk_dirichlet_eigenvalues(n: int, count: int, mesh: RadialMesh) -> list[float]:
    """Smallest `count` eigenvalues of the angular-mode-n Dirichlet disk
    problem on `mesh`, ascending; `disk_mesh_doubling` checks them by h-halving."""
    if n < 0:
        raise ValueError("angular order must be >= 0, got %r" % (n,))
    if count < 1:
        raise ValueError("count must be >= 1, got %r" % (count,))
    if count > mesh.points // 4:
        raise ValueError(
            "count %d too large for %d mesh points (need count <= points/4)"
            % (count, mesh.points)
        )
    d, e = _assemble(n, mesh)
    return tridiag_smallest_eigenvalues(d, e, count)


def disk_mesh_doubling(
    n: int, count: int, mesh: RadialMesh
) -> tuple[list[float], list[float]]:
    """Eigenvalues on `mesh` and on its h-halved mesh, one solve each.
    Raises OracleConvergenceError when doubling moves any eigenvalue by
    more than 5% of its fine value."""
    coarse = disk_dirichlet_eigenvalues(n, count, mesh)
    # the coarse call checked n and count; each doubled-mesh Newton run
    # starts just below the coarse eigenvalue
    d, e = _assemble(n, mesh.doubled())
    fine = tridiag_smallest_eigenvalues(d, e, count, coarse)
    for coarse_v, fine_v in zip(coarse, fine):
        # second-order scheme: coarse-fine difference ~ 3x the fine error
        if not (abs(coarse_v - fine_v) <= 0.05 * abs(fine_v)):
            raise OracleConvergenceError(
                "mesh doubling moved eigenvalue from %r to %r (n=%d, "
                "points=%d); discretization not converged"
                % (coarse_v, fine_v, n, mesh.points)
            )
    return coarse, fine


def error_ratios(n: int, coarse: list[float], fine: list[float]) -> list[float]:
    """E(coarse)/E(fine) per eigenvalue against the exact values
    4 j_{n,k}^2, k = 1, 2, ..."""
    ratios = []
    parity = Parity.SIMPLE if n == 0 else Parity.COSINE
    for k, (cv, fv) in enumerate(zip(coarse, fine), start=1):
        exact = limit_eigenvalue(ModeIndex(n, k, parity))
        ratios.append(abs(cv - exact) / abs(fv - exact))
    return ratios


def convergence_ratios(n: int, count: int, mesh: RadialMesh) -> list[float]:
    """`error_ratios` of `disk_mesh_doubling`: error-reduction factors
    E(mesh)/E(doubled mesh) against the exact values 4 j_{n,k}^2, near 4
    for a second-order scheme."""
    return error_ratios(n, *disk_mesh_doubling(n, count, mesh))


@lru_cache(maxsize=None)
def _prefactor(n: int, k: int) -> float:
    # -(d/dr J_n(2 z r) at r = 1/2) / (Lambda0 (1 - pi/4)), eta-independent
    z = bessel_zero(n, k)
    dnu = 2.0 * z * bessel_j_prime(n, z)
    return -dnu / (4.0 * z * z * _SOFT_AREA)


def c0_quadrature(
    mode: ModeIndex,
    eta: FloquetPoint,
    coeff_c: complex = 1.0 + 0j,
    coeff_s: complex = 0j,
    panels: int = 16,
) -> complex:
    """Compatibility constant by direct boundary quadrature:
    -1/(Lambda0 (1 - pi/4)) times the phase-weighted integral of the radial
    derivative of the disk eigenfunction over the four quarter-arcs.
    Raises if doubling the panel count moves the value by more than 1e-10.
    `arc_integrals` caches each (n, eta, panels) pair of arc integrals, so
    modes, coefficients and the correction matrix share one computation."""
    if panels < 8:
        raise ValueError("need at least 8 panels per quarter-arc, got %r" % (panels,))
    n = mode.n
    pref = _prefactor(n, mode.k)
    ic, isn = arc_integrals(n, eta.eta1, eta.eta2, panels)
    value = pref * (coeff_c * ic + coeff_s * isn)
    ic, isn = arc_integrals(n, eta.eta1, eta.eta2, 2 * panels)
    refined = pref * (coeff_c * ic + coeff_s * isn)
    if not (abs(refined - value) <= 1e-10):
        raise OracleConvergenceError(
            "boundary quadrature for %s did not converge: panel doubling "
            "moved the value by %g" % (mode.label(), abs(refined - value))
        )
    return refined


def boundary_arc_length(panels: int = 8) -> float:
    """Arc length of the whole disk boundary by the quarter-arc integral that
    both quadratures share (radius 1/2, so the exact value is pi); checks
    the measure: I_c of n = 0 at eta = 0 is the angle 2 pi, and ds = r dt."""
    return 0.5 * arc_integrals(0, 0.0, 0.0, panels)[0].real
