"""The numerical cross-check suite as records: each `Check` holds how far a
closed form lies from an independent route.  All seven pass by one rule,
observed <= bound, so a NaN from any route fails; headroom is observed/bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bands import band_length, floquet_axis, swept_band_width
from .bessel import bessel_j, bessel_zero
from .corrections import ExpansionParams, FloquetPoint, c0_multiple, c0_simple
from .corrections import Branch, branch_for, correction_matrix, lambda1_multiple
from .oracles import RadialMesh, boundary_arc_length, c0_quadrature
from .oracles import disk_mesh_doubling, error_ratios
from .spectrum import ModeIndex, Parity, enumerate_spectrum, limit_eigenvalue


@dataclass(frozen=True)
class Check:
    """The `observed` deviation of a closed form from an independent route,
    its `bound`, and a one-line `detail`."""

    name: str
    observed: float
    bound: float
    detail: str

    def __post_init__(self):
        # passed must be a bool, which json.dumps writes; a numpy.float64
        # observed value would make it a numpy.bool_, which it cannot write
        object.__setattr__(self, "observed", float(self.observed))

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound


def _max(worst: float, value: float) -> float:
    # max(worst, value), except that a NaN on either side is kept
    return worst if worst != worst or value <= worst else value


def verify_checks(params: ExpansionParams, grid_resolution: int) -> list[Check]:
    """The seven cross-checks in order; `params` and `grid_resolution` set
    the band-length comparison, every other check is fixed."""
    worst = 0.0
    for n in range(0, 9):
        for k in range(1, 6):
            worst = _max(worst, abs(bessel_j(n, bessel_zero(n, k).value)))
    checks = [Check("bessel-zero-residual", worst, 1e-12, "max |J_n(j)| = %.3g" % worst)]

    worst = 0.0
    ratios = []
    for n in (0, 1, 2):
        # one solve per mesh serves the error check, the Richardson guard
        # and the convergence ratios
        values, fine = disk_mesh_doubling(n, 2, RadialMesh(512))
        parity = Parity.SIMPLE if n == 0 else Parity.COSINE
        for k, fd in enumerate(values, start=1):
            exact = limit_eigenvalue(ModeIndex(n, k, parity)).lambda0
            worst = _max(worst, abs(fd - exact) / exact)
        ratios.extend(error_ratios(n, values, fine))
    checks.append(Check("disk-fd-eigenvalues", worst, 1e-3, "max relative error = %.3g" % worst))

    # |r - 4| <= 0.5 exactly when 3.5 <= r <= 4.5: r - 4 is exact on [2, 8]
    # (Sterbenz) and at least 2 in magnitude outside it
    worst = 0.0
    for r in ratios:
        worst = _max(worst, abs(r - 4.0))
    detail = "error ratios under mesh doubling: %s" % ", ".join("%.2f" % r for r in ratios)
    checks.append(Check("disk-fd-convergence", worst, 0.5, detail))

    axis = floquet_axis(5)  # -pi, -pi/2, 0, pi/2, pi
    etas = [FloquetPoint(a, b) for a in axis for b in axis]
    worst = 0.0
    for n in range(0, 5):
        for k in (1, 2):
            for eta in etas:
                if n == 0:
                    closed = complex(c0_simple(k, eta))
                    numeric = c0_quadrature(ModeIndex(0, k, Parity.SIMPLE), eta, 1.0, 0.0)
                    worst = _max(worst, abs(closed - numeric))
                else:
                    m = ModeIndex(n, k, Parity.COSINE)
                    for cc, cs in ((1.0, 0.0), (0.0, 1.0)):
                        closed = c0_multiple(n, k, eta, cc, cs)
                        numeric = c0_quadrature(m, eta, cc, cs)
                        worst = _max(worst, abs(closed - numeric))
    checks.append(Check("c0-closed-vs-quadrature", worst, 1e-8, "max |difference| = %.3g" % worst))

    worst = 0.0
    for n in (1, 2, 3):
        for k in (1, 2):
            for eta in etas:
                matrix = correction_matrix(n, k, eta)
                tr = matrix[0][0] + matrix[1][1]
                closed = lambda1_multiple(n, k, eta).sine
                worst = _max(worst, abs(tr - closed))
    checks.append(Check("correction-trace-vs-quadrature", worst, 1e-8, "max |difference| = %.3g" % worst))

    err = abs(boundary_arc_length() - math.pi)
    checks.append(Check("boundary-arc-length", err, 1e-12, "|integral - pi| = %.3g" % err))

    worst = 0.0
    for pair in enumerate_spectrum(10):
        m = pair.mode
        if branch_for(m) in (Branch.COSINE, Branch.UNDETERMINED):
            continue
        swept = swept_band_width(m.n, m.k, params, grid_resolution)
        closed = band_length(m, params).leading
        worst = _max(worst, abs(swept - closed) / abs(closed))
    checks.append(Check("band-length-closed-vs-sweep", worst, 1e-8, "max relative error = %.3g" % worst))
    return checks
