"""Asymptotic Floquet-Bloch band structure of a stiff disk-perforated plane.

Leading eigenvalues come from Bessel zeros (Lambda0 = 4 j_{n,k}^2 for the
Dirichlet disk of radius 1/2), first-order corrections Lambda1(eta) from the
boundary compatibility conditions, and spectral bands with certified error
pads from sweeping eta over [-pi, pi)^2.  Everything closed-form is
cross-checked by independent numerics in `diskbands.oracles`, run as one
suite by `diskbands.verify`.

The names in `__all__` load on first access (PEP 562), so importing the
package loads none of its modules.  The package needs nothing beyond the
standard library: every command, `verify`'s oracles included, runs without
numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "bessel": ("ZeroFindingError", "bessel_j", "bessel_j_prime", "bessel_zero"),
    "spectrum": (
        "DISK_RADIUS",
        "ExpansionParams",
        "InternalConsistencyError",
        "ModeIndex",
        "OracleConvergenceError",
        "Parity",
        "QuadratureConvergenceError",
        "eigenfunction_eval",
        "enumerate_spectrum",
        "limit_eigenvalue",
    ),
    "corrections": (
        "SOFT_CELL_AREA",
        "Branch",
        "FloquetPoint",
        "UndeterminedCorrectionError",
        "branch_for",
        "c0_multiple",
        "c0_simple",
        "correction_matrix",
    ),
    "bands": (
        "BandInterval",
        "GapReport",
        "band_interval",
        "band_length",
        "band_table",
        "brillouin_sweep",
        "floquet_axis",
        "gap_reports",
        "swept_band_width",
    ),
    "oracles": (
        "RadialMesh",
        "boundary_arc_length",
        "c0_quadrature",
        "disk_dirichlet_eigenvalues",
        "disk_mesh_doubling",
        "error_ratios",
    ),
    "verify": ("Check", "verify_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # the public submodules load on first access too
        return importlib.import_module("." + name, __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
