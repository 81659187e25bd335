"""Spectral band intervals, band lengths, and gap detection.

Each mode branch sweeps a band as eta ranges over [-pi, pi)^2.  At first
order the band is [Lambda0 + eps^{2m} min Lambda1, Lambda0 + eps^{2m} max
Lambda1], padded by C eps^gamma on both sides.  Gaps between consecutive
bands are certified only when the padded intervals are disjoint and neither
endpoint rests on undetermined or mutually cancelling first-order data.

The extremes of Lambda1 and its closed-form range come from `corrections`;
this module pads and cross-checks them, and labels the gaps.
"""

from __future__ import annotations

import math
import warnings

from .corrections import (
    Branch,
    ExpansionParams,
    FloquetPoint,
    branch_for,
    lambda1_extremes,
    lambda1_grid,
    lambda1_range,
    lattice_extremes,
    reduce_angle,
)
# InternalConsistencyError lives in the spectrum module and is re-exported
# here
from .spectrum import (
    InternalConsistencyError,
    ModeIndex,
    Parity,
    Record,
    enumerate_spectrum,
    limit_eigenvalue,
    replace,
)


def floquet_axis(resolution: int) -> list[float]:
    """Uniform closed grid [-pi, pi] with `resolution` points per axis, as a
    list; -pi and pi are exact, and the middle point of an odd resolution
    is 0.0 for most resolutions but not all (51 gives 2^-51).  Bitwise the
    values of numpy.linspace(-pi, pi, resolution): i * step - pi, then pi."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2, got %r" % (resolution,))
    step = 2.0 * math.pi / (resolution - 1)
    return [i * step - math.pi for i in range(resolution - 1)] + [math.pi]


class BandInterval(Record):
    """[lower, upper] for one mode branch, pad already applied on both ends;
    length is eps^{2m} (max - min) Lambda1 (None when undetermined), taken
    at extrema_eta, where the unpadded minimum and maximum were found."""

    mode: ModeIndex
    lower: float
    upper: float
    pad: float
    length: float | None
    extrema_eta: tuple[FloquetPoint, FloquetPoint]

    @property
    def undetermined(self) -> bool:
        return self.length is None

    @property
    def width(self) -> float:
        return self.upper - self.lower


def band_interval(
    mode: ModeIndex, params: ExpansionParams, grid_resolution: int = 33
) -> BandInterval:
    """Band of one mode branch; grid scan of Lambda1 cross-checked against
    the analytic extremizer candidates."""
    if grid_resolution < 3:
        raise ValueError(
            "grid_resolution must be >= 3, got %r" % (grid_resolution,)
        )
    lam0 = limit_eigenvalue(mode)
    pad = params.pad
    if branch_for(mode) is Branch.UNDETERMINED:
        origin = FloquetPoint(0.0, 0.0)
        return BandInterval(mode, lam0 - pad, lam0 + pad, pad, None, (origin, origin))

    axis = floquet_axis(grid_resolution)
    lo, lo_eta, hi, hi_eta = lambda1_extremes(mode, axis)

    # closed-form extrema land on the half-angle lattice {0, pi}^2.  An axis
    # whose middle point is 0.0 (most odd grids; +-pi always) holds every
    # lattice point, and there the grid scan and the candidate list must
    # agree bitwise; elsewhere they agree to grid tolerance
    cand_lo, cand_lo_eta, cand_hi, cand_hi_eta = lattice_extremes(mode)
    if axis[len(axis) // 2] == 0.0:
        disagree = lo != cand_lo or hi != cand_hi
    else:
        step = 2.0 * math.pi / (grid_resolution - 1)
        slack = 0.75 * max(abs(cand_lo), abs(cand_hi), 1.0) * step * step
        disagree = lo < cand_lo - slack or hi > cand_hi + slack or cand_lo < lo - slack or cand_hi > hi + slack
    if disagree:
        raise InternalConsistencyError(
            "grid extrema of Lambda1 for %s disagree with analytic candidates: "
            "grid [%r, %r], candidates [%r, %r]"
            % (mode.label(), lo, hi, cand_lo, cand_hi)
        )
    # keep the sharper extremizer from either route (on an axis that holds
    # 0.0 the two coincide)
    if cand_lo < lo:
        lo, lo_eta = cand_lo, cand_lo_eta
    if cand_hi > hi:
        hi, hi_eta = cand_hi, cand_hi_eta

    scalef = params.first_order_scale
    return BandInterval(
        mode,
        lam0 + scalef * lo - pad,
        lam0 + scalef * hi + pad,
        pad,
        scalef * (hi - lo),
        (lo_eta, hi_eta),
    )


def band_length(mode: ModeIndex, params: ExpansionParams) -> float | None:
    """Closed-form first-order band length eps^{2m} (max - min) Lambda1 of
    the branch pair containing `mode` (both branches of a double mode sweep
    bands whose union has this width); None for n = 0 (mod 4), where the
    first-order term vanishes and the width is only O(eps^{2m})."""
    span = lambda1_range(mode.n, mode.k)
    return None if span is None else span * params.first_order_scale


def _check_band_length(m: ModeIndex, params: ExpansionParams, length: float) -> None:
    # the grid route must reproduce the closed-form leading width
    if branch_for(m) is Branch.COSINE:
        if not (abs(length) <= 1e-12):
            raise InternalConsistencyError(
                "flat branch %s reported nonzero first-order length %r"
                % (m.label(), length)
            )
        return
    # band_table checks determined bands only, whose closed form is a number
    expected = band_length(m, params)
    if not (abs(length - expected) <= 1e-8 * abs(expected)):
        raise InternalConsistencyError(
            "band length mismatch for %s: swept %r vs closed form %r"
            % (m.label(), length, expected)
        )


def swept_band_width(
    n: int, k: int, params: ExpansionParams, resolution: int = 33
) -> float:
    """Swept width of the union of branch bands of (n, k), pad excluded: the
    simple or sine band's length, whose range holds the cosine branch's
    Lambda1 = 0; independent route to `band_length` for cross-checking."""
    mode = ModeIndex(n, k, Parity.SIMPLE if n == 0 else Parity.SINE)
    if branch_for(mode) is Branch.UNDETERMINED:
        raise ValueError(
            "band width of (n, k) = (%d, %d) is undetermined at first order" % (n, k)
        )
    return band_interval(mode, params, resolution).length


class GapReport(Record):
    """Certification verdict for the slot between two consecutive bands.
    `reason` names the obstruction when `certified` is False."""

    below: ModeIndex
    above: ModeIndex
    gap_lower: float
    gap_upper: float
    certified: bool
    reason: str | None = None


def _first_order_flat_pair(below: ModeIndex, above: ModeIndex) -> bool:
    # a fixed parity convention: an odd-n band below a simple or n = 2 (mod 4)
    # band is labelled first-order-flat.  The swept bands do not follow it,
    # since each band's direction is the sign of J_n'(j_{n,k}) and flips with
    # k: at the defaults (1,1s) spans [58.728, 59.224], above its Lambda0, and
    # (2,1s) spans [105.187, 105.498], below its Lambda0.  Acceptance
    # criterion 7 and three goldens pin the label as it stands; ROADMAP item
    # 1 examines the signs involved
    below_odd = below.n % 2 == 1
    above_up = above.n == 0 or above.n % 4 == 2
    return below_odd and above_up


def band_table(
    count: int,
    params: ExpansionParams,
    grid_resolution: int = 33,
    error_constants: dict[tuple[int, int], float] | None = None,
) -> list[BandInterval]:
    """Band interval of each of the first `count` limit modes; each swept
    length is checked against `band_length`.  Per-mode error constants
    override params.error_constant."""
    table: list[BandInterval] = []
    for m in enumerate_spectrum(count):
        mode_params = params
        if error_constants is not None and (m.n, m.k) in error_constants:
            mode_params = replace(params, error_constant=error_constants[(m.n, m.k)])
        band = band_interval(m, mode_params, grid_resolution)
        if band.length is not None:
            _check_band_length(m, mode_params, band.length)
        table.append(band)
    return table


def detect_gaps(
    spectrum_prefix: int,
    params: ExpansionParams,
    grid_resolution: int = 33,
    error_constants: dict[tuple[int, int], float] | None = None,
) -> list[GapReport]:
    """Gap reports for each adjacent pair among the first `spectrum_prefix`
    limit modes.  Per-mode error constants override params.error_constant.
    Non-certification reasons, in precedence order: undetermined-band,
    shared-leading-term, first-order-flat, pads-overlap."""
    if spectrum_prefix < 2:
        raise ValueError(
            "spectrum_prefix must be >= 2, got %r" % (spectrum_prefix,)
        )
    bands = band_table(spectrum_prefix, params, grid_resolution, error_constants)
    return gap_reports(bands, params)


def gap_reports(
    bands: list[BandInterval], params: ExpansionParams
) -> list[GapReport]:
    """Gap reports for each adjacent pair of `bands`, as `band_table`
    returns them; `params` supplies eps and m for the pad-versus-first-order
    warning."""
    # asymptotic-regime guard: eps^gamma must stay below the first-order
    # widths eps^{2m} * range, else pads can swamp the model
    lengths = [b.length for b in bands if b.length is not None and b.length > 0.0]
    if lengths and params.epsilon**params.gamma >= min(lengths):
        warnings.warn(
            "eps^gamma = %.3g is not below the smallest first-order band "
            "range %.3g; error pads can swamp the first-order model at "
            "eps = %g" % (params.epsilon**params.gamma, min(lengths), params.epsilon),
            UserWarning,
            stacklevel=2,
        )

    reports: list[GapReport] = []
    for below, above in zip(bands, bands[1:]):
        lower, upper = below.upper, above.lower
        reason: str | None = None
        if below.undetermined or above.undetermined:
            reason = "undetermined-band"
        elif below.mode.n == above.mode.n and below.mode.k == above.mode.k:
            # cosine/sine branches of one double eigenvalue share Lambda0 and
            # overlap at every eta where the trace vanishes
            reason = "shared-leading-term"
        elif _first_order_flat_pair(below.mode, above.mode):
            reason = "first-order-flat"
        elif upper <= lower:
            reason = "pads-overlap"
        reports.append(
            GapReport(below.mode, above.mode, lower, upper, reason is None, reason)
        )
    return reports


def brillouin_sweep(
    mode: ModeIndex, params: ExpansionParams, resolution: int = 33
) -> tuple[list[float], list[float]]:
    """Two-term eigenvalue sampled over the closed grid.  Returns the axis,
    reduced into [-pi, pi) (so its closing pi reads -pi), and the values at
    (axis[i], axis[j]), flattened row-major over eta1."""
    axis = [reduce_angle(a) for a in floquet_axis(resolution)]
    lam0 = limit_eigenvalue(mode)
    if branch_for(mode) is Branch.UNDETERMINED:
        return axis, [lam0] * (resolution * resolution)
    scale = params.first_order_scale
    return axis, [lam0 + scale * v for v in lambda1_grid(mode, axis)]
