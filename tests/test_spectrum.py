"""Limit spectrum enumeration and disk eigenfunctions."""

import copy
import math
import pickle

import pytest

from diskbands import (
    BandInterval,
    Check,
    ExpansionParams,
    FloquetPoint,
    GapReport,
    ModeIndex,
    Parity,
    RadialMesh,
    bessel_j,
    bessel_zero,
    disk_dirichlet_eigenvalues,
    eigenfunction_eval,
    enumerate_spectrum,
    limit_eigenvalue,
)
from diskbands import bessel, cli
from diskbands.corrections import Expansion, MultipleCorrection
from diskbands.spectrum import replace


FIRST_TWELVE = [
    (0, 1, "simple"),
    (1, 1, "c"),
    (1, 1, "s"),
    (2, 1, "c"),
    (2, 1, "s"),
    (0, 2, "simple"),
    (3, 1, "c"),
    (3, 1, "s"),
    (1, 2, "c"),
    (1, 2, "s"),
    (4, 1, "c"),
    (4, 1, "s"),
]


def test_first_twelve_modes_in_order():
    rows = enumerate_spectrum(12)
    assert [(m.n, m.k, m.parity.value) for m in rows] == FIRST_TWELVE


def test_layers_return_numbers_and_modes():
    # a zero is a float, Lambda0 is the float 4 z z to the bit, the spectrum
    # lists ModeIndex values, and the angular coefficients go straight to
    # eigenfunction_eval
    for n, k in ((0, 1), (0, 7), (3, 2), (7, 30)):
        z = bessel_zero(n, k)
        assert type(z) is float
        parities = (Parity.SIMPLE,) if n == 0 else (Parity.COSINE, Parity.SINE)
        for parity in parities:
            assert limit_eigenvalue(ModeIndex(n, k, parity)).hex() == (4.0 * z * z).hex()
    modes = enumerate_spectrum(12)
    assert all(type(m) is ModeIndex for m in modes)
    assert modes == [ModeIndex(n, k, Parity(p)) for n, k, p in FIRST_TWELVE]
    simple = ModeIndex(0, 2, Parity.SIMPLE)
    with pytest.raises(ValueError, match="simple modes carry no sine coefficient"):
        eigenfunction_eval(simple, 0.25, 0.0, 1.0, 0.5)
    z = bessel_zero(0, 2)
    assert eigenfunction_eval(simple, 0.25, 0.0, 2.0) == 2.0 * bessel_j(0, 0.5 * z)


def test_values_are_scaled_squared_zeros():
    for mode in enumerate_spectrum(12):
        z = bessel_zero(mode.n, mode.k)
        assert limit_eigenvalue(mode) == pytest.approx(4.0 * z * z, rel=1e-15)


def test_values_nondecreasing_and_multiplicity():
    rows = enumerate_spectrum(20)
    values = [limit_eigenvalue(m) for m in rows]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_cosine_precedes_sine_at_shared_value():
    rows = enumerate_spectrum(20)
    for a, b in zip(rows, rows[1:]):
        if (a.n, a.k) == (b.n, b.k):
            assert a.parity is Parity.COSINE
            assert b.parity is Parity.SINE


def test_mode_index_validation():
    with pytest.raises(ValueError):
        ModeIndex(0, 1, Parity.COSINE)
    with pytest.raises(ValueError):
        ModeIndex(2, 1, Parity.SIMPLE)
    with pytest.raises(ValueError):
        ModeIndex(-1, 1, Parity.SIMPLE)
    with pytest.raises(ValueError):
        ModeIndex(1, 0, Parity.COSINE)
    assert ModeIndex(3, 2, Parity.SINE).label() == "3,2,s"


def test_bool_orders_and_counts_rejected():
    # bool is an int subclass; bessel_zero rejects it, and so do these
    for n, k, parity in ((True, 1, Parity.COSINE), (False, 1, Parity.SIMPLE),
                         (1, True, Parity.COSINE), (0, True, Parity.SIMPLE)):
        with pytest.raises(ValueError):
            ModeIndex(n, k, parity)
    with pytest.raises(ValueError):
        ModeIndex(True, 1, "c")
    for count in (True, False):
        with pytest.raises(ValueError):
            enumerate_spectrum(count)


def test_eigenfunction_vanishes_on_boundary():
    mode = ModeIndex(2, 1, Parity.COSINE)
    for theta in (0.0, 0.9, 2.2, 4.0):
        assert abs(eigenfunction_eval(mode, 0.5, theta, 1.0, 0.5)) < 1e-12


def test_eigenfunction_input_validation():
    with pytest.raises(ValueError):
        eigenfunction_eval(ModeIndex(0, 1, Parity.SIMPLE), 0.25, 0.0, 1.0, 1.0)
    mode = ModeIndex(1, 1, Parity.COSINE)
    with pytest.raises(ValueError):
        eigenfunction_eval(mode, 0.6, 0.0, 1.0)
    with pytest.raises(ValueError):
        eigenfunction_eval(mode, -0.1, 0.0, 1.0)


def test_eigenfunction_solves_polar_helmholtz():
    # u_rr + u_r/r + u_tt/r^2 + lambda0 u = 0, via second-order differences
    mode = ModeIndex(3, 2, Parity.COSINE)
    lam0 = limit_eigenvalue(mode)
    h = 1e-4

    def u(r, theta):
        return eigenfunction_eval(mode, r, theta, 1.0).real

    for r, theta in ((0.17, 0.4), (0.29, 1.1), (0.41, 2.7)):
        u0 = u(r, theta)
        urr = (u(r + h, theta) - 2.0 * u0 + u(r - h, theta)) / h**2
        ur = (u(r + h, theta) - u(r - h, theta)) / (2.0 * h)
        utt = (u(r, theta + h) - 2.0 * u0 + u(r, theta - h)) / h**2
        residual = urr + ur / r + utt / r**2 + lam0 * u0
        assert abs(residual) < 1e-4 * lam0 * max(abs(u0), 0.05)


def test_limit_values_match_radial_solver():
    mesh = RadialMesh(512)
    for n in (0, 1, 2):
        numeric = disk_dirichlet_eigenvalues(n, 2, mesh)
        for k, approx in enumerate(numeric, start=1):
            parity = Parity.SIMPLE if n == 0 else Parity.COSINE
            exact = limit_eigenvalue(ModeIndex(n, k, parity))
            assert approx == pytest.approx(exact, rel=2e-5)


def test_lazy_heap_lists_the_sorted_zeros(cold_zeros):
    # every prefix of the spectrum is the reference sort by (j, n, k) of the
    # zeros in a box that holds every zero below the 600th mode's
    box = sorted((bessel_zero(n, k), n, k) for n in range(61) for k in range(1, 21))
    reference = [
        (n, k, p) for _, n, k in box for p in (("simple",) if n == 0 else ("c", "s"))
    ][:600]
    last = bessel_zero(*reference[-1][:2])
    assert last < min(bessel_zero(61, 1), bessel_zero(0, 21))
    for count in range(1, 601):
        assert [(m.n, m.k, m.parity.value) for m in enumerate_spectrum(count)] == reference[:count]


@pytest.mark.parametrize("count, most", [(1500, 770), (5000, 2530)])
def test_spectrum_finds_few_zeros_it_does_not_list(cold_zeros, capsys, count, most):
    # from cold caches the command finds 765 zeros for 1500 modes (763
    # listed) and 2,524 for 5000 (2,523 listed), where keying each order's
    # next zero by its value found 835 and 2,657
    assert cli.main(["spectrum", "--count", str(count)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == count + 1
    assert bessel._zero_value.cache_info().currsize <= most


def test_enumerate_count_validation():
    with pytest.raises(ValueError):
        enumerate_spectrum(0)
    assert len(enumerate_spectrum(7)) == 7


def test_angular_dependence():
    mode = ModeIndex(2, 1, Parity.SINE)
    val = eigenfunction_eval(mode, 0.25, 0.3, 0.0, 1.0)
    ref = eigenfunction_eval(mode, 0.25, 0.0, 1.0, 0.0)
    assert val == pytest.approx(ref * math.sin(2 * 0.3), rel=1e-12)


# ------------------------------------------------------------------ records
#
# The records are plain classes on spectrum.Record, not dataclasses; these
# pin what a frozen dataclass gave them.  The repr strings were written down
# from the dataclass versions.


def test_record_construction_by_position_keyword_and_default():
    by_position = ExpansionParams(0.1, 0.25, 2.0)
    assert ExpansionParams(m=0.25, error_constant=2.0, epsilon=0.1) == by_position
    assert ExpansionParams(0.1, m=0.25, error_constant=2.0) == by_position
    assert (by_position.epsilon, by_position.m, by_position.error_constant) == (0.1, 0.25, 2.0)
    assert ExpansionParams(0.1, 0.25).error_constant == 0.0
    mode = ModeIndex(1, 1, Parity.COSINE)
    assert GapReport(mode, mode, 1.0, 2.0, False).reason is None
    assert GapReport(mode, mode, 1.0, 2.0, False, "why").reason == "why"


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1, 2), {}),  # missing
        ((), {"n": 1, "k": 2}),  # missing, by keyword
        ((1, 2, Parity.COSINE), {"rank": 3}),  # unknown
        ((1, 2, Parity.COSINE, 3), {}),  # one too many
        ((1, 2, Parity.COSINE), {"n": 1}),  # duplicated
    ],
)
def test_record_rejects_bad_arguments(args, kwargs):
    with pytest.raises(TypeError):
        ModeIndex(*args, **kwargs)


def test_record_is_frozen():
    mode = ModeIndex(1, 2, Parity.COSINE)
    params = ExpansionParams(0.1, 0.25)
    for record, name in ((mode, "n"), (params, "error_constant"), (mode, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 3)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (mode.n, params.error_constant) == (1, 0.0)
    assert not hasattr(mode, "extra")


def test_record_equality_and_hash():
    mode = ModeIndex(1, 2, Parity.COSINE)
    same = ModeIndex(1, 2, Parity.COSINE)
    assert mode == same and not mode != same and mode is not same
    assert hash(mode) == hash(same) == hash((1, 2, Parity.COSINE))
    assert mode != (1, 2, Parity.COSINE) and (1, 2, Parity.COSINE) != mode
    assert mode != ModeIndex(1, 2, Parity.SINE)
    assert {mode: "x"}[same] == "x"
    assert len({mode, same, ModeIndex(1, 2, Parity.SINE)}) == 2
    # equal fields of another record type are not equal
    assert Expansion(1.0, 0.5, False) != MultipleCorrection(1.0, 0.5, False)


def test_replace_reruns_validation():
    params = ExpansionParams(0.1, 0.25, 2.0)
    assert replace(params, m=0.3) == ExpansionParams(0.1, 0.3, 2.0)
    assert params == ExpansionParams(0.1, 0.25, 2.0)
    with pytest.raises(ValueError):
        replace(params, epsilon=1.5)
    zeroed = replace(params, error_constant=-0.0)
    assert math.copysign(1.0, zeroed.error_constant) == 1.0
    with pytest.raises(TypeError):
        replace(params, gamma=1.0)
    # FloquetPoint reduces its angles again
    assert replace(FloquetPoint(0.5, 0.5), eta2=7.0).eta2 == 7.0 - 2.0 * math.pi


def _band():
    mode = ModeIndex(0, 1, Parity.SIMPLE)
    etas = (FloquetPoint(-math.pi, 0.5), FloquetPoint(0.0, 7.0))
    return BandInterval(mode, 22.5, 25.75, 0.125, None, etas)


@pytest.mark.parametrize(
    "record",
    [ModeIndex(3, 1, Parity.SINE), ExpansionParams(0.1, 0.25, 2.0), _band(), Check("a", 1, 2.0, "d")],
    ids=type,
)
def test_record_pickle_and_deepcopy_round_trip(record):
    for copy_ in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copy_) is type(record)
        assert copy_ == record and hash(copy_) == hash(record)
        assert repr(copy_) == repr(record)


def test_record_repr_is_the_dataclass_repr():
    assert repr(ModeIndex(1, 2, Parity.COSINE)) == "ModeIndex(n=1, k=2, parity=<Parity.COSINE: 'c'>)"
    assert repr(ExpansionParams(m=0.25, epsilon=0.1, error_constant=-0.0)) == (
        "ExpansionParams(epsilon=0.1, m=0.25, error_constant=0.0)"
    )
    assert repr(_band()) == (
        "BandInterval(mode=ModeIndex(n=0, k=1, parity=<Parity.SIMPLE: 'simple'>), "
        "lower=22.5, upper=25.75, pad=0.125, length=None, "
        "extrema_eta=(FloquetPoint(eta1=-3.141592653589793, eta2=0.5), "
        "FloquetPoint(eta1=0.0, eta2=0.7168146928204138)))"
    )
