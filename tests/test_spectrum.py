"""Limit spectrum enumeration and disk eigenfunctions."""

import math

import pytest

from diskbands import (
    DiskEigenfunction,
    ModeIndex,
    Parity,
    RadialMesh,
    bessel_zero,
    disk_dirichlet_eigenvalues,
    eigenfunction_eval,
    enumerate_spectrum,
    limit_eigenvalue,
)


def test_first_twelve_modes_in_order():
    expected = [
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
    rows = enumerate_spectrum(12)
    assert [(p.mode.n, p.mode.k, p.mode.parity.value) for p in rows] == expected


def test_values_are_scaled_squared_zeros():
    for pair in enumerate_spectrum(12):
        z = bessel_zero(pair.mode.n, pair.mode.k).value
        assert pair.lambda0 == pytest.approx(4.0 * z * z, rel=1e-15)


def test_values_nondecreasing_and_multiplicity():
    rows = enumerate_spectrum(20)
    values = [p.lambda0 for p in rows]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for pair in rows:
        assert pair.multiplicity == (1 if pair.mode.n == 0 else 2)
        assert pair.zero.n == pair.mode.n and pair.zero.k == pair.mode.k


def test_cosine_precedes_sine_at_shared_value():
    rows = enumerate_spectrum(20)
    for a, b in zip(rows, rows[1:]):
        if (a.mode.n, a.mode.k) == (b.mode.n, b.mode.k):
            assert a.mode.parity is Parity.COSINE
            assert b.mode.parity is Parity.SINE


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
    f = DiskEigenfunction(ModeIndex(2, 1, Parity.COSINE), 1.0, 0.5)
    for theta in (0.0, 0.9, 2.2, 4.0):
        assert abs(eigenfunction_eval(f, 0.5, theta)) < 1e-12


def test_eigenfunction_input_validation():
    with pytest.raises(ValueError):
        DiskEigenfunction(ModeIndex(0, 1, Parity.SIMPLE), 1.0, 1.0)
    f = DiskEigenfunction(ModeIndex(1, 1, Parity.COSINE), 1.0)
    with pytest.raises(ValueError):
        eigenfunction_eval(f, 0.6, 0.0)
    with pytest.raises(ValueError):
        eigenfunction_eval(f, -0.1, 0.0)


def test_eigenfunction_solves_polar_helmholtz():
    # u_rr + u_r/r + u_tt/r^2 + lambda0 u = 0, via second-order differences
    mode = ModeIndex(3, 2, Parity.COSINE)
    lam0 = limit_eigenvalue(mode).lambda0
    f = DiskEigenfunction(mode, 1.0)
    h = 1e-4

    def u(r, theta):
        return eigenfunction_eval(f, r, theta).real

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
            exact = limit_eigenvalue(ModeIndex(n, k, parity)).lambda0
            assert approx == pytest.approx(exact, rel=2e-5)


def test_enumerate_count_validation():
    with pytest.raises(ValueError):
        enumerate_spectrum(0)
    assert len(enumerate_spectrum(7)) == 7


def test_angular_dependence():
    mode = ModeIndex(2, 1, Parity.SINE)
    f = DiskEigenfunction(mode, 0.0, 1.0)
    val = eigenfunction_eval(f, 0.25, 0.3)
    ref = eigenfunction_eval(DiskEigenfunction(mode, 1.0, 0.0), 0.25, 0.0)
    assert val == pytest.approx(ref * math.sin(2 * 0.3), rel=1e-12)
