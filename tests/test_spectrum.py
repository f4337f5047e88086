"""Sweep-profile transform: closed forms, quadrature route, and derivative."""

import numpy as np
import pytest

from ringsagnac import (
    ConfigurationError,
    ProfileFamily,
    UnsupportedFamily,
    make_profile,
    spectrum_closed_form,
    spectrum_derivative,
    spectrum_numeric,
)

HALF_PI_SQRT = 1.2533141373155001  # sqrt(pi/2)

ANALYTIC = [ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL]


@pytest.mark.parametrize("family", ANALYTIC)
def test_zero_frequency_value(family):
    # W(0) = (1/sqrt(2 pi)) * integral of omega_P = sqrt(pi/2) for every
    # admissible profile
    value = spectrum_closed_form(family, 5.7, 0.0).value
    assert value.real == pytest.approx(HALF_PI_SQRT, rel=1e-15)
    assert value.imag == 0.0


def test_zero_frequency_value_tabulated(random_profile):
    rng = np.random.default_rng(3)
    for _ in range(5):
        profile = random_profile(rng)
        value = spectrum_numeric(profile, 0.0).value
        assert value.real == pytest.approx(HALF_PI_SQRT, rel=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_flat_quarter_frequency():
    # T = 2 pi, omega = 0.5: u = pi, so Re = 0 and Im = -sqrt(pi/2)*2/pi
    value = spectrum_closed_form(ProfileFamily.FLAT, 2 * np.pi, 0.5).value
    assert value.real == pytest.approx(0.0, abs=1e-16)
    assert value.imag == pytest.approx(-0.7978845608028654, rel=1e-15)


def test_cosinusoidal_removable_point():
    # the u = 2 pi quotient is 0/0 with finite limit -sqrt(pi/2)/2
    value = spectrum_closed_form(ProfileFamily.COSINUSOIDAL, 2 * np.pi, 1.0).value
    assert value.real == pytest.approx(-0.6266570686577501, rel=1e-15)
    assert value.imag == pytest.approx(0.0, abs=1e-16)


def test_sinusoidal_zero_at_fundamental():
    value = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 2 * np.pi, 1.0).value
    assert value == 0.0 + 0.0j


@pytest.mark.parametrize(
    "family,durations",
    [
        (ProfileFamily.FLAT, [2 * np.pi, 4 * np.pi, 6 * np.pi]),
        (ProfileFamily.SINUSOIDAL, [2 * np.pi, 6 * np.pi]),
        (ProfileFamily.COSINUSOIDAL, [4 * np.pi, 6 * np.pi]),
    ],
)
def test_design_zeros(family, durations):
    # the families vanish at u = 2K pi (flat), u = 2(2L+1) pi (sinusoidal),
    # and u = 2M pi with M >= 2 (cosinusoidal)
    for T in durations:
        value = spectrum_closed_form(family, T, 1.0).value
        assert abs(value) < 1e-15


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_matches_quadrature(family):
    rng = np.random.default_rng(17)
    T = 2 * np.pi
    profile = make_profile(family, T)
    for omega in rng.uniform(0.0, 4.0, size=30):
        closed = spectrum_closed_form(family, T, omega).value
        numeric = spectrum_numeric(profile, omega).value
        assert abs(closed - numeric) < 1e-10


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_near_removable_points(family):
    # walk a dense ladder across the factored-form window edges
    T = 3.1
    for d in np.logspace(-12, -1, 40):
        for u0 in (0.0, 2 * np.pi):
            omega = (u0 + d) / T
            closed = spectrum_closed_form(family, T, omega).value
            numeric = spectrum_numeric(make_profile(family, T), omega).value
            assert abs(closed - numeric) < 1e-10


def test_conjugate_symmetry():
    profile = make_profile(ProfileFamily.SINUSOIDAL, 5.0)
    for omega in (0.3, 1.7):
        plus = spectrum_numeric(profile, omega).value
        minus = spectrum_numeric(profile, -omega).value
        assert minus == pytest.approx(plus.conjugate(), rel=1e-13)
        c_plus = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 5.0, omega).value
        c_minus = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 5.0, -omega).value
        assert c_minus == c_plus.conjugate()


def test_tabulated_has_no_closed_form():
    with pytest.raises(UnsupportedFamily):
        spectrum_closed_form(ProfileFamily.TABULATED, 1.0, 1.0)


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_rejects_overflowing_argument(family):
    # omega T overflows to inf, where the closed forms give NaN
    with pytest.raises(ConfigurationError):
        spectrum_closed_form(family, 2 * np.pi, 1e308)


def test_method_tags():
    assert spectrum_closed_form(ProfileFamily.FLAT, 1.0, 1.0).method == "closed-form"
    profile = make_profile(ProfileFamily.FLAT, 1.0)
    assert spectrum_numeric(profile, 1.0).method == "quadrature"


@pytest.mark.parametrize(
    "family,duration,expected",
    [
        # frozen against the central-difference oracle on the closed forms
        (ProfileFamily.FLAT, 2 * np.pi, 1.2533141373155001),
        (ProfileFamily.SINUSOIDAL, 2 * np.pi, 1.5462143406995714),
        (ProfileFamily.COSINUSOIDAL, 4 * np.pi, -0.4177713791051667),
    ],
)
def test_derivative_at_design_points(family, duration, expected):
    profile = make_profile(family, duration)
    assert spectrum_derivative(profile, 1.0) == pytest.approx(expected, rel=1e-10)


def test_derivative_matches_finite_difference(random_profile):
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(5):
        profile = random_profile(rng)
        omega = float(rng.uniform(0.2, 2.0))
        fd = (
            spectrum_numeric(profile, omega + h).value.real
            - spectrum_numeric(profile, omega - h).value.real
        ) / (2 * h)
        assert spectrum_derivative(profile, omega) == pytest.approx(fd, abs=1e-6)


def test_derivative_odd_in_frequency():
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    assert spectrum_derivative(profile, 0.0) == 0.0
    plus = spectrum_derivative(profile, 0.7)
    minus = spectrum_derivative(profile, -0.7)
    assert minus == pytest.approx(-plus, rel=1e-13)
