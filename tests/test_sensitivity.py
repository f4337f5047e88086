"""Rotation-rate uncertainty and the Fisher-information bound."""

import numpy as np
import pytest

from ringsagnac import (
    ConvergenceError,
    ProfileFamily,
    TrapConfig,
    make_profile,
    readout,
    sensitivity_report,
)
from ringsagnac.sensitivity import _delta_omega_raw

TWO_PI = 2 * np.pi


def test_design_point_report(natural):
    # flat scheme at T = 2 pi: slope 2 pi, uncertainty 1/(2 pi), and the
    # signal Fisher information saturates the quantum bound (2 pi)^2
    profile = make_profile(ProfileFamily.FLAT, TWO_PI)
    report = sensitivity_report(natural, profile)
    assert report.delta_omega == pytest.approx(0.15915494309189535, rel=1e-12)
    assert report.signal_fisher == pytest.approx(39.47841760435743, rel=1e-10)
    assert report.qfi == pytest.approx(39.47841760435743, rel=1e-12)
    assert report.qfi_valid
    assert report.saturated
    assert not report.limit_evaluated
    assert report.signal_fisher == pytest.approx(report.qfi, rel=1e-10)


def test_slope_and_qfi_at_design_points(natural):
    # every spectrum-zero scheme has the same slope 2 pi m r^2 / hbar
    for family, T in (
        (ProfileFamily.FLAT, TWO_PI),
        (ProfileFamily.SINUSOIDAL, TWO_PI),
        (ProfileFamily.COSINUSOIDAL, 2 * TWO_PI),
    ):
        profile = make_profile(family, T)
        assert readout(natural, profile).phase_slope == pytest.approx(TWO_PI, rel=1e-12)
        assert sensitivity_report(natural, profile).qfi == pytest.approx(TWO_PI**2, rel=1e-12)


def test_degraded_point(natural):
    # flat profile at half the design time: contrast exp(-4) blows up the
    # uncertainty by about two orders of magnitude
    profile = make_profile(ProfileFamily.FLAT, np.pi)
    report = sensitivity_report(natural, profile)
    assert report.delta_omega == pytest.approx(14.781948715199366, rel=1e-10)
    assert not report.saturated
    assert not report.qfi_valid
    assert report.qfi is None


def test_qfi_requires_integer_periods(natural):
    report = sensitivity_report(natural, make_profile(ProfileFamily.FLAT, 5.0))
    assert report.qfi is None and not report.qfi_valid


def test_overflowing_fisher_information_is_refused():
    # 2 pi m r^2 / hbar is finite at hbar = 1e-300, and so is the readout,
    # but its square is not: the report refuses instead of returning inf
    tiny = TrapConfig(hbar=1e-300)
    profile = make_profile(ProfileFamily.FLAT, TWO_PI)
    assert np.isfinite(readout(tiny, profile).phase)
    with pytest.raises(ConvergenceError):
        sensitivity_report(tiny, profile)
    # off the integer-period grid there is no QFI, and the lost signal is
    # an infinite uncertainty with zero Fisher information
    off_grid = sensitivity_report(tiny, make_profile(ProfileFamily.FLAT, 5.0))
    assert off_grid.qfi is None
    assert off_grid.delta_omega == np.inf
    assert off_grid.signal_fisher == 0.0


def test_limit_point():
    # zero rotation: sin(phi_I) = 0 at full contrast, where the formula's
    # 0/0 limit is the slope-only uncertainty
    still = TrapConfig(rotation=0.0)
    profile = make_profile(ProfileFamily.FLAT, TWO_PI)
    report = sensitivity_report(still, profile)
    assert report.limit_evaluated
    assert report.delta_omega == pytest.approx(1 / TWO_PI, rel=1e-12)


def _excess(contrast: float) -> float:
    """|C|^-2 - 1, the first argument of the uncertainty formula."""
    return 1 / contrast**2 - 1


def test_point_formula_branches():
    # zero slope: no information at all
    assert _delta_omega_raw(_excess(1.0), 0.3, 0.0) == (np.inf, False)
    # fringe extremum with degraded contrast: first-order blind spot
    assert _delta_omega_raw(_excess(0.5), 0.0, 2.0) == (np.inf, False)
    # fringe extremum at full contrast: limit value
    value, limit = _delta_omega_raw(_excess(1.0), 0.0, 2.0)
    assert limit and value == pytest.approx(0.5, rel=1e-12)
    # generic point against the explicit formula
    excess, phase, slope = _excess(0.8), 0.7, 2.0
    s = np.sin(phase)
    expected = np.sqrt(excess + s * s) / abs(slope * s)
    value, limit = _delta_omega_raw(excess, phase, slope)
    assert not limit and value == pytest.approx(expected, rel=1e-12)


def test_uncertainty_against_finite_difference(natural):
    # independent route: propagate a small rotation change through the
    # full readout and compare delta P / |dP/dOmega| at unit variance
    profile = make_profile(ProfileFamily.FLAT, TWO_PI)
    h = 1e-6
    plus = readout(TrapConfig(rotation=0.1 + h), profile).signal
    minus = readout(TrapConfig(rotation=0.1 - h), profile).signal
    slope_p = (plus - minus) / (2 * h)
    base = readout(natural, profile)
    # population variance of the two-outcome measurement: 1 - P^2
    sigma_p = np.sqrt(1 - base.signal**2)
    report = sensitivity_report(natural, profile)
    assert report.delta_omega == pytest.approx(sigma_p / abs(slope_p), rel=1e-6)
