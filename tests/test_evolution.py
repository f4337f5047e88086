"""Coherent-state path of a single branch: quadrature route and sampled sweep."""

import numpy as np
import pytest

from ringsagnac import (
    Branch,
    BranchEvolution,
    ConfigurationError,
    InsufficientResolution,
    ProfileFamily,
    QuadratureNonConvergence,
    TimeOutOfRange,
    TrapConfig,
    alpha_at,
    make_profile,
    phi_at,
    sample_trajectory,
    spectrum_numeric,
    zero_profile,
)


@pytest.fixture
def flat(natural):
    return make_profile(ProfileFamily.FLAT, 2 * np.pi)


def test_vacuum_start(natural, flat):
    assert alpha_at(natural, flat, Branch.CO, 0.0) == 0.0 + 0.0j
    assert phi_at(natural, flat, Branch.CO, 0.0) == 0.0


def test_alpha_midpoint_flat(natural, flat):
    # frozen against the exact constant-drive solution
    # alpha(t) = -(lambda / hbar w0) e^{-i w0 t} (e^{i w0 t} - 1)
    value = alpha_at(natural, flat, Branch.CO, np.pi)
    assert value == pytest.approx(0.848528137423857j, abs=1e-12)


def test_phase_endpoints_flat(natural, flat):
    # frozen against the constant-drive closed form (lambda/hbar)^2 (w0 T / 2) / w0^2
    assert phi_at(natural, flat, Branch.CO, 2 * np.pi) == pytest.approx(
        1.1309733552923256, rel=1e-10
    )
    assert phi_at(natural, flat, Branch.COUNTER, 2 * np.pi) == pytest.approx(
        0.5026548245743669, rel=1e-10
    )


def test_time_window_enforced(natural, flat):
    for t in (-0.1, 2 * np.pi + 0.1):
        with pytest.raises(TimeOutOfRange):
            alpha_at(natural, flat, Branch.CO, t)
        with pytest.raises(TimeOutOfRange):
            phi_at(natural, flat, Branch.CO, t)


def test_zero_drive_stays_at_vacuum():
    still = TrapConfig(rotation=0.0)
    profile = zero_profile(4.0)
    ev = sample_trajectory(still, profile, Branch.CO, 64)
    np.testing.assert_array_equal(ev.alphas, np.zeros(65, dtype=complex))
    np.testing.assert_array_equal(ev.phases, np.zeros(65))
    np.testing.assert_array_equal(ev.abs2_integrals, np.zeros(65))


def test_trajectory_grid_shape(natural, flat):
    ev = sample_trajectory(natural, flat, Branch.CO, 100)
    assert ev.times.shape == (101,)
    np.testing.assert_allclose(np.diff(ev.times), 2 * np.pi / 100, rtol=1e-12)
    assert ev.duration == pytest.approx(2 * np.pi, rel=1e-15)
    for arr in (ev.alphas, ev.alpha_dots, ev.phases, ev.abs2_integrals):
        assert arr.shape == (101,)


def test_minimum_resolution(natural, flat):
    with pytest.raises(InsufficientResolution):
        sample_trajectory(natural, flat, Branch.CO, 8)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_sample_count_below_one_is_a_configuration_error(natural, flat, n_samples):
    with pytest.raises(ConfigurationError):
        sample_trajectory(natural, flat, Branch.CO, n_samples)


def test_nan_error_estimate_fails_the_budget(flat):
    # omega0 T overflows, quad returns NaN with a NaN error estimate
    extreme = TrapConfig(trap_frequency=1e308)
    with pytest.raises(QuadratureNonConvergence):
        alpha_at(extreme, flat, Branch.CO, flat.duration)
    with pytest.raises(QuadratureNonConvergence):
        phi_at(extreme, flat, Branch.CO, flat.duration)


@pytest.mark.parametrize("family", [ProfileFamily.SINUSOIDAL, ProfileFamily.TABULATED])
def test_trajectory_endpoint_matches_quadrature(natural, family, random_profile):
    if family is ProfileFamily.TABULATED:
        profile = random_profile(np.random.default_rng(7))
    else:
        profile = make_profile(family, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.COUNTER, 512)
    assert abs(ev.final_alpha - alpha_at(natural, profile, Branch.COUNTER, profile.duration)) < 1e-8
    assert abs(ev.final_phase - phi_at(natural, profile, Branch.COUNTER, profile.duration)) < 1e-8


def test_trajectory_interior_matches_quadrature(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 5.0)
    ev = sample_trajectory(natural, profile, Branch.CO, 200)
    for idx in (37, 100, 163):
        t = ev.times[idx]
        assert abs(ev.alphas[idx] - alpha_at(natural, profile, Branch.CO, t)) < 1e-10
        assert abs(ev.phases[idx] - phi_at(natural, profile, Branch.CO, t)) < 1e-8


def test_path_closure_at_design_durations(natural):
    # at u = 2 pi both branch spectra vanish, so the loops close
    for family in (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL):
        ev = sample_trajectory(natural, make_profile(family, 2 * np.pi), Branch.CO, 256)
        assert abs(ev.final_alpha) < 1e-10


def test_alpha_linear_phase_quadratic_in_drive():
    # with omega_P switched off the drive is proportional to the rotation
    # rate, alpha is linear in it and the accumulated phase quadratic
    profile = zero_profile(3.0)
    base = TrapConfig(rotation=0.1)
    tripled = TrapConfig(rotation=0.3)
    t = 2.2
    a1 = alpha_at(base, profile, Branch.CO, t)
    a3 = alpha_at(tripled, profile, Branch.CO, t)
    assert a3 == pytest.approx(3 * a1, rel=1e-10)
    p1 = phi_at(base, profile, Branch.CO, t)
    p3 = phi_at(tripled, profile, Branch.CO, t)
    assert p3 == pytest.approx(9 * p1, rel=1e-8)


def test_branch_separation_matches_spectrum(natural, random_profile):
    # alpha_co(T) - alpha_counter(T) = -2 r sqrt(pi m w0 / hbar)
    #                                  * conj(W(w0)) * exp(-i w0 T)
    rng = np.random.default_rng(41)
    for _ in range(3):
        profile = random_profile(rng)
        T = profile.duration
        a0 = alpha_at(natural, profile, Branch.CO, T)
        a1 = alpha_at(natural, profile, Branch.COUNTER, T)
        w = spectrum_numeric(profile, 1.0).value
        expected = -2 * np.sqrt(np.pi) * w.conjugate() * np.exp(-1j * T)
        assert abs((a0 - a1) - expected) < 1e-8


def test_alpha_dots_consistent_with_path(natural):
    profile = make_profile(ProfileFamily.COSINUSOIDAL, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.CO, 4096)
    h = ev.times[1] - ev.times[0]
    fd = (ev.alphas[2:] - ev.alphas[:-2]) / (2 * h)
    assert np.max(np.abs(fd - ev.alpha_dots[1:-1])) < 1e-5


def test_abs2_integral_consistent_with_path(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.CO, 4096)
    assert ev.abs2_integrals[0] == 0.0
    assert np.all(np.diff(ev.abs2_integrals) >= 0)
    trapz = np.trapezoid(np.abs(ev.alphas) ** 2, ev.times)
    assert ev.abs2_integrals[-1] == pytest.approx(trapz, rel=1e-6)


def test_path_validation():
    ts = np.linspace(0.0, 1.0, 8)
    zeros = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts + 0.5, zeros, zeros, np.zeros(8))
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts, zeros + 1.0, zeros, np.zeros(8))
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts, zeros, zeros, np.zeros(8), np.ones(8))
