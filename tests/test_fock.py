"""Number-basis propagation backend and its cross-checks."""

import numpy as np
import pytest

from ringsagnac import fock

from ringsagnac import (
    Branch,
    ConfigurationError,
    ProfileFamily,
    StepCountInsufficient,
    TimeOutOfRange,
    TrapConfig,
    TruncationInsufficient,
    alpha_at,
    coherence_fock,
    evolve_fock,
    evolve_two_component,
    make_profile,
    phi_at,
    readout,
    zero_profile,
)


def test_undriven_vacuum_picks_up_zero_point_phase():
    # rotation off, sweep off: the vacuum only rotates by e^{-i w0 T / 2}
    still = TrapConfig(rotation=0.0)
    T = 2 * np.pi
    state = evolve_fock(still, zero_profile(T), Branch.CO, n_max=8, steps=256)
    expected = np.exp(-1j * T / 2)
    assert abs(state.amplitudes[0] - expected) < 1e-12
    assert np.max(np.abs(state.amplitudes[1:])) < 1e-12
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_flat_coherence_matches_closed_readout(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    coherence = coherence_fock(natural, profile, n_max=40, steps=4096)
    result = readout(natural, profile)
    assert abs(coherence) == pytest.approx(result.contrast, abs=1e-10)
    assert np.angle(coherence) == pytest.approx(result.principal_arg, abs=1e-10)


def test_mean_amplitude_matches_coherent_route(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    state = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=2048, until=np.pi)
    target = alpha_at(natural, profile, Branch.CO, np.pi)
    assert abs(state.mean_amplitude - target) < 1e-6
    assert state.time == np.pi
    assert state.branch is Branch.CO


def test_global_phase_matches_quadrature_route(natural):
    # vacuum overlap carries phi(T) on top of the zero-point turn
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    T = profile.duration
    for branch in (Branch.CO, Branch.COUNTER):
        state = evolve_fock(natural, profile, branch, n_max=40, steps=4096)
        alpha = alpha_at(natural, profile, branch, T)
        phi = phi_at(natural, profile, branch, T)
        # <alpha(T)| psi> = exp{i (phi - w0 T / 2)} for an exact run
        factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 40.0)]))
        coherent = np.exp(-np.abs(alpha) ** 2 / 2) * alpha ** np.arange(40) / np.sqrt(factorials)
        overlap = complex(np.vdot(coherent, state.amplitudes))
        assert abs(overlap - np.exp(1j * (phi - T / 2))) < 1e-6


def test_truncation_guard_trips(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(TruncationInsufficient):
        evolve_fock(natural, profile, Branch.CO, n_max=8, steps=512)


def test_two_component_truncation_guard_trips(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(TruncationInsufficient):
        evolve_two_component(natural, profile, n_max=8, steps=512)


@pytest.mark.parametrize(
    "family, steps", [(ProfileFamily.FLAT, 512), (ProfileFamily.SINUSOIDAL, 100)]
)
def test_step_exponential_reused_while_drive_is_constant(natural, monkeypatch, family, steps):
    # flat K=1 and sinusoidal L=0 design schemes: a constant drive needs one
    # step exponential, a varying drive a fresh one whenever it changes
    calls = []

    def counting_expm(matrix):
        calls.append(matrix)
        return real_expm(matrix)

    real_expm = fock.expm
    monkeypatch.setattr(fock, "expm", counting_expm)
    evolve_two_component(natural, make_profile(family, 2 * np.pi), n_max=40, steps=steps)
    if family is ProfileFamily.FLAT:
        assert len(calls) == 1
    else:
        assert len(calls) > 1


def test_step_check(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    with pytest.raises(StepCountInsufficient):
        evolve_fock(natural, profile, Branch.CO, n_max=40, steps=128, check_steps=True)
    state = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=2048, check_steps=True)
    assert state.norm == pytest.approx(1.0, abs=1e-10)


def test_parameter_floors(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        evolve_fock(natural, profile, Branch.CO, n_max=4)
    with pytest.raises(ConfigurationError):
        evolve_fock(natural, profile, Branch.CO, steps=50)
    with pytest.raises(TimeOutOfRange):
        evolve_fock(natural, profile, Branch.CO, until=7.0)
    with pytest.raises(TimeOutOfRange):
        evolve_fock(natural, profile, Branch.CO, until=-0.5)


def test_two_component_block_structure(natural):
    # joint spin x trap propagation must factor into the two separate
    # branch propagations, since the Hamiltonian never mixes the spins
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    co, counter = evolve_two_component(natural, profile, n_max=40, steps=512)
    up = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=512)
    down = evolve_fock(natural, profile, Branch.COUNTER, n_max=40, steps=512)
    assert np.max(np.abs(co * np.sqrt(2) - up.amplitudes)) < 1e-10
    assert np.max(np.abs(counter * np.sqrt(2) - down.amplitudes)) < 1e-10
    total = np.linalg.norm(np.concatenate([co, counter]))
    assert total == pytest.approx(1.0, abs=1e-10)
