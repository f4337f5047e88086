import numpy as np
import pytest

from ringsagnac import ProfileFamily, SweepProfile, TrapConfig, make_profile


@pytest.fixture
def natural() -> TrapConfig:
    """Natural-unit preset: m = hbar = omega0 = r = 1, rotation 0.1."""
    return TrapConfig()


@pytest.fixture(scope="session")
def random_profile():
    """Factory for admissible random tabulated profiles."""

    def make(rng: np.random.Generator):
        n_nodes = int(rng.integers(5, 13))
        values = rng.uniform(0.1, 1.0, size=n_nodes)
        duration = float(rng.uniform(3.0, 12.0))
        return make_profile(ProfileFamily.TABULATED, duration, samples=values)

    return make


@pytest.fixture(scope="session")
def switched_off():
    """Factory for the drive with omega_P identically zero over [0, T].

    It breaks the half-revolution normalization, so make_profile refuses
    it; the switched-off checks build the profile directly."""

    def make(duration: float) -> SweepProfile:
        return SweepProfile(ProfileFamily.TABULATED, duration, samples=(0.0, 0.0))

    return make


@pytest.fixture(scope="session")
def rubidium():
    """The paper's regime: 87Rb in SI units on a 100 um ring at the Earth's
    rotation rate; call it with the trap frequency in Hz."""

    def make(hertz: float) -> TrapConfig:
        return TrapConfig(mass=86.909 * 1.66053906660e-27, hbar=1.054571817e-34,
                          trap_frequency=2 * np.pi * hertz, radius=1e-4, rotation=7.292e-5)

    return make
