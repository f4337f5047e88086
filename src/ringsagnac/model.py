"""Physical parameters, sweep-profile families, and the per-branch drive.

The interferometer splits an atom into two trapped components guided along
a ring of radius r.  Each trap is swept with angular velocity +/- omega_P(t)
on top of a common rotation bias Omega, so the branch drive amplitude is

    lambda_eta(t) = sqrt(m hbar omega0 / 2) * r * [Omega + (1 - 2 eta) omega_P(t)]

with eta = 0 for the co-sweeping component and eta = 1 for the
counter-sweeping one.  Profiles are normalized so each trap covers half a
revolution: the integral of omega_P over [0, T] equals pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NegativeSample, NonPositiveDuration, ZeroProfile, ConfigurationError

__all__ = [
    "Branch",
    "ProfileFamily",
    "SweepProfile",
    "TrapConfig",
    "eval_profile",
    "lambda_drive",
    "make_profile",
    "zero_profile",
]

SWEEP_TOTAL_ANGLE = np.pi


class Branch(Enum):
    """Which of the two counter-swept traps an atom component rides in."""

    CO = 0
    COUNTER = 1

    @property
    def sign(self) -> int:
        """Sign of the sweep term in the drive: +1 for CO, -1 for COUNTER."""
        return 1 - 2 * self.value


class ProfileFamily(str, Enum):
    FLAT = "flat"
    SINUSOIDAL = "sinusoidal"
    COSINUSOIDAL = "cosinusoidal"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class TrapConfig:
    """Trap and rotation parameters.  Immutable.

    Defaults are the natural-unit preset m = hbar = omega0 = r = 1 with a
    rotation rate of 0.1; pass other values for dimensional runs.
    """

    mass: float = 1.0
    hbar: float = 1.0
    trap_frequency: float = 1.0
    radius: float = 1.0
    rotation: float = 0.1

    def __post_init__(self):
        for name in ("mass", "hbar", "trap_frequency", "radius", "rotation"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if name != "rotation" and not value > 0:
                raise ConfigurationError(f"{name} must be strictly positive")
        # derived scales the readout builds; a float r**2 raises OverflowError
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = self.radius * self.radius
            scales = {
                "2 pi m r^2 / hbar": 2 * np.pi * self.mass * r2 / self.hbar,
                "the Sagnac phase": 2 * np.pi * self.mass * r2 * self.rotation / self.hbar,
                "m omega0 / hbar": self.mass * self.trap_frequency / self.hbar,
                "drive_scale": self.drive_scale,
            }
        for name, value in scales.items():
            if not np.isfinite(value):
                raise ConfigurationError(f"{name} is not finite for these trap parameters")

    @property
    def drive_scale(self) -> float:
        """sqrt(m hbar omega0 / 2) * r, the drive amplitude per unit rate."""
        return np.sqrt(self.mass * self.hbar * self.trap_frequency / 2) * self.radius


@dataclass(frozen=True)
class SweepProfile:
    """A sweep-rate function omega_P(t) on [0, T], zero outside the window.

    ``samples`` is only set for tabulated profiles: values on a uniform
    grid over [0, T], linearly interpolated, already rescaled so the
    integral is pi.  ``rescale_factor`` records that rescaling (1.0 for
    the analytic families, which are normalized by construction).
    """

    family: ProfileFamily
    duration: float
    samples: tuple[float, ...] | None = None
    rescale_factor: float = 1.0

    @property
    def grid(self) -> np.ndarray:
        if self.samples is None:
            raise ConfigurationError("analytic profiles have no sample grid")
        return np.linspace(0.0, self.duration, len(self.samples))

    def breakpoints(self) -> tuple[float, ...]:
        """Interior times where the profile is not smooth.

        Quadrature over [0, T] should split at these points: the
        sinusoidal family has a |sin| kink at T/2 and tabulated profiles
        are piecewise linear between grid nodes.
        """
        if self.family is ProfileFamily.SINUSOIDAL:
            return (self.duration / 2,)
        if self.family is ProfileFamily.TABULATED:
            return tuple(self.grid[1:-1])
        return ()


def _check_duration(duration):
    if not duration > 0:
        raise NonPositiveDuration(f"duration must be positive, got {duration}")
    if not np.isfinite(duration):
        raise ConfigurationError(f"duration must be finite, got {duration}")


def make_profile(family, duration, samples=None) -> SweepProfile:
    """Build an admissible sweep profile.

    Analytic families take only the duration.  Tabulated profiles take a
    non-negative sample sequence on a uniform grid over [0, duration] and
    are rescaled so the trapezoid integral equals pi; the applied factor
    is recorded on the profile.
    """
    family = ProfileFamily(family)
    _check_duration(duration)
    if family is not ProfileFamily.TABULATED:
        return SweepProfile(family, float(duration))

    values = np.asarray(samples, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ConfigurationError("tabulated profile needs a 1-d sequence of at least 2 samples")
    if np.any(values < 0):
        raise NegativeSample("tabulated sweep rates must be non-negative")
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("tabulated sweep rates must be finite")
    with np.errstate(over="ignore", divide="ignore"):
        integral = np.trapezoid(values, dx=duration / (values.size - 1))
        factor = SWEEP_TOTAL_ANGLE / integral
    if integral == 0.0:
        raise ZeroProfile("all-zero tabulated profile cannot be rescaled")
    if not (np.isfinite(integral) and np.isfinite(factor)):
        raise ConfigurationError("tabulated sweep rates cannot be rescaled to a finite profile")
    return SweepProfile(
        ProfileFamily.TABULATED,
        float(duration),
        samples=tuple(values * factor),
        rescale_factor=float(factor),
    )


def zero_profile(duration) -> SweepProfile:
    """Diagnostic profile with omega_P identically zero.

    Deliberately violates the half-revolution normalization; useful for
    switched-off-drive checks, never returned by make_profile.
    """
    _check_duration(duration)
    return SweepProfile(ProfileFamily.TABULATED, float(duration), samples=(0.0, 0.0))


def eval_profile(profile: SweepProfile, t):
    """omega_P(t); zero outside [0, T].  Accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    T = profile.duration
    inside = (t_arr >= 0.0) & (t_arr <= T)
    if profile.family is ProfileFamily.FLAT:
        out = np.where(inside, np.pi / T, 0.0)
    elif profile.family is ProfileFamily.SINUSOIDAL:
        out = np.where(inside, np.pi**2 * np.abs(np.sin(2 * np.pi * t_arr / T)) / (2 * T), 0.0)
    elif profile.family is ProfileFamily.COSINUSOIDAL:
        out = np.where(inside, (np.pi / T) * (1 - np.cos(2 * np.pi * t_arr / T)), 0.0)
    else:
        out = np.where(inside, np.interp(t_arr, profile.grid, profile.samples), 0.0)
    return out.item() if np.isscalar(t) or t_arr.ndim == 0 else out


def lambda_drive(config: TrapConfig, profile: SweepProfile, branch: Branch, t):
    """Branch drive amplitude lambda_eta(t).  Accepts scalars or arrays."""
    return config.drive_scale * (config.rotation + branch.sign * eval_profile(profile, t))
