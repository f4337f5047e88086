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

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

from .errors import NegativeSample, NonPositiveDuration, ZeroProfile, ConfigurationError

__all__ = [
    "Branch",
    "ProfileFamily",
    "SpectrumValue",
    "SweepProfile",
    "TrapConfig",
    "eval_profile",
    "flat_rate",
    "lambda_drive",
    "make_profile",
]

SWEEP_TOTAL_ANGLE = math.pi


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
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
            if name != "rotation" and not value > 0:
                raise ConfigurationError(f"{name} must be strictly positive")
        # derived scales the readout builds; float products overflow to inf
        # without raising, while a float r**2 raises OverflowError
        r2 = self.radius * self.radius
        scales = {
            "2 pi m r^2 / hbar": 2 * math.pi * self.mass * r2 / self.hbar,
            "the Sagnac phase": 2 * math.pi * self.mass * r2 * self.rotation / self.hbar,
            "m omega0 / hbar": self.mass * self.trap_frequency / self.hbar,
            "drive_scale": self.drive_scale,
        }
        for name, value in scales.items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} is not finite for these trap parameters")

    @property
    def drive_scale(self) -> float:
        """sqrt(m hbar omega0 / 2) * r, the drive amplitude per unit rate."""
        return math.sqrt(self.mass * self.hbar * self.trap_frequency / 2) * self.radius


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
    def grid(self):
        import numpy as np

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
            return tuple(_linspace(0.0, self.duration, len(self.samples))[1:-1])
        return ()


@dataclass(frozen=True)
class SpectrumValue:
    """Spectrum sample: frequency, complex value, and how it was obtained."""

    omega: float
    value: complex
    # "closed-form" (analytic families), "exact piecewise-linear" (tabulated
    # profiles, summed segment by segment), or "quadrature" (the oracle)
    method: str


def _check_count(name: str, value):
    """Refuse a count that is not an integer, naming the parameter.

    operator.index accepts Python and numpy integers and refuses floats,
    even integral ones, which would otherwise fail deep inside numpy.
    """
    try:
        operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """numpy.linspace(start, stop, count) in Python floats, bit for bit.

    The same products, numpy's quotient form where the step underflows
    to 0, and the last point set to stop.
    """
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    step = delta / (count - 1)
    if step == 0:
        points = [i / (count - 1) * delta + start for i in range(count)]
    else:
        points = [i * step + start for i in range(count)]
    points[-1] = stop
    return points


def _sample_floats(samples) -> list[float]:
    """The tabulated samples as Python floats, refusing what is not a 1-d sequence of numbers.

    A 1-d array or a sequence other than a string is read element by
    element; a string, a mapping, a set, an iterator or an array of
    another rank is refused, as is an element that is itself an array or
    not a real number.
    """
    if hasattr(samples, "ndim"):
        one_d = samples.ndim == 1
    else:
        one_d = isinstance(samples, Sequence) and not isinstance(samples, (str, bytes, bytearray))
    values = []
    if one_d:
        for value in samples:
            if getattr(value, "ndim", 0) != 0:
                break
            try:
                values.append(float(value))
            except (TypeError, ValueError, OverflowError):
                raise ConfigurationError(
                    f"tabulated sweep rates must be real numbers, got {value!r}") from None
        else:
            if len(values) >= 2:
                return values
    raise ConfigurationError("tabulated profile needs a 1-d sequence of at least 2 samples")


def make_profile(family, duration, samples=None) -> SweepProfile:
    """Build an admissible sweep profile.

    Analytic families take only the duration.  Tabulated profiles take a
    non-negative sample sequence on a uniform grid over [0, duration] and
    are rescaled so the trapezoid integral equals pi; the applied factor
    is recorded on the profile.
    """
    family = ProfileFamily(family)
    if not duration > 0:
        raise NonPositiveDuration(f"duration must be positive, got {duration}")
    if not math.isfinite(duration):
        raise ConfigurationError(f"duration must be finite, got {duration}")
    if family is not ProfileFamily.TABULATED:
        return SweepProfile(family, float(duration))

    values = _sample_floats(samples)
    if any(value < 0 for value in values):
        raise NegativeSample("tabulated sweep rates must be non-negative")
    if not all(math.isfinite(value) for value in values):
        raise ConfigurationError("tabulated sweep rates must be finite")
    # the trapezoid rule, its terms summed exactly and rounded once
    duration = float(duration)
    dx = duration / (len(values) - 1)
    try:
        integral = math.fsum(dx * (right + left) / 2.0 for left, right in zip(values, values[1:]))
    except OverflowError:  # an exact sum beyond the float range
        integral = math.inf
    if integral == 0.0:
        raise ZeroProfile("all-zero tabulated profile cannot be rescaled")
    factor = SWEEP_TOTAL_ANGLE / integral
    if not (math.isfinite(integral) and math.isfinite(factor)):
        raise ConfigurationError("tabulated sweep rates cannot be rescaled to a finite profile")
    return SweepProfile(
        ProfileFamily.TABULATED,
        duration,
        samples=tuple(value * factor for value in values),
        rescale_factor=factor,
    )


def flat_rate(duration: float) -> float:
    """omega_P of the flat family: half a revolution spread evenly over T."""
    return SWEEP_TOTAL_ANGLE / duration


def eval_profile(profile: SweepProfile, t):
    """omega_P(t); zero outside [0, T].  Accepts scalars or arrays."""
    import numpy as np

    t_arr = np.asarray(t, dtype=float)
    T = profile.duration
    inside = (t_arr >= 0.0) & (t_arr <= T)
    if profile.family is ProfileFamily.FLAT:
        out = np.where(inside, flat_rate(T), 0.0)
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
