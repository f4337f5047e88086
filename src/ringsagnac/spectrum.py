"""Fourier spectrum of the sweep profile.

The readout of the interferometer is controlled by the windowed transform

    W(omega) = (1/sqrt(2 pi)) * int_0^T omega_P(t) exp(-i omega t) dt

evaluated at the trap frequency.  Because the profile integrates to pi,
W(0) = sqrt(pi/2) for every admissible profile, and |Re W| is bounded by
sqrt(pi/2).  The three analytic families have closed forms; everything
else goes through oscillatory-weight adaptive quadrature split at profile
kinks.

Closed forms, with u = omega * T:

    flat          Re = sqrt(pi/2) sin(u)/u
                  Im = sqrt(pi/2) (cos u - 1)/u
    sinusoidal    Re = sqrt(pi/2) cos^2(u/4) cos(u/2) / (1 - (u/2pi)^2)
                  Im = -sqrt(2 pi) cos^3(u/4) sin(u/4) / (1 - (u/2pi)^2)
    cosinusoidal  Re = sqrt(pi/2) sin(u) / (u [1 - (u/2pi)^2])
                  Im = sqrt(pi/2) (cos u - 1) / (u [1 - (u/2pi)^2])

The removable singular points (u = 0 everywhere, u = 2 pi for the last
two) are evaluated through exactly factored forms rather than raw
quotients, so no precision is lost in the 0/0 limits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConfigurationError, QuadratureNonConvergence, UnsupportedFamily
from .model import ProfileFamily, SweepProfile, eval_profile

__all__ = [
    "SpectrumValue",
    "spectrum_closed_form",
    "spectrum_derivative",
    "spectrum_numeric",
]

HALF_PI_SQRT = np.sqrt(np.pi / 2)

# Width of the window around u = 2 pi in which the factored forms are used.
# They are algebraically identical to the raw quotients, so the switch
# point only changes rounding, not values.
_FACTORED_WINDOW = 0.5

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
_ABS_TOL = 1e-10


@dataclass(frozen=True)
class SpectrumValue:
    """Spectrum sample: frequency, complex value, and how it was obtained."""

    omega: float
    value: complex
    method: str  # "closed-form" | "quadrature"


def _segments(profile: SweepProfile) -> list[tuple[float, float]]:
    edges = [0.0, *profile.breakpoints(), profile.duration]
    return list(zip(edges[:-1], edges[1:]))


def _weighted_moment(profile: SweepProfile, omega: float, weight: str, fn) -> float:
    """int_0^T fn(t) * {cos,sin}(omega t) dt with kink-aligned segments."""
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        # the roundoff warning fires near the noise floor; the explicit error
        # budget below is the real gate
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in _segments(profile):
            val, abserr = quad(fn, a, b, weight=weight, wvar=omega, **_QUAD_OPTS)
            total += val
            err += abserr
    if not err <= _ABS_TOL:
        raise QuadratureNonConvergence(
            f"spectrum quadrature error {err:.3e} exceeds {_ABS_TOL:.1e}"
        )
    return total


def spectrum_numeric(profile: SweepProfile, omega: float) -> SpectrumValue:
    """Transform of the profile at one frequency, by adaptive quadrature.

    Negative frequencies use the conjugate symmetry of transforms of real
    functions.
    """
    if omega < 0:
        flipped = spectrum_numeric(profile, -omega)
        return SpectrumValue(float(omega), flipped.value.conjugate(), "quadrature")
    fn = lambda t: eval_profile(profile, t)
    re = _weighted_moment(profile, omega, "cos", fn)
    im = -_weighted_moment(profile, omega, "sin", fn)
    value = (re + 1j * im) / np.sqrt(2 * np.pi)
    return SpectrumValue(float(omega), value, "quadrature")


def _closed_flat(u: float) -> complex:
    re = HALF_PI_SQRT * np.sinc(u / np.pi)
    im = 0.0 if u == 0.0 else -HALF_PI_SQRT * 2 * np.sin(u / 2) ** 2 / u
    return re + 1j * im


def _closed_sinusoidal(u: float) -> complex:
    if abs(u - 2 * np.pi) < _FACTORED_WINDOW:
        # u = 2 pi + d: the double/triple zero of cos(u/4) beats the simple
        # zero of the denominator; sin(d/4)^k / d is well conditioned.
        d = u - 2 * np.pi
        if d == 0.0:
            return 0.0 + 0.0j
        common = 4 * np.pi**2 / (4 * np.pi + d)
        re = HALF_PI_SQRT * common * np.cos(d / 2) * (np.sin(d / 4) ** 2 / d)
        im = -np.sqrt(2 * np.pi) * common * (np.sin(d / 4) ** 3 * np.cos(d / 4) / d)
        return re + 1j * im
    den = 1 - (u / (2 * np.pi)) ** 2
    re = HALF_PI_SQRT * np.cos(u / 4) ** 2 * np.cos(u / 2) / den
    im = -np.sqrt(2 * np.pi) * np.cos(u / 4) ** 3 * np.sin(u / 4) / den
    return re + 1j * im


def _closed_cosinusoidal(u: float) -> complex:
    if abs(u - 2 * np.pi) < _FACTORED_WINDOW:
        # Simple zero over simple zero: finite limit -sqrt(pi/2)/2 at u = 2 pi.
        d = u - 2 * np.pi
        scale = 4 * np.pi**2 / ((2 * np.pi + d) * (4 * np.pi + d))
        re = -HALF_PI_SQRT * scale * np.sinc(d / np.pi)
        im = 0.0 if d == 0.0 else HALF_PI_SQRT * 2 * scale * (np.sin(d / 2) ** 2 / d)
        return re + 1j * im
    if u == 0.0:
        return HALF_PI_SQRT + 0.0j
    den = u * (1 - (u / (2 * np.pi)) ** 2)
    re = HALF_PI_SQRT * np.sin(u) / den
    im = -HALF_PI_SQRT * 2 * np.sin(u / 2) ** 2 / den
    return re + 1j * im


_CLOSED = {
    ProfileFamily.FLAT: _closed_flat,
    ProfileFamily.SINUSOIDAL: _closed_sinusoidal,
    ProfileFamily.COSINUSOIDAL: _closed_cosinusoidal,
}


def spectrum_closed_form(family, duration: float, omega: float) -> SpectrumValue:
    """Closed-form transform for the three analytic families."""
    family = ProfileFamily(family)
    if family not in _CLOSED:
        raise UnsupportedFamily(f"no closed form for family {family.value!r}")
    u = abs(omega) * duration
    if not np.isfinite(u):
        raise ConfigurationError(f"omega * duration = {u} is not finite")
    value = _CLOSED[family](u)
    if omega < 0:
        value = value.conjugate()
    return SpectrumValue(float(omega), value, "closed-form")


def spectrum_derivative(profile: SweepProfile, omega: float) -> float:
    """d/d omega of Re W at the given frequency.

    Uses the moment identity d_omega Re W = -(1/sqrt(2 pi)) *
    int_0^T t omega_P(t) sin(omega t) dt, which follows from
    differentiating under the integral; the sign flip for negative
    frequencies comes with sin being odd.
    """
    sign = 1.0
    if omega < 0:
        omega, sign = -omega, -1.0
    if omega == 0.0:
        return 0.0
    fn = lambda t: t * eval_profile(profile, t)
    moment = _weighted_moment(profile, omega, "sin", fn)
    return sign * (-moment / np.sqrt(2 * np.pi))
