"""Fourier spectrum of the sweep profile.

The readout of the interferometer is controlled by the windowed transform

    W(omega) = (1/sqrt(2 pi)) * int_0^T omega_P(t) exp(-i omega t) dt

evaluated at the trap frequency.  Because the profile integrates to pi,
W(0) = sqrt(pi/2) for every admissible profile, and |Re W| is bounded by
sqrt(pi/2).  The three analytic families have closed forms, and a
tabulated profile, being piecewise linear, has an exact per-segment sum
(Filon's method without its approximation).  The readout, the
decomposition and the design search take W(omega0) and d Re W / d omega
from that exact route.

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

Exact route.  On a segment [mid - h/2, mid + h/2] where the profile is
f(mid + u) = fbar + (df/h) u, with theta = nu h / 2,

    int f exp(-i nu t) dt   = exp(-i nu mid) [A m0 - i B j1]
    int t f exp(-i nu t) dt = mid * (the above)
                              + exp(-i nu mid) (h/2) [B q - i A j1]

where A = h fbar, B = h df / 2 and

    m0 = int_0^1 cos(theta x) dx       = sin(theta)/theta
    j1 = int_0^1 x sin(theta x) dx     = (sin(theta) - theta cos(theta))/theta^2
    q  = int_0^1 x^2 cos(theta x) dx.

A tabulated profile is a sum of such segments with nu = omega.  The
analytic profiles are, on each kink-free segment, constants times
exp(0, +/- i 2 pi t / T), so the same moments at nu = omega -/+ 2 pi / T
give their slope d Re W / d omega = Im(int t f exp(-i omega t) dt) / sqrt(2 pi);
their removable point u = 2 pi is nu = 0, inside the small-theta series.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import ConfigurationError, UnsupportedFamily
from .model import ProfileFamily, SpectrumValue, SweepProfile

__all__ = ["spectrum_closed_form"]

HALF_PI_SQRT = np.sqrt(np.pi / 2)

# Width of the window around u = 2 pi in which the factored forms are used.
# They are algebraically identical to the raw quotients, so the switch
# point only changes rounding, not values.
_FACTORED_WINDOW = 0.5

# Below this |theta| the segment moments come from their Taylor series,
# above it from the closed forms, whose cancellation error grows like
# eps / theta^2 and is a few ulps at the switch.  Eight terms leave a
# truncation error below 1e-19 there.
_SERIES_SWITCH = 0.5
_SERIES_TERMS = 8


def _closed_flat(u: float) -> complex:
    re = HALF_PI_SQRT * np.sinc(u / np.pi)
    im = 0.0 if u == 0.0 else -HALF_PI_SQRT * 2 * np.sin(u / 2) ** 2 / u
    return re + 1j * im


def _one_minus_square(r: float) -> float:
    # a float r**2 raises OverflowError beyond r ~ 1.3e154; the quotients
    # this divides have rounded to zero long before
    return 1 - r**2 if r < 1e154 else -math.inf


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
    den = _one_minus_square(u / (2 * np.pi))
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
    den = u * _one_minus_square(u / (2 * np.pi))
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


def _series(power: int, odd: int) -> np.ndarray:
    # int_0^1 x^power {cos, sin}(theta x) dx
    #   = sum_k (-1)^k theta^n / (n! (n + power + 1)),  n = 2k + odd,
    # as coefficients of a polynomial in theta^2 (theta^odd factored out)
    return np.array([(-1) ** k / (math.factorial(2 * k + odd) * (2 * k + odd + power + 1))
                     for k in range(_SERIES_TERMS)])


_M0, _J1, _Q = _series(0, 0), _series(1, 1), _series(2, 0)


def _segment_kernels(theta: np.ndarray):
    """m0, j1 and q of the module docstring at each theta."""
    small = np.abs(theta) < _SERIES_SWITCH
    t = np.where(small, 1.0, theta)  # keeps the closed forms off their 0/0 point
    sin, cos = np.sin(t), np.cos(t)
    m0 = sin / t
    j1 = (m0 - cos) / t
    q = (sin + 2 * (cos - m0) / t) / t
    if small.any():
        z = np.where(small, theta, 0.0)
        z2 = z * z
        m0 = np.where(small, polyval(z2, _M0), m0)
        j1 = np.where(small, z * polyval(z2, _J1), j1)
        q = np.where(small, polyval(z2, _Q), q)
    return m0, j1, q


def _linear_moments(nu, a, b, fa, fb) -> tuple[complex, complex]:
    """Sums of int_a^b f e^(-i nu t) dt and int_a^b t f e^(-i nu t) dt.

    f is linear on each [a, b] with end values fa and fb; the arguments
    broadcast, one entry per segment.  Only products of order h f are
    formed, never h^2, so durations near the float range stay finite.
    """
    h = b - a
    mid = a + h / 2
    area = h * ((fa + fb) / 2)
    tilt = h * ((fb - fa) / 2)
    m0, j1, q = _segment_kernels(nu * (h / 2))
    phase = np.exp(-1j * (nu * mid))
    value = phase * (area * m0 - 1j * (tilt * j1))
    moment = mid * value + phase * ((h / 2) * (tilt * q - 1j * (area * j1)))
    return complex(value.sum()), complex(moment.sum())


def _exponential_terms(profile: SweepProfile, omega: float):
    """An analytic profile as _linear_moments arguments at frequency omega.

    On each kink-free segment the profile is a sum of constants c times
    exp(i k t) with k in {0, +/- 2 pi / T}, so its moments are constant
    pieces at the shifted frequency nu = omega - k.
    """
    T = profile.duration
    k = 2 * np.pi / T
    if profile.family is ProfileFamily.FLAT:
        rows = [(0.0, 0.0, T, np.pi / T)]
    elif profile.family is ProfileFamily.COSINUSOIDAL:
        # (pi/T) (1 - cos kt)
        rows = [(0.0, 0.0, T, np.pi / T), (k, 0.0, T, -np.pi / (2 * T)),
                (-k, 0.0, T, -np.pi / (2 * T))]
    else:
        # (pi^2/2T) |sin kt|, with sin kt = (e^(ikt) - e^(-ikt)) / 2i flipping
        # sign at the kink T/2
        c = -0.5j * np.pi**2 / (2 * T)
        rows = [(k, 0.0, T / 2, c), (-k, 0.0, T / 2, -c),
                (k, T / 2, T, -c), (-k, T / 2, T, c)]
    shift, a, b, c = (np.array(column) for column in zip(*rows))
    return omega - shift, a, b, c, c


def _exact_spectrum(profile: SweepProfile, omega: float) -> tuple[SpectrumValue, float]:
    """W(omega) and d Re W / d omega without quadrature.

    W is the closed form for the analytic families and the exact segment
    sum for tabulated profiles; the slope is always the segment sum of
    Im(int t omega_P e^(-i omega t) dt) / sqrt(2 pi).  Both are evaluated
    at |omega| and carried over by conjugate symmetry.
    """
    w = abs(omega)
    if not np.isfinite(w * profile.duration):
        raise ConfigurationError(f"omega * duration = {w * profile.duration} is not finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if profile.family is ProfileFamily.TABULATED:
            grid, f = profile.grid, np.asarray(profile.samples)
            value, moment = _linear_moments(w, grid[:-1], grid[1:], f[:-1], f[1:])
            value /= np.sqrt(2 * np.pi)
            if omega < 0:
                value = value.conjugate()
            sample = SpectrumValue(float(omega), value, "exact piecewise-linear")
        else:
            sample = spectrum_closed_form(profile.family, profile.duration, omega)
            moment = _linear_moments(*_exponential_terms(profile, w))[1]
        slope = (-1.0 if omega < 0 else 1.0) * moment.imag / np.sqrt(2 * np.pi)
    if not (np.isfinite(sample.value) and np.isfinite(slope)):
        raise ConfigurationError(f"spectrum at omega = {omega} is not finite")
    return sample, float(slope)
