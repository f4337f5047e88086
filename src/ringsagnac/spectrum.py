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

A tabulated profile is a sum of such segments with nu = omega on a
uniform grid, h = T / (n - 1), so one kernel evaluation serves them all.
Regrouped by node (Press et al., Numerical Recipes, 3rd ed., 13.9), with
g_j = (h/2) f_j, c = exp(-i theta), z = c^2, a = c (m0 + i j1),
e = c (m0 - q), w = 2 Re a = 2 m0^2 and m = n - 1, they are

    int f exp(-i omega t) dt   = w P + (w - conj a) g_0 + (w - a) g_m z^m
    int t f exp(-i omega t) dt = (h/2) [2 w Q + 2 i Im(e) P + e g_0
                                        + (2 m (w - a) - conj e) g_m z^m],

P = sum g_j z^j and Q = sum j g_j z^j over the interior nodes, which one
Horner pass gives in blocks of _BLOCK nodes, each from an exact phase.
The analytic profiles are, on each kink-free segment, constants times
exp(0, +/- i 2 pi t / T), so the same moments at nu = omega -/+ 2 pi / T,
at most four single segments with a theta each, give their slope
d Re W / d omega = Im(int t f exp(-i omega t) dt) / sqrt(2 pi); their
removable point u = 2 pi is nu = 0, inside the small-theta series.  Below
|theta| = _SERIES_SWITCH the kernels come from their Taylor series, by
Horner's rule; above it from the closed forms.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConfigurationError, UnsupportedFamily
from .model import ProfileFamily, SpectrumValue, SweepProfile

__all__ = ["spectrum_closed_form"]

HALF_PI_SQRT = math.sqrt(math.pi / 2)

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
# nodes per Horner block: the rounding of z is raised to at most the 31st power
_BLOCK = 32


def _sinc(x: float) -> float:
    # numpy's sinc: sin(pi x) / (pi x), with 1e-20 in place of x = 0
    y = math.pi * (x if x != 0 else 1.0e-20)
    return math.sin(y) / y


def _closed_flat(u: float) -> complex:
    re = HALF_PI_SQRT * _sinc(u / math.pi)
    im = 0.0 if u == 0.0 else -HALF_PI_SQRT * 2 * math.sin(u / 2) ** 2 / u
    return re + 1j * im


def _one_minus_square(r: float) -> float:
    # a float r**2 raises OverflowError beyond r ~ 1.3e154; the quotients
    # this divides have rounded to zero long before
    return 1 - r**2 if r < 1e154 else -math.inf


def _closed_sinusoidal(u: float) -> complex:
    if abs(u - 2 * math.pi) < _FACTORED_WINDOW:
        # u = 2 pi + d: the double/triple zero of cos(u/4) beats the simple
        # zero of the denominator; sin(d/4)^k / d is well conditioned.
        d = u - 2 * math.pi
        if d == 0.0:
            return 0.0 + 0.0j
        common = 4 * math.pi**2 / (4 * math.pi + d)
        re = HALF_PI_SQRT * common * math.cos(d / 2) * (math.sin(d / 4) ** 2 / d)
        im = -math.sqrt(2 * math.pi) * common * (math.sin(d / 4) ** 3 * math.cos(d / 4) / d)
        return re + 1j * im
    den = _one_minus_square(u / (2 * math.pi))
    re = HALF_PI_SQRT * math.cos(u / 4) ** 2 * math.cos(u / 2) / den
    im = -math.sqrt(2 * math.pi) * math.cos(u / 4) ** 3 * math.sin(u / 4) / den
    return re + 1j * im


def _closed_cosinusoidal(u: float) -> complex:
    if abs(u - 2 * math.pi) < _FACTORED_WINDOW:
        # Simple zero over simple zero: finite limit -sqrt(pi/2)/2 at u = 2 pi.
        d = u - 2 * math.pi
        scale = 4 * math.pi**2 / ((2 * math.pi + d) * (4 * math.pi + d))
        re = -HALF_PI_SQRT * scale * _sinc(d / math.pi)
        im = 0.0 if d == 0.0 else HALF_PI_SQRT * 2 * scale * (math.sin(d / 2) ** 2 / d)
        return re + 1j * im
    if u == 0.0:
        return HALF_PI_SQRT + 0.0j
    den = u * _one_minus_square(u / (2 * math.pi))
    re = HALF_PI_SQRT * math.sin(u) / den
    im = -HALF_PI_SQRT * 2 * math.sin(u / 2) ** 2 / den
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
    if not math.isfinite(u):
        raise ConfigurationError(f"omega * duration = {u} is not finite")
    value = complex(_CLOSED[family](u))
    if omega < 0:
        value = value.conjugate()
    return SpectrumValue(float(omega), value, "closed-form")


def _series(power: int, odd: int) -> tuple[float, ...]:
    # int_0^1 x^power {cos, sin}(theta x) dx
    #   = sum_k (-1)^k theta^n / (n! (n + power + 1)),  n = 2k + odd,
    # as coefficients of a polynomial in theta^2 (theta^odd factored out),
    # highest power first for Horner's rule
    return tuple((-1) ** k / (math.factorial(2 * k + odd) * (2 * k + odd + power + 1))
                 for k in reversed(range(_SERIES_TERMS)))


_SERIES = tuple(zip(_series(0, 0), _series(1, 1), _series(2, 0)))


def _kernel(theta: float) -> tuple[float, float, float]:
    """m0, j1 and q of the module docstring at one finite theta."""
    if abs(theta) < _SERIES_SWITCH:
        z2 = theta * theta
        m0 = j1 = q = 0.0
        for c_m0, c_j1, c_q in _SERIES:
            m0 = m0 * z2 + c_m0
            j1 = j1 * z2 + c_j1
            q = q * z2 + c_q
        return m0, theta * j1, q
    sin, cos = math.sin(theta), math.cos(theta)
    m0 = sin / theta
    j1 = (m0 - cos) / theta
    q = (sin + 2 * (cos - m0) / theta) / theta
    return m0, j1, q


def _tabulated_moments(profile: SweepProfile, w: float) -> tuple[complex, complex]:
    """int f e^(-i w t) dt and int t f e^(-i w t) dt of a tabulated profile, by node.

    The Horner pass runs on g_j = (h/2) f_j <= pi, so its sums stay finite
    at durations near the float range.
    """
    f, n = profile.samples, len(profile.samples)
    h = profile.duration / (n - 1)
    half = h / 2
    m0, j1, q = _kernel(w * half)
    c = cmath.exp(-1j * (w * half))
    z = c * c
    p_sum = q_sum = 0j
    for start in range(1, n - 1, _BLOCK):
        # the block's P and P' about its first node, highest power first
        p = d = 0j
        for sample in f[min(start + _BLOCK, n - 1) - 1:start - 1:-1]:
            d = d * z + p
            p = p * z + half * sample
        phase = cmath.exp(-1j * (w * (h * start)))
        p_sum += phase * p
        q_sum += phase * (z * d + start * p)
    a, e, weight = c * complex(m0, j1), c * (m0 - q), 2 * m0 * m0
    first, last = half * f[0], half * f[-1] * cmath.exp(-1j * (w * (h * (n - 1))))
    value = weight * p_sum + (weight - a.conjugate()) * first + (weight - a) * last
    moment = half * (2 * weight * q_sum + 2j * e.imag * p_sum + e * first
                     + ((2 * n - 2) * (weight - a) - e.conjugate()) * last)
    return value, moment


def _exponential_rows(profile: SweepProfile, w: float):
    """An analytic profile as constant pieces (nu, a, b, c) at frequency w.

    On each kink-free segment [a, b] the profile is a sum of constants c
    times exp(i k t) with k in {0, +/- 2 pi / T}, so its moments are those
    of the constant c at the shifted frequency nu = w - k.
    """
    T = profile.duration
    k = 2 * math.pi / T
    if profile.family is ProfileFamily.FLAT:
        return [(w, 0.0, T, math.pi / T)]
    if profile.family is ProfileFamily.COSINUSOIDAL:
        # (pi/T) (1 - cos kt)
        return [(w, 0.0, T, math.pi / T), (w - k, 0.0, T, -math.pi / (2 * T)),
                (w + k, 0.0, T, -math.pi / (2 * T))]
    # (pi^2/2T) |sin kt|, with sin kt = (e^(ikt) - e^(-ikt)) / 2i flipping
    # sign at the kink T/2
    c = -0.5j * math.pi**2 / (2 * T)
    return [(w - k, 0.0, T / 2, c), (w + k, 0.0, T / 2, -c),
            (w - k, T / 2, T, -c), (w + k, T / 2, T, c)]


def _analytic_moment(profile: SweepProfile, w: float) -> complex:
    """int t omega_P e^(-i w t) dt of an analytic profile, one kernel per row."""
    moment = 0j
    for nu, a, b, c in _exponential_rows(profile, w):
        h = b - a
        theta = nu * (h / 2)
        if not math.isfinite(theta):
            # T so short that 2 pi / T overflows: the slope is not finite
            return complex(math.nan, math.nan)
        m0, j1, _ = _kernel(theta)
        mid = a + h / 2
        # a constant piece has B = 0 in the module docstring's moments
        moment += cmath.exp(-1j * (nu * mid)) * (h * c) * (mid * m0 - 0.5j * h * j1)
    return moment


def _exact_spectrum(profile: SweepProfile, omega: float) -> tuple[SpectrumValue, float]:
    """W(omega) and d Re W / d omega without quadrature.

    W is the closed form for the analytic families and the exact segment
    sum for tabulated profiles, whose segments share one width and so one
    kernel evaluation; the slope is Im(int t omega_P e^(-i omega t) dt) /
    sqrt(2 pi), from that same sum or, for an analytic profile, from at
    most four constant pieces with a kernel each.  Both are evaluated at
    |omega| and carried over by conjugate symmetry.
    """
    w = abs(omega)
    if not math.isfinite(w * profile.duration):
        raise ConfigurationError(f"omega * duration = {w * profile.duration} is not finite")
    if profile.family is ProfileFamily.TABULATED:
        value, moment = _tabulated_moments(profile, w)
        value /= math.sqrt(2 * math.pi)
        if omega < 0:
            value = value.conjugate()
        sample = SpectrumValue(float(omega), value, "exact piecewise-linear")
    else:
        sample = spectrum_closed_form(profile.family, profile.duration, omega)
        moment = _analytic_moment(profile, w)
    slope = (-1.0 if omega < 0 else 1.0) * moment.imag / math.sqrt(2 * math.pi)
    if not (cmath.isfinite(sample.value) and math.isfinite(slope)):
        raise ConfigurationError(f"spectrum at omega = {omega} is not finite")
    return sample, slope
