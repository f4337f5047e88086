"""Quadrature oracles: the routes that check the library from outside.

spectrum_numeric and spectrum_derivative integrate the sweep transform
and its moment identity by oscillatory-weight adaptive quadrature split
at the profile kinks; alpha_at and phi_at integrate the amplitude and
phase definitions of evolution at one time; branch_geometric_phase takes
Simpson's rule along a sampled path, and shoelace_area the signed polygon
area it must equal, times -2, for a closed path.  The spectral and
time-domain loops share only the scipy call, its options and the kink
edges.

Import rule: this module imports only model and errors from the package,
and no library module imports it, so `import ringsagnac` loads neither it
nor scipy.  Its one production caller is the CLI spectrum command.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad as scipy_quad, simpson

from .errors import (
    ConfigurationError,
    DegeneratePath,
    InsufficientResolution,
    QuadratureNonConvergence,
    TimeOutOfRange,
)
from .model import Branch, SpectrumValue, SweepProfile, TrapConfig, eval_profile, lambda_drive

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
# error budget of the spectral moments and of the amplitude
_QUAD_TOL = 1e-10
_PHI_TOL = 1e-8
MIN_PATH_SAMPLES = 17


def quad(*args, **kwargs):
    """scipy.integrate.quad without its warnings.

    Roundoff chatter near the noise floor is expected, and a NaN integrand
    comes back as a NaN error estimate; the explicit error budgets of the
    callers are the real gate.
    """
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", IntegrationWarning)
        return scipy_quad(*args, **kwargs)


def _cut_points(profile: SweepProfile, t: float) -> list[float]:
    cuts = [b for b in profile.breakpoints() if b < t]
    return [0.0, *cuts, t]


def _check_frequency(profile: SweepProfile, omega: float):
    u = abs(omega) * profile.duration
    if not np.isfinite(u):
        raise ConfigurationError(f"omega * duration = {u} is not finite")


def _weighted_moment(profile: SweepProfile, omega: float, weight: str, fn) -> float:
    """int_0^T fn(t) * {cos,sin}(omega t) dt with kink-aligned segments."""
    edges = _cut_points(profile, profile.duration)
    total, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, abserr = quad(fn, a, b, weight=weight, wvar=omega, **_QUAD_OPTS)
        total += val
        err += abserr
    if not err <= _QUAD_TOL:
        raise QuadratureNonConvergence(
            f"spectrum quadrature error {err:.3e} exceeds {_QUAD_TOL:.1e}"
        )
    return total


def spectrum_numeric(profile: SweepProfile, omega: float) -> SpectrumValue:
    """Transform of the profile at one frequency, by adaptive quadrature.

    Negative frequencies use the conjugate symmetry of transforms of real
    functions.
    """
    _check_frequency(profile, omega)
    if omega < 0:
        flipped = spectrum_numeric(profile, -omega)
        return SpectrumValue(float(omega), flipped.value.conjugate(), "quadrature")
    fn = lambda t: eval_profile(profile, t)
    re = _weighted_moment(profile, omega, "cos", fn)
    im = -_weighted_moment(profile, omega, "sin", fn)
    value = (re + 1j * im) / np.sqrt(2 * np.pi)
    return SpectrumValue(float(omega), value, "quadrature")


def spectrum_derivative(profile: SweepProfile, omega: float) -> float:
    """d/d omega of Re W at the given frequency.

    Uses the moment identity d_omega Re W = -(1/sqrt(2 pi)) *
    int_0^T t omega_P(t) sin(omega t) dt, which follows from
    differentiating under the integral; the sign flip for negative
    frequencies comes with sin being odd.
    """
    _check_frequency(profile, omega)
    sign = 1.0
    if omega < 0:
        omega, sign = -omega, -1.0
    if omega == 0.0:
        return 0.0
    fn = lambda t: t * eval_profile(profile, t)
    moment = _weighted_moment(profile, omega, "sin", fn)
    return sign * (-moment / np.sqrt(2 * np.pi))


def _moments_to(config, profile, branch, t) -> tuple[float, float]:
    """Adaptive-quadrature C(t), S(t) with the error budget enforced."""
    fn = lambda tau: lambda_drive(config, profile, branch, tau)
    w0 = config.trap_frequency
    edges = _cut_points(profile, t)
    cos_total, sin_total, err = 0.0, 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, abserr = quad(fn, a, b, weight="cos", wvar=w0, **_QUAD_OPTS)
        cos_total += val
        err += abserr
        val, abserr = quad(fn, a, b, weight="sin", wvar=w0, **_QUAD_OPTS)
        sin_total += val
        err += abserr
    if not err <= _QUAD_TOL:
        raise QuadratureNonConvergence(
            f"amplitude quadrature error {err:.3e} exceeds {_QUAD_TOL:.1e}"
        )
    return cos_total, sin_total


def _check_window(profile: SweepProfile, t: float):
    # written so that a NaN time fails too
    if not 0 <= t <= profile.duration:
        raise TimeOutOfRange(f"t={t} outside [0, {profile.duration}]")


def alpha_at(config: TrapConfig, profile: SweepProfile, branch: Branch, t: float) -> complex:
    """Coherent amplitude at time t, by adaptive quadrature."""
    _check_window(profile, t)
    if t == 0.0:
        return 0.0 + 0.0j
    c, s = _moments_to(config, profile, branch, t)
    w0 = config.trap_frequency
    return -np.exp(-1j * w0 * t) * (c + 1j * s) / config.hbar


def phi_at(config: TrapConfig, profile: SweepProfile, branch: Branch, t: float) -> float:
    """Accumulated (unwrapped) phase at time t, by nested adaptive quadrature."""
    _check_window(profile, t)
    if t == 0.0:
        return 0.0
    w0 = config.trap_frequency
    hbar = config.hbar
    fn = lambda tau: lambda_drive(config, profile, branch, tau)
    edges = _cut_points(profile, t)
    # a NaN integrand runs the nested quadrature to its subdivision limit
    # before the budget below rejects it; omega0 tau is largest at t
    nodes = np.asarray(edges)
    with np.errstate(all="ignore"):
        factors = fn(nodes) * np.exp(1j * w0 * nodes)
    if not np.all(np.isfinite(factors)):
        raise QuadratureNonConvergence(f"phase integrand is not finite on [0, {t}]")

    # cumulative moments at segment starts, then a local partial inside
    c_start, s_start = 0.0, 0.0
    total, err = 0.0, 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        def integrand(tau, a=a, c0=c_start, s0=s_start):
            c_loc = quad(fn, a, tau, weight="cos", wvar=w0, **_QUAD_OPTS)[0] if tau > a else 0.0
            s_loc = quad(fn, a, tau, weight="sin", wvar=w0, **_QUAD_OPTS)[0] if tau > a else 0.0
            return fn(tau) * (
                np.sin(w0 * tau) * (c0 + c_loc) - np.cos(w0 * tau) * (s0 + s_loc)
            )

        val, abserr = quad(integrand, a, b, epsabs=1e-10, epsrel=1e-10, limit=200)
        total += val
        err += abserr
        c_start += quad(fn, a, b, weight="cos", wvar=w0, **_QUAD_OPTS)[0]
        s_start += quad(fn, a, b, weight="sin", wvar=w0, **_QUAD_OPTS)[0]
    if not err <= _PHI_TOL:
        raise QuadratureNonConvergence(
            f"phase quadrature error {err:.3e} exceeds {_PHI_TOL:.1e}"
        )
    # hbar**2 underflows to 0 for hbar below about 1e-162
    return total / hbar / hbar


def branch_geometric_phase(evolution) -> float:
    """Geometric phase of one branch: line integral along the sampled path.

    evolution is a BranchEvolution.  Composite Simpson over
    Im[alpha* alpha_dot] with the analytically sampled velocity; this
    route is independent of the polygon-area one.
    """
    if len(evolution.times) < MIN_PATH_SAMPLES:
        raise InsufficientResolution(
            f"geometric phase needs at least {MIN_PATH_SAMPLES} path samples"
        )
    integrand = (np.conj(evolution.alphas) * evolution.alpha_dots).imag
    return -float(simpson(integrand, x=evolution.times))


def shoelace_area(path) -> float:
    """Signed polygon area of complex samples; positive counter-clockwise."""
    pts = np.asarray(path, dtype=complex)
    if pts.ndim != 1 or pts.size < 3:
        raise DegeneratePath("signed area needs at least 3 samples")
    x, y = pts.real, pts.imag
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
