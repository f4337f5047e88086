"""Interrogation-time design for the three analytic sweep families.

A scheme is useful when the sweep spectrum vanishes at the trap
frequency: contrast is then maximal and the interferometer phase equals
the Sagnac phase.  For the analytic families this happens at

    flat          omega0 T = 2 K pi,          K = 1, 2, ...
    sinusoidal    omega0 T = 2 (2L + 1) pi,   L = 0, 1, ...
    cosinusoidal  omega0 T = 2 M pi,          M = 2, 3, ...

The cosinusoidal M = 1 point is excluded: the spectrum's limit there is
-sqrt(pi/2)/2, not zero.  All returned flags are re-verified numerically
rather than assumed from the rules above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigurationError, InvalidIndex, NoZeroInBracket, UnsupportedFamily
from .interferometer import readout
from .model import ProfileFamily, SweepProfile, TrapConfig, _linspace, make_profile
from .sensitivity import _integer_periods
from .spectrum import spectrum_closed_form

if TYPE_CHECKING:
    from .geometry import PhaseDecomposition

__all__ = ["SchemeSpec", "design_time", "find_zero_time"]

_PHASE_EQUALITY_TOL = 1e-8
_OBJECTIVE_FLOOR = 1e-16
_SCAN_POINTS = 128


@dataclass(frozen=True)
class SchemeSpec:
    """A designed scheme with its numerically verified condition flags."""

    family: ProfileFamily
    index: int | None
    config: TrapConfig
    duration: float
    profile: SweepProfile
    spectrum_zero: bool
    phase_equality: bool
    qcrb_time: bool
    decomposition: PhaseDecomposition


def _verified_scheme(family, config, duration, index) -> SchemeSpec:
    # imported here, so that an index refused by design_time loads no numpy
    from .geometry import _SPECTRUM_ZERO_TOL, decompose

    profile = make_profile(family, duration)
    result = readout(config, profile)
    spectrum_zero = bool(abs(result.spectrum.value) <= _SPECTRUM_ZERO_TOL)
    phi_s = result.sagnac
    phase_equality = bool(abs(result.phase - phi_s) <= _PHASE_EQUALITY_TOL * abs(phi_s))
    return SchemeSpec(
        family=ProfileFamily(family),
        index=index,
        config=config,
        duration=float(duration),
        profile=profile,
        spectrum_zero=spectrum_zero,
        phase_equality=phase_equality,
        qcrb_time=bool(_integer_periods(config, profile)),
        decomposition=decompose(config, profile),
    )


def design_time(family, config: TrapConfig, index: int) -> SchemeSpec:
    """Scheme at the family's index-th admissible interrogation time."""
    family = ProfileFamily(family)
    w0 = config.trap_frequency
    if family is ProfileFamily.FLAT:
        if index < 1:
            raise InvalidIndex(f"flat scheme index starts at 1, got {index}")
        duration = 2 * index * math.pi / w0
    elif family is ProfileFamily.SINUSOIDAL:
        if index < 0:
            raise InvalidIndex(f"sinusoidal scheme index starts at 0, got {index}")
        duration = 2 * (2 * index + 1) * math.pi / w0
    elif family is ProfileFamily.COSINUSOIDAL:
        if index == 1:
            # the would-be first harmonic: spectrum limit is finite, not zero
            limit = float(spectrum_closed_form(family, 2 * math.pi / w0, w0).value.real)
            raise InvalidIndex(
                f"cosinusoidal index 1 rejected: spectrum limit {limit:.17g} is nonzero",
                limit_value=limit,
            )
        if index < 2:
            raise InvalidIndex(f"cosinusoidal scheme index starts at 2, got {index}")
        duration = 2 * index * math.pi / w0
    else:
        raise UnsupportedFamily("design rules exist only for the analytic families")
    return _verified_scheme(family, config, duration, index)


def _profile_for_duration(shape: SweepProfile, duration) -> SweepProfile:
    # the shape stretched to the new window; tabulated samples renormalized
    return make_profile(shape.family, duration, samples=shape.samples)


def _bounded_brent(f, lo: float, hi: float, xatol: float, maxiter: int) -> tuple:
    """(x, f(x)) at a minimum of f on [lo, hi] by Brent's fmin.

    Golden-section steps, with a parabola through the three best points
    taken when it falls inside the bracket and shrinks the step enough.
    It stops when the bracket is within 2 tol of the best point, where
    tol = sqrt(eps) |x| + xatol / 3, or after maxiter evaluations.  The
    constants, tests and steps are those of scipy's bounded
    minimize_scalar, so both return the same x and f(x).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    # x the best point so far, w the second best, v the one before w
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step, and the one before it
    calls = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(x - xm) > tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x)
            if parabolic:
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if xm - x >= 0 else -tol1
        if not parabolic:
            e = a - x if x >= xm else b - x
            d = golden * e
        u = x + (-1.0 if d < 0 else 1.0) * max(abs(d), tol1)
        fu = f(u)
        calls += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        if calls >= maxiter:
            return x, fx


def find_zero_time(shape: SweepProfile, config: TrapConfig, bracket) -> float:
    """Interrogation time in the bracket where the spectrum vanishes.

    shape is a profile whose family, and samples for a tabulated one, are
    stretched to each candidate window; its own duration is not used.
    Minimizes |W(omega0)|^2 over the bracket (both real and imaginary
    parts must vanish for full contrast): a 128-point scan localizes the
    dip, then Brent's bounded minimiser (golden sections and parabolic
    steps, _bounded_brent) polishes it within the scan cells beside the
    best point.

    That refinement stops near sqrt(eps) |T|, not at its xatol of
    1e-10 2 pi / omega0: Brent's stopping tolerance adds sqrt(eps) |T| to
    xatol / 3.  On the palindromic shape (0.4, 1, 1, 0.4) over (7, 8.5) at
    natural units it returns T = 7.6448845176266005 with |W| = 6.3e-9,
    while |W| falls below 2e-16 at 7.644884568650893, 5.1e-8 further on.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0 < lo < hi):
        raise ConfigurationError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    w0 = config.trap_frequency

    def objective(duration: float) -> float:
        profile = _profile_for_duration(shape, duration)
        return abs(readout(config, profile).spectrum.value) ** 2

    grid = _linspace(lo, hi, _SCAN_POINTS)
    values = [objective(t) for t in grid]
    best = values.index(min(values))  # the first minimum, as numpy.argmin
    lo_ref = grid[max(best - 1, 0)]
    hi_ref = grid[min(best + 1, _SCAN_POINTS - 1)]
    x, fx = _bounded_brent(objective, lo_ref, hi_ref, 1e-10 * 2 * math.pi / w0, 400)
    if not fx <= _OBJECTIVE_FLOOR:
        raise NoZeroInBracket(
            f"best |W(omega0)|^2 in bracket is {fx:.3e}, above {_OBJECTIVE_FLOOR:.1e}"
        )
    return float(x)
