"""Rotation-rate sensitivity of the readout.

Error propagation of the population signal P = -|C| cos(phi_I) gives

    1/(dOmega)^2 = (d phi_I / d Omega)^2 sin^2(phi_I)
                   / (|C|^-2 - 1 + sin^2 phi_I),

bounded above by the quantum Fisher information, which equals
(d phi_I / d Omega)^2 when the interrogation lasts an integer number of
trap periods.  The phase is exactly linear in the rotation rate, so the
slope is analytic:

    d phi_I / d Omega = (2 pi m r^2 / hbar) {1 - sqrt(2/pi) Re W(omega0)},

and ``readout`` carries it as ``phase_slope``, from the same W(omega0)
as the contrast and phase.

The bound saturates at full contrast, which is what makes the designed
spectrum-zero schemes optimal.  ``sensitivity_report`` gives the bound as
``qfi`` only at integer trap periods; elsewhere ``qfi`` is None and
``qfi_valid`` is False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError
from .model import SweepProfile, TrapConfig
from .interferometer import readout

__all__ = ["SensitivityReport", "sensitivity_report"]

_TIME_TOL = 1e-8
_CONTRAST_TOL = 1e-8
# below this, 1/|C|^2 - 1 is unresolvable from zero in double precision
_EXCESS_FLOOR = 1e-16


@dataclass(frozen=True)
class SensitivityReport:
    delta_omega: float       # may be +inf
    signal_fisher: float     # 1/delta_omega^2, 0 when delta_omega is inf
    qfi: float | None
    qfi_valid: bool
    saturated: bool
    limit_evaluated: bool


def _integer_periods(config: TrapConfig, profile: SweepProfile) -> bool:
    cycles = config.trap_frequency * profile.duration / (2 * math.pi)
    return abs(cycles - round(cycles)) * 2 * math.pi <= _TIME_TOL and round(cycles) >= 1


def _delta_omega_raw(excess: float, phase: float, slope: float) -> tuple[float, bool]:
    """(uncertainty, limit_evaluated) from |C|^-2 - 1, phase, and slope."""
    s = math.sin(phase)
    if slope == 0.0:
        return math.inf, False
    if s == 0.0:
        if excess <= _EXCESS_FLOOR:
            # 0/0 point of the formula; its limit is the slope-only value
            return 1.0 / abs(slope), True
        return math.inf, False
    # sqrt(excess + s^2) / |slope s| by hypot and two quotients: s^2 and
    # slope * s underflow for a tiny phase or slope, where 0/0 would be NaN
    return math.hypot(math.sqrt(excess), s) / abs(s) / abs(slope), False


def sensitivity_report(config: TrapConfig, profile: SweepProfile) -> SensitivityReport:
    """Rotation-estimate uncertainty of the population signal, with its Fisher bounds."""
    result = readout(config, profile)
    slope = result.phase_slope
    valid = _integer_periods(config, profile)
    # |C|^-2 - 1 = expm1(|d alpha|^2), accurate for near-unit contrast; it is
    # inf, a lost signal, for widely parted branches
    separation = math.hypot(result.delta_alpha.real, result.delta_alpha.imag)
    try:
        excess = math.expm1(separation * separation)
    except OverflowError:
        excess = math.inf
    value, limit = _delta_omega_raw(excess, result.phase, slope)
    square = value * value
    # a square that underflows to 0 is an information that overflows
    fisher = 0.0 if value == math.inf else (1.0 / square if square else math.inf)
    bound = slope * slope if valid else None
    if not math.isfinite(fisher) or (valid and not math.isfinite(bound)):
        raise ConvergenceError(
            f"Fisher information overflows for the phase slope {slope:.3e}"
        )
    # the bound of a nonzero slope must not read as no information
    if valid and bound == 0.0 and slope != 0.0:
        raise ConvergenceError(
            f"quantum Fisher information underflows to 0 for the phase slope {slope:.3e}"
        )
    saturated = valid and result.contrast >= 1 - _CONTRAST_TOL
    return SensitivityReport(
        delta_omega=value,
        signal_fisher=fisher,
        qfi=bound,
        qfi_valid=valid,
        saturated=saturated,
        limit_evaluated=limit,
    )
