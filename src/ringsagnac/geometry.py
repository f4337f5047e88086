"""Dynamic/geometric decomposition of the interferometer phase.

Per branch, over the interrogation window,

    gamma_d = 2 phi(T) - omega0 int_0^T |alpha|^2 dt - omega0 T / 2
    gamma_g = -int_0^T Im[alpha* d_t alpha] dt,

and for a closed phase-space path gamma_g equals -2 times the enclosed
signed area.  The branch difference of the geometric parts, completed by
the endpoint-overlap angle,

    dgg = gamma_g(co) - gamma_g(counter) + Im[alpha_1* alpha_0],

has an equivalent spectral form

    dgg = sqrt(2/pi) * phi_S * xi,
    xi  = omega0 d_omega Re W |_(omega0) - omega0 T Im W(omega0),

and the dynamic difference dgd makes up the rest of the interferometer
phase: dgd + dgg = phi_I.  When the sweep spectrum vanishes at the trap
frequency the two parts keep a fixed ratio, dgd = (kappa - 1) dgg with
kappa = sqrt(pi/2) / xi0, which classifies a scheme as pure-geometric
(kappa = 1), unconventional-geometric, or fully dynamic (dgg = 0).

Both routes to dgg are computed here: the spectral form (reported) and
the sampled-path form (cross-check), so the decomposition is verified
rather than assumed.  A part "vanishes" at 1e-8 max(1, |phi_I|).  The
label is given only where the routes resolve it.  Each part is known to
the gap between its two routes: the path dgd to phi_I - dgg_spectral, and
dgg_spectral to dgg_path plus the rounding eps omega0 T of the phase
omega0 t, which xi carries.  When |dgd| or |dgg| lies within its spread of
the threshold, decompose refuses instead of labelling.  kappa follows the
label: it is given exactly when the scheme is pure- or
unconventional-geometric and |W(omega0)| <= 1e-8, so a "dynamic" or
"undefined" scheme never carries one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InsufficientResolution, KappaUndefined
from .evolution import _check_samples, _end_grid_text, _sweep_ends
from .interferometer import readout
from .model import SweepProfile, TrapConfig

__all__ = ["PhaseDecomposition", "SchemeClass", "decompose"]

# absolute; beyond it decompose accepts rounding of the branch phases, a
# fraction _PATH_ROUNDING_TOL of their size (measured gaps: up to 50 ulps)
_PATH_AGREEMENT_TOL = 1e-7
_PATH_ROUNDING_TOL = 1e-12
_SPECTRUM_ZERO_TOL = 1e-8
_EPS = math.ulp(1.0)


class SchemeClass(str, Enum):
    PURE_GEOMETRIC = "pure-geometric"
    UNCONVENTIONAL = "unconventional-geometric"
    DYNAMIC = "dynamic"
    UNDEFINED = "undefined"


@dataclass(frozen=True)
class PhaseDecomposition:
    """Split of the interferometer phase into dynamic and geometric parts.

    delta_geometric carries the spectral-form value; the sampled-path
    evaluation is kept in delta_geometric_path as the independent check.
    kappa is None unless the scheme is pure- or unconventional-geometric
    and meets the spectrum-zero premise (module docstring).
    """

    phase: float
    delta_dynamic: float
    delta_geometric: float
    delta_geometric_path: float
    xi: float
    xi0: float
    kappa: float | None
    scheme_class: SchemeClass
    gamma_dynamic: tuple[float, float]
    gamma_geometric: tuple[float, float]
    residual_angle: float

    def require_kappa(self) -> float:
        """The dynamic-to-geometric ratio constant; raises when undefined."""
        if self.kappa is None:
            raise KappaUndefined(
                "no proportionality constant: geometric part vanishes or the "
                "spectrum does not vanish at the trap frequency"
            )
        return self.kappa


def _swept_dynamic_phase(phase: float, mean_square: float, w0: float, T: float) -> float:
    # gamma_d from the sweep-carried |alpha|^2 integral, which is
    # kink-aligned and far below 1e-8 error
    return 2 * phase - w0 * mean_square - w0 * T / 2


def _swept_geometric_phase(phase: float, mean_square: float, w0: float) -> float:
    # Im[alpha* alpha_dot] = -w0 |alpha|^2 + lambda Im(alpha)/hbar and the
    # second term is exactly the phi integrand, so the line integral
    # collapses to carried quantities
    return w0 * mean_square - phase


def _residual_angle(alpha0: complex, alpha1: complex) -> float:
    # endpoint-overlap angle; defined as zero when either endpoint vanishes
    overlap = alpha0 * alpha1.conjugate()
    magnitude = math.hypot(overlap.real, overlap.imag)
    if magnitude == 0.0:
        return 0.0
    return magnitude * math.sin(cmath.phase(alpha0) - cmath.phase(alpha1))


def decompose(
    config: TrapConfig, profile: SweepProfile, n_samples: int = 4096
) -> PhaseDecomposition:
    """Full phase decomposition with spectral/path cross-validation.

    The path parts come from the end-value sweep on the kink grid
    {0, kinks, T}, exact to rounding at any omega0 h, as parts common to
    both branches and parts the branch sign flips; dgd and dgg_path are
    twice the latter, free of the rounding of the former.  n_samples is
    checked as the path sweep checks it, but sizes nothing, so every
    accepted value gives the same bits.  Raises InsufficientResolution
    when the routes disagree or cannot resolve the label (module
    docstring).
    """
    w0 = config.trap_frequency
    T = profile.duration

    result = readout(config, profile)
    w_val = result.spectrum.value
    phase = result.phase
    phi_s = result.sagnac
    xi0 = w0 * result.spectrum_slope
    xi = xi0 - w0 * T * w_val.imag
    dgg_spectral = math.sqrt(2 / math.pi) * phi_s * xi

    _check_samples(n_samples)
    (alpha, alpha_odd), (phi, phi_odd), (square, square_odd) = _sweep_ends(config, profile)
    # each branch is the even part plus or minus the odd one; the branch
    # differences are twice the odd parts, free of the rounding of the even
    # parts.  An overflow in the path parts carries inf or NaN into a NaN
    # gap, which fails the check below like any other disagreement
    phis, squares = (phi + phi_odd, phi - phi_odd), (square + square_odd, square - square_odd)
    gd = tuple(_swept_dynamic_phase(p, s, w0, T) for p, s in zip(phis, squares))
    gg = tuple(_swept_geometric_phase(p, s, w0) for p, s in zip(phis, squares))
    residual = _residual_angle(alpha + alpha_odd, alpha - alpha_odd)
    dgg_path = 2 * _swept_geometric_phase(phi_odd, square_odd, w0) + residual
    gap = abs(dgg_path - dgg_spectral)
    # a gap of a few ulps of dgg is rounding at any size of dgg
    ulps = 4 * math.ulp(dgg_spectral) if math.isfinite(dgg_spectral) else 0.0
    if not gap <= max(_PATH_AGREEMENT_TOL, ulps):
        # beyond it, a gap is taken as rounding of the branch phases, whose size
        # 2 T (D/hbar)^2 (|Omega| + pi/T)^2 / omega0 (D = drive_scale, pi/T the
        # mean sweep rate) comes from the inputs alone, so that an under-resolved
        # sweep cannot widen the tolerance; a tolerance above the Sagnac-phase
        # scale could not tell a right split from a wrong one
        drive = config.drive_scale / config.hbar
        rate = abs(config.rotation) + math.pi / T
        size = 2 * T * drive * drive * rate * rate / w0
        path_tol = max(_PATH_AGREEMENT_TOL, _PATH_ROUNDING_TOL * size)
        phase_scale = max(1.0, abs(phi_s))
        if not gap <= path_tol <= phase_scale:
            raise InsufficientResolution(
                f"path/spectral geometric parts disagree by {gap:.3e} "
                f"(tol {path_tol:.1e}, Sagnac-phase scale {phase_scale:.1e}) "
                f"at {_end_grid_text(config, profile)}"
            )
    dgd = 2 * _swept_dynamic_phase(phi_odd, square_odd, w0, 0.0)

    tol = 1e-8 * max(1.0, abs(phase))
    # each part is known to the gap between its two routes: dgd (path) to
    # phi_I - dgg_spectral, and dgg_spectral to dgg_path plus its own rounding
    # of omega0 t, eps omega0 T rad at t = T, which enters xi as it is
    dynamic_spread = abs(dgd + dgg_spectral - phase)
    spread = gap + math.sqrt(2 / math.pi) * abs(phi_s) * _EPS * w0 * T
    for name, part, margin in (("dgd", dgd, dynamic_spread), ("dgg", dgg_spectral, spread)):
        if abs(abs(part) - tol) <= margin:
            raise InsufficientResolution(
                f"the scheme class is not resolved: |{name}| = {abs(part):.3e} lies within "
                f"{margin:.1e} of the threshold {tol:.1e}, at {_end_grid_text(config, profile)}"
            )
    dynamic_vanishes = abs(dgd) <= tol
    geometric_vanishes = abs(dgg_spectral) <= tol
    if geometric_vanishes:
        label = SchemeClass.UNDEFINED if dynamic_vanishes else SchemeClass.DYNAMIC
    else:
        label = SchemeClass.PURE_GEOMETRIC if dynamic_vanishes else SchemeClass.UNCONVENTIONAL
    kappa = None
    if not geometric_vanishes and abs(w_val) <= _SPECTRUM_ZERO_TOL:
        kappa = math.sqrt(math.pi / 2) / xi0

    return PhaseDecomposition(
        phase=phase,
        delta_dynamic=dgd,
        delta_geometric=dgg_spectral,
        delta_geometric_path=dgg_path,
        xi=xi,
        xi0=xi0,
        kappa=kappa,
        scheme_class=label,
        gamma_dynamic=gd,
        gamma_geometric=gg,
        residual_angle=residual,
    )
