"""Per-branch coherent amplitude and accumulated phase.

Starting from the trap vacuum, each branch stays a coherent state whose
amplitude and phase follow the drive:

    alpha(t) = -(1/hbar) int_0^t lambda(tau) exp[i omega0 (tau - t)] dtau
    phi(t)   = (1/hbar^2) int_0^t dtau1 int_0^tau1 dtau2
               lambda(tau1) lambda(tau2) sin[omega0 (tau1 - tau2)]

Both reduce to running sine/cosine moments of the drive,

    C(t) = int_0^t lambda cos(omega0 tau) dtau,
    S(t) = int_0^t lambda sin(omega0 tau) dtau,
    alpha(t) = -exp(-i omega0 t) (C + i S)/hbar,
    phi(t)   = (1/hbar^2) int_0^t lambda(tau) [sin(omega0 tau) C(tau)
                                               - cos(omega0 tau) S(tau)] dtau,

which is what makes an O(N) single-sweep trajectory possible: the sweep
accumulates C, S, phi over consecutive intervals with nested fixed-order
Gauss-Legendre rules, all intervals evaluated as one vectorized batch.
Point evaluations (alpha_at, phi_at) instead use adaptive quadrature of
the definitions, so the two routes stay independent checks of each other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad as _scipy_quad

from .errors import (
    ConfigurationError,
    InsufficientResolution,
    QuadratureNonConvergence,
    TimeOutOfRange,
)
from .model import Branch, SweepProfile, TrapConfig, lambda_drive

__all__ = ["BranchEvolution", "alpha_at", "phi_at", "sample_trajectory"]

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
_ALPHA_TOL = 1e-10
_PHI_TOL = 1e-8
MIN_SAMPLES = 16

# 6-node Gauss-Legendre: exact through degree 11, spectral accuracy for the
# analytic-per-interval integrands used here.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)


@dataclass(frozen=True)
class BranchEvolution:
    """Sampled phase-space path of one branch.

    times, alphas, alpha_dots and phases share one uniform grid over
    [0, T]; the path starts at the vacuum (alpha = 0, phi = 0).
    abs2_integrals carries the running integral of |alpha|^2, accumulated
    by the same sweep; synthetic paths may omit it.
    """

    branch: Branch
    times: np.ndarray
    alphas: np.ndarray
    alpha_dots: np.ndarray
    phases: np.ndarray
    abs2_integrals: np.ndarray | None = None

    def __post_init__(self):
        if self.times[0] != 0.0 or np.any(np.diff(self.times) <= 0):
            raise ValueError("path times must start at 0 and strictly increase")
        if self.alphas[0] != 0 or self.phases[0] != 0:
            raise ValueError("path must start from the vacuum")
        if self.abs2_integrals is not None and self.abs2_integrals[0] != 0:
            raise ValueError("running |alpha|^2 integral must start at 0")

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def final_alpha(self) -> complex:
        return complex(self.alphas[-1])

    @property
    def final_phase(self) -> float:
        return float(self.phases[-1])


def quad(*args, **kwargs):
    # roundoff chatter near the noise floor is expected, and a NaN integrand
    # comes back as a NaN error estimate; explicit error budgets downstream
    # are the real gate
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", IntegrationWarning)
        return _scipy_quad(*args, **kwargs)


def _cut_points(profile: SweepProfile, t: float) -> list[float]:
    cuts = [b for b in profile.breakpoints() if b < t]
    return [0.0, *cuts, t]


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
    if not err <= _ALPHA_TOL:
        raise QuadratureNonConvergence(
            f"amplitude quadrature error {err:.3e} exceeds {_ALPHA_TOL:.1e}"
        )
    return cos_total, sin_total


def _check_window(profile: SweepProfile, t: float):
    if t < 0 or t > profile.duration:
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
    return total / hbar**2


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; profile kinks are
    inserted into the internal integration grid so every elementary
    interval has an analytic integrand.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    if n_samples < MIN_SAMPLES:
        raise InsufficientResolution(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    T = profile.duration
    w0 = config.trap_frequency
    hbar = config.hbar
    ts = np.linspace(0.0, T, n_samples + 1)
    interior = [b for b in profile.breakpoints() if 0.0 < b < T]
    edges = np.union1d(ts, np.asarray(interior)) if interior else ts
    n_int = len(edges) - 1

    lam = lambda t: lambda_drive(config, profile, branch, t)

    cum_c = np.empty(n_int + 1)
    cum_s = np.empty(n_int + 1)
    cum_p = np.empty(n_int + 1)
    cum_a = np.empty(n_int + 1)
    cum_c[0] = cum_s[0] = cum_p[0] = cum_a[0] = 0.0
    c0 = s0 = p0 = a0 = 0.0
    block = 16384  # keeps the (block, 6, 6) nested-node arrays modest
    for i0 in range(0, n_int, block):
        i1 = min(i0 + block, n_int)
        a = edges[i0:i1]
        b = edges[i0 + 1:i1 + 1]
        half = (b - a) / 2
        mid = (a + b) / 2

        # outer Gauss-Legendre nodes, one row per elementary interval
        tau = mid[:, None] + half[:, None] * _GL_X[None, :]          # (m, 6)
        w_tau = half[:, None] * _GL_W[None, :]
        lam_tau = lam(tau)
        cos_tau = np.cos(w0 * tau)
        sin_tau = np.sin(w0 * tau)

        dC = np.sum(w_tau * lam_tau * cos_tau, axis=1)
        dS = np.sum(w_tau * lam_tau * sin_tau, axis=1)
        c_starts = c0 + np.concatenate(([0.0], np.cumsum(dC[:-1])))
        s_starts = s0 + np.concatenate(([0.0], np.cumsum(dS[:-1])))

        # nested partial moments from each interval start to each outer node
        span = tau - a[:, None]
        s_nodes = a[:, None, None] + span[:, :, None] * (_GL_X[None, None, :] + 1) / 2
        s_w = span[:, :, None] * _GL_W[None, None, :] / 2
        lam_s = lam(s_nodes)
        c_part = np.sum(s_w * lam_s * np.cos(w0 * s_nodes), axis=2)  # (m, 6)
        s_part = np.sum(s_w * lam_s * np.sin(w0 * s_nodes), axis=2)

        c_nodes = c_starts[:, None] + c_part
        s_nodes_run = s_starts[:, None] + s_part
        phi_integrand = lam_tau * (sin_tau * c_nodes - cos_tau * s_nodes_run)
        dPhi = np.sum(w_tau * phi_integrand, axis=1)
        # |alpha|^2 = (C^2 + S^2)/hbar^2 shares the running moments
        dA = np.sum(w_tau * (c_nodes**2 + s_nodes_run**2), axis=1)

        cum_c[i0 + 1:i1 + 1] = c0 + np.cumsum(dC)
        cum_s[i0 + 1:i1 + 1] = s0 + np.cumsum(dS)
        cum_p[i0 + 1:i1 + 1] = p0 + np.cumsum(dPhi)
        cum_a[i0 + 1:i1 + 1] = a0 + np.cumsum(dA)
        c0, s0, p0, a0 = cum_c[i1], cum_s[i1], cum_p[i1], cum_a[i1]

    phi_edges = cum_p / hbar**2
    beta = -(cum_c + 1j * cum_s) / hbar
    alpha_edges = beta * np.exp(-1j * w0 * edges)

    idx = np.searchsorted(edges, ts)
    alphas = alpha_edges[idx]
    phis = phi_edges[idx]
    alpha_dots = -1j * w0 * alphas - lam(ts) / hbar
    return BranchEvolution(branch, ts, alphas, alpha_dots, phis, cum_a[idx] / hbar**2)
