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
The branches differ only in the sign of the sweep term,
lambda = D (Omega +/- omega_P), so one sweep serves both: the nodes,
profile values and trig are evaluated once, and each branch combines the
rotation and profile parts of the moment sums with its own sign.
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
    ConvergenceError,
    InsufficientResolution,
    QuadratureNonConvergence,
    TimeOutOfRange,
)
from .model import Branch, SweepProfile, TrapConfig, eval_profile, lambda_drive

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


def _node_sum(weights, values):
    # sum over the inner nodes; einsum beats np.sum on a length-6 last axis
    return np.einsum("mij,mij->mi", weights, values)


@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    config: TrapConfig, profile: SweepProfile, branches, n_samples: int
) -> list[BranchEvolution]:
    """Paths of the given branches from one pass over the nested Gauss nodes.

    Profile kinks are inserted into the internal integration grid so every
    elementary interval has an analytic integrand.  A sweep that overflows
    (durations or rotation rates near the float range) raises
    ConvergenceError instead of returning inf or NaN.
    """
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    if n_samples < MIN_SAMPLES:
        raise InsufficientResolution(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    T = profile.duration
    w0 = config.trap_frequency
    hbar = config.hbar
    scale, rotation = config.drive_scale, config.rotation
    signs = np.array([branch.sign for branch in branches], dtype=float)[:, None, None]
    ts = np.linspace(0.0, T, n_samples + 1)
    interior = [b for b in profile.breakpoints() if 0.0 < b < T]
    edges = np.union1d(ts, np.asarray(interior)) if interior else ts
    n_int = len(edges) - 1

    # running C, S, phi-integral and |alpha|^2-integral, one row per branch
    cum_c, cum_s, cum_p, cum_a = np.zeros((4, len(branches), n_int + 1))
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
        lam_tau = scale * (rotation + signs * eval_profile(profile, tau))  # (k, m, 6)
        cos_tau = np.cos(w0 * tau)
        sin_tau = np.sin(w0 * tau)

        dC = np.sum(w_tau * lam_tau * cos_tau, axis=-1)             # (k, m)
        dS = np.sum(w_tau * lam_tau * sin_tau, axis=-1)
        cum_c[:, i0 + 1:i1 + 1] = cum_c[:, i0:i0 + 1] + np.cumsum(dC, axis=-1)
        cum_s[:, i0 + 1:i1 + 1] = cum_s[:, i0:i0 + 1] + np.cumsum(dS, axis=-1)

        # nested partial moments from each interval start to each outer node;
        # C and S are linear in lambda = D (Omega + sign omega_P), so each
        # splits into a rotation part and a profile part that every branch
        # combines with its own sign
        span = tau - a[:, None]
        s_nodes = a[:, None, None] + span[:, :, None] * (_GL_X[None, None, :] + 1) / 2
        s_w = span[:, :, None] * _GL_W[None, None, :] / 2
        s_wp = s_w * eval_profile(profile, s_nodes)
        cos_s = np.cos(w0 * s_nodes)
        sin_s = np.sin(w0 * s_nodes)
        c_part = scale * (rotation * _node_sum(s_w, cos_s) + signs * _node_sum(s_wp, cos_s))
        s_part = scale * (rotation * _node_sum(s_w, sin_s) + signs * _node_sum(s_wp, sin_s))

        c_nodes = cum_c[:, i0:i1, None] + c_part                     # (k, m, 6)
        s_nodes_run = cum_s[:, i0:i1, None] + s_part
        phi_integrand = lam_tau * (sin_tau * c_nodes - cos_tau * s_nodes_run)
        dPhi = np.sum(w_tau * phi_integrand, axis=-1)
        # |alpha|^2 = (C^2 + S^2)/hbar^2 shares the running moments
        dA = np.sum(w_tau * (c_nodes**2 + s_nodes_run**2), axis=-1)
        cum_p[:, i0 + 1:i1 + 1] = cum_p[:, i0:i0 + 1] + np.cumsum(dPhi, axis=-1)
        cum_a[:, i0 + 1:i1 + 1] = cum_a[:, i0:i0 + 1] + np.cumsum(dA, axis=-1)

    idx = np.searchsorted(edges, ts)
    alphas = -(cum_c[:, idx] + 1j * cum_s[:, idx]) / hbar * np.exp(-1j * w0 * ts)
    lam_ts = scale * (rotation + signs[:, :, 0] * eval_profile(profile, ts))
    alpha_dots = -1j * w0 * alphas - lam_ts / hbar
    phases = cum_p[:, idx] / hbar / hbar  # hbar**2 can underflow
    abs2 = cum_a[:, idx] / hbar / hbar
    if not all(np.all(np.isfinite(part)) for part in (alphas, alpha_dots, phases, abs2)):
        raise ConvergenceError(
            f"branch sweep over T = {T:g} overflows: its paths or phases are not finite"
        )
    return [BranchEvolution(branch, ts, *row)
            for branch, *row in zip(branches, alphas, alpha_dots, phases, abs2)]


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; see _sweep.
    """
    return _sweep(config, profile, (branch,), n_samples)[0]
