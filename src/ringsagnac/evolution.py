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

which is what makes an O(N) single-sweep trajectory possible.  On each
elementary interval [a, a + h] (profile kinks are interval edges) the
drive is a short sum lambda(a + d) = sum_r c_r b_r(d): the basis is
{1, d/h} for tabulated and flat profiles, which are affine there, and
{1, cos kd, sin kd} with k = 2 pi / T for the trigonometric families.
Factoring exp(i omega0 tau) = exp(i omega0 a) exp(i omega0 d) leaves the
nested 6x6 Gauss-Legendre rule acting on tables that depend on h alone,
built once per distinct interval width:

    P_r(d) = int_0^d b_r(x) exp(i omega0 x) dx,   G_r = P_r(h),
    S_r    = int_0^h P_r(d) dd,
    K_rs   = int_0^h b_r(d) Im[exp(-i omega0 d) P_s(d)] dd,
    L_rs   = int_0^h Re[conj(P_r(d)) P_s(d)] dd.

With Z = C + i S and Y = exp(-i omega0 a) Z(a), an interval then adds

    dZ              = exp(i omega0 a) sum_r c_r G_r,
    d(phi hbar^2)   = -Im(Y sum_r c_r conj(G_r)) - c^T K c,
    d int |Z|^2     = h |Y|^2 + 2 Re(conj(Y) sum_r c_r S_r) + c^T L c,

a few scalar products per interval and branch.  The branches differ only
in their coefficients, lambda = D (Omega +/- omega_P), so one set of
tables serves both.  One stage computes these interval terms; _sweep runs
them through the sample grid for full paths, and _sweep_ends sums them
for the end values, which are all that decompose and the time-domain
phase read.

The rule is exact through degree 11, so the end values reach rounding
once every interval has omega0 h <= 1.  _sweep_ends therefore sizes its
own grid, max(MIN_SAMPLES, ceil(omega0 T)) intervals plus the kinks, and
takes n_samples as a cap on that count; _sweep returns samples and keeps
the uniform grid of n_samples intervals.  Both refuse an n_samples
above _MAX_SAMPLES before building anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError, InsufficientResolution
from .model import Branch, ProfileFamily, SweepProfile, TrapConfig, eval_profile

__all__ = ["BranchEvolution", "sample_trajectory"]

MIN_SAMPLES = 16
# the CLI trajectory at this many samples peaks at 770 MB of RSS (fig2 c at
# 730 MB, an end-value sweep of as many intervals at 310 MB); beyond it the
# paths and their text soon take gigabytes
_MAX_SAMPLES = 2**20

# 6-node Gauss-Legendre: exact through degree 11, spectral accuracy for the
# analytic-per-interval integrands used here.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
# widths per block of the Gauss tables: a block's node arrays take about
# 4 MB, and the corpus profiles (10 to 31 widths) are one block
_TABLE_BLOCK = 1024


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


def _drive_basis(profile: SweepProfile, edges: np.ndarray):
    """Coefficients and basis with omega_P(a + d) = sum_r coef[r] basis(d, h)[r].

    Coefficients come from the profile at the edges for the affine families
    and by angle addition for the trigonometric ones.
    """
    T = profile.duration
    a = edges[:-1]
    k = 2 * np.pi / T
    if profile.family is ProfileFamily.SINUSOIDAL:
        # |sin| flips sign at T/2, which is an edge
        amplitude = np.pi**2 / (2 * T) * np.where(a < T / 2, 1.0, -1.0)
        coef = amplitude * np.stack([np.zeros_like(a), np.sin(k * a), np.cos(k * a)])
    elif profile.family is ProfileFamily.COSINUSOIDAL:
        coef = np.pi / T * np.stack([np.ones_like(a), -np.cos(k * a), np.sin(k * a)])
    else:
        values = eval_profile(profile, edges)
        return (np.stack([values[:-1], np.diff(values)]),
                lambda d, h: np.stack([np.ones_like(d), d / h]))
    return coef, lambda d, h: np.stack([np.ones_like(d), np.cos(k * d), np.sin(k * d)])


def _width_tables(hs: np.ndarray, w0: float, basis, n_basis: int):
    """G, S, K and L of the nested rule on [0, h], one column per width h.

    Returns (Re G, Im G, Re S, Im S) stacked as (4, r, u) and (K, L) as
    (2, r, r, u).  The rule's (6, 6) node arrays are built for
    _TABLE_BLOCK widths at a time, so profiles whose kinks make most
    interval widths distinct stay within a fixed working set.
    """
    vectors = np.empty((4, n_basis, len(hs)))
    forms = np.empty((2, n_basis, n_basis, len(hs)))
    for start in range(0, len(hs), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        h = hs[block]
        # outer nodes d_j on [0, h], inner nodes x on [0, d_j],
        # P_r(d_j) = int_0^d_j b_r(x) exp(i w0 x) dx
        d = h[:, None] / 2 * (_GL_X + 1)                                 # (u, 6)
        w = h[:, None] / 2 * _GL_W
        x = d[:, :, None] / 2 * (_GL_X + 1)                              # (u, 6, 6)
        v = d[:, :, None] / 2 * _GL_W
        turn_d = np.exp(1j * w0 * d)
        basis_d = basis(d, h[:, None])                                   # (r, u, 6)
        partial = np.einsum("ujk,rujk->ruj", v * np.exp(1j * w0 * x), basis(x, h[:, None, None]))
        G = np.einsum("uj,ruj->ru", w * turn_d, basis_d)
        S = np.einsum("uj,ruj->ru", w, partial)
        vectors[..., block] = G.real, G.imag, S.real, S.imag
        forms[0][..., block] = np.einsum("uj,ruj,suj->rsu", w, basis_d,
                                         (turn_d.conj() * partial).imag)
        forms[1][..., block] = np.einsum("uj,ruj,suj->rsu", w, partial.conj(), partial).real
    return vectors, forms


@np.errstate(over="ignore", invalid="ignore")
def _interval_terms(config: TrapConfig, profile: SweepProfile, branches, n_samples: int):
    """The stage both sweep consumers share: per-interval terms of every branch.

    The grid is n_samples uniform intervals, a count the callers validate.
    Profile kinks are inserted into the internal integration grid so every
    elementary interval has an analytic integrand.  Returns the sample
    times ts, the integration edges, Y = exp(-i w0 a) Z(a) at every edge
    (branch, edge), and each interval's addition to the phase integral
    phi hbar^2 and to int |Z|^2 (branch, interval).
    """
    T = profile.duration
    w0 = config.trap_frequency
    ts = np.linspace(0.0, T, n_samples + 1)
    interior = [b for b in profile.breakpoints() if 0.0 < b < T]
    edges = np.union1d(ts, np.asarray(interior)) if interior else ts
    widths = np.diff(edges)

    # drive coefficients c[r, branch, interval] of lambda = D (Omega + sign omega_P)
    coef, basis = _drive_basis(profile, edges)
    rotation = np.zeros((len(coef), 1, 1))
    rotation[0] = config.rotation
    c = config.drive_scale * (rotation + _signs(branches) * coef[:, None, :])
    hs, which = np.unique(widths, return_inverse=True)
    vectors, forms = _width_tables(hs, w0, basis, len(coef))

    # per interval: sum_r c_r G_r, sum_r c_r S_r, c^T K c and c^T L c; take
    # keeps the interval axis contiguous, which einsum needs to be fast
    g_re, g_im, s_re, s_im = np.einsum("rkm,qrm->qkm", c, np.take(vectors, which, axis=-1))
    k_form, l_form = np.einsum("rkm,qrsm,skm->qkm", c, np.take(forms, which, axis=-1), c)

    # Z = C + i S runs over the edges; with Y = exp(-i w0 a) Z(a) each
    # interval adds -Im(Y conj(sum c G)) - c^T K c to the phase integral
    # and h |Y|^2 + 2 Re(conj(Y) sum c S) + c^T L c to int |Z|^2
    turn = np.exp(1j * w0 * edges)
    y = np.zeros((len(branches), len(edges)), dtype=complex)
    np.cumsum(turn[:-1] * (g_re + 1j * g_im), axis=-1, out=y[:, 1:])
    y *= turn.conj()
    y_re, y_im = y.real[:, :-1], y.imag[:, :-1]
    d_phase = y_re * g_im - y_im * g_re - k_form
    d_abs2 = widths * (y_re**2 + y_im**2) + 2 * (y_re * s_re + y_im * s_im) + l_form
    return ts, edges, y, d_phase, d_abs2


def _check_samples(n_samples: int):
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    if n_samples > _MAX_SAMPLES:
        raise ConfigurationError(f"n_samples must be at most {_MAX_SAMPLES}, got {n_samples}")
    if n_samples < MIN_SAMPLES:
        raise InsufficientResolution(f"need at least {MIN_SAMPLES} samples, got {n_samples}")


def _signs(branches) -> np.ndarray:
    return np.array([branch.sign for branch in branches], dtype=float)[:, None]


def _require_finite(T: float, *parts):
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise ConvergenceError(
            f"branch sweep over T = {T:g} overflows: its paths or phases are not finite"
        )


@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    config: TrapConfig, profile: SweepProfile, branches, n_samples: int
) -> list[BranchEvolution]:
    """Paths of the given branches on the sample grid, from one interval pass.

    A sweep that overflows (durations or rotation rates near the float
    range) raises ConvergenceError instead of returning inf or NaN.
    """
    _check_samples(n_samples)
    ts, edges, y, d_phase, d_abs2 = _interval_terms(config, profile, branches, n_samples)
    hbar = config.hbar
    runs = np.zeros((2, len(branches), len(edges)))
    np.cumsum(d_phase, axis=-1, out=runs[0, :, 1:])
    np.cumsum(d_abs2, axis=-1, out=runs[1, :, 1:])

    idx = np.searchsorted(edges, ts)
    alphas = -y[:, idx] / hbar
    lam_ts = config.drive_scale * (config.rotation + _signs(branches) * eval_profile(profile, ts))
    alpha_dots = -1j * config.trap_frequency * alphas - lam_ts / hbar
    # |alpha|^2 = |Z|^2 / hbar^2; hbar**2 can underflow
    phases, abs2 = runs[:, :, idx] / hbar / hbar
    _require_finite(profile.duration, alphas, alpha_dots, phases, abs2)
    return [BranchEvolution(branch, ts, *row)
            for branch, *row in zip(branches, alphas, alpha_dots, phases, abs2)]


@np.errstate(over="ignore", invalid="ignore")
def _sweep_ends(
    config: TrapConfig, profile: SweepProfile, branches, n_samples: int
) -> list[tuple[complex, float, float]]:
    """(alpha(T), phi(T), int_0^T |alpha|^2 dt) of each given branch.

    The intervals of _sweep, summed instead of run through, with nothing
    gathered at the sample times: the end values are all that decompose
    and the time-domain phase read.  The grid is sized from omega0 T, where
    omega0 h <= 1 already reaches rounding: max(MIN_SAMPLES, ceil(omega0 T))
    uniform intervals, capped at n_samples, plus the profile kinks.  Where
    the cap binds, and for an omega0 T that is not finite, the grid is
    _sweep's at n_samples.  Overflow raises ConvergenceError.
    """
    _check_samples(n_samples)
    span = config.trap_frequency * profile.duration
    count = max(MIN_SAMPLES, math.ceil(span)) if span < n_samples else n_samples
    y, d_phase, d_abs2 = _interval_terms(config, profile, branches, count)[2:]
    hbar = config.hbar
    alphas = -y[:, -1] / hbar
    phases = d_phase.sum(axis=-1) / hbar / hbar
    abs2 = d_abs2.sum(axis=-1) / hbar / hbar
    _require_finite(profile.duration, alphas, phases, abs2)
    return [(complex(a), float(p), float(m)) for a, p, m in zip(alphas, phases, abs2)]


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; see _sweep.
    """
    return _sweep(config, profile, (branch,), n_samples)[0]
