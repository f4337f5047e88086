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
Factoring exp(i omega0 tau) = exp(i omega0 a) exp(i omega0 d) leaves
tables that depend on h alone, built once per distinct interval width by
a nested 6x6 Gauss-Legendre rule:

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
for the end values, which are all that decompose reads.

The rule is exact through degree 11, so it reaches rounding once
omega0 h <= 1.  A wider interval gets its tables by scaling and doubling
(scaling and squaring, Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005), applied to these tables): the rule runs on w = h / 2^s with
s = ceil(log2(nu h)), and s doublings carry the tables to h; nu is
omega0, plus k for the trigonometric basis.  A shift
acts linearly on the basis, b(w + x) = M b(x), with M = [[1, 0], [w/h, 1]]
for {1, d/h} and a rotation by k w for {1, cos kd, sin kd}, so with
e = exp(i omega0 w) one doubling is

    G' = G + e M G,
    S' = S + w G + e M S,
    K' = K + M (Im[conj(e) conj(G) G^T] + K M^T),
    L' = L + w Re[conj(G) G^T] + X + X^T + M L M^T,
         X = Re[conj(G) (e M S)^T].

Every interval is then exact to rounding at any nu h up to
2^_MAX_DOUBLINGS; beyond it one ulp of nu h is a radian or more, and the
sweep is refused before any table is built.

_sweep_ends takes the end values on the kink grid {0, kinks, T} alone,
which is uniform for every family: the n - 1 segments of a tabulated
profile, the two halves of the sinusoidal one, one interval otherwise.
It builds one width table per call and takes no sample count; decompose
checks its n_samples as _sweep does, but nothing is sized by it.  _sweep
keeps the uniform grid of n_samples intervals, split at the kinks, and
doubles with the common s of its widest interval.  _check_samples
refuses an n_samples above _MAX_SAMPLES before anything is built.

Two builders make the tables.  _width_tables works on arrays of widths
and any basis; _affine_width_table writes the rule and the doublings out
in Python scalars for one width of {1, d/h}, in less than half the time.
The kink grid of a tabulated or flat profile is that one affine width.
The path sweep has one table per distinct width, hundreds to thousands
when the kinks fall off its grid, so it keeps the arrays; so do the
trigonometric kink grids, where a scalar kernel generic in the basis
measured no faster.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError, InsufficientResolution
from .model import (
    Branch,
    ProfileFamily,
    SweepProfile,
    TrapConfig,
    _check_count,
    eval_profile,
    flat_rate,
)

__all__ = ["BranchEvolution", "sample_trajectory"]

MIN_SAMPLES = 16
# beyond nu h = 2^52 (nu = omega0 plus the basis frequency) one ulp of nu h
# is a radian or more, so the turn of an interval carries no phase at all
_MAX_DOUBLINGS = 52
# the CLI trajectory at this many samples peaks at 770 MB of RSS (fig2 c at
# 730 MB); beyond it the paths and their text soon take gigabytes
_MAX_SAMPLES = 2**20

# 6-node Gauss-Legendre: exact through degree 11, spectral accuracy for the
# analytic-per-interval integrands used here; nodes and weights on [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
_GL_X, _GL_W = (_GL_X + 1) / 2, _GL_W / 2
# widths per block of the Gauss tables: a block's node arrays take about
# 4 MB; a path sweep whose kinks make most interval widths distinct needs
# several blocks
_TABLE_BLOCK = 1024
# the rule as Python floats for _affine_width_table: per outer node j, X_j,
# the inner node products X_j X_k and the weights W_j X_j^p, p = 0..4; per
# inner node k, W_k and W_k X_k
_GL_ROWS = tuple((x, tuple(x * y for y in _GL_X.tolist()), *(w * x**p for p in range(5)))
                 for x, w in zip(_GL_X.tolist(), _GL_W.tolist()))
_GL_INNER = tuple((w, w * x) for x, w in zip(_GL_X.tolist(), _GL_W.tolist()))


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


def _drive_basis(profile: SweepProfile, a: np.ndarray, values: np.ndarray | None):
    """Coefficients, basis and shift with omega_P(a + d) = sum_r coef[r] basis(d, h)[r].

    The affine families read their coefficients from values, the profile
    at the interval edges; the trigonometric ones take them by angle
    addition at the left edges a.  shift(w, h) is the matrix M, stacked as
    (..., r, r) over the shape of w, with basis(w + x, h) = M basis(x, h).
    """
    T = profile.duration
    k = 2 * np.pi / T
    if profile.family is ProfileFamily.SINUSOIDAL:
        # |sin| flips sign at T/2, which is an edge
        amplitude = np.pi**2 / (2 * T) * np.where(a < T / 2, 1.0, -1.0)
        coef = amplitude * np.stack([np.zeros_like(a), np.sin(k * a), np.cos(k * a)])
    elif profile.family is ProfileFamily.COSINUSOIDAL:
        coef = np.pi / T * np.stack([np.ones_like(a), -np.cos(k * a), np.sin(k * a)])
    else:
        def affine_shift(w, h):
            M = np.zeros((*w.shape, 2, 2))
            M[..., 0, 0] = M[..., 1, 1] = 1.0
            M[..., 1, 0] = w / h
            return M

        return (np.array([values[:-1], np.diff(values)]),
                lambda d, h: np.array([np.ones_like(d), d / h]), affine_shift)

    def rotation(w, h):
        M = np.zeros((*w.shape, 3, 3))
        M[..., 0, 0] = 1.0
        M[..., 1, 1] = M[..., 2, 2] = np.cos(k * w)
        M[..., 2, 1] = np.sin(k * w)
        M[..., 1, 2] = -M[..., 2, 1]
        return M

    return (coef, lambda d, h: np.array([np.ones_like(d), np.cos(k * d), np.sin(k * d)]),
            rotation)


def _doublings(profile: SweepProfile, w0: float, h: float) -> int:
    """Doublings s that bring an interval of width h to the rule's range.

    s = ceil(log2(nu h)), at least 0, where nu is the highest frequency in
    an interval's integrand: omega0, plus k = 2 pi / T for the
    trigonometric basis, whose half-period kink grid would otherwise leave
    k w near pi.  A nu h above 2^_MAX_DOUBLINGS, or not finite, is refused
    before any table is built.
    """
    nu = w0
    if profile.family in (ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL):
        nu = w0 + 2 * np.pi / profile.duration
    span = nu * h
    if not span <= 2.0**_MAX_DOUBLINGS:
        raise InsufficientResolution(
            f"the width tables cannot resolve omega0 h = {w0 * h:.3e} (nu h = {span:.3e} "
            f"with the basis frequency): beyond 2^{_MAX_DOUBLINGS} one ulp of it is a "
            f"radian or more"
        )
    return math.ceil(math.log2(span)) if span > 1.0 else 0


def _doubled(G, S, K, L, w, h, w0: float, shift, doublings: int):
    """The tables on [0, w 2^doublings] from those on [0, w] (module docstring).

    Takes G and S as (u, r) and K and L as (u, r, r); returns them as
    (r, u) and (r, r, u).  Every level's turn e and shift M are formed in
    one pass before the loop.
    """
    ws = w * 2.0 ** np.arange(doublings)[:, None]                     # (s, u)
    turns = np.exp(1j * w0 * ws)[..., None]
    for w, e, M in zip(ws[..., None], turns, shift(ws, h)):
        Mt = M.swapaxes(-1, -2)
        eMS = e * (M @ S[..., None])[..., 0]
        Gc = G.conj()[..., None]
        outer = Gc * G[:, None]                              # conj(G_r) G_s
        cross = (Gc * eMS[:, None]).real                     # X
        K = K + M @ ((e.conj()[..., None] * outer).imag + K @ Mt)
        L = L + w[..., None] * outer.real + cross + cross.swapaxes(-1, -2) + M @ L @ Mt
        S = S + w * G + eMS
        G = G + e * (M @ G[..., None])[..., 0]
    return G.T, S.T, K.transpose(1, 2, 0), L.transpose(1, 2, 0)


def _width_tables(hs: np.ndarray, w0: float, basis, shift, n_basis: int, doublings: int):
    """G, S, K and L on [0, h], one column per width h.

    The nested rule runs on w = h / 2^doublings and each doubling carries
    the tables from [0, w] to [0, 2 w] (module docstring).  Returns
    (Re G, Im G, Re S, Im S) stacked as (4, r, u) and (K, L) as
    (2, r, r, u).  The rule's (6, 6) node arrays are built for
    _TABLE_BLOCK widths at a time, so profiles whose kinks make most
    interval widths distinct stay within a fixed working set.
    """
    vectors = np.empty((4, n_basis, len(hs)))
    forms = np.empty((2, n_basis, n_basis, len(hs)))
    for start in range(0, len(hs), _TABLE_BLOCK):
        block = slice(start, start + _TABLE_BLOCK)
        h = hs[block]
        w = h / 2**doublings
        # outer nodes d_j on [0, w], inner nodes x on [0, d_j],
        # P_r(d_j) = int_0^d_j b_r(x) exp(i w0 x) dx
        d = w[:, None] * _GL_X                                           # (u, 6)
        weight = w[:, None] * _GL_W
        x = d[:, :, None] * _GL_X                                        # (u, 6, 6)
        v = d[:, :, None] * _GL_W
        turn_d = np.exp(1j * w0 * d)
        basis_d = basis(d, h[:, None])                                   # (r, u, 6)
        partial = np.einsum("ujk,rujk->ruj", v * np.exp(1j * w0 * x), basis(x, h[:, None, None]))
        G = np.einsum("uj,ruj->ru", weight * turn_d, basis_d)
        S = np.einsum("uj,ruj->ru", weight, partial)
        K = np.einsum("uj,ruj,suj->rsu", weight, basis_d, (turn_d.conj() * partial).imag)
        L = np.einsum("uj,ruj,suj->rsu", weight, partial.conj(), partial).real
        if doublings:
            G, S, K, L = _doubled(G.T, S.T, K.transpose(2, 0, 1), L.transpose(2, 0, 1),
                                  w, h, w0, shift, doublings)
        vectors[..., block] = G.real, G.imag, S.real, S.imag
        forms[..., block] = K, L
    return vectors, forms


def _affine_width_table(h: float, w0: float, doublings: int):
    """_width_tables for one width h of the affine basis {1, d/h}, in scalars.

    The same nested rule on w = h / 2^doublings: with theta = omega0 w and
    Q_pj = sum_k W_k X_k^p exp(i theta X_j X_k), P_0(d_j) = w X_j Q_0j and
    P_1(d_j) = (w X_j)^2 / h Q_1j, so each table entry is a sum over j of
    W_j X_j^p times T_j = exp(i theta X_j), Q, Im(conj(T_j) Q) or
    Re(conj(Q) Q), scaled by powers of w and u = w / h.  The same doublings
    follow, with M = [[1, 0], [m, 1]], written out entry by entry.  Returns
    the (4, 2, 1) and (2, 2, 2, 1) arrays of _width_tables.  Overflow gives
    inf or NaN entries, as there, for the sweep's finiteness check.
    """
    w = h / 2**doublings
    theta = w0 * w
    rect = cmath.rect
    g0 = g1 = s0 = s1 = 0j
    k00 = k01 = k10 = k11 = l00 = l01 = l11 = 0.0
    for x, products, c0, c1, c2, c3, c4 in _GL_ROWS:
        q0 = q1 = 0j
        for p, (a0, a1) in zip(products, _GL_INNER):
            turn = rect(1.0, theta * p)
            q0 += a0 * turn
            q1 += a1 * turn
        turn = rect(1.0, theta * x)
        back0 = (turn.conjugate() * q0).imag          # Im(conj(T_j) Q_pj)
        back1 = (turn.conjugate() * q1).imag
        g0 += c0 * turn
        g1 += c1 * turn
        s0 += c1 * q0
        s1 += c2 * q1
        k00 += c1 * back0
        k01 += c2 * back1
        k10 += c2 * back0
        k11 += c3 * back1
        l00 += c2 * (q0.real * q0.real + q0.imag * q0.imag)
        l01 += c3 * (q0.real * q1.real + q0.imag * q1.imag)
        l11 += c4 * (q1.real * q1.real + q1.imag * q1.imag)
    u = w / h
    w2 = w * w
    g0, g1, s0, s1 = w * g0, w * u * g1, w2 * s0, w2 * u * s1
    k00, k01, k10, k11 = w2 * k00, w2 * u * k01, w2 * u * k10, w2 * u * u * k11
    l00, l01, l11 = w2 * w * l00, w2 * w * u * l01, w2 * w * u * u * l11
    # one doubling per level (module docstring); L stays symmetric, so
    # l01 stands for both off-diagonal entries
    for level in range(doublings):
        wl = w * 2**level
        m = wl / h
        e = rect(1.0, w0 * wl)
        es0 = e * s0                                  # e M S
        es1 = e * (m * s0 + s1)
        o00 = g0.real * g0.real + g0.imag * g0.imag   # conj(G_r) G_s
        o11 = g1.real * g1.real + g1.imag * g1.imag
        o01 = g0.conjugate() * g1
        a00 = k00 - e.imag * o00                      # Im[conj(e) conj(G) G^T] + K M^T
        a01 = (e.conjugate() * o01).imag + m * k00 + k01
        a10 = k10 - (e * o01).imag
        a11 = m * k10 + k11 - e.imag * o11
        x00 = g0.real * es0.real + g0.imag * es0.imag  # Re[conj(G) (e M S)^T]
        x01 = g0.real * es1.real + g0.imag * es1.imag
        x10 = g1.real * es0.real + g1.imag * es0.imag
        x11 = g1.real * es1.real + g1.imag * es1.imag
        k00, k01, k10, k11 = k00 + a00, k01 + a01, k10 + m * a00 + a10, k11 + m * a01 + a11
        l00, l01, l11 = (2 * (l00 + x00) + wl * o00,
                         2 * l01 + m * l00 + wl * o01.real + x01 + x10,
                         2 * (l11 + x11 + m * l01) + m * m * l00 + wl * o11)
        s0, s1 = s0 + wl * g0 + es0, s1 + wl * g1 + es1
        g0, g1 = g0 + e * g0, g1 + e * (m * g0 + g1)
    vectors = np.array([g0.real, g1.real, g0.imag, g1.imag, s0.real, s1.real, s0.imag, s1.imag])
    forms = np.array([k00, k01, k10, k11, l00, l01, l01, l11])
    return vectors.reshape(4, 2, 1), forms.reshape(2, 2, 2, 1)


@np.errstate(over="ignore", invalid="ignore")
def _interval_terms(config: TrapConfig, branches, edges, widths, coef, vectors, forms):
    """The stage both sweep consumers share: per-interval terms of every branch.

    coef holds the drive coefficients per interval, and vectors and forms
    the width tables, either one column per interval or a single column
    for a grid of one width.  Returns Y = exp(-i w0 a) Z(a) at every edge
    (branch, edge), and each interval's addition to the phase integral
    phi hbar^2 and to int |Z|^2 (branch, interval).
    """
    w0 = config.trap_frequency
    # drive coefficients c[r, branch, interval] of lambda = D (Omega + sign omega_P)
    rotation = np.zeros((len(coef), 1, 1))
    rotation[0] = config.rotation
    c = config.drive_scale * (rotation + _signs(branches) * coef[:, None, :])

    # per interval: sum_r c_r G_r, sum_r c_r S_r, c^T K c and c^T L c
    g_re, g_im, s_re, s_im = np.einsum("rk...,qr...->qk...", c, vectors)
    k_form, l_form = np.einsum("rk...,qrs...,sk...->qk...", c, forms, c)

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
    return y, d_phase, d_abs2


def _kink_grid(profile: SweepProfile):
    """Interval count of the uniform grid {0, kinks, T}, and the profile at its edges.

    The values are read straight from the samples of a tabulated profile;
    they are None for the trigonometric families, whose coefficients come
    by angle addition.
    """
    if profile.family is ProfileFamily.TABULATED:
        return len(profile.samples) - 1, np.asarray(profile.samples)
    if profile.family is ProfileFamily.FLAT:
        return 1, np.full(2, flat_rate(profile.duration))
    return len(profile.breakpoints()) + 1, None


def _end_grid_text(config: TrapConfig, profile: SweepProfile) -> str:
    """omega0 h of the kink grid and the doublings of its table, for refusals."""
    w0 = config.trap_frequency
    h = profile.duration / _kink_grid(profile)[0]
    return (f"omega0 h = {w0 * h:.3e} on the kink grid, whose width table took "
            f"{_doublings(profile, w0, h)} doublings")


def _check_samples(n_samples: int):
    _check_count("n_samples", n_samples)
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be at least 1, got {n_samples}")
    if n_samples > _MAX_SAMPLES:
        raise ConfigurationError(f"n_samples must be at most {_MAX_SAMPLES}, got {n_samples}")
    if n_samples < MIN_SAMPLES:
        raise InsufficientResolution(f"need at least {MIN_SAMPLES} samples, got {n_samples}")


def _signs(branches) -> np.ndarray:
    return np.array([branch.sign for branch in branches], dtype=float)[:, None]


def _require_finite(T: float, *parts):
    if not all(np.isfinite(part).all() for part in parts):
        raise ConvergenceError(
            f"branch sweep over T = {T:g} overflows: its paths or phases are not finite"
        )


@np.errstate(over="ignore", invalid="ignore")
def _sweep(
    config: TrapConfig, profile: SweepProfile, branches, n_samples: int
) -> list[BranchEvolution]:
    """Paths of the given branches on the sample grid, from one interval pass.

    The grid is n_samples uniform intervals; profile kinks are inserted
    into it so every elementary interval has an analytic integrand.  A
    sweep that overflows (durations or rotation rates near the float
    range) raises ConvergenceError instead of returning inf or NaN.
    """
    _check_samples(n_samples)
    T = profile.duration
    w0 = config.trap_frequency
    ts = np.linspace(0.0, T, n_samples + 1)
    interior = [b for b in profile.breakpoints() if 0.0 < b < T]
    edges = np.union1d(ts, np.asarray(interior)) if interior else ts
    widths = np.diff(edges)
    hs, which = np.unique(widths, return_inverse=True)
    doublings = _doublings(profile, w0, hs[-1])
    values = eval_profile(profile, edges)
    coef, basis, shift = _drive_basis(profile, edges[:-1], values)
    vectors, forms = _width_tables(hs, w0, basis, shift, len(coef), doublings)
    # take keeps the interval axis contiguous, which einsum needs to be fast
    y, d_phase, d_abs2 = _interval_terms(
        config, branches, edges, widths, coef,
        np.take(vectors, which, axis=-1), np.take(forms, which, axis=-1))
    hbar = config.hbar
    runs = np.zeros((2, len(branches), len(edges)))
    np.cumsum(d_phase, axis=-1, out=runs[0, :, 1:])
    np.cumsum(d_abs2, axis=-1, out=runs[1, :, 1:])

    idx = np.searchsorted(edges, ts)
    alphas = -y[:, idx] / hbar
    lam_ts = config.drive_scale * (config.rotation + _signs(branches) * values[idx])
    alpha_dots = -1j * w0 * alphas - lam_ts / hbar
    # |alpha|^2 = |Z|^2 / hbar^2; hbar**2 can underflow
    phases, abs2 = runs[:, :, idx] / hbar / hbar
    _require_finite(T, alphas, alpha_dots, phases, abs2)
    return [BranchEvolution(branch, ts, *row)
            for branch, *row in zip(branches, alphas, alpha_dots, phases, abs2)]


@np.errstate(over="ignore", invalid="ignore")
def _sweep_ends(
    config: TrapConfig, profile: SweepProfile, branches
) -> list[tuple[complex, float, float]]:
    """(alpha(T), phi(T), int_0^T |alpha|^2 dt) of each given branch.

    The interval terms of _sweep, summed instead of run through, on the
    kink grid {0, kinks, T} alone: its intervals share the width
    h = T / count, so one table, doubled until it spans h, serves them all
    and the end values are exact to rounding at any omega0 h.  The table
    of an affine grid (tabulated and flat profiles, whose edge values come
    from _kink_grid) is the scalar _affine_width_table; the trigonometric
    grids take _width_tables (module docstring).  Overflow raises
    ConvergenceError.
    """
    T = profile.duration
    w0 = config.trap_frequency
    count, values = _kink_grid(profile)
    h = T / count
    doublings = _doublings(profile, w0, h)
    edges = h * np.arange(count + 1.0)
    edges[-1] = T
    coef, basis, shift = _drive_basis(profile, edges[:-1], values)
    if values is None:
        vectors, forms = _width_tables(np.array([h]), w0, basis, shift, len(coef), doublings)
    else:
        vectors, forms = _affine_width_table(h, w0, doublings)
    y, d_phase, d_abs2 = _interval_terms(config, branches, edges, h, coef, vectors, forms)
    hbar = config.hbar
    alphas = -y[:, -1] / hbar
    phases = d_phase.sum(axis=-1) / hbar / hbar
    abs2 = d_abs2.sum(axis=-1) / hbar / hbar
    _require_finite(T, alphas, phases, abs2)
    return [(complex(a), float(p), float(m)) for a, p, m in zip(alphas, phases, abs2)]


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; see _sweep.
    """
    return _sweep(config, profile, (branch,), n_samples)[0]
