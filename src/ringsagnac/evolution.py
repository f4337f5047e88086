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
tables that depend on h alone, built once per distinct interval width
(by a nested 6x6 Gauss-Legendre rule, or in closed form for the affine
kink grid, below):

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
tables serves both.  _interval_terms computes these terms, and _sweep
runs them through the sample grid for full paths.

The path sweep's tables come from the nested rule, which is exact
through degree 11 and so reaches rounding once nu h <= 1.  A wider
interval gets its tables by scaling and doubling (scaling and squaring,
Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), applied to these
tables): the rule runs on w = h / 2^s with s = ceil(log2(nu h)), and s
doublings carry the tables to h; nu is omega0, plus k for the
trigonometric basis.  A shift acts linearly on the basis,
b(w + x) = M b(x), with M = [[1, 0], [w/h, 1]] for {1, d/h} and a rotation
by k w for {1, cos kd, sin kd}, so with e = exp(i omega0 w) one doubling is

    G' = G + e M G,
    S' = S + w G + e M S,
    K' = K + M (Im[conj(e) conj(G) G^T] + K M^T),
    L' = L + w Re[conj(G) G^T] + X + X^T + M L M^T,
         X = Re[conj(G) (e M S)^T].

Every interval is then exact to rounding at any nu h up to
2^_MAX_DOUBLINGS; beyond it one ulp of nu h is a radian or more, and the
sweep is refused before any table is built.  _sweep keeps the uniform
grid of n_samples intervals, split at the kinks, and doubles with the
common s of its widest interval.  _check_samples refuses an n_samples
above _MAX_SAMPLES before anything is built.

_sweep_ends takes the end values on the kink grid {0, kinks, T} alone,
uniform for every family, so one width table serves it and no sample
count sizes it.  The affine table is in closed form (_affine_table, with
Taylor series below theta = omega0 h = 2, where the forms cancel); the
trigonometric grids keep the rule.  On one width every sum over the
intervals is a quadratic form in c = a e_0 + sign b coef (a = D Omega,
b = D), a part common to both branches and a part the sign flips, which
_gram_ends takes from one prefix sum and one Gram product.
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
# analytic-per-interval integrands used here; nodes and weights on [0, 1],
# the bits of numpy.polynomial.legendre.leggauss(6) mapped there, written
# out so that importing the package does not load numpy.polynomial
_GL_X = np.array([0.03376524289842403, 0.16939530676686776, 0.38069040695840156,
                  0.6193095930415985, 0.8306046932331322, 0.9662347571015759])
_GL_W = np.array([0.08566224618958514, 0.18038078652406936, 0.23395696728634552,
                  0.23395696728634552, 0.18038078652406936, 0.08566224618958514])
# widths per block of the Gauss tables: a block's node arrays take about
# 4 MB; a path sweep whose kinks make most interval widths distinct needs
# several blocks
_TABLE_BLOCK = 1024
# the affine tables at theta = omega0 h are G = h g, S = h^2 s, K = h^2 k and
# L = h^3 l; each real entry (G and S as re, im pairs, then K and L by rows)
# is (weights . columns) / (6 theta^p), a column being theta^a 1, sin or cos
_AFFINE_COLUMNS = ((0, "1"), (1, "1"), (2, "1"), (3, "1"), (0, "sin"), (1, "sin"),
                   (0, "cos"), (1, "cos"))
_AFFINE_ROWS = (
    (1, (0, 0, 0, 0, 6, 0, 0, 0)), (1, (6, 0, 0, 0, 0, 0, -6, 0)),         # Re, Im g0
    (2, (-6, 0, 0, 0, 0, 6, 6, 0)), (2, (0, 0, 0, 0, 6, 0, 0, -6)),        # Re, Im g1
    (2, (6, 0, 0, 0, 0, 0, -6, 0)), (2, (0, 6, 0, 0, -6, 0, 0, 0)),        # Re, Im s0
    (3, (0, -6, 0, 0, 12, 0, 0, -6)), (3, (12, 0, 0, 0, 0, -6, -12, 0)),   # Re, Im s1
    (2, (0, -6, 0, 0, 6, 0, 0, 0)), (3, (6, 0, -3, 0, 0, 0, -6, 0)),       # k00, k01
    (3, (-6, 0, -3, 0, 0, 6, 6, 0)), (4, (0, 0, 0, -2, 6, 0, 0, -6)),      # k10, k11
    (3, (0, 12, 0, 0, -12, 0, 0, 0)), (4, (6, 0, 3, 0, 0, -6, -6, 0)),     # l00, l01
    (4, (6, 0, 3, 0, 0, -6, -6, 0)), (5, (0, 12, 0, 2, -24, 0, 0, 12)),    # l10 = l01, l11
)
# below the switch the numerators cancel (to eps / theta^4 of their terms),
# so the Taylor series serve, truncated below 1e-21; each side is within
# 2e-15 of the exact entries, scaled by the modulus of the complex ones
_AFFINE_SWITCH = 2.0
_AFFINE_TERMS = 28


def _affine_series(p: int, weights) -> list[float]:
    """Taylor coefficients in theta of one affine entry, each rounded once.

    Over 6 m! the theta^m coefficient of a column is an integer: m! / j!
    (-1)^(j // 2), j = m - a, odd for sin, even for cos, 0 for theta^a
    (m! / j! = perm(m, a)).
    """
    terms = [(a, kind, weight) for (a, kind), weight in zip(_AFFINE_COLUMNS, weights) if weight]
    row = []
    for m in range(p, p + _AFFINE_TERMS):
        total = 0
        for a, kind, weight in terms:
            j = m - a
            if j >= 0 and (j == 0 if kind == "1" else j % 2 == (kind == "sin")):
                total += weight * (-1) ** (j // 2) * math.perm(m, a)
        row.append(total / (6 * math.factorial(m)))
    return row


_AFFINE_WEIGHTS = np.array([weights for _, weights in _AFFINE_ROWS], dtype=float)
_AFFINE_POWERS = np.array([p for p, _ in _AFFINE_ROWS])
_AFFINE_SERIES = np.array([_affine_series(*row) for row in _AFFINE_ROWS])
_AFFINE_ORDERS = np.arange(_AFFINE_TERMS)
_AFFINE_SCALES = np.repeat((1, 2, 3), (4, 8, 4))                  # powers of h


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

        return (np.array([values[:-1], values[1:] - values[:-1]]),
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


def _affine_table(h: float, theta: float):
    """[G, S] (complex (2, 2)) and [K, L] (real (2, 2, 2)) of {1, d/h} on [0, h].

    The closed forms at theta = omega0 h >= _AFFINE_SWITCH, the series
    below it.  Overflow of h^2 or h^3 gives inf entries, for the sweep's
    finiteness check.
    """
    if theta < _AFFINE_SWITCH:
        entries = _AFFINE_SERIES @ theta**_AFFINE_ORDERS
    else:
        sin, cos = math.sin(theta), math.cos(theta)
        columns = (1.0, theta, theta * theta, theta * theta * theta,
                   sin, theta * sin, cos, theta * cos)
        entries = (_AFFINE_WEIGHTS @ columns) / (6 * theta**_AFFINE_POWERS)
    entries *= h**_AFFINE_SCALES
    return entries[:8].view(complex).reshape(2, 2), entries[8:].reshape(2, 2, 2)


@np.errstate(over="ignore", invalid="ignore")
def _interval_terms(config: TrapConfig, branches, edges, widths, coef, vectors, forms):
    """The path sweep's stage: per-interval terms of every branch.

    coef holds the drive coefficients per interval, and vectors and forms
    the width tables, one column per interval.  Returns Y = exp(-i w0 a) Z(a)
    at every edge (branch, edge), and each interval's addition to the phase
    integral phi hbar^2 and to int |Z|^2 (branch, interval).
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
    """omega0 h of the kink grid and how its table was built, for refusals."""
    w0 = config.trap_frequency
    count, values = _kink_grid(profile)
    h = profile.duration / count
    table = ("is in closed form" if values is not None
             else f"took {_doublings(profile, w0, h)} doublings")
    return f"omega0 h = {w0 * h:.3e} on the kink grid, whose width table {table}"


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
    # alpha = -Y / hbar, divided part by part: numpy's complex division
    # multiplies by 1/hbar, which is inf at a subnormal hbar and turns zero
    # paths into NaN.  The cross terms with the zero ratio of its (Smith's)
    # formula keep the quotient's signed zeros, so at hbar = 1 the bits are
    # those of the complex division
    neg = -y[:, idx]
    alphas = np.empty_like(neg)
    np.divide(neg.real + neg.imag * 0.0, hbar, out=alphas.real)
    np.divide(neg.imag - neg.real * 0.0, hbar, out=alphas.imag)
    lam_ts = config.drive_scale * (config.rotation + _signs(branches) * values[idx])
    alpha_dots = -1j * w0 * alphas - lam_ts / hbar
    # |alpha|^2 = |Z|^2 / hbar^2; hbar**2 can underflow
    phases, abs2 = runs[:, :, idx] / hbar / hbar
    _require_finite(T, alphas, alpha_dots, phases, abs2)
    return [BranchEvolution(branch, ts, *row)
            for branch, *row in zip(branches, alphas, alpha_dots, phases, abs2)]


def _gram_ends(config: TrapConfig, h: float, edges, coef, tables, forms):
    """Z(T) exp(-i w0 T), phi hbar^2, int |Z|^2 of both branches, as (even, odd) pairs.

    Rows E = exp(i w0 a_i), E b coef . G and E b coef . S, the exclusive
    prefix sums P of the first two (conj(Y) c . G = conj(P) E c . G), b coef,
    ones, K b coef and L b coef: one Gram product of conj([P, b coef]) with
    them gives every sum, the rotation rows being a G_0 E and a S_0 E.  The
    forms act on b coef first, as in _sweep, so no square of the drive is
    formed.  tables is [G, S] (2, r), forms [K, L] (2, r, r), for width h.
    """
    w0, drive = config.trap_frequency, config.drive_scale
    count, n = len(edges) - 1, len(coef)
    rows = np.empty((6 + 3 * n, count + 1), dtype=complex)
    np.exp(1j * w0 * edges, out=rows[0])
    swept = rows[5:5 + n, :-1]
    np.multiply(coef, drive, out=swept)
    rows[5 + n] = 1.0
    np.matmul(forms.reshape(2 * n, n), swept, out=rows[6 + n:, :-1])
    np.multiply(tables @ swept, rows[0, :-1], out=rows[1:3, :-1])
    rows[3:5, 0] = 0.0
    np.cumsum(rows[0:2, :-1], axis=1, out=rows[3:5, 1:])
    gram = (rows[3:5 + n, :-1].conj() @ rows[:, :-1].T).tolist()
    # sums of conj(P_E) and conj(P_u) times E, u, v, P_E and P_u
    (ee, eu, ev, e_e, e_p), (pe, pu, pv, _, p_p) = (row[:5] for row in gram[:2])
    a = drive * config.rotation
    (g, *_), (s, *_) = tables.tolist()
    g, s = a * g, a * s
    gg, gc = g.real * g.real + g.imag * g.imag, g.conjugate()
    # sum_i c_i^T F c_i: even a F_00 a count + sum_i (b coef_i)^T F (b coef_i),
    # odd a sum_r (F_0r + F_r0) (sum_i b coef_i)_r
    form_sums = []
    for q, form in enumerate(forms.tolist(), start=1):
        even, odd = a * form[0][0] * a * count, 0.0
        for r, row in enumerate(gram[2:]):
            even += row[6 + q * n + r].real
            odd += (form[0][r] + form[r][0]) * row[5 + n].real
        form_sums.append((even, odd * a))
    (k_even, k_odd), (l_even, l_odd) = form_sums
    phase = ((gg * ee + pu).imag - k_even, (gc * eu + g * pe).imag - k_odd)
    square = (h * (gg * e_e.real + p_p.real) + 2 * (gc * s * ee + pv).real + l_even,
              2 * (h * (gc * e_p).real + (gc * ev + s * pe).real) + l_odd)
    back = complex(rows[0, -1]).conjugate()
    return (g * complex(rows[3, -1]) * back, complex(rows[4, -1]) * back), phase, square


@np.errstate(over="ignore", invalid="ignore")
def _sweep_ends(config: TrapConfig, profile: SweepProfile):
    """alpha(T), phi(T) and int_0^T |alpha|^2 dt of both branches, as (even, odd) pairs.

    The branch of sign s takes even + s odd; the odd parts are half the
    branch differences.  One table for the kink grid's width (module
    docstring), exact to rounding below the 2^_MAX_DOUBLINGS ceiling, which
    is refused before any table is built.  Overflow raises ConvergenceError.
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
        tables, forms = vectors[0::2, :, 0] + 1j * vectors[1::2, :, 0], forms[..., 0]
    else:
        tables, forms = _affine_table(h, w0 * h)
    (z, z_odd), (phase, phase_odd), (square, square_odd) = _gram_ends(
        config, h, edges, coef, tables, forms)
    hbar = config.hbar
    parts = ((-z / hbar, -z_odd / hbar), (phase / hbar / hbar, phase_odd / hbar / hbar),
             (square / hbar / hbar, square_odd / hbar / hbar))
    if not all(cmath.isfinite(value) for pair in parts for value in pair):
        raise ConvergenceError(
            f"branch sweep over T = {T:g} overflows: its paths or phases are not finite"
        )
    return parts


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; see _sweep.
    """
    return _sweep(config, profile, (branch,), n_samples)[0]
