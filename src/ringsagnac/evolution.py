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
one builder per basis (below):

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

The affine table is exact (_affine_table): with theta = omega0 h and the
phi-functions phi_k(z) = sum_j z^j / (j + k)! at z = i theta,

    g = (phi_1, phi_1 - phi_2),           s = (phi_2, phi_2 - 2 phi_3),
    k = -Im[[phi_2, phi_3], [phi_2 - phi_3, phi_3 - phi_4]],
    l = Re[[2 phi_3, phi_3 - phi_4], [phi_3 - phi_4, 2 (phi_4 - 2 phi_5)]],

and G = h g, S = h^2 s, K = h^2 k, L = h^3 l.  Below theta = 2, where
their closed forms in sin theta and cos theta cancel, phi_5 comes from
its Taylor series and phi_4 ... phi_1 from the downward recurrence
phi_(k-1) = z phi_k + 1/(k-1)!, stable there; above it the closed forms
serve.  It runs on Python floats, one call per distinct interval width.

The trigonometric tables come from a nested 6x6 Gauss-Legendre rule,
exact through degree 11, so at rounding once nu h <= 1, nu = omega0 + k.
A wider interval gets its tables by scaling and doubling (scaling and
squaring, Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), applied to
these tables): the rule runs on w = h / 2^s with s = ceil(log2(nu h)),
and s doublings carry the tables to h.  A shift rotates the basis,
b(w + x) = M b(x) with M the rotation by k w of (cos, sin), so with
e = exp(i omega0 w) one doubling is

    G' = G + e M G,
    S' = S + w G + e M S,
    K' = K + M (Im[conj(e) conj(G) G^T] + K M^T),
    L' = L + w Re[conj(G) G^T] + X + X^T + M L M^T,
         X = Re[conj(G) (e M S)^T].

Both tables are exact to rounding up to nu h = 2^_MAX_DOUBLINGS (nu =
omega0 for the affine basis); beyond it one ulp of nu h is a radian or
more, and a sweep is refused before any table is built.  _sweep keeps
the uniform grid of n_samples intervals, split at the kinks, and doubles
with the common s of its widest interval.  _check_samples refuses an
n_samples above _MAX_SAMPLES before anything is built.

_sweep_ends takes the end values on the kink grid {0, kinks, T} alone,
uniform for every family, so one width table serves it and no sample
count sizes it; it runs on Python floats, and the module loads numpy only
when the path sweep or a trigonometric width table first needs it.  On
one width every sum over the intervals is a quadratic form in
c = a e_0 + sign b coef (a = D Omega, b = D), a part common to both
branches and a part the sign flips, which _gram_ends accumulates in one
pass over the intervals (prefix sums of the turns and of dZ, and the sums
of their products with the interval terms above) on coef: D joins each
sum after it, so b coef, which overflows where D pi / T does, never forms.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import numpy as np

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
# the bits of numpy.polynomial.legendre.leggauss(6) mapped there
_GL_X = (0.03376524289842403, 0.16939530676686776, 0.38069040695840156,
         0.6193095930415985, 0.8306046932331322, 0.9662347571015759)
_GL_W = (0.08566224618958514, 0.18038078652406936, 0.23395696728634552,
         0.23395696728634552, 0.18038078652406936, 0.08566224618958514)
# below theta = omega0 h = 2 the affine table comes from the phi-functions,
# above it from the closed forms (module docstring); against mpmath, the
# first side is within 3.2e-16 and the second within 4.3e-16 of the exact
# entries, scaled by the largest of each of g, s, k and l.
# phi_5(i theta) splits into its even and odd powers, polynomials in
# -theta^2 written highest power first for Horner's rule; twelve terms each
# leave less than 1e-21 at the switch
_AFFINE_SWITCH = 2.0
_PHI5_EVEN = tuple(1 / math.factorial(2 * m + 5) for m in reversed(range(12)))
_PHI5_ODD = tuple(1 / math.factorial(2 * m + 6) for m in reversed(range(12)))
# the closed forms: each real entry (g and s as re, im pairs, then k by
# rows, l00, l01 = l10 and l11) is (weights . columns) / (6 theta^p), the
# columns being 1, theta, theta^2, theta^3, sin, theta sin, cos and
# theta cos of theta; the rows keep the nonzero (weight, column) pairs
_AFFINE_ROWS = tuple((p, tuple((w, j) for j, w in enumerate(weights) if w)) for p, weights in (
    (1, (0, 0, 0, 0, 6, 0, 0, 0)), (1, (6, 0, 0, 0, 0, 0, -6, 0)),         # Re, Im g0
    (2, (-6, 0, 0, 0, 0, 6, 6, 0)), (2, (0, 0, 0, 0, 6, 0, 0, -6)),        # Re, Im g1
    (2, (6, 0, 0, 0, 0, 0, -6, 0)), (2, (0, 6, 0, 0, -6, 0, 0, 0)),        # Re, Im s0
    (3, (0, -6, 0, 0, 12, 0, 0, -6)), (3, (12, 0, 0, 0, 0, -6, -12, 0)),   # Re, Im s1
    (2, (0, -6, 0, 0, 6, 0, 0, 0)), (3, (6, 0, -3, 0, 0, 0, -6, 0)),       # k00, k01
    (3, (-6, 0, -3, 0, 0, 6, 6, 0)), (4, (0, 0, 0, -2, 6, 0, 0, -6)),      # k10, k11
    (3, (0, 12, 0, 0, -12, 0, 0, 0)), (4, (6, 0, 3, 0, 0, -6, -6, 0)),     # l00, l01
    (5, (0, 12, 0, 2, -24, 0, 0, 12)),                                     # l11
))


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
        import numpy as np

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


def _affine_coef(values):
    """The affine families' coefficients: each interval's left edge value, then its rise.

    values is the profile at the interval edges, a tuple, a list or a 1-d
    array; the rises come back as a list or as an array to match.
    """
    left, right = values[:-1], values[1:]
    if isinstance(values, (tuple, list)):
        return left, [b - a for a, b in zip(left, right)]
    return left, right - left


def _trig_coef(profile: SweepProfile, a: np.ndarray) -> np.ndarray:
    """Coefficients of omega_P(a + d) in {1, cos kd, sin kd}, by angle addition at a."""
    import numpy as np

    T = profile.duration
    k = 2 * np.pi / T
    if profile.family is ProfileFamily.SINUSOIDAL:
        # |sin| flips sign at T/2, which is an edge
        amplitude = np.pi**2 / (2 * T) * np.where(a < T / 2, 1.0, -1.0)
        return amplitude * np.stack([np.zeros_like(a), np.sin(k * a), np.cos(k * a)])
    return np.pi / T * np.stack([np.ones_like(a), -np.cos(k * a), np.sin(k * a)])


def _doublings(profile: SweepProfile, w0: float, h: float) -> int:
    """Doublings s that bring an interval of width h to the rule's range.

    s = ceil(log2(nu h)), at least 0, where nu is the highest frequency in
    an interval's integrand: omega0, plus k = 2 pi / T for the
    trigonometric basis, whose half-period kink grid would otherwise leave
    k w near pi.  A nu h above 2^_MAX_DOUBLINGS, or not finite, is refused
    before any table is built; the affine tables, in closed form, use only
    that check.
    """
    nu = w0
    if profile.family in (ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL):
        nu = w0 + 2 * math.pi / profile.duration
    span = nu * h
    if not span <= 2.0**_MAX_DOUBLINGS:
        raise InsufficientResolution(
            f"the width tables cannot resolve omega0 h = {w0 * h:.3e} (nu h = {span:.3e} "
            f"with the basis frequency): beyond 2^{_MAX_DOUBLINGS} one ulp of it is a "
            f"radian or more"
        )
    return math.ceil(math.log2(span)) if span > 1.0 else 0


def _width_tables(hs: np.ndarray, w0: float, k: float, doublings: int):
    """G, S, K and L of {1, cos kd, sin kd} on [0, h], one column per width h.

    The nested rule runs on w = h / 2^doublings and each doubling carries
    the tables from [0, w] to [0, 2 w] (module docstring); every level's
    turn e and rotation M are formed before the loop.  Returns (Re G, Im G,
    Re S, Im S) stacked as (4, 3, u) and (K, L) as (2, 3, 3, u).
    """
    import numpy as np

    w = hs / 2**doublings
    # outer nodes d_j on [0, w], inner nodes x on [0, d_j],
    # P_r(d_j) = int_0^d_j b_r(x) exp(i w0 x) dx
    d = w[:, None] * np.array(_GL_X)                                     # (u, 6)
    weight = w[:, None] * np.array(_GL_W)
    x = d[:, :, None] * np.array(_GL_X)                                  # (u, 6, 6)
    v = d[:, :, None] * np.array(_GL_W)
    turn_d = np.exp(1j * w0 * d)
    basis_d = np.array([np.ones_like(d), np.cos(k * d), np.sin(k * d)])  # (3, u, 6)
    basis_x = np.array([np.ones_like(x), np.cos(k * x), np.sin(k * x)])
    partial = np.einsum("ujk,rujk->ruj", v * np.exp(1j * w0 * x), basis_x)
    G = np.einsum("uj,ruj->ur", weight * turn_d, basis_d)
    S = np.einsum("uj,ruj->ur", weight, partial)
    K = np.einsum("uj,ruj,suj->urs", weight, basis_d, (turn_d.conj() * partial).imag)
    L = np.einsum("uj,ruj,suj->urs", weight, partial.conj(), partial).real

    ws = w * 2.0 ** np.arange(doublings)[:, None]                     # (s, u)
    turns = np.exp(1j * w0 * ws)[..., None]
    rotations = np.zeros((*ws.shape, 3, 3))
    rotations[..., 0, 0] = 1.0
    rotations[..., 1, 1] = rotations[..., 2, 2] = np.cos(k * ws)
    rotations[..., 2, 1] = np.sin(k * ws)
    rotations[..., 1, 2] = -rotations[..., 2, 1]
    for w, e, M in zip(ws[..., None], turns, rotations):
        Mt = M.swapaxes(-1, -2)
        eMS = e * (M @ S[..., None])[..., 0]
        Gc = G.conj()[..., None]
        outer = Gc * G[:, None]                              # conj(G_r) G_s
        cross = (Gc * eMS[:, None]).real                     # X
        K = K + M @ ((e.conj()[..., None] * outer).imag + K @ Mt)
        L = L + w[..., None] * outer.real + cross + cross.swapaxes(-1, -2) + M @ L @ Mt
        S = S + w * G + eMS
        G = G + e * (M @ G[..., None])[..., 0]
    return (np.array([G.T.real, G.T.imag, S.T.real, S.T.imag]),
            np.array([K.transpose(1, 2, 0), L.transpose(1, 2, 0)]))


def _phi_functions(theta: float) -> tuple[complex, ...]:
    """phi_1 ... phi_5 at z = i theta (module docstring), for 0 <= theta < 2."""
    x = -theta * theta
    even = odd = 0.0
    for c_even, c_odd in zip(_PHI5_EVEN, _PHI5_ODD):
        even = even * x + c_even
        odd = odd * x + c_odd
    z = 1j * theta
    p5 = complex(even, theta * odd)
    p4 = z * p5 + 1 / 24
    p3 = z * p4 + 1 / 6
    p2 = z * p3 + 1 / 2
    return z * p2 + 1.0, p2, p3, p4, p5


def _affine_table(h: float, theta: float):
    """[G, S] (complex, 2 x 2) and [K, L] (real, 2 x 2 x 2) of {1, d/h} on [0, h].

    Nested lists: the phi-functions below theta = omega0 h = _AFFINE_SWITCH,
    the closed forms above it (module docstring).  Overflow of h^2 or h^3
    gives inf entries, for the end values' finiteness check.
    """
    if theta < _AFFINE_SWITCH:
        p1, p2, p3, p4, p5 = _phi_functions(theta)
        g1, s1 = p1 - p2, p2 - 2 * p3
        entries = (p1.real, p1.imag, g1.real, g1.imag, p2.real, p2.imag, s1.real, s1.imag,
                   -p2.imag, -p3.imag, (p3 - p2).imag, (p4 - p3).imag,
                   2 * p3.real, (p3 - p4).real, 2 * (p4 - 2 * p5).real)
    else:
        sin, cos = math.sin(theta), math.cos(theta)
        t2 = theta * theta
        columns = (1.0, theta, t2, t2 * theta, sin, theta * sin, cos, theta * cos)
        scales = (6 * theta, 6 * t2, 6 * t2 * theta, 6 * t2 * t2, 6 * t2 * t2 * theta)
        entries = []
        for p, terms in _AFFINE_ROWS:
            total = 0.0
            for weight, column in terms:
                total += weight * columns[column]
            entries.append(total / scales[p - 1])
    g0r, g0i, g1r, g1i, s0r, s0i, s1r, s1i, k00, k01, k10, k11, l00, l01, l11 = entries
    h2 = h * h
    h3 = h2 * h
    return ([[complex(g0r * h, g0i * h), complex(g1r * h, g1i * h)],
             [complex(s0r * h2, s0i * h2), complex(s1r * h2, s1i * h2)]],
            [[[k00 * h2, k01 * h2], [k10 * h2, k11 * h2]],
             [[l00 * h3, l01 * h3], [l01 * h3, l11 * h3]]])


def _interval_terms(config: TrapConfig, branches, edges, widths, coef, vectors, forms):
    """The path sweep's stage: per-interval terms of every branch.

    coef holds the drive coefficients per interval, and vectors and forms
    the width tables, one column per interval.  Returns Y = exp(-i w0 a) Z(a)
    at every edge (branch, edge), and each interval's addition to the phase
    integral phi hbar^2 and to int |Z|^2 (branch, interval).  Runs under
    the caller's numpy error state.
    """
    import numpy as np

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
        return len(profile.samples) - 1, profile.samples
    if profile.family is ProfileFamily.FLAT:
        rate = flat_rate(profile.duration)
        return 1, (rate, rate)
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
    import numpy as np

    return np.array([branch.sign for branch in branches], dtype=float)[:, None]


def _overflow(T: float) -> ConvergenceError:
    return ConvergenceError(
        f"branch sweep over T = {T:g} overflows: its paths or phases are not finite"
    )


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
    import numpy as np

    T = profile.duration
    w0 = config.trap_frequency
    ts = np.linspace(0.0, T, n_samples + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        interior = [b for b in profile.breakpoints() if 0.0 < b < T]
        edges = np.union1d(ts, np.asarray(interior)) if interior else ts
        widths = np.diff(edges)
        hs, which = np.unique(widths, return_inverse=True)
        doublings = _doublings(profile, w0, hs[-1])
        values = eval_profile(profile, edges)
        if profile.family in (ProfileFamily.FLAT, ProfileFamily.TABULATED):
            coef = np.array(_affine_coef(values))
            # (u, [G, S], r) and (u, [K, L], r, r) into _width_tables' layout;
            # numpy reads flat lists several times faster than nested ones
            tables, forms = zip(*(_affine_table(h, w0 * h) for h in hs.tolist()))
            flat = itertools.chain.from_iterable
            tables = np.array([*flat(flat(tables))]).reshape(-1, 2, 2)
            forms = np.array([*flat(flat(flat(forms)))]).reshape(-1, 2, 2, 2)
            vectors = np.stack([tables.real, tables.imag], axis=2).reshape(-1, 4, 2)
            vectors, forms = vectors.transpose(1, 2, 0), forms.transpose(1, 2, 3, 0)
        else:
            coef = _trig_coef(profile, edges[:-1])
            vectors, forms = _width_tables(hs, w0, 2 * math.pi / T, doublings)
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
    if not all(np.isfinite(part).all() for part in (alphas, alpha_dots, phases, abs2)):
        raise _overflow(T)
    return [BranchEvolution(branch, ts, *row)
            for branch, *row in zip(branches, alphas, alpha_dots, phases, abs2)]


def _gram_ends(config: TrapConfig, T: float, h: float, coef, tables, forms):
    """Z(T) exp(-i w0 T), phi hbar^2, int |Z|^2 of both branches, as (even, odd) pairs.

    The i-th interval lies at a_i = i h and has the coefficients coef[r][i]:
    the last two rows vary, and a third, the trigonometric constant term's,
    is one number.  With E = exp(i w0 a_i), u = E coef . G, v = E coef . S
    and the exclusive prefix sums P_E and P_u of E and u, one pass sums
    conj(P_E) and conj(P_u) times E, u, v (as E times each varying row,
    through the tables after the pass), P_E and P_u, and coef^T K coef,
    coef^T L coef and coef; a sum of degree k in coef then takes D^k.  The
    rotation's rows are a G_0 E and a S_0 E (a = D Omega); tables [G, S]
    (2 x r, complex) and forms [K, L] (2 x r x r) are those of width h.
    """
    w0, drive = config.trap_frequency, config.drive_scale
    (g_rows, s_rows), (k_rows, l_rows) = tables, forms
    *lead, xs, ys = coef
    count, x_, y_ = len(xs), len(coef) - 2, len(coef) - 1
    const = lead[0][0] if lead else 0.0
    u_const, v_const = (const * g_rows[0], const * s_rows[0]) if lead else (0j, 0j)
    (g_x, g_y), (s_x, s_y) = g_rows[x_:], s_rows[x_:]
    k_xx, k_xy, k_yy = k_rows[x_][x_], k_rows[x_][y_] + k_rows[y_][x_], k_rows[y_][y_]
    l_xx, l_xy, l_yy = l_rows[x_][x_], l_rows[x_][y_] + l_rows[y_][x_], l_rows[y_][y_]
    p_e = p_u = ee = pe = e_x = e_y = p_x = p_y = e_p = 0j
    e_e = p_p = k_quad = l_quad = x_total = y_total = 0.0
    rect = cmath.rect
    for i, (x, y) in enumerate(zip(xs, ys)):
        turn = rect(1.0, w0 * (h * i))
        k_quad += (k_xx * x + k_xy * y) * x + k_yy * y * y  # tables first: x * x may overflow
        l_quad += (l_xx * x + l_xy * y) * x + l_yy * y * y
        x_total, y_total = x_total + x, y_total + y
        ce, cu = p_e.conjugate(), p_u.conjugate()
        e_turn, p_turn = ce * turn, cu * turn
        ee, pe = ee + e_turn, pe + p_turn
        e_x, e_y = e_x + x * e_turn, e_y + y * e_turn
        p_x, p_y = p_x + x * p_turn, p_y + y * p_turn
        e_e, p_p = e_e + (ce * p_e).real, p_p + (cu * p_u).real
        e_p += ce * p_u
        p_e += turn
        p_u += turn * (u_const + x * g_x + y * g_y)
    eu, ev = u_const * ee + g_x * e_x + g_y * e_y, v_const * ee + s_x * e_x + s_y * e_y
    pu, pv = u_const * pe + g_x * p_x + g_y * p_y, v_const * pe + s_x * p_x + s_y * p_y
    # sum_i c_i^T F c_i, c_i = a e_0 + sign D coef_i: even a F_00 a count
    # + D^2 sum_i coef_i^T F coef_i, odd a D sum_r (F_0r + F_r0) sum_i coef_ir
    k_odd = l_odd = 0.0
    for r, total in enumerate((count * const, x_total, y_total)[1 - x_:]):
        k_odd += (k_rows[0][r] + k_rows[r][0]) * total
        l_odd += (l_rows[0][r] + l_rows[r][0]) * total
    if lead:  # the constant term's square and its products with x and y
        k_quad += const * (k_odd - k_rows[0][0] * const * count)
        l_quad += const * (l_odd - l_rows[0][0] * const * count)
    # the sums of degree 1 in coef take one D, those of degree 2 two
    eu, ev, e_p, pe, p_u = drive * eu, drive * ev, drive * e_p, drive * pe, drive * p_u
    pu, pv, p_p = drive * (drive * pu), drive * (drive * pv), drive * (drive * p_p)
    a = drive * config.rotation
    g, s = a * g_rows[0], a * s_rows[0]
    gg, gc = g.real * g.real + g.imag * g.imag, g.conjugate()
    k_even = a * k_rows[0][0] * a * count + drive * (drive * k_quad)
    l_even = a * l_rows[0][0] * a * count + drive * (drive * l_quad)
    phase = ((gg * ee + pu).imag - k_even, (gc * eu + g * pe).imag - drive * k_odd * a)
    square = (h * (gg * e_e + p_p) + 2 * (gc * s * ee + pv).real + l_even,
              2 * (h * (gc * e_p).real + (gc * ev + s * pe).real) + drive * l_odd * a)
    back = cmath.exp(1j * (w0 * T)).conjugate()
    return (g * p_e * back, p_u * back), phase, square


def _sweep_ends(config: TrapConfig, profile: SweepProfile):
    """alpha(T), phi(T) and int_0^T |alpha|^2 dt of both branches, as (even, odd) pairs.

    The branch of sign s takes even + s odd; the odd parts are half the
    branch differences.  One table for the kink grid's width (module
    docstring), exact to rounding below the 2^_MAX_DOUBLINGS ceiling, which
    is refused before any table is built.  Overflow raises ConvergenceError.
    The affine families run on Python floats alone.
    """
    T = profile.duration
    w0 = config.trap_frequency
    count, values = _kink_grid(profile)
    h = T / count
    doublings = _doublings(profile, w0, h)
    if values is None:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            coef = _trig_coef(profile, h * np.arange(float(count)))
            vectors, forms = _width_tables(np.array([h]), w0, 2 * math.pi / T, doublings)
            tables = vectors[0::2, :, 0] + 1j * vectors[1::2, :, 0]
        tables, forms, coef = tables.tolist(), forms[..., 0].tolist(), coef.tolist()
    else:
        tables, forms = _affine_table(h, w0 * h)
        coef = _affine_coef(values)
    (z, z_odd), (phase, phase_odd), (square, square_odd) = _gram_ends(
        config, T, h, coef, tables, forms)
    hbar = config.hbar
    parts = ((-z / hbar, -z_odd / hbar), (phase / hbar / hbar, phase_odd / hbar / hbar),
             (square / hbar / hbar, square_odd / hbar / hbar))
    if not all(cmath.isfinite(value) for pair in parts for value in pair):
        raise _overflow(T)
    return parts


def sample_trajectory(
    config: TrapConfig, profile: SweepProfile, branch: Branch, n_samples: int = 4096
) -> BranchEvolution:
    """Phase-space path on a uniform grid of n_samples+1 points over [0, T].

    One vectorized sweep accumulates the drive moments; see _sweep.
    """
    return _sweep(config, profile, (branch,), n_samples)[0]
