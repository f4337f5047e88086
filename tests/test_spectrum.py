"""Sweep-profile transform: closed forms, the exact route, quadrature, and derivative."""

import cmath
import math

import numpy as np
import pytest

import ringsagnac.cli
import ringsagnac.oracle
import ringsagnac.spectrum
from ringsagnac import (
    ConfigurationError,
    ProfileFamily,
    QuadratureNonConvergence,
    TrapConfig,
    UnsupportedFamily,
    decompose,
    design_time,
    eval_profile,
    find_zero_time,
    make_profile,
    readout,
    sensitivity_report,
    spectrum_closed_form,
)
from ringsagnac.oracle import spectrum_derivative, spectrum_numeric
from ringsagnac.spectrum import _SERIES_SWITCH, _exact_spectrum, _kernel, _tabulated_moments

HALF_PI_SQRT = 1.2533141373155001  # sqrt(pi/2)

ANALYTIC = [ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL]


@pytest.mark.parametrize("family", ANALYTIC)
def test_zero_frequency_value(family):
    # W(0) = (1/sqrt(2 pi)) * integral of omega_P = sqrt(pi/2) for every
    # admissible profile
    value = spectrum_closed_form(family, 5.7, 0.0).value
    assert value.real == pytest.approx(HALF_PI_SQRT, rel=1e-15)
    assert value.imag == 0.0


def test_zero_frequency_value_tabulated(random_profile):
    rng = np.random.default_rng(3)
    for _ in range(5):
        profile = random_profile(rng)
        value = spectrum_numeric(profile, 0.0).value
        assert value.real == pytest.approx(HALF_PI_SQRT, rel=1e-10)
        assert value.imag == pytest.approx(0.0, abs=1e-12)


def test_flat_quarter_frequency():
    # T = 2 pi, omega = 0.5: u = pi, so Re = 0 and Im = -sqrt(pi/2)*2/pi
    value = spectrum_closed_form(ProfileFamily.FLAT, 2 * np.pi, 0.5).value
    assert value.real == pytest.approx(0.0, abs=1e-16)
    assert value.imag == pytest.approx(-0.7978845608028654, rel=1e-15)


def test_cosinusoidal_removable_point():
    # the u = 2 pi quotient is 0/0 with finite limit -sqrt(pi/2)/2
    value = spectrum_closed_form(ProfileFamily.COSINUSOIDAL, 2 * np.pi, 1.0).value
    assert value.real == pytest.approx(-0.6266570686577501, rel=1e-15)
    assert value.imag == pytest.approx(0.0, abs=1e-16)


def test_sinusoidal_zero_at_fundamental():
    value = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 2 * np.pi, 1.0).value
    assert value == 0.0 + 0.0j


@pytest.mark.parametrize(
    "family,durations",
    [
        (ProfileFamily.FLAT, [2 * np.pi, 4 * np.pi, 6 * np.pi]),
        (ProfileFamily.SINUSOIDAL, [2 * np.pi, 6 * np.pi]),
        (ProfileFamily.COSINUSOIDAL, [4 * np.pi, 6 * np.pi]),
    ],
)
def test_design_zeros(family, durations):
    # the families vanish at u = 2K pi (flat), u = 2(2L+1) pi (sinusoidal),
    # and u = 2M pi with M >= 2 (cosinusoidal)
    for T in durations:
        value = spectrum_closed_form(family, T, 1.0).value
        assert abs(value) < 1e-15


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_matches_quadrature(family):
    rng = np.random.default_rng(17)
    T = 2 * np.pi
    profile = make_profile(family, T)
    for omega in rng.uniform(0.0, 4.0, size=30):
        closed = spectrum_closed_form(family, T, omega).value
        numeric = spectrum_numeric(profile, omega).value
        assert abs(closed - numeric) < 1e-10


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_near_removable_points(family):
    # walk a dense ladder across the factored-form window edges
    T = 3.1
    for d in np.logspace(-12, -1, 40):
        for u0 in (0.0, 2 * np.pi):
            omega = (u0 + d) / T
            closed = spectrum_closed_form(family, T, omega).value
            numeric = spectrum_numeric(make_profile(family, T), omega).value
            assert abs(closed - numeric) < 1e-10


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 1e-20, 1e-9, 0.25, 1.0, -2.5, 3.7, 1e6])
def test_scalar_sinc_is_numpys(x):
    # the closed forms run on math; their sinc keeps numpy's definition,
    # 1e-20 in place of x = 0 included, to within numpy's own sine
    assert ringsagnac.spectrum._sinc(x) == pytest.approx(float(np.sinc(x)), rel=2.3e-16, abs=0)


def test_conjugate_symmetry():
    profile = make_profile(ProfileFamily.SINUSOIDAL, 5.0)
    for omega in (0.3, 1.7):
        plus = spectrum_numeric(profile, omega).value
        minus = spectrum_numeric(profile, -omega).value
        assert minus == pytest.approx(plus.conjugate(), rel=1e-13)
        c_plus = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 5.0, omega).value
        c_minus = spectrum_closed_form(ProfileFamily.SINUSOIDAL, 5.0, -omega).value
        assert c_minus == c_plus.conjugate()


def test_tabulated_has_no_closed_form():
    with pytest.raises(UnsupportedFamily):
        spectrum_closed_form(ProfileFamily.TABULATED, 1.0, 1.0)


@pytest.mark.parametrize("family", ANALYTIC)
def test_closed_form_rejects_overflowing_argument(family):
    # omega T overflows to inf, where the closed forms give NaN
    with pytest.raises(ConfigurationError):
        spectrum_closed_form(family, 2 * np.pi, 1e308)


def test_method_tags():
    assert spectrum_closed_form(ProfileFamily.FLAT, 1.0, 1.0).method == "closed-form"
    profile = make_profile(ProfileFamily.FLAT, 1.0)
    assert spectrum_numeric(profile, 1.0).method == "quadrature"


@pytest.mark.parametrize(
    "family,duration,expected",
    [
        # frozen against the central-difference oracle on the closed forms
        (ProfileFamily.FLAT, 2 * np.pi, 1.2533141373155001),
        (ProfileFamily.SINUSOIDAL, 2 * np.pi, 1.5462143406995714),
        (ProfileFamily.COSINUSOIDAL, 4 * np.pi, -0.4177713791051667),
    ],
)
def test_derivative_at_design_points(family, duration, expected):
    profile = make_profile(family, duration)
    assert spectrum_derivative(profile, 1.0) == pytest.approx(expected, rel=1e-10)


def test_derivative_matches_finite_difference(random_profile):
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(5):
        profile = random_profile(rng)
        omega = float(rng.uniform(0.2, 2.0))
        fd = (
            spectrum_numeric(profile, omega + h).value.real
            - spectrum_numeric(profile, omega - h).value.real
        ) / (2 * h)
        assert spectrum_derivative(profile, omega) == pytest.approx(fd, abs=1e-6)


def test_derivative_odd_in_frequency():
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    assert spectrum_derivative(profile, 0.0) == 0.0
    plus = spectrum_derivative(profile, 0.7)
    minus = spectrum_derivative(profile, -0.7)
    assert minus == pytest.approx(-plus, rel=1e-13)


# exact route: closed forms and exact segment sums, no quadrature


def test_exact_route_matches_quadrature_on_tabulated_profiles(random_profile):
    rng = np.random.default_rng(41)
    for _ in range(200):
        profile = random_profile(rng)
        h = profile.duration / (len(profile.samples) - 1)
        switch = 2 * _SERIES_SWITCH / h  # omega at which theta = omega h / 2 switches
        for omega in (1.0, 0.0, -0.7, switch * (1 - 1e-9), switch * (1 + 1e-9)):
            sample, slope = _exact_spectrum(profile, omega)
            assert sample.method == "exact piecewise-linear"
            assert abs(sample.value - spectrum_numeric(profile, omega).value) <= 1e-12
            assert abs(slope - spectrum_derivative(profile, omega)) <= 1e-12
        zero = _exact_spectrum(profile, 0.0)
        assert zero[0].value.real == pytest.approx(HALF_PI_SQRT, rel=1e-15)
        assert zero[0].value.imag == 0.0 and zero[1] == 0.0


def test_segment_kernels_on_both_sides_of_the_series_switch():
    # series below the switch, closed forms above it: both against a
    # 20-node Gauss-Legendre rule, exact to rounding for these integrands
    x, w = np.polynomial.legendre.leggauss(20)
    x, w = (x + 1) / 2, w / 2
    for theta in (0.0, 1e-3, _SERIES_SWITCH * (1 - 1e-9), _SERIES_SWITCH * (1 + 1e-9),
                  -_SERIES_SWITCH * (1 + 1e-9), 3.0):
        tx = theta * x
        reference = (np.cos(tx) @ w, (x * np.sin(tx)) @ w, (x * x * np.cos(tx)) @ w)
        for kernel, expected in zip(_kernel(theta), reference):
            assert abs(kernel - expected) <= 1e-15
    # and keep their symmetry: m0 and q even, j1 odd
    for theta in (0.3, 2.0):
        (m0, j1, q), (m0_minus, j1_minus, q_minus) = _kernel(theta), _kernel(-theta)
        assert m0 == m0_minus and q == q_minus and j1 == -j1_minus


def _exact_angles(w, times_hi, times_lo):
    """w (times_hi + times_lo) as hi + lo to about eps^2 of the angle, elementwise.

    Dekker's splitting: each double is the sum of two 26-bit halves, whose
    products are exact, so hi + lo carries the product with no rounding.
    """
    def halves(x):
        c = 134217729.0 * x  # 2^27 + 1
        hi = c - (c - x)
        return hi, x - hi

    hi = w * times_hi
    (w_hi, w_lo), (t_hi, t_lo) = halves(np.float64(w)), halves(times_hi)
    lo = ((w_hi * t_hi - hi) + w_hi * t_lo + w_lo * t_hi) + w_lo * t_lo
    return hi, lo + w * times_lo


def _vectorised_moments(profile, w):
    """The numpy segment sums, with each phase exp(-i w mid) taken at the exact angle.

    mid = h (i + 1/2) and w mid are formed without rounding (_exact_angles),
    so the reference carries no phase error of order eps w T, which the
    rounded products w mid of the segment loop had.
    """
    f = np.asarray(profile.samples)
    h = profile.duration / (f.size - 1)
    half = h / 2
    m0, j1, q = _kernel(w * half)
    odd = -1j * j1
    mid = h * np.arange(0.5, f.size - 1)
    _, mid_lo = _exact_angles(h, np.arange(0.5, f.size - 1), 0.0)
    angle, angle_lo = _exact_angles(w, mid, mid_lo)
    phase = np.exp(-1j * angle) * (1 - 1j * angle_lo)
    area, tilt = half * (f[1:] + f[:-1]), half * (f[1:] - f[:-1])
    terms = area * m0 + odd * tilt
    moment = (phase * ((mid + mid_lo) * terms + half * (tilt * q + odd * area))).sum()
    return complex((phase * terms).sum()), complex(moment)


@pytest.mark.parametrize("seed", range(3))
def test_scalar_moments_match_the_vectorised_sums(seed):
    # 2 to 400 nodes, and three grids of 1025 to 4097 nodes, so numpy's
    # pairwise sum runs sequentially, unrolled and split and the Horner pass
    # runs over up to 128 blocks; at frequencies up to omega T = 1e6 and at
    # theta = omega h / 2 on both sides of the series switch.  The two
    # routes round each term differently, so they agree to a few ulps of
    # the integrals' scales, pi for W and pi T for the moment
    rng = np.random.default_rng(seed)
    for i in range(43):
        duration = float(10 ** rng.uniform(-3, 3))
        size = rng.integers(2, 401) if i < 40 else (1025, 2049, 4097)[i - 40]
        profile = make_profile(ProfileFamily.TABULATED, duration,
                               samples=rng.uniform(0.0, 1.0, size))
        switch = 2 * _SERIES_SWITCH * (size - 1) / duration
        for w in (0.0, float(rng.uniform(0, 5)), float(10 ** rng.uniform(-3, 6)) / duration,
                  switch * (1 - 1e-9), switch * (1 + 1e-9)):
            (value, moment), (ref_value, ref_moment) = (
                _tabulated_moments(profile, w), _vectorised_moments(profile, w))
            assert abs(value - ref_value) <= 4e-15 * np.pi
            assert abs(moment - ref_moment) <= 4e-15 * np.pi * duration


# W(omega) and d Re W / d omega of the exact piecewise-linear transform of the
# rescaled float samples at the float T and omega, from 60-digit mpmath, each
# with the error it is known to.  At omega T = 2.2e15 one rounding of
# omega h / 2 moves a phase by up to eps omega T rad, so W and the slope are
# known to eps omega T of themselves (the segment loop this pass replaced
# was off by 2.2e-16 in W there, 2.4 times |W|); the 4097-node grids, at
# theta = omega h / 2 = 1.5e-3 in the series and 4.5 in the closed forms,
# to 1e-15 of their scales sqrt(pi/2) and sqrt(pi/2) T
_EPS = np.finfo(float).eps
_LONG = [((j * 7919) % 1000 + 100) / 1100 for j in range(4097)]
MPMATH_SPECTRA = [
    ([0.3, 1.0, 0.6, 0.2], 2 * np.pi, 3.5e14,
     complex(-1.5825898776351331813e-17, -9.3097816588739847558e-17), 1.1571074270404380607e-15,
     _EPS * 3.5e14 * 2 * np.pi),
    (_LONG, 7.3, 1.7,
     complex(-0.015860490392771511023, -0.0012921823721185886078), 0.73764686195308311734, None),
    (_LONG, 7.3, 5000.0,
     complex(-7.5433846675839606205e-6, -1.3638692006270713799e-6), 9.3861627212083566772e-7, None),
]


@pytest.mark.parametrize("samples, duration, omega, value, slope, relative", MPMATH_SPECTRA,
                         ids=["4-nodes-3.5e14", "4097-nodes-series", "4097-nodes-closed"])
def test_exact_route_matches_mpmath_on_long_grids_and_high_frequency(
        samples, duration, omega, value, slope, relative):
    profile = make_profile(ProfileFamily.TABULATED, duration, samples=samples)
    sample, got_slope = _exact_spectrum(profile, omega)
    if relative is None:
        value_tol, slope_tol = 1e-15 * HALF_PI_SQRT, 1e-15 * HALF_PI_SQRT * duration
    else:
        value_tol, slope_tol = relative * abs(value), relative * abs(slope)
    assert abs(sample.value - value) <= value_tol
    assert abs(got_slope - slope) <= slope_tol


class _CountedExp:
    """cmath with its exp counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def exp(self, z):
        self.calls += 1
        return cmath.exp(z)


@pytest.mark.parametrize("size", [2, 3, 32, 33, 34, 65, 100, 4097])
def test_tabulated_moments_take_one_kernel_and_an_exp_per_block(monkeypatch, size):
    # one kernel for the grid's one width; one exact phase per Horner block
    # of 32 nodes, one for exp(-i omega h / 2) and one for the last node
    kernels = []

    def counted(theta):
        kernels.append(theta)
        return _kernel(theta)

    exps = _CountedExp()
    monkeypatch.setattr(ringsagnac.spectrum, "_kernel", counted)
    monkeypatch.setattr(ringsagnac.spectrum, "cmath", exps)
    samples = [((j * 7919) % 1000 + 100) / 1100 for j in range(size)]
    _tabulated_moments(make_profile(ProfileFamily.TABULATED, 7.3, samples=samples), 2.3)
    assert len(kernels) == 1
    assert exps.calls <= math.ceil(size / 32) + 2


@pytest.mark.parametrize("family,count", [("tabulated", 1), ("flat", 1), ("cosinusoidal", 3),
                                          ("sinusoidal", 4)])
def test_one_kernel_evaluation_per_segment_width(monkeypatch, family, count):
    # a tabulated profile has one segment width, so one kernel serves all of
    # its segments; an analytic slope takes one per constant piece, at most four
    calls = []

    def counted(theta):
        calls.append(theta)
        return _kernel(theta)

    monkeypatch.setattr(ringsagnac.spectrum, "_kernel", counted)
    samples = [0.3, 1.0, 0.6, 0.2, 0.9, 0.4, 0.7, 0.5, 0.8, 0.1, 0.6, 0.3]
    profile = make_profile(family, 7.0, samples if family == "tabulated" else None)
    for omega in (1.0, -0.7, 0.0, 40.0):
        calls.clear()
        _exact_spectrum(profile, omega)
        assert len(calls) == count


ANALYTIC_U = [0.0, 2 * np.pi, 2 * np.pi + 1e-9, 2 * np.pi - 1e-9, 2 * np.pi * (1 + 1e-9)]
DESIGN_SCHEMES = [("flat", 1), ("flat", 2), ("flat", 3), ("sinusoidal", 0), ("sinusoidal", 1),
                  ("cosinusoidal", 2), ("cosinusoidal", 3), ("cosinusoidal", 4)]


@pytest.mark.parametrize("family", ANALYTIC)
@pytest.mark.parametrize("u", ANALYTIC_U)
def test_exact_slope_of_analytic_families(family, u):
    # the removable point u = 2 pi is a zero shifted frequency, inside the
    # small-theta series
    T = 3.1
    profile = make_profile(family, T)
    for omega in (u / T, -u / T):
        sample, slope = _exact_spectrum(profile, omega)
        assert sample == spectrum_closed_form(family, T, omega)
        assert abs(slope - spectrum_derivative(profile, omega)) <= 1e-10


@pytest.mark.parametrize("family,index", DESIGN_SCHEMES)
def test_exact_slope_at_design_schemes(family, index):
    config = TrapConfig()
    profile = design_time(family, config, index).profile
    slope = _exact_spectrum(profile, config.trap_frequency)[1]
    assert abs(slope - spectrum_derivative(profile, config.trap_frequency)) <= 1e-10


def test_exact_route_rejects_nonfinite_arguments():
    for family in ANALYTIC:
        with pytest.raises(ConfigurationError):
            _exact_spectrum(make_profile(family, 2 * np.pi), 1e308)
    with pytest.raises(ConfigurationError):
        _exact_spectrum(make_profile(ProfileFamily.TABULATED, 2.0, samples=[1, 2]), 1e308)


@pytest.mark.parametrize("family", ANALYTIC)
def test_exact_route_rejects_a_duration_whose_harmonic_overflows(family):
    # 2 pi / T and pi / T overflow, so the kernel arguments and the piece
    # constants of the slope are not finite: the same configuration error as
    # any other non-finite spectrum, never a math domain error
    with pytest.raises(ConfigurationError, match="spectrum at omega = 1.0 is not finite"):
        _exact_spectrum(make_profile(family, 1e-320), 1.0)


@pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf, 1e308])
@pytest.mark.parametrize("oracle", [spectrum_numeric, spectrum_derivative])
def test_quadrature_oracle_rejects_nonfinite_arguments(oracle, omega):
    # an input error, as on the closed-form and exact routes, not a
    # quadrature that failed to converge
    for profile in (make_profile(ProfileFamily.FLAT, 2 * np.pi),
                    make_profile(ProfileFamily.TABULATED, 2.0, samples=[1, 2])):
        with pytest.raises(ConfigurationError):
            oracle(profile, omega)


def _qawo(profile, omega):
    """W(omega) and d Re W / d omega by scipy's oscillatory-weight quadrature.

    QUADPACK's QAWO on the same kink-aligned segments, an adaptive
    reference independent of the Gauss-Legendre rule.
    """
    edges = ringsagnac.oracle._cut_points(profile, profile.duration)

    def moment(weight, power):
        fn = lambda t: t**power * eval_profile(profile, t)
        return sum(ringsagnac.oracle.quad(fn, a, b, weight=weight, wvar=omega,
                                          epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(edges[:-1], edges[1:]))

    value = complex(moment("cos", 0), -moment("sin", 0)) / np.sqrt(2 * np.pi)
    return value, -moment("sin", 1) / np.sqrt(2 * np.pi)


def test_gauss_rule_matches_qawo(random_profile):
    rng = np.random.default_rng(43)
    profiles = [random_profile(rng), random_profile(rng),
                *(make_profile(family, 2 * np.pi) for family in ANALYTIC)]
    for profile in profiles:
        for omega in (0.0, 0.7, 3.1, 10.0, 1e2, 1e3, 1e4):
            value, slope = _qawo(profile, omega)
            assert abs(spectrum_numeric(profile, omega).value - value) <= 1e-13
            assert abs(spectrum_derivative(profile, omega) - slope) <= 1e-13


@pytest.mark.parametrize(
    "family,duration,omega",
    [
        # t omega_P(t) is about 1e154 while the slope is about 1e-16: only
        # the sine moment's rounding counts against the budget
        (ProfileFamily.SINUSOIDAL, 1e154, 5e-324),
        (ProfileFamily.TABULATED, 1e154, 1e-320),
        # half-width times node weight times t underflows; t omega_P does not
        (ProfileFamily.FLAT, 1e-300, 1e300),
    ],
)
def test_gauss_rule_at_extreme_windows(family, duration, omega):
    samples = [0.3, 1.0, 0.6, 0.2] if family is ProfileFamily.TABULATED else None
    profile = make_profile(family, duration, samples=samples)
    sample, slope = _exact_spectrum(profile, omega)
    assert abs(spectrum_numeric(profile, omega).value - sample.value) <= 1e-15
    assert spectrum_derivative(profile, omega) == pytest.approx(slope, rel=1e-13)


@pytest.mark.parametrize("oracle", [spectrum_numeric, spectrum_derivative])
def test_gauss_rule_refuses_beyond_its_panel_ceiling(oracle):
    # a panel per pi of omega t: omega T = 2^20 pi fills the 2^20 panels of a
    # moment, and one panel more is refused before any node is evaluated
    profile = make_profile(ProfileFamily.FLAT, 1.0)
    oracle(profile, 2.0**10)
    with pytest.raises(QuadratureNonConvergence, match=r"omega T = 3\.29\d+e\+06 .* 1048576"):
        oracle(profile, 2.0**20 * np.pi * (1 + 1e-9))


def test_production_paths_never_run_quadrature(monkeypatch):
    # quadrature is the oracle only: readout, sensitivity, decompose (whose
    # path parts give the time-domain phase), the design routines and the
    # CLI spectrum of an analytic profile run with the spectral oracle's
    # Gauss rule and the time-domain oracles' quad wrapper disabled
    def refuse(*args, **kwargs):
        raise AssertionError("production path called quadrature")

    monkeypatch.setattr(ringsagnac.oracle, "quad", refuse)
    monkeypatch.setattr(ringsagnac.oracle, "_gauss_moments", refuse)
    config = TrapConfig()
    tabulated = make_profile(ProfileFamily.TABULATED, 7.0, samples=[0.3, 1.0, 0.6, 0.2])
    for profile in (*(make_profile(family, 7.0) for family in ANALYTIC), tabulated):
        readout(config, profile)
        sensitivity_report(config, profile)
        decompose(config, profile, n_samples=256)
    for family, index in (("flat", 1), ("sinusoidal", 0), ("cosinusoidal", 2)):
        design_time(family, config, index)
    shape = make_profile(ProfileFamily.TABULATED, 1.0, samples=[0.4, 1.0, 1.0, 0.4])
    assert 7.0 < find_zero_time(shape, config, (7.0, 8.5)) < 8.5
    for family in ANALYTIC:
        assert ringsagnac.cli.run(["spectrum", "--family", family.value]) == 0
