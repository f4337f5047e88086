"""Sweep-profile transform: closed forms, the exact route, quadrature, and derivative."""

import numpy as np
import pytest

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


def _vectorised_moments(profile, w):
    """The numpy segment sums that the scalar pass replaced, kept as a reference."""
    f = np.asarray(profile.samples)
    h = profile.duration / (f.size - 1)
    half = h / 2
    m0, j1, q = _kernel(w * half)
    odd = -1j * j1
    mid = h * np.arange(0.5, f.size - 1)
    area, tilt = half * (f[1:] + f[:-1]), half * (f[1:] - f[:-1])
    phase = np.exp((-1j * w) * mid)
    terms = area * m0 + odd * tilt
    moment = (phase * (mid * terms + half * (tilt * q + odd * area))).sum()
    return complex((phase * terms).sum()), complex(moment)


@pytest.mark.parametrize("seed", range(3))
def test_scalar_moments_match_the_vectorised_sums(seed):
    # 2 to 400 nodes, so numpy's pairwise sum runs sequentially, unrolled and
    # split; the two routes round each segment term differently (numpy's
    # complex products may fuse), so they agree to a few ulps of the
    # integrals' scales, pi for W and pi T for the moment
    rng = np.random.default_rng(seed)
    for _ in range(40):
        duration = float(10 ** rng.uniform(-3, 3))
        profile = make_profile(ProfileFamily.TABULATED, duration,
                               samples=rng.uniform(0.0, 1.0, rng.integers(2, 401)))
        for w in (0.0, float(rng.uniform(0, 5)), float(10 ** rng.uniform(-3, 6)) / duration):
            (value, moment), (ref_value, ref_moment) = (
                _tabulated_moments(profile, w), _vectorised_moments(profile, w))
            assert abs(value - ref_value) <= 4e-15 * np.pi
            assert abs(moment - ref_moment) <= 4e-15 * np.pi * duration


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
    # path parts give the time-domain phase) and the design routines run
    # with the spectral oracle's Gauss rule and the time-domain oracles'
    # quad wrapper disabled
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
