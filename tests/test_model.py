"""Trap parameters, sweep-profile families, and the branch drive."""

from fractions import Fraction

import numpy as np
import pytest

from ringsagnac import (
    Branch,
    ConfigurationError,
    NegativeSample,
    NonPositiveDuration,
    ProfileFamily,
    SweepProfile,
    TrapConfig,
    ZeroProfile,
    eval_profile,
    lambda_drive,
    make_profile,
)
from ringsagnac.design import design_time


def test_natural_defaults(natural):
    assert natural.mass == 1.0
    assert natural.hbar == 1.0
    assert natural.trap_frequency == 1.0
    assert natural.radius == 1.0
    assert natural.rotation == 0.1
    assert natural.drive_scale == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_drive_scale_dimensional():
    config = TrapConfig(mass=2.0, hbar=0.5, trap_frequency=3.0, radius=1.5)
    assert config.drive_scale == pytest.approx(1.5 * np.sqrt(1.5), rel=1e-15)


@pytest.mark.parametrize("name", ["mass", "hbar", "trap_frequency", "radius"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_positive_parameters_enforced(name, bad):
    with pytest.raises(ConfigurationError):
        TrapConfig(**{name: bad})


def test_rotation_may_be_zero_or_negative():
    assert TrapConfig(rotation=0.0).rotation == 0.0
    assert TrapConfig(rotation=-0.3).rotation == -0.3


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rotation_must_be_finite(bad):
    with pytest.raises(ConfigurationError):
        TrapConfig(rotation=bad)


def test_branch_signs():
    assert Branch.CO.sign == 1
    assert Branch.COUNTER.sign == -1


@pytest.mark.parametrize(
    "family",
    [ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL],
)
@pytest.mark.parametrize("bad_duration", [0.0, -2.0])
def test_nonpositive_duration_rejected(family, bad_duration):
    with pytest.raises(NonPositiveDuration):
        make_profile(family, bad_duration)


@pytest.mark.parametrize("family", list(ProfileFamily))
def test_infinite_duration_rejected(family):
    samples = [1.0, 1.0] if family is ProfileFamily.TABULATED else None
    with pytest.raises(ConfigurationError):
        make_profile(family, float("inf"), samples=samples)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_samples_rejected(bad):
    with pytest.raises(ConfigurationError):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[bad, 1.0, 1.0])


@pytest.mark.parametrize(
    "params",
    [
        {"mass": 1e300, "radius": 1e300},
        {"hbar": 1e-320},
        {"rotation": 1e308},
        {"mass": 1e300, "trap_frequency": 1e300},
    ],
)
def test_overflowing_derived_scales_rejected(params):
    with pytest.raises(ConfigurationError, match="not finite"):
        TrapConfig(**params)


@pytest.mark.parametrize("level", [1e308, 1e-320])
def test_unnormalisable_samples_rejected(level):
    # the trapezoid integral overflows, or the rescale factor does
    with pytest.raises(ConfigurationError, match="finite profile"):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[level, level])


def test_trapezoid_sum_beyond_the_float_range_rejected():
    # every trapezoid term is finite, but not their exact sum
    with pytest.raises(ConfigurationError, match="finite profile"):
        make_profile(ProfileFamily.TABULATED, 29.0, samples=[1e307] * 30)


def test_tabulated_validation():
    with pytest.raises(NegativeSample):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[0.2, -0.1, 0.4])
    with pytest.raises(ZeroProfile):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[0.0, 0.0, 0.0])
    with pytest.raises(ConfigurationError):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[1.0])
    with pytest.raises(ConfigurationError):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=[[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("samples", [
    "12", b"12", bytearray(b"12"), "0.5", {1.0: 2.0, 3.0: 4.0}, {1.0, 2.0},
    (value for value in [1.0, 2.0]), None, 3.0, np.array(2.0), np.ones((2, 2)),
    [np.array([1.0]), np.array([2.0])], [1.0, "."], [1.0, 1j], [1.0, None], [10**400, 1.0],
], ids=["str", "bytes", "bytearray", "str-decimal", "dict", "set", "generator", "none",
        "scalar", "0-d", "2-d", "1-element-arrays", "bad-string", "complex", "none-element",
        "huge-int"])
def test_tabulated_refuses_what_is_not_a_1d_sequence_of_numbers(samples):
    with pytest.raises(ConfigurationError):
        make_profile(ProfileFamily.TABULATED, 1.0, samples=samples)


@pytest.mark.parametrize("samples", [
    [0.3, 0.9, 0.6], (0.3, 0.9, 0.6), np.array([0.3, 0.9, 0.6]), ["0.3", "0.9", "0.6"],
    [np.float32(0.3), 0.9, np.int64(1)], range(1, 4),
], ids=["list", "tuple", "array", "numeric-strings", "numpy-scalars", "range"])
def test_tabulated_samples_match_numpy_trapezoid(samples):
    values = np.asarray(samples, dtype=float)
    factor = np.pi / np.trapezoid(values, dx=2.5 / (values.size - 1))
    profile = make_profile(ProfileFamily.TABULATED, 2.5, samples=samples)
    assert profile.rescale_factor == factor
    assert profile.samples == tuple((values * factor).tolist())


def test_tabulated_rescale_is_the_exact_trapezoid_rounded_once():
    # the trapezoid terms are summed exactly: the factor is pi over their
    # rational sum rounded once, at every length and on long grids
    rng = np.random.default_rng(23)
    for size in [*range(2, 300), 4097, 10_001]:
        values = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.uniform(-5, 5, size)
        T = 10.0 ** rng.uniform(-3, 3)
        dx = T / (size - 1)
        left, right = values[:-1].tolist(), values[1:].tolist()
        # each term is n / d exactly, d a power of two, so over the largest
        # d their sum is an integer sum
        ratios = [(dx * (b + a) / 2.0).as_integer_ratio() for a, b in zip(left, right)]
        common = max(d for _, d in ratios)
        exact = Fraction(sum(n * (common // d) for n, d in ratios), common)
        factor = np.pi / float(exact)
        profile = make_profile(ProfileFamily.TABULATED, T, samples=values)
        assert profile.rescale_factor == factor, size
        assert profile.samples == tuple((values * factor).tolist()), size


def test_family_accepts_plain_strings():
    profile = make_profile("flat", 2 * np.pi)
    assert profile.family is ProfileFamily.FLAT


@pytest.mark.parametrize(
    "family",
    [ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL],
)
def test_analytic_families_cover_half_revolution(family):
    # each trap sweeps half a revolution: integral of omega_P over [0, T] is pi
    T = 7.3
    profile = make_profile(family, T)
    ts = np.linspace(0.0, T, 200001)
    integral = np.trapezoid(eval_profile(profile, ts), ts)
    assert integral == pytest.approx(np.pi, rel=1e-8)
    assert profile.rescale_factor == 1.0


def test_tabulated_rescaled_to_half_revolution(random_profile):
    rng = np.random.default_rng(11)
    for _ in range(50):
        profile = random_profile(rng)
        integral = np.trapezoid(profile.samples, profile.grid)
        assert integral == pytest.approx(np.pi, rel=1e-12)
        assert profile.rescale_factor > 0


def test_flat_profile_values():
    T = 2 * np.pi
    profile = make_profile(ProfileFamily.FLAT, T)
    assert eval_profile(profile, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert eval_profile(profile, -0.1) == 0.0
    assert eval_profile(profile, T + 0.1) == 0.0


def test_sinusoidal_profile_values():
    T = 2 * np.pi
    profile = make_profile(ProfileFamily.SINUSOIDAL, T)
    # peak rate pi^2 / (2 T) at T/4, mirrored kink branch at 3T/4
    peak = np.pi**2 / (2 * T)
    assert eval_profile(profile, T / 4) == pytest.approx(peak, rel=1e-15)
    assert eval_profile(profile, 3 * T / 4) == pytest.approx(peak, rel=1e-15)
    assert eval_profile(profile, T / 2) == pytest.approx(0.0, abs=1e-15)
    assert eval_profile(profile, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_cosinusoidal_profile_values():
    T = 2 * np.pi
    profile = make_profile(ProfileFamily.COSINUSOIDAL, T)
    # smooth ramp: zero rate and zero slope at both ends, peak 2 pi / T at T/2
    assert eval_profile(profile, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert eval_profile(profile, T) == pytest.approx(0.0, abs=1e-12)
    assert eval_profile(profile, T / 2) == pytest.approx(2 * np.pi / T, rel=1e-15)


def test_eval_profile_vectorized():
    profile = make_profile(ProfileFamily.FLAT, 2.0)
    ts = np.array([-1.0, 0.5, 1.5, 3.0])
    out = eval_profile(profile, ts)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, [0.0, np.pi / 2, np.pi / 2, 0.0], rtol=1e-15)
    assert isinstance(eval_profile(profile, 0.5), float)


def test_breakpoints():
    T = 4.0
    assert make_profile(ProfileFamily.FLAT, T).breakpoints() == ()
    assert make_profile(ProfileFamily.COSINUSOIDAL, T).breakpoints() == ()
    assert make_profile(ProfileFamily.SINUSOIDAL, T).breakpoints() == (2.0,)
    tab = make_profile(ProfileFamily.TABULATED, T, samples=[0.0, 1.0, 1.0, 0.0])
    np.testing.assert_allclose(tab.breakpoints(), [4.0 / 3, 8.0 / 3], rtol=1e-15)
    # Python floats, bit for bit numpy's interior grid nodes, down to
    # subnormal durations and up to near the float range
    for n in (2, 3, 5, 12, 129, 4097):
        for T in (5e-324, 3.5e-323, 1e-300, 1e-7, 1 / 3, 4.0, 2 * np.pi, 7.6448845176266005,
                  1e12, 1e300):
            points = SweepProfile(ProfileFamily.TABULATED, T, samples=(1.0,) * n).breakpoints()
            assert all(type(b) is float for b in points)
            assert np.array(points).tobytes() == np.linspace(0.0, T, n)[1:-1].tobytes()


def test_grid_requires_samples():
    with pytest.raises(ConfigurationError):
        make_profile(ProfileFamily.FLAT, 1.0).grid


def test_zero_profile_is_diagnostic_only(switched_off):
    # the switched-off drive evaluates to zero, and make_profile never returns it
    profile = switched_off(3.0)
    ts = np.linspace(0.0, 3.0, 11)
    np.testing.assert_array_equal(eval_profile(profile, ts), np.zeros(11))
    with pytest.raises(ZeroProfile):
        make_profile(ProfileFamily.TABULATED, 3.0, samples=profile.samples)


def test_lambda_drive_flat_branches(natural):
    # flat profile at T = 2 pi: omega_P = 0.5, so the two branch drives are
    # scale*(0.1 + 0.5) and scale*(0.1 - 0.5)
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    lam0 = lambda_drive(natural, profile, Branch.CO, 1.0)
    lam1 = lambda_drive(natural, profile, Branch.COUNTER, 1.0)
    assert lam0 == pytest.approx(0.4242640687119285, rel=1e-15)
    assert lam1 == pytest.approx(-0.28284271247461906, rel=1e-15)


def test_lambda_drive_outside_window_is_pure_rotation(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2.0)
    lam = lambda_drive(natural, profile, Branch.CO, 5.0)
    assert lam == pytest.approx(natural.drive_scale * natural.rotation, rel=1e-15)


DESIGN_SCHEMES = [("flat", 1), ("flat", 2), ("flat", 3), ("sinusoidal", 0), ("sinusoidal", 1),
                  ("cosinusoidal", 2), ("cosinusoidal", 3), ("cosinusoidal", 4)]


@pytest.mark.parametrize("family, index", DESIGN_SCHEMES)
@pytest.mark.parametrize("config", [
    TrapConfig(),
    TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.7, radius=0.9, rotation=0.05),
    TrapConfig(mass=86.909 * 1.66053906660e-27, hbar=1.054571817e-34,
               trap_frequency=2 * np.pi * 1e3, radius=1e-4, rotation=7.292e-5),
], ids=["natural", "scaled", "si"])
def test_drive_scale_is_a_python_float(config, family, index):
    # scalar code reading it runs on Python floats; the value is the same
    # bits as the numpy form it replaced
    spec = design_time(family, config, index)
    assert type(spec.config.drive_scale) is float
    assert spec.config.drive_scale == (np.sqrt(config.mass * config.hbar
                                               * config.trap_frequency / 2) * config.radius)


def test_tabulated_samples_are_python_floats():
    raw = np.random.default_rng(17).uniform(0.1, 1.0, 9)
    profile = make_profile(ProfileFamily.TABULATED, 6.1, samples=raw)
    assert all(type(value) is float for value in profile.samples)
    # the same bits as the numpy products raw * factor
    assert profile.samples == tuple(raw * profile.rescale_factor)
