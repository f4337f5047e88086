"""Interrogation-time design rules and the bracketed zero finder."""

import numpy as np
import pytest

from ringsagnac import (
    ConfigurationError,
    InvalidIndex,
    NoZeroInBracket,
    ProfileFamily,
    SchemeClass,
    UnsupportedFamily,
    design_time,
    find_zero_time,
    make_profile,
    readout,
)


def test_flat_design_times(natural):
    for k in (1, 2, 3):
        spec = design_time(ProfileFamily.FLAT, natural, k)
        assert spec.duration == pytest.approx(2 * k * np.pi, rel=1e-15)
        assert spec.index == k
        assert spec.spectrum_zero and spec.phase_equality and spec.qcrb_time
        assert spec.decomposition.scheme_class is SchemeClass.PURE_GEOMETRIC


def test_sinusoidal_design_times(natural):
    spec0 = design_time(ProfileFamily.SINUSOIDAL, natural, 0)
    assert spec0.duration == pytest.approx(2 * np.pi, rel=1e-15)
    assert spec0.spectrum_zero and spec0.phase_equality and spec0.qcrb_time
    assert spec0.decomposition.scheme_class is SchemeClass.UNCONVENTIONAL
    spec1 = design_time(ProfileFamily.SINUSOIDAL, natural, 1)
    assert spec1.duration == pytest.approx(6 * np.pi, rel=1e-15)
    assert spec1.decomposition.scheme_class is SchemeClass.DYNAMIC


def test_cosinusoidal_design_times(natural):
    spec = design_time(ProfileFamily.COSINUSOIDAL, natural, 2)
    assert spec.duration == pytest.approx(4 * np.pi, rel=1e-15)
    assert spec.spectrum_zero and spec.phase_equality and spec.qcrb_time
    assert spec.decomposition.kappa == pytest.approx(-3.0, rel=1e-10)


def test_design_scales_with_trap_frequency():
    from ringsagnac import TrapConfig

    fast = TrapConfig(trap_frequency=4.0)
    spec = design_time(ProfileFamily.FLAT, fast, 1)
    assert spec.duration == pytest.approx(np.pi / 2, rel=1e-15)
    assert spec.spectrum_zero


@pytest.mark.parametrize(
    "family,index",
    [
        (ProfileFamily.FLAT, 0),
        (ProfileFamily.FLAT, -1),
        (ProfileFamily.SINUSOIDAL, -1),
        (ProfileFamily.COSINUSOIDAL, 0),
        (ProfileFamily.COSINUSOIDAL, -2),
    ],
)
def test_invalid_indices(natural, family, index):
    with pytest.raises(InvalidIndex):
        design_time(family, natural, index)


def test_cosinusoidal_first_harmonic_rejected(natural):
    # the M = 1 candidate is a trap: the 0/0 limit of the spectrum there
    # is -sqrt(pi/2)/2, so contrast is not maximal
    with pytest.raises(InvalidIndex) as excinfo:
        design_time(ProfileFamily.COSINUSOIDAL, natural, 1)
    assert excinfo.value.limit_value == pytest.approx(-0.6266570686577501, rel=1e-12)
    assert "nonzero" in str(excinfo.value)


def test_design_tabulated_unsupported(natural):
    with pytest.raises(UnsupportedFamily):
        design_time(ProfileFamily.TABULATED, natural, 1)


ZERO_SEARCHES = (
    (ProfileFamily.FLAT, None, (5.0, 7.0), 2 * np.pi),
    (ProfileFamily.SINUSOIDAL, None, (5.0, 7.0), 2 * np.pi),
    (ProfileFamily.COSINUSOIDAL, None, (11.0, 14.0), 4 * np.pi),
    # a constant tabulated rate is the flat profile once stretched
    (ProfileFamily.TABULATED, (1.0, 1.0), (5.0, 7.0), 2 * np.pi),
)


@pytest.mark.parametrize(
    "family,samples,bracket,expected",
    ZERO_SEARCHES,
    ids=[f"{family.value}-bracket{i}-{expected!r}"
         for i, (family, _, _, expected) in enumerate(ZERO_SEARCHES)],
)
def test_find_zero_time(natural, family, samples, bracket, expected):
    # the shape's own duration is not used: it is stretched to each candidate
    shape = make_profile(family, 1.0, samples=samples)
    assert find_zero_time(shape, natural, bracket) == pytest.approx(expected, abs=1e-8)


def test_find_zero_time_no_zero(natural):
    # the flat spectrum has no zero below u = 2 pi
    with pytest.raises(NoZeroInBracket):
        find_zero_time(make_profile(ProfileFamily.FLAT, 1.0), natural, (2.0, 4.0))


def test_find_zero_time_bracket_validation(natural):
    for bad in ((-1.0, 5.0), (5.0, 5.0), (0.0, 5.0), (7.0, 5.0)):
        with pytest.raises(ConfigurationError):
            find_zero_time(make_profile(ProfileFamily.FLAT, 1.0), natural, bad)


@pytest.mark.parametrize("hertz", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("family", ["flat", "sinusoidal", "cosinusoidal"])
def test_kappa_follows_label_in_si_regime(rubidium, family, hertz):
    # the design index equals the trap frequency in Hz, so T is 1-2 s; the
    # cosinusoidal label at 1 and 10 kHz turns on whether the vanishing
    # threshold scales with |phi_S|, so only the invariant is asserted there
    config = rubidium(hertz)
    spec = design_time(family, config, int(hertz))
    dec = spec.decomposition
    geometric = dec.scheme_class in (SchemeClass.PURE_GEOMETRIC, SchemeClass.UNCONVENTIONAL)
    spectrum_zero = abs(readout(config, spec.profile).spectrum.value) <= 1e-8
    assert (dec.kappa is not None) == (geometric and spectrum_zero)
    if family == "flat":
        assert dec.scheme_class is SchemeClass.PURE_GEOMETRIC
        assert dec.kappa == pytest.approx(1.0, abs=1e-9)
    elif family == "sinusoidal":
        assert dec.scheme_class is SchemeClass.DYNAMIC
        assert dec.kappa is None
    elif hertz == 1e2:
        assert dec.scheme_class is SchemeClass.UNCONVENTIONAL
        assert dec.kappa == pytest.approx(1 - 100**2, rel=1e-9)
