"""Two-branch readout: contrast, phase, and the spectral/time-domain routes."""

import os

import numpy as np
import pytest

import ringsagnac.cli
from ringsagnac import (
    Branch,
    ConfigurationError,
    ProfileFamily,
    TrapConfig,
    decompose,
    design_time,
    make_profile,
    readout,
    sagnac_phase,
    sensitivity_report,
)
from ringsagnac.oracle import alpha_at, spectrum_derivative, spectrum_numeric
from ringsagnac.spectrum import _exact_spectrum

SAGNAC_NATURAL = 0.6283185307179586  # 2 pi * 0.1


def test_sagnac_phase_natural(natural):
    assert sagnac_phase(natural) == pytest.approx(SAGNAC_NATURAL, rel=1e-15)


def test_sagnac_phase_scaling():
    base = sagnac_phase(TrapConfig())
    assert sagnac_phase(TrapConfig(rotation=0.3)) == pytest.approx(3 * base, rel=1e-15)
    assert sagnac_phase(TrapConfig(radius=2.0)) == pytest.approx(4 * base, rel=1e-15)
    assert sagnac_phase(TrapConfig(mass=2.0)) == pytest.approx(2 * base, rel=1e-15)
    assert sagnac_phase(TrapConfig(hbar=2.0)) == pytest.approx(base / 2, rel=1e-15)
    assert sagnac_phase(TrapConfig(rotation=-0.1)) == pytest.approx(-base, rel=1e-15)


def test_readout_flat_design(natural):
    # flat profile at the design duration: spectrum zero at the trap
    # frequency, so full contrast and phase equal to the Sagnac phase
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    result = readout(natural, profile)
    assert abs(result.delta_alpha) < 1e-12
    assert result.contrast == pytest.approx(1.0, abs=1e-12)
    assert result.phase == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert result.principal_arg == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert result.sagnac == pytest.approx(SAGNAC_NATURAL, rel=1e-15)
    assert result.sigma_y == pytest.approx(-0.5877852522924731, rel=1e-12)
    assert result.sigma_z == pytest.approx(-0.8090169943749475, rel=1e-12)


def test_readout_flat_degraded(natural):
    # at half the design duration the spectrum is far from zero:
    # |d alpha|^2 = 8 and the contrast collapses to exp(-4)
    profile = make_profile(ProfileFamily.FLAT, np.pi)
    result = readout(natural, profile)
    assert abs(result.delta_alpha) ** 2 == pytest.approx(8.0, rel=1e-12)
    assert result.contrast == pytest.approx(0.01831563888873418, rel=1e-12)
    assert result.phase == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert result.sigma_z == pytest.approx(-0.014817663123820627, rel=1e-12)


def test_delta_alpha_matches_branch_endpoints(natural):
    profile = make_profile(ProfileFamily.COSINUSOIDAL, 5.0)
    result = readout(natural, profile)
    a0 = alpha_at(natural, profile, Branch.CO, 5.0)
    a1 = alpha_at(natural, profile, Branch.COUNTER, 5.0)
    assert result.delta_alpha == pytest.approx(a0 - a1, abs=1e-10)


def _time_domain_phase(config, profile) -> float:
    """phi_0 - phi_1 + Im[alpha_1* alpha_0] from the branch sweep."""
    dec = decompose(config, profile, n_samples=2048)
    return dec.delta_dynamic + dec.delta_geometric_path


@pytest.mark.parametrize(
    "family,duration",
    [
        (ProfileFamily.FLAT, 2 * np.pi),
        (ProfileFamily.FLAT, np.pi),
        (ProfileFamily.SINUSOIDAL, 2 * np.pi),
        (ProfileFamily.COSINUSOIDAL, 4 * np.pi),
        (ProfileFamily.COSINUSOIDAL, 9.0),
    ],
)
def test_phase_routes_agree_analytic(natural, family, duration):
    profile = make_profile(family, duration)
    closed = readout(natural, profile).phase
    assert abs(closed - _time_domain_phase(natural, profile)) < 1e-8


def test_phase_routes_agree_tabulated(natural, random_profile):
    rng = np.random.default_rng(97)
    for _ in range(10):
        profile = random_profile(rng)
        closed = readout(natural, profile).phase
        assert abs(closed - _time_domain_phase(natural, profile)) < 1e-8


def test_phase_unwrapped_beyond_principal_branch():
    # a full-turn phase must be reported unwrapped, not folded to zero
    fast = TrapConfig(rotation=1.0)
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    result = readout(fast, profile)
    assert result.phase == pytest.approx(2 * np.pi, rel=1e-12)
    assert abs(result.principal_arg) < 1e-12


def test_readout_dimensional_consistency():
    # phase relation phi_I = phi_S (1 - sqrt(2/pi) Re W) is unit-free
    config = TrapConfig(mass=2.0, hbar=0.5, trap_frequency=3.0, radius=1.5, rotation=0.02)
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi / 3.0)
    result = readout(config, profile)
    assert result.phase == pytest.approx(sagnac_phase(config), rel=1e-12)
    assert result.contrast == pytest.approx(1.0, abs=1e-12)


def _count_spectrum_calls(monkeypatch) -> list:
    """Count the exact-spectrum calls made through readout, the one the library layers share."""
    import ringsagnac.interferometer

    calls = []

    def counted(profile, omega):
        calls.append(omega)
        return _exact_spectrum(profile, omega)

    monkeypatch.setattr(ringsagnac.interferometer, "_exact_spectrum", counted)
    return calls


def test_exact_spectrum_callers_are_named():
    # every other layer reads W(omega0) and its slope from a readout result;
    # the zero search scores the unit shape at omega0 T, and the CLI spectrum
    # record of an analytic profile takes both numbers from one call.  Each
    # reference outside spectrum.py is found by its source, so a
    # function-local import or a getattr by name counts as well
    import ast
    from pathlib import Path

    import ringsagnac

    references = set()
    for path in sorted(Path(ringsagnac.__file__).parent.glob("*.py")):
        if path.stem == "spectrum":
            continue
        for top in ast.parse(path.read_text()).body:
            # None for a module-level statement, else the top-level def
            scope = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else node.value if isinstance(node, ast.Constant) else None)
                if name == "_exact_spectrum":
                    references.add((path.stem, scope))
    # the module-level entries are the imports of the two library callers
    assert references == {
        ("interferometer", None), ("interferometer", "readout"),
        ("design", None), ("design", "find_zero_time"),
        ("cli", "_eval_spectrum"),
    }
    assert not hasattr(ringsagnac, "_exact_spectrum")


def _chain(config, profile):
    """The corpus op: every public layer on the same two objects."""
    readout(config, profile)
    sensitivity_report(config, profile)
    decompose(config, profile, n_samples=256)


def _report_then_qfi(config, profile):
    # the qfi field needs an integer number of trap periods
    periodic = make_profile(ProfileFamily.TABULATED, 2 * np.pi, samples=profile.samples)
    sensitivity_report(config, periodic)
    assert sensitivity_report(config, periodic).qfi is not None


@pytest.mark.parametrize(
    ("call", "expected"),
    [
        (readout, 1),
        (sensitivity_report, 1),
        (decompose, 1),
        (lambda config, profile: design_time(ProfileFamily.FLAT, config, 1), 1),
        (_chain, 1),
        (_report_then_qfi, 1),
        (lambda config, profile: ringsagnac.cli.run(["verify", "--steps", "1024"]), 3),
    ],
    ids=["readout", "sensitivity_report", "decompose", "design_time", "chain",
         "qfi-after-report", "cli-verify"],
)
def test_one_spectrum_evaluation_per_call(natural, monkeypatch, call, expected):
    # W(omega0) and its slope are sampled once per (config, profile) pair
    # and every derived quantity reuses that sample: design_time reads out
    # for its flags and its decomposition reads the same result, and verify
    # evaluates once per scheme
    profile = make_profile(ProfileFamily.TABULATED, 7.0, samples=[0.3, 1.0, 0.6, 0.2])
    calls = _count_spectrum_calls(monkeypatch)
    call(natural, profile)
    assert calls == [natural.trap_frequency] * expected


def test_readout_memo_keeps_the_sign_of_zero(monkeypatch):
    # equal configs that hash alike, whose phases differ in sign
    plus, minus = TrapConfig(rotation=0.0), TrapConfig(rotation=-0.0)
    assert plus == minus and hash(plus) == hash(minus)
    profile = make_profile(ProfileFamily.FLAT, 5.0)
    calls = _count_spectrum_calls(monkeypatch)
    for config, sign in ((plus, 1.0), (minus, -1.0), (plus, 1.0)):
        result = readout(config, profile)
        assert result.phase == 0.0 and np.copysign(1.0, result.phase) == sign
        assert result.sagnac == 0.0 and np.copysign(1.0, result.sagnac) == sign
    assert len(calls) == 3


def test_readout_memo_matches_by_identity(natural, monkeypatch):
    first = make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4, 0.8])
    twin = make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4, 0.8])
    assert first == twin and first is not twin
    calls = _count_spectrum_calls(monkeypatch)
    result = readout(natural, first)
    assert readout(natural, first) is result
    assert len(calls) == 1
    again = readout(natural, twin)
    assert again is not result and again == result
    assert len(calls) == 2


def test_readout_memo_stores_no_exception(natural, monkeypatch):
    bad = make_profile(ProfileFamily.FLAT, 1e-320)
    good = make_profile(ProfileFamily.FLAT, 5.0)
    calls = _count_spectrum_calls(monkeypatch)
    for _ in range(2):
        with pytest.raises(ConfigurationError):
            readout(natural, bad)
    assert len(calls) == 2
    result = readout(natural, good)
    assert len(calls) == 3
    assert result.spectrum == _exact_spectrum(good, natural.trap_frequency)[0]


def _count_sweeps(monkeypatch) -> list:
    """Record the branches of every pass of the two sweep stages.

    The path sweep runs _interval_terms on the branches it is given; the
    end values take one pass of _gram_ends, whose parts serve both
    branches at once.
    """
    calls = []
    paths = ringsagnac.evolution._interval_terms
    ends = ringsagnac.evolution._gram_ends

    def counted_paths(config, branches, *terms):
        calls.append(tuple(branches))
        return paths(config, branches, *terms)

    def counted_ends(*terms):
        calls.append((Branch.CO, Branch.COUNTER))
        return ends(*terms)

    monkeypatch.setattr(ringsagnac.evolution, "_interval_terms", counted_paths)
    monkeypatch.setattr(ringsagnac.evolution, "_gram_ends", counted_ends)
    return calls


@pytest.mark.parametrize(
    "call",
    [
        lambda config, profile: decompose(config, profile, n_samples=256),
        lambda config, profile: ringsagnac.cli.run(
            ["trajectory", "--n-samples", "256", "--output", os.devnull]),
    ],
    ids=["decompose", "cli-trajectory"],
)
def test_one_sweep_for_both_branches(natural, monkeypatch, call):
    # the branches share their nodes, profile values and trig, so every
    # two-branch result takes both paths from one sweep
    profile = make_profile(ProfileFamily.TABULATED, 7.0, samples=[0.3, 1.0, 0.6, 0.2])
    calls = _count_sweeps(monkeypatch)
    call(natural, profile)
    assert calls == [(Branch.CO, Branch.COUNTER)]


def test_readout_carries_the_spectrum_it_derives_from():
    config = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.1, radius=0.9, rotation=0.05)
    profile = make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4, 0.8])
    result = readout(config, profile)
    sample = _exact_spectrum(profile, config.trap_frequency)[0]
    assert result.spectrum == sample
    assert sample.method == "exact piecewise-linear"
    oracle = spectrum_numeric(profile, config.trap_frequency)
    assert abs(sample.value - oracle.value) <= 1e-12
    # exact equality: the derived quantities are the same float expressions
    slope = (2 * np.pi * config.mass * config.radius**2 / config.hbar
             * (1 - np.sqrt(2 / np.pi) * sample.value.real))
    assert result.phase_slope == slope
    assert decompose(config, profile, n_samples=256).phase == result.phase


@pytest.mark.parametrize(
    "profile",
    [
        make_profile(ProfileFamily.FLAT, 2 * np.pi),
        make_profile(ProfileFamily.SINUSOIDAL, 9.0),
        make_profile(ProfileFamily.COSINUSOIDAL, 4 * np.pi),
        make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4, 0.8]),
    ],
    ids=["flat", "sinusoidal", "cosinusoidal", "tabulated"],
)
def test_readout_carries_the_spectrum_slope(profile):
    config = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.1, radius=0.9, rotation=0.05)
    result = readout(config, profile)
    # the same call's slope, bit for bit, and the quadrature oracle's
    assert result.spectrum_slope == _exact_spectrum(profile, config.trap_frequency)[1]
    assert abs(result.spectrum_slope
               - spectrum_derivative(profile, config.trap_frequency)) <= 1e-12


@pytest.mark.parametrize("rotation", [0.05, -0.3, 1e-9, 0.0])
def test_phase_slope_is_the_phase_per_unit_rotation(rotation):
    # at rest the phase vanishes but its slope, which sets the sensitivity,
    # does not
    config = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.1, radius=0.9, rotation=rotation)
    for profile in (make_profile(ProfileFamily.FLAT, 5.0),
                    make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4])):
        result = readout(config, profile)
        assert abs(result.phase_slope * rotation - result.phase) <= 1e-14 * abs(result.phase)
        assert result.phase_slope != 0.0
