"""Acceptance suite: one test per advertised guarantee of the package.

Each test prints an explicit PASS line with the measured worst case, so a
verbose run reads as a checklist.  Criteria 4 and 5 share a corpus of
1000 seeded random tabulated profiles, each decomposed once.
"""

import numpy as np
import pytest

from ringsagnac import (
    Branch,
    InvalidIndex,
    ProfileFamily,
    SchemeClass,
    TrapConfig,
    decompose,
    design_time,
    evolve_fock,
    evolve_two_component,
    make_profile,
    readout,
    sagnac_phase,
    sample_trajectory,
    sensitivity_report,
    spectrum_closed_form,
)
from ringsagnac.oracle import (
    branch_geometric_phase,
    shoelace_area,
    spectrum_derivative,
    spectrum_numeric,
)

NATURAL = TrapConfig()
SAGNAC = 0.6283185307179586  # 2 pi * 0.1
TWO_PI = 2 * np.pi
CORPUS_SAMPLES = 2048

DESIGN_SCHEMES = (
    (ProfileFamily.FLAT, 1),
    (ProfileFamily.FLAT, 2),
    (ProfileFamily.FLAT, 3),
    (ProfileFamily.SINUSOIDAL, 0),
    (ProfileFamily.SINUSOIDAL, 1),
    (ProfileFamily.COSINUSOIDAL, 2),
    (ProfileFamily.COSINUSOIDAL, 3),
    (ProfileFamily.COSINUSOIDAL, 4),
)


@pytest.fixture(scope="module")
def decomposed_corpus(random_profile):
    # criteria 4 and 5 share one decomposition per profile
    rng = np.random.default_rng(20260815)
    profiles = [random_profile(rng) for _ in range(1000)]
    return [(profile, decompose(NATURAL, profile, n_samples=CORPUS_SAMPLES))
            for profile in profiles]


def test_criterion_1_pure_geometric_flat_schemes():
    for k in (1, 2, 3):
        scheme = design_time(ProfileFamily.FLAT, NATURAL, k)
        dec = scheme.decomposition
        assert dec.require_kappa() == pytest.approx(1.0, abs=1e-6)
        assert dec.delta_dynamic == pytest.approx(0.0, abs=1e-8)
        assert dec.gamma_dynamic[0] == pytest.approx(-k * np.pi, abs=1e-7)
        assert dec.gamma_dynamic[1] == pytest.approx(-k * np.pi, abs=1e-7)
        result = readout(NATURAL, scheme.profile)
        assert result.contrast == pytest.approx(1.0, abs=1e-8)
        assert result.phase == pytest.approx(SAGNAC, abs=1e-8)
        assert result.phase == pytest.approx(sagnac_phase(NATURAL), abs=1e-8)
        assert dec.scheme_class is SchemeClass.PURE_GEOMETRIC
    print("PASS criterion 1: flat K=1,2,3 pure-geometric "
          "(kappa=1, dynamic part 0, gamma_d=-K pi, full contrast, phi=0.2 pi)")


def test_criterion_2_unconventional_sinusoidal():
    dec = decompose(NATURAL, make_profile(ProfileFamily.SINUSOIDAL, TWO_PI))
    assert dec.require_kappa() == pytest.approx(8 / np.pi**2, abs=1e-6)
    target = SAGNAC * np.pi**2 / 8
    assert dec.delta_geometric == pytest.approx(target, abs=1e-6)
    assert dec.delta_geometric_path == pytest.approx(target, abs=1e-6)

    higher = decompose(NATURAL, make_profile(ProfileFamily.SINUSOIDAL, 6 * np.pi))
    assert higher.scheme_class is SchemeClass.DYNAMIC
    assert abs(higher.delta_geometric) < 1e-8
    print("PASS criterion 2: sinusoidal L=0 kappa=8/pi^2, "
          "geometric part phi_S pi^2/8; L=1 classified dynamic")


def test_criterion_3_unconventional_cosinusoidal():
    for m in (2, 3, 4):
        scheme = design_time(ProfileFamily.COSINUSOIDAL, NATURAL, m)
        assert scheme.decomposition.require_kappa() == pytest.approx(
            1 - m * m, abs=1e-6
        )
    with pytest.raises(InvalidIndex) as excinfo:
        design_time(ProfileFamily.COSINUSOIDAL, NATURAL, 1)
    assert excinfo.value.limit_value == pytest.approx(-np.sqrt(np.pi / 2) / 2, abs=1e-6)
    print("PASS criterion 3: cosinusoidal M=2,3,4 kappa=1-M^2; "
          "M=1 rejected with limit -sqrt(pi/2)/2")


def test_criterion_4_phase_route_equivalence(decomposed_corpus):
    worst = 0.0
    for profile, dec in decomposed_corpus:
        closed = readout(NATURAL, profile).phase
        # the time-domain phase phi_0 - phi_1 + Im[alpha_1* alpha_0]
        integral = dec.delta_dynamic + dec.delta_geometric_path
        worst = max(worst, abs(closed - integral))
        ratio = closed / SAGNAC
        assert 0.0 <= ratio <= 2.0
    assert worst < 1e-8
    print(f"PASS criterion 4: 1000 profiles, max phase route gap {worst:.3e} "
          "(tol 1e-8); 0 <= phi_I/phi_S <= 2 everywhere")


def test_criterion_5_decomposition_sum_rule(decomposed_corpus):
    worst_sum = 0.0
    worst_form = 0.0
    for _, dec in decomposed_corpus:
        worst_sum = max(worst_sum, abs(dec.delta_dynamic + dec.delta_geometric_path - dec.phase))
        worst_form = max(worst_form, abs(dec.delta_geometric - dec.delta_geometric_path))
    assert worst_sum < 1e-8
    assert worst_form < 1e-7
    print(f"PASS criterion 5: 1000 profiles, max sum-rule residual {worst_sum:.3e} "
          f"(tol 1e-8); max spectral/path gap {worst_form:.3e} (tol 1e-7)")


def test_criterion_6_fock_oracle_equivalence():
    worst_mod = 0.0
    worst_arg = 0.0
    worst_norm = 0.0
    worst_block = 0.0
    for family, index in DESIGN_SCHEMES:
        scheme = design_time(family, NATURAL, index)
        up = evolve_fock(NATURAL, scheme.profile, Branch.CO, n_max=40, steps=4096)
        down = evolve_fock(NATURAL, scheme.profile, Branch.COUNTER, n_max=40, steps=4096)
        coherence = complex(np.vdot(down.amplitudes, up.amplitudes))
        closed = readout(NATURAL, scheme.profile)
        arg_gap = np.angle(np.exp(1j * (np.angle(coherence) - closed.principal_arg)))
        worst_mod = max(worst_mod, abs(abs(coherence) - closed.contrast))
        worst_arg = max(worst_arg, abs(arg_gap))
        worst_norm = max(worst_norm, abs(up.norm - 1), abs(down.norm - 1))

        co, counter = evolve_two_component(NATURAL, scheme.profile, n_max=40, steps=512)
        up_ref = evolve_fock(NATURAL, scheme.profile, Branch.CO, n_max=40, steps=512)
        down_ref = evolve_fock(NATURAL, scheme.profile, Branch.COUNTER, n_max=40, steps=512)
        worst_block = max(
            worst_block,
            float(np.max(np.abs(co * np.sqrt(2) - up_ref.amplitudes))),
            float(np.max(np.abs(counter * np.sqrt(2) - down_ref.amplitudes))),
        )
    assert worst_mod < 1e-4
    assert worst_arg < 1e-4
    assert worst_norm < 1e-8
    assert worst_block < 1e-10
    print(f"PASS criterion 6: 8 design schemes, coherence modulus gap {worst_mod:.3e} "
          f"and argument gap {worst_arg:.3e} (tol 1e-4); norm drift {worst_norm:.3e} "
          f"(tol 1e-8); block-diagonality {worst_block:.3e} (tol 1e-10)")


def test_criterion_7_geometry_signatures():
    worst_area = 0.0
    for family in (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL):
        profile = make_profile(family, TWO_PI)
        for branch in (Branch.CO, Branch.COUNTER):
            ev = sample_trajectory(NATURAL, profile, branch, 8192)
            gamma = branch_geometric_phase(ev)
            worst_area = max(worst_area, abs(gamma + 2 * shoelace_area(ev.alphas)))
    assert worst_area < 1e-6

    flat_measure = decompose(NATURAL, make_profile(ProfileFamily.FLAT, TWO_PI))
    assert flat_measure.delta_geometric_path / 2 == pytest.approx(SAGNAC / 2, abs=1e-6)
    sin_measure = decompose(NATURAL, make_profile(ProfileFamily.SINUSOIDAL, TWO_PI))
    assert sin_measure.delta_geometric_path / 2 == pytest.approx(
        SAGNAC * np.pi**2 / 16, abs=1e-6
    )

    ev1 = sample_trajectory(
        NATURAL, make_profile(ProfileFamily.SINUSOIDAL, TWO_PI), Branch.COUNTER, 8192
    )
    mirror_gap = abs(shoelace_area(ev1.alphas) - shoelace_area(-ev1.alphas))
    assert mirror_gap < 1e-10
    print(f"PASS criterion 7: geometric phase = -2x signed area to {worst_area:.3e} "
          "(tol 1e-6); survey area measures phi_S/2 and phi_S pi^2/16 hit; "
          f"mirrored-path area gap {mirror_gap:.3e} (tol 1e-10)")


def test_criterion_8_sensitivity():
    target_fisher = TWO_PI**2
    for family, T in (
        (ProfileFamily.FLAT, TWO_PI),
        (ProfileFamily.SINUSOIDAL, TWO_PI),
        (ProfileFamily.COSINUSOIDAL, 2 * TWO_PI),
    ):
        report = sensitivity_report(NATURAL, make_profile(family, T))
        assert 1 / report.delta_omega**2 == pytest.approx(target_fisher, rel=1e-8)
        assert report.qfi == pytest.approx(target_fisher, rel=1e-8)
        assert report.signal_fisher == pytest.approx(report.qfi, rel=1e-8)

    degraded = make_profile(ProfileFamily.FLAT, np.pi)
    result = readout(NATURAL, degraded)
    assert result.contrast == pytest.approx(np.exp(-4.0), abs=1e-8)
    report = sensitivity_report(NATURAL, degraded)

    h = 1e-6
    plus = readout(TrapConfig(rotation=0.1 + h), degraded).signal
    minus = readout(TrapConfig(rotation=0.1 - h), degraded).signal
    slope = (plus - minus) / (2 * h)
    noise = np.sqrt(1 - result.signal**2)
    fd_value = noise / abs(slope)
    rel_gap = abs(report.delta_omega - fd_value) / fd_value
    assert rel_gap < 1e-6
    print(f"PASS criterion 8: design points saturate 1/dOmega^2 = F = 4 pi^2 "
          f"(rel tol 1e-8); degraded contrast e^-4; finite-difference "
          f"error-propagation gap {rel_gap:.3e} (tol 1e-6)")


def test_criterion_9_spectrum_correctness():
    rng = np.random.default_rng(90)
    worst_value = 0.0
    worst_deriv = 0.0
    for family in (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL):
        T = float(rng.uniform(2.0, 10.0))
        profile = make_profile(family, T)
        for omega in rng.uniform(0.0, 8 * np.pi / T, size=100):
            closed = spectrum_closed_form(family, T, omega).value
            numeric = spectrum_numeric(profile, omega).value
            worst_value = max(worst_value, abs(closed - numeric))
        h = 1e-5
        for omega in rng.uniform(0.3, 6 * np.pi / T, size=5):
            fd = (
                spectrum_numeric(profile, omega + h).value.real
                - spectrum_numeric(profile, omega - h).value.real
            ) / (2 * h)
            worst_deriv = max(worst_deriv, abs(spectrum_derivative(profile, omega) - fd))
    assert worst_value < 1e-8
    assert worst_deriv < 1e-6
    print(f"PASS criterion 9: 100 random frequencies per family, closed vs "
          f"quadrature gap {worst_value:.3e} (tol 1e-8); derivative vs finite "
          f"differences {worst_deriv:.3e} (tol 1e-6)")
