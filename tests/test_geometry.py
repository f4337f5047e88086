"""Dynamic/geometric phase split, path areas, and scheme classification."""

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from ringsagnac import (
    Branch,
    BranchEvolution,
    ConfigurationError,
    ConvergenceError,
    DegeneratePath,
    InsufficientResolution,
    KappaUndefined,
    ProfileFamily,
    SchemeClass,
    TrapConfig,
    decompose,
    make_profile,
    sample_trajectory,
    zero_profile,
)
from ringsagnac import geometry
from ringsagnac.oracle import alpha_at, branch_geometric_phase, phi_at, shoelace_area

SAGNAC_NATURAL = 0.6283185307179586  # 2 pi * 0.1


def test_shoelace_square():
    square = np.array([0, 1, 1 + 1j, 1j], dtype=complex)
    assert shoelace_area(square) == pytest.approx(1.0, rel=1e-15)
    assert shoelace_area(square[::-1]) == pytest.approx(-1.0, rel=1e-15)
    # the polygon area is invariant under point reflection of the path
    assert shoelace_area(-square) == shoelace_area(square)


def test_shoelace_degenerate():
    with pytest.raises(DegeneratePath):
        shoelace_area(np.array([0.0 + 0j, 1.0 + 1j]))


def synthetic_circle(rho: float, n: int = 2048) -> BranchEvolution:
    # clockwise circle of radius rho through the origin, traversed once
    ts = np.linspace(0.0, 2 * np.pi, n + 1)
    alphas = rho * (np.exp(-1j * ts) - 1.0)
    alpha_dots = -1j * rho * np.exp(-1j * ts)
    return BranchEvolution(Branch.CO, ts, alphas, alpha_dots, np.zeros(n + 1))


def test_geometric_phase_synthetic_circle():
    # clockwise loop: signed area -pi rho^2, geometric phase +2 pi rho^2
    for rho in (0.5, 1.3):
        ev = synthetic_circle(rho)
        assert branch_geometric_phase(ev) == pytest.approx(2 * np.pi * rho**2, rel=1e-9)
        assert shoelace_area(ev.alphas) == pytest.approx(-np.pi * rho**2, rel=1e-5)


def test_geometric_phase_is_minus_twice_area():
    ev = synthetic_circle(0.8, n=8192)
    gamma = branch_geometric_phase(ev)
    assert gamma == pytest.approx(-2 * shoelace_area(ev.alphas), rel=1e-6)


def test_geometric_phase_needs_resolution():
    with pytest.raises(InsufficientResolution):
        branch_geometric_phase(synthetic_circle(1.0, n=10))


def test_dynamic_phase_flat_design(natural):
    # flat profile at T = 2 pi: gamma_d = -pi for both branches
    dec = decompose(natural, make_profile(ProfileFamily.FLAT, 2 * np.pi), n_samples=256)
    assert dec.gamma_dynamic == pytest.approx((-np.pi, -np.pi), abs=1e-7)


def test_zero_drive_phases():
    # undriven trap: only the zero-point term survives in the dynamic
    # phase and the path encloses no area
    still = TrapConfig(rotation=0.0)
    profile = zero_profile(2 * np.pi)
    dec = decompose(still, profile, n_samples=64)
    assert dec.gamma_dynamic == pytest.approx((-np.pi, -np.pi), abs=1e-12)
    ev = sample_trajectory(still, profile, Branch.CO, 64)
    assert branch_geometric_phase(ev) == pytest.approx(0.0, abs=1e-15)


def _sum_rule_gaps(config, profile, n_samples):
    """Per branch: gamma_d against its adaptive-quadrature definition, and the
    sum rule gamma_d + gamma_g = phi(T) - w0 T / 2.

    The reference integrates |alpha_at|^2 with quad and takes phi_at, so it
    shares no code with the sweep that decompose reads gamma_d from; gamma_g
    is the Simpson line integral along the sampled path.
    """
    w0, T = config.trap_frequency, profile.duration
    dec = decompose(config, profile, n_samples=n_samples)
    gaps = []
    for gamma_d, branch in zip(dec.gamma_dynamic, (Branch.CO, Branch.COUNTER)):
        mean_square = quad(lambda t: abs(alpha_at(config, profile, branch, t)) ** 2, 0.0, T,
                           points=profile.breakpoints(), epsabs=1e-12, epsrel=1e-12,
                           limit=200)[0]
        phi_end = phi_at(config, profile, branch, T)
        reference = 2 * phi_end - w0 * mean_square - w0 * T / 2
        gamma_g = branch_geometric_phase(sample_trajectory(config, profile, branch, n_samples))
        gaps.append((abs(gamma_d - reference), abs(gamma_d + gamma_g - (phi_end - w0 * T / 2))))
    return gaps


@pytest.mark.parametrize(
    "family,duration,tol",
    [
        (ProfileFamily.FLAT, 2 * np.pi, 1e-8),
        (ProfileFamily.COSINUSOIDAL, 4 * np.pi, 1e-8),
        (ProfileFamily.SINUSOIDAL, 2 * np.pi, 1e-8),
    ],
)
def test_phase_sum_rule(natural, family, duration, tol):
    for dynamic_gap, sum_gap in _sum_rule_gaps(natural, make_profile(family, duration), 4096):
        assert dynamic_gap < tol
        assert sum_gap < tol


def test_phase_sum_rule_tabulated(natural, random_profile):
    profile = random_profile(np.random.default_rng(5))
    for dynamic_gap, sum_gap in _sum_rule_gaps(natural, profile, 4096):
        assert dynamic_gap < 1e-8
        assert sum_gap < 1e-4


def test_decompose_flat_design(natural):
    dec = decompose(natural, make_profile(ProfileFamily.FLAT, 2 * np.pi))
    assert dec.scheme_class is SchemeClass.PURE_GEOMETRIC
    assert dec.phase == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert dec.delta_dynamic == pytest.approx(0.0, abs=1e-10)
    assert dec.delta_geometric == pytest.approx(SAGNAC_NATURAL, rel=1e-10)
    assert dec.delta_geometric_path == pytest.approx(SAGNAC_NATURAL, rel=1e-7)
    assert dec.kappa == pytest.approx(1.0, abs=1e-12)
    assert dec.require_kappa() == dec.kappa
    assert dec.gamma_dynamic[0] == pytest.approx(-np.pi, abs=1e-10)
    assert dec.gamma_dynamic[1] == pytest.approx(-np.pi, abs=1e-10)
    assert dec.residual_angle == pytest.approx(0.0, abs=1e-12)


def test_decompose_sinusoidal_fundamental(natural):
    # frozen against the quadrature oracle; kappa = 8/pi^2 for this scheme
    dec = decompose(natural, make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi))
    assert dec.scheme_class is SchemeClass.UNCONVENTIONAL
    assert dec.kappa == pytest.approx(0.8105694691387022, rel=1e-12)
    assert dec.delta_geometric == pytest.approx(0.7751569170074954, rel=1e-10)
    assert dec.delta_dynamic == pytest.approx(-0.1468383862895368, abs=1e-10)
    assert dec.gamma_dynamic[0] == pytest.approx(-3.839918225397935, rel=1e-10)
    assert dec.gamma_dynamic[1] == pytest.approx(-3.6930798391081887, rel=1e-10)
    assert dec.gamma_geometric[0] == pytest.approx(1.7706103733973138, rel=1e-10)
    assert dec.gamma_geometric[1] == pytest.approx(0.9954534563900662, rel=1e-10)
    # proportionality between the two deltas with the scheme constant
    assert dec.delta_dynamic == pytest.approx(
        (dec.kappa - 1) * dec.delta_geometric, abs=1e-10
    )


def test_decompose_cosinusoidal_first_valid(natural):
    dec = decompose(natural, make_profile(ProfileFamily.COSINUSOIDAL, 4 * np.pi))
    assert dec.scheme_class is SchemeClass.UNCONVENTIONAL
    assert dec.kappa == pytest.approx(-3.0, rel=1e-10)
    assert dec.delta_geometric == pytest.approx(-0.20943951023931953, rel=1e-10)
    assert dec.delta_dynamic == pytest.approx(0.8377580409572781, rel=1e-10)
    assert dec.delta_dynamic == pytest.approx(
        (dec.kappa - 1) * dec.delta_geometric, abs=1e-10
    )


def test_decompose_sinusoidal_higher_order_is_dynamic(natural):
    # L = 1: the spectrum still vanishes but the geometric part does too
    dec = decompose(natural, make_profile(ProfileFamily.SINUSOIDAL, 6 * np.pi))
    assert dec.scheme_class is SchemeClass.DYNAMIC
    assert dec.kappa is None
    assert abs(dec.delta_geometric) < 1e-10
    with pytest.raises(KappaUndefined):
        dec.require_kappa()


def test_decompose_off_design(natural):
    # half the design duration: open paths, nonzero endpoint overlap, and
    # no kappa since the spectrum does not vanish
    dec = decompose(natural, make_profile(ProfileFamily.FLAT, np.pi))
    assert dec.kappa is None
    assert dec.residual_angle != 0.0
    assert abs(dec.delta_geometric_path - dec.delta_geometric) < 1e-7
    assert dec.phase == pytest.approx(SAGNAC_NATURAL, rel=1e-12)


def test_decompose_tabulated(natural, random_profile):
    rng = np.random.default_rng(19)
    for _ in range(3):
        profile = random_profile(rng)
        dec = decompose(natural, profile, n_samples=2048)
        assert abs(dec.delta_geometric_path - dec.delta_geometric) < 1e-7
        # branch sum rule through the carried integrals
        for gd, gg, branch in zip(
            dec.gamma_dynamic, dec.gamma_geometric, (Branch.CO, Branch.COUNTER)
        ):
            ev = sample_trajectory(natural, profile, branch, 2048)
            assert gd + gg == pytest.approx(
                ev.final_phase - profile.duration / 2, abs=1e-10
            )


@pytest.mark.parametrize(
    "config",
    [TrapConfig(), TrapConfig(hbar=1e-4, rotation=1e-4)],
    ids=["natural", "hbar 1e-4"],
)
def test_path_check_keeps_its_absolute_bound_at_moderate_phases(monkeypatch, config):
    # rounding of the branch phases widens the path/spectral tolerance only
    # where 1e-12 of their size exceeds 1e-7, so at natural units and up to
    # branch phases of about 1e5 a gap of 2e-7 is still refused
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    exact = geometry._residual_angle
    monkeypatch.setattr(geometry, "_residual_angle", lambda a0, a1: exact(a0, a1) + 5e-8)
    decompose(config, profile)
    monkeypatch.setattr(geometry, "_residual_angle", lambda a0, a1: exact(a0, a1) + 2e-7)
    with pytest.raises(InsufficientResolution, match=r"tol 1\.0e-07"):
        decompose(config, profile)


def test_unresolved_sweep_names_the_knob_that_resolves_it(monkeypatch):
    # omega0 T = 2 pi 1e4: the kink grid of three intervals has omega0 h =
    # 2.1e4, where its closed-form width table is exact to rounding, and
    # decomposes to rounding; a gap forced past the tolerance is refused with
    # omega0 h and how the table was built
    config = TrapConfig(trap_frequency=1e4)
    profile = make_profile(ProfileFamily.TABULATED, 2 * np.pi, samples=[0.3, 1.0, 0.6, 0.2])
    dec = decompose(config, profile)
    assert abs(dec.delta_geometric_path - dec.delta_geometric) <= 1e-8
    exact = geometry._residual_angle
    monkeypatch.setattr(geometry, "_residual_angle", lambda a0, a1: exact(a0, a1) + 2e-7)
    with pytest.raises(InsufficientResolution) as raised:
        decompose(config, profile)
    message = str(raised.value)
    assert "omega0 h = 2.094e+04" in message and "width table is in closed form" in message
    assert "n_samples" not in message


@pytest.mark.parametrize("forced, refused", [(2e-9, False), (5e-8, True)])
def test_a_label_inside_the_route_spread_is_refused(monkeypatch, forced, refused):
    # the flat scheme has dgd = 0; an error forced into the path dgd (the
    # third call, on the odd parts, after the two branches' dynamic phases)
    # shows as the gap between dgd and phi_I - dgg_spectral, and where that
    # gap reaches the 1e-8 threshold it is unclear whether dgd vanishes, so
    # the scheme class is refused rather than given
    config = TrapConfig()
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    exact = geometry._swept_dynamic_phase
    offsets = iter((0.0, 0.0, forced / 2))
    monkeypatch.setattr(geometry, "_swept_dynamic_phase",
                        lambda *args: exact(*args) + next(offsets))
    if not refused:
        assert decompose(config, profile).scheme_class is SchemeClass.PURE_GEOMETRIC
        return
    with pytest.raises(InsufficientResolution, match=r"\|dgd\| = .* of the threshold 1\.0e-08"):
        decompose(config, profile)


SCALED = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.7, radius=0.9, rotation=0.05)


@pytest.mark.parametrize("config", [TrapConfig(), SCALED], ids=["natural", "scaled"])
@pytest.mark.parametrize(
    "profile",
    [
        make_profile(ProfileFamily.FLAT, 7.3),
        make_profile(ProfileFamily.SINUSOIDAL, 7.3),
        make_profile(ProfileFamily.COSINUSOIDAL, 7.3),
        make_profile(ProfileFamily.TABULATED, 9.1,
                     samples=np.random.default_rng(23).uniform(0.1, 1.0, 9)),
    ],
    ids=lambda profile: profile.family.value,
)
def test_end_value_routes_are_unchanged_above_the_sized_grid(config, profile):
    # the end values come from the kink grid, so n_samples sizes nothing: the
    # outputs are the same bits from the least to the most samples accepted
    # (repr tells -0.0 from 0.0)
    assert config.trap_frequency * profile.duration < 64
    counts = (16, 64, 2048, 4096, 2**20)
    decompositions = {repr(decompose(config, profile, n_samples=n)) for n in counts}
    assert len(decompositions) == 1


_EXTREMES = (0.0, 5e-324, 1e-300, 1e-154, 1.0, 1e154, 1e300)


def _extreme_inputs(count: int, seed: int):
    """Seeded (family, T, omega0, r, hbar, Omega, samples) vectors for decompose.

    Each number is drawn from _EXTREMES, from random magnitudes 10^U(-300, 300)
    or 10^U(-3, 3), and is negated one time in ten (Omega one time in two).
    """
    rng = np.random.default_rng(seed)

    def draw():
        pick = rng.random()
        if pick < 0.4:
            value = _EXTREMES[rng.integers(len(_EXTREMES))]
        else:
            value = float(10.0 ** rng.uniform(*((-300, 300) if pick < 0.7 else (-3, 3))))
        return -value if rng.random() < 0.1 else value

    families = ("tabulated", "flat", "sinusoidal", "cosinusoidal")
    for _ in range(count):
        family = families[rng.integers(len(families))]
        samples = (rng.uniform(0.0, 1.0, rng.integers(2, 12)).tolist()
                   if family == "tabulated" else None)
        duration, w0, radius, hbar, rotation = (draw() for _ in range(5))
        yield (family, duration, w0, radius, hbar,
               rotation if rng.random() < 0.5 else -rotation, samples)


# the outcome of each of the 3000 vectors of _extreme_inputs(3000, 32) at the
# commit before the closed-form end values: F finite fields, C a
# ConfigurationError, I InsufficientResolution, V another ConvergenceError
_EXTREME_OUTCOMES = (
    "CCIICICCCCCCCCFCFCIICCIICCCCCCCCFCCCCFCCCCFCCCCCVCCCCCCCFCCFFCCCFICCFIFCVCCCCCCC"
    "ICCCFCVCCICCCCCFCICCICICCCIFFCICCFCFCCCCFCVCICCCICICCVCCCCCCCFCFFICCCCCVCICICCIC"
    "CCCCCCCVCCCCCICCCCCVFCCCCIFCCFCFCCICCCCCCCCCICCCCCCIVCCCCFCCICCFCVCICVCCCFCICFFC"
    "CCCCCFCCVICFIFICCCFICCCICCICICFCCFFIFICCFCCCCCFFCICCCCFCICICCIVCCCCCCCFFCFCCIFCI"
    "FCVCCCFCCCICCCCFCCCCCCFCCFCCIVFCFFFCCCCCCCVICICCCCCVCCCCCCCCFCICCICCCCICCCIFCCVI"
    "CFCVCCIICCCCFCICCCCCCCCCFCCCFCCCCFCCFCCCCCCFCFCFFCFCCCCCCIIFIICIVFFCIICFCCCCCIFC"
    "CCCCFCCFCCICICCCCCFFIFCCCCFCFIFCFFCICFCCCCFFIFCCCIFFCCFCCCCFICICCFCCCCCCCCCICFFC"
    "VVCCICCCCCFCCCCCVFICCCCFCFCCCCIFCCCCFCCCCCCIICCCFCICCCCCCICCICCCCFCCCFVFVCVCFCII"
    "IFFICCCCFCCFCCCFFICCCCCVFCCCCICCCCVCCFCCCCIICCCCFCFCCCCVCICCCCFFCFCFCVIFFCCFFCCC"
    "CICCCCCCCCICVCCICCCCCCCCCCCCCCFCCIIICCCCCCICFCCCCCCFCCCCICCCCCFCCICCCFCCCCCFFCIC"
    "CFCCIVCCCCFCCFCVCCCCIFICVCCVCFICCCCCCCCCCCCFVFFICCCCVCFCCICCCCCCCCFIFCCCFVCCCIFC"
    "FIFCCCCFCCIICFIFCCCCICVCIFIIIIICFCCCCFFCCCCCIFCFCFFCCCCCCICFCCCCCCCFCCFVCICFICCC"
    "CCCCCCCFCICFCCCFCFCCCFCCCCCCICICCCCCCCCCCCICIIFCCCICVCCIFCCCCCCCCCFCFCCCCFVCCCCI"
    "CCFCCCFCCVCCCCICCCCCCCCCICFCCCCVCCFCCCCCCCCIFCCCFCCCCCCCCCFVCCVIFCCCCFCVFFFCICCC"
    "CCCCCFCCFCCFVCICIFCCCCCCCCCCCCCCCCCCCCVCCCCIIFCCCCCCFCCCCCCCCCVICFVCCFCCCCCFICIC"
    "CCCCCCFCCCCFCCCCCICCCCFCCCCCCIVCCCCCCCCCCICCCCCICFCCCCCCCCCFFCFCFCCCCFCCICFICCVC"
    "CCFCFCCCCCCCCCCFFCFCCCCIICVCCCCCCICFVFCCCCCFCFCCCCIFCCFICCCCCFVCCCFCIICFCCFFCCIV"
    "CCCCCCICCCCFCICCCCFCICCCCFCCICCCCCCFCCICCCCCCCCCCFCCCCCCCCCFCCCCCCVCCCCCCCCCCCCC"
    "CCCFCFFICCIICFFIVIFCFCCCCCCICCCVCICCCFCFICCICCCFCFCCCVCCCFICCCFCCFCCFFFCICCCIIIC"
    "CCVFCCCCVFCCCCCCFCICFCICCCCCCCCCICCCCCCCCFCFVCCCCFCCCCCFCCCCCCVCICCFFFFCCCCCCCCF"
    "CCCCFCCCFIICCCCICCCCCCCCCCCCCVCFCCCCCCCCIFCCFCCCICCCCCCICCCCCCCCCFCCCIVFCFCCCCFC"
    "CCCICIFCICCCCCICVICICCCIFFCCCCCFCCFCFICCICIFCCCVCCFCCCCCFCCCCIFFCCCCCFCFCCCFCCCC"
    "FCCCCCCCICCCCFCCCCFCCCCCFCFCCCCCFCCCCICVICCCCCCCIICICCCFCCCCICCCCCCCCFCFCCCCCVCC"
    "VCCCCCFFCCCIFCCCCCICICCCCFCFCCCCCCCCICVVCICICFCFVCCCCCICFCCCCCCFCCCCCVCCCICFFCCC"
    "CVFCCCCCCVCCICCCCCCFCCCCFCFICCCCIICCCCCCCFCFCCVFCCCCFICCCCCICCCICCICCCCCFFCCCCIC"
    "CIICVCIFCCICCCIVFICCCCCCCCIICFCCCCICCCICCFCCIFFCCCCCCCCCFCFCFCCCFCCCFCCCCICCCFFC"
    "CFICCFCVFCVCCCCCCCCCCCCCCCCFCFCFFCCFCCCCCFIFCCCCFCICCVFCCCFCCCCCCCCFCCCICCCCCFIC"
    "CCCCVCCCCCCFCCCCCCIFFCCCIVCCCCCCCCCVFIFCCFCCCCCCCIFVFCCCICCCCCFCCCCICCCFVCCCFCCC"
    "CFCCCCFCCFFCCCCCCICCICCICCCCCICCCCVCICFCICCFCICFCCCICCCCCCIVFFCICCIFFCFCCICFCCFC"
    "CCCCCCFCCCCFVICCCICCIICCICCCCCVFCCCCCVCCCICCCCCCCICCCCFCCCFCCCCICFICCCCCCICCCCCC"
    "CCCCCCFCFICCCFFCCICFCCCCICCVCCCVCFCFCCCCCCCVCCCICICCCCCCICVICCCCCCCCFCCCCCCFCCCI"
    "CCCCCICCCCIFCCIICCVCVCCCCCCCFICCIFCCCVCCCCCFICCCCCCCFCCCVCICCICICFCCCCVCCCVCCFCI"
    "ICFCCCFCVCCCCCCICCCCFFCCCCICCCCCCCIICCCCCCCCFCCCFCCCCCICCCIVCCCCCFCCIFCCICCCCCCC"
    "CCCFFFCCCCCFCICCICCCCFCCCCCFFCFCCICCCCCVCIFCCVCCIFICCVCCCFCCCICCCICFCFCCFCCCCCCF"
    "CCCCIVCCCCCVCCCVFCIFCIFCFIVCCCICCCFFCVVCCCCCCFFCFCCCFCCCICCCCCCCCIFCCCCCCCICICFC"
    "IFCFCFICFCICCCICCCVCCFCCCCFCCFCCCCCCCFFCFCICICFCCICCFCCCCCCCCCCCCCVVFCCCCIFCCCFC"
    "FVFCCCCIIICCIFIIFIFFCFICCFCCCCVCICVFFCFCCFFCCVIFFCFICCCCCCVCCCCCCCCCCICCCCCCCFCC"
    "CVCCCCCICFVCCCICCCCCCCCFCCCCCVFICFCICCFC"
)

# the vectors whose drive underflows to 0 with a subnormal hbar and whose
# tables stay finite (see below)
_ZERO_DRIVE_MENDED = {1629, 1879, 1921, 2332, 2735}
# the vectors whose path and spectral dgg differ by a few ulps of dgg, above
# the absolute tolerance and once refused, now taken as rounding (see below)
_ULP_GAP_MENDED = {365, 1473}
# the vectors where D pi / T overflows: the end values were refused as an
# overflow of the products D coef, and take D after their sums now (see
# below).  These are finite...
_DRIVE_LAST_MENDED = {151, 349, 560, 1102, 1158, 1426, 1456, 1696, 1840, 2015, 2133, 2185,
                      2431, 2685, 2910}
# ...and these finite too, but with path and spectral dgg apart by more than
# a tolerance above the Sagnac-phase scale, so refused as unresolved
_DRIVE_LAST_UNRESOLVED = {362, 632, 951, 1306, 1564, 1670, 1799, 1888, 2232, 2500, 2550, 2989}
# the vectors whose outcome turns on one ulp of a rounded sum, with the
# outcome they have now: sqrt(2 pi) Re W within an ulp of pi at omega0 T
# below 1e-200, whose rounding times a Sagnac phase of 1e12 to 1e69 decides
# the dgd threshold check (100, 764, 2318), and a path/spectral dgg gap at
# the 4-ulp floor of the route gate (2688)
_SUMMATION_ORDER = {100: "F", 764: "I", 2318: "I", 2688: "F"}


def test_extreme_inputs_keep_their_outcome():
    # every vector gives finite fields or one of the three refusals, with no
    # other exception and no RuntimeWarning, and keeps its outcome class.  Two
    # changes: where m hbar omega0 underflows with a subnormal hbar, the
    # drive is 0 and so are the end values, which the earlier sweep turned
    # into NaN (numpy's complex division by hbar forms 1/hbar = inf) and
    # refused as an overflow; they are now the finite zeros.  And where the
    # path and spectral dgg part by at most 4 ulps of dgg, the routes agree
    # to rounding however large dgg is, so what was refused is decomposed.
    # Since the end values take the drive scale D after their sums, where
    # D pi / T overflows they are finite, not refused as an overflow; and the
    # one-pass spectrum and end values round differently, which moves the
    # outcomes that turn on one ulp
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for family, duration, w0, radius, hbar, rotation, samples in _extreme_inputs(3000, 32):
            config = None
            try:
                config = TrapConfig(hbar=hbar, trap_frequency=w0, radius=radius,
                                    rotation=rotation)
                dec = decompose(config, make_profile(family, duration, samples))
            except InsufficientResolution:
                outcomes.append(("I", config, duration))
            except ConvergenceError:
                outcomes.append(("V", config, duration))
            except ConfigurationError:
                outcomes.append(("C", config, duration))
            else:
                fields = [dec.phase, dec.delta_dynamic, dec.delta_geometric,
                          dec.delta_geometric_path, dec.xi, dec.xi0, *dec.gamma_dynamic,
                          *dec.gamma_geometric, dec.residual_angle]
                assert all(math.isfinite(value) for value in fields), (family, config)
                assert dec.kappa is None or math.isfinite(dec.kappa)
                outcomes.append(("F", config, duration))
    expected = "".join(_EXTREME_OUTCOMES)
    assert len(outcomes) == len(expected)
    for index, ((got, config, duration), before) in enumerate(zip(outcomes, expected)):
        if index in _ZERO_DRIVE_MENDED:
            assert before == "V" and config.drive_scale == 0.0
            assert config.hbar < sys.float_info.min
            before = "F"
        if index in _ULP_GAP_MENDED:
            assert before == "I"
            before = "F"
        if index in _DRIVE_LAST_MENDED | _DRIVE_LAST_UNRESOLVED:
            assert before == "V" and config.drive_scale * math.pi / duration == math.inf
            before = "F" if index in _DRIVE_LAST_MENDED else "I"
        if index in _SUMMATION_ORDER:
            assert before != _SUMMATION_ORDER[index]
            before = _SUMMATION_ORDER[index]
        assert got == before, f"vector {index}: {got}, was {before}"
