"""Coherent-state path of a single branch: quadrature route and sampled sweep."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import ringsagnac

from ringsagnac import (
    Branch,
    BranchEvolution,
    ConfigurationError,
    ConvergenceError,
    InsufficientResolution,
    ProfileFamily,
    QuadratureNonConvergence,
    TimeOutOfRange,
    TrapConfig,
    evolve_fock,
    make_profile,
    sample_trajectory,
    zero_profile,
)
from ringsagnac.evolution import _sweep, _sweep_ends
from ringsagnac.oracle import alpha_at, phi_at, spectrum_numeric


@pytest.fixture
def flat(natural):
    return make_profile(ProfileFamily.FLAT, 2 * np.pi)


def test_vacuum_start(natural, flat):
    assert alpha_at(natural, flat, Branch.CO, 0.0) == 0.0 + 0.0j
    assert phi_at(natural, flat, Branch.CO, 0.0) == 0.0


def test_alpha_midpoint_flat(natural, flat):
    # frozen against the exact constant-drive solution
    # alpha(t) = -(lambda / hbar w0) e^{-i w0 t} (e^{i w0 t} - 1)
    value = alpha_at(natural, flat, Branch.CO, np.pi)
    assert value == pytest.approx(0.848528137423857j, abs=1e-12)


def test_phase_endpoints_flat(natural, flat):
    # frozen against the constant-drive closed form (lambda/hbar)^2 (w0 T / 2) / w0^2
    assert phi_at(natural, flat, Branch.CO, 2 * np.pi) == pytest.approx(
        1.1309733552923256, rel=1e-10
    )
    assert phi_at(natural, flat, Branch.COUNTER, 2 * np.pi) == pytest.approx(
        0.5026548245743669, rel=1e-10
    )


def test_time_window_enforced(natural, flat):
    for t in (-0.1, 2 * np.pi + 0.1):
        with pytest.raises(TimeOutOfRange):
            alpha_at(natural, flat, Branch.CO, t)
        with pytest.raises(TimeOutOfRange):
            phi_at(natural, flat, Branch.CO, t)


@pytest.mark.parametrize("at_time", [
    pytest.param(lambda *args, t: alpha_at(*args, t), id="alpha_at"),
    pytest.param(lambda *args, t: phi_at(*args, t), id="phi_at"),
    pytest.param(lambda *args, t: evolve_fock(*args, until=t), id="evolve_fock"),
])
def test_nan_time_is_out_of_range(natural, flat, at_time):
    # an input error, not a NaN amplitude, a convergence failure or
    # advice to raise n_max
    with pytest.raises(TimeOutOfRange):
        at_time(natural, flat, Branch.CO, t=np.nan)


def test_zero_drive_stays_at_vacuum():
    still = TrapConfig(rotation=0.0)
    profile = zero_profile(4.0)
    ev = sample_trajectory(still, profile, Branch.CO, 64)
    np.testing.assert_array_equal(ev.alphas, np.zeros(65, dtype=complex))
    np.testing.assert_array_equal(ev.phases, np.zeros(65))
    np.testing.assert_array_equal(ev.abs2_integrals, np.zeros(65))


def test_trajectory_grid_shape(natural, flat):
    ev = sample_trajectory(natural, flat, Branch.CO, 100)
    assert ev.times.shape == (101,)
    np.testing.assert_allclose(np.diff(ev.times), 2 * np.pi / 100, rtol=1e-12)
    assert ev.duration == pytest.approx(2 * np.pi, rel=1e-15)
    for arr in (ev.alphas, ev.alpha_dots, ev.phases, ev.abs2_integrals):
        assert arr.shape == (101,)


def test_minimum_resolution(natural, flat):
    with pytest.raises(InsufficientResolution):
        sample_trajectory(natural, flat, Branch.CO, 8)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_sample_count_below_one_is_a_configuration_error(natural, flat, n_samples):
    with pytest.raises(ConfigurationError):
        sample_trajectory(natural, flat, Branch.CO, n_samples)


def test_nan_error_estimate_fails_the_budget(flat):
    # omega0 T overflows, quad returns NaN with a NaN error estimate
    extreme = TrapConfig(trap_frequency=1e308)
    with pytest.raises(QuadratureNonConvergence):
        alpha_at(extreme, flat, Branch.CO, flat.duration)
    with pytest.raises(QuadratureNonConvergence):
        phi_at(extreme, flat, Branch.CO, flat.duration)


@pytest.mark.parametrize("family", [ProfileFamily.SINUSOIDAL, ProfileFamily.TABULATED])
def test_trajectory_endpoint_matches_quadrature(natural, family, random_profile):
    if family is ProfileFamily.TABULATED:
        profile = random_profile(np.random.default_rng(7))
    else:
        profile = make_profile(family, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.COUNTER, 512)
    assert abs(ev.final_alpha - alpha_at(natural, profile, Branch.COUNTER, profile.duration)) < 1e-8
    assert abs(ev.final_phase - phi_at(natural, profile, Branch.COUNTER, profile.duration)) < 1e-8


def test_trajectory_interior_matches_quadrature(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 5.0)
    ev = sample_trajectory(natural, profile, Branch.CO, 200)
    for idx in (37, 100, 163):
        t = ev.times[idx]
        assert abs(ev.alphas[idx] - alpha_at(natural, profile, Branch.CO, t)) < 1e-10
        assert abs(ev.phases[idx] - phi_at(natural, profile, Branch.CO, t)) < 1e-8


def test_path_closure_at_design_durations(natural):
    # at u = 2 pi both branch spectra vanish, so the loops close
    for family in (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL):
        ev = sample_trajectory(natural, make_profile(family, 2 * np.pi), Branch.CO, 256)
        assert abs(ev.final_alpha) < 1e-10


def test_alpha_linear_phase_quadratic_in_drive():
    # with omega_P switched off the drive is proportional to the rotation
    # rate, alpha is linear in it and the accumulated phase quadratic
    profile = zero_profile(3.0)
    base = TrapConfig(rotation=0.1)
    tripled = TrapConfig(rotation=0.3)
    t = 2.2
    a1 = alpha_at(base, profile, Branch.CO, t)
    a3 = alpha_at(tripled, profile, Branch.CO, t)
    assert a3 == pytest.approx(3 * a1, rel=1e-10)
    p1 = phi_at(base, profile, Branch.CO, t)
    p3 = phi_at(tripled, profile, Branch.CO, t)
    assert p3 == pytest.approx(9 * p1, rel=1e-8)


def test_branch_separation_matches_spectrum(natural, random_profile):
    # alpha_co(T) - alpha_counter(T) = -2 r sqrt(pi m w0 / hbar)
    #                                  * conj(W(w0)) * exp(-i w0 T)
    rng = np.random.default_rng(41)
    for _ in range(3):
        profile = random_profile(rng)
        T = profile.duration
        a0 = alpha_at(natural, profile, Branch.CO, T)
        a1 = alpha_at(natural, profile, Branch.COUNTER, T)
        w = spectrum_numeric(profile, 1.0).value
        expected = -2 * np.sqrt(np.pi) * w.conjugate() * np.exp(-1j * T)
        assert abs((a0 - a1) - expected) < 1e-8


def test_alpha_dots_consistent_with_path(natural):
    profile = make_profile(ProfileFamily.COSINUSOIDAL, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.CO, 4096)
    h = ev.times[1] - ev.times[0]
    fd = (ev.alphas[2:] - ev.alphas[:-2]) / (2 * h)
    assert np.max(np.abs(fd - ev.alpha_dots[1:-1])) < 1e-5


def test_abs2_integral_consistent_with_path(natural):
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    ev = sample_trajectory(natural, profile, Branch.CO, 4096)
    assert ev.abs2_integrals[0] == 0.0
    assert np.all(np.diff(ev.abs2_integrals) >= 0)
    trapz = np.trapezoid(np.abs(ev.alphas) ** 2, ev.times)
    assert ev.abs2_integrals[-1] == pytest.approx(trapz, rel=1e-6)


def test_two_branch_sweep_equals_one_branch_sweeps():
    # the branches share the width tables but must not mix: each row of the
    # two-branch sweep is bit-identical to that branch's own sweep, also on
    # a long grid
    config = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.1, radius=0.9, rotation=0.05)
    profile = make_profile(ProfileFamily.TABULATED, 6.1, samples=[0.2, 1.0, 0.4, 0.8])
    pair = _sweep(config, profile, (Branch.CO, Branch.COUNTER), 16400)
    for branch, ev in zip((Branch.CO, Branch.COUNTER), pair):
        alone = sample_trajectory(config, profile, branch, 16400)
        assert ev.branch is branch
        for name in ("times", "alphas", "alpha_dots", "phases", "abs2_integrals"):
            np.testing.assert_array_equal(getattr(ev, name), getattr(alone, name))


def test_path_validation():
    ts = np.linspace(0.0, 1.0, 8)
    zeros = np.zeros(8, dtype=complex)
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts + 0.5, zeros, zeros, np.zeros(8))
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts, zeros + 1.0, zeros, np.zeros(8))
    with pytest.raises(ValueError):
        BranchEvolution(Branch.CO, ts, zeros, zeros, np.zeros(8), np.ones(8))


DIMENSIONAL = TrapConfig(mass=1.3, hbar=0.7, trap_frequency=1.7, radius=0.9, rotation=0.05)
# six nodes sit at multiples of T/5, off every grid of 2^k or 2^k + 1 samples
OFF_GRID = make_profile(ProfileFamily.TABULATED, 7.3, samples=[0.3, 1.0, 0.6, 0.9, 0.2, 0.5])


SWEEP_CASES = [
    *[(make_profile(family, 7.3), n)
      for family in (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL)
      for n in (16, 4096)],
    # odd counts put the |sin| kink at T/2 inside a grid interval
    (make_profile(ProfileFamily.SINUSOIDAL, 7.3), 17),
    (make_profile(ProfileFamily.SINUSOIDAL, 7.3), 4097),
    (OFF_GRID, 16),
    (OFF_GRID, 4096),
]


@pytest.mark.parametrize("profile, n_samples", SWEEP_CASES,
                         ids=lambda value: getattr(value, "family", value))
def test_sweep_interior_matches_adaptive_quadrature(profile, n_samples):
    # the width-table sweep against the independent adaptive route, away
    # from natural units; both agree to rounding (a few 1e-15 here), far
    # inside the quadrature budgets, so the bound is 1e-12
    ev = sample_trajectory(DIMENSIONAL, profile, Branch.COUNTER, n_samples)
    for idx in (n_samples // 3, n_samples // 2 + 1, 3 * n_samples // 4 + 1):
        t = ev.times[idx]
        assert abs(ev.alphas[idx] - alpha_at(DIMENSIONAL, profile, Branch.COUNTER, t)) < 1e-12
        assert abs(ev.phases[idx] - phi_at(DIMENSIONAL, profile, Branch.COUNTER, t)) < 1e-12


def test_off_grid_profile_nodes_split_sweep_intervals():
    # premise of the tabulated case above: no node lies on either grid
    nodes = OFF_GRID.grid[1:-1]
    for n_samples in (16, 4096):
        ts = np.linspace(0.0, OFF_GRID.duration, n_samples + 1)
        assert not np.isin(nodes, ts).any()


def _record_grids(monkeypatch) -> list:
    """Record (uniform count, intervals built) of every pass of the shared stage."""
    grids = []
    stage = ringsagnac.evolution._interval_terms

    def counted(config, profile, branches, n_samples):
        terms = stage(config, profile, branches, n_samples)
        grids.append((n_samples, terms[3].shape[-1]))
        return terms

    monkeypatch.setattr(ringsagnac.evolution, "_interval_terms", counted)
    return grids


# omega0 T = 61.2 is above the count of 32 samples, so the cap binds
CAP_BINDS = make_profile(ProfileFamily.TABULATED, 36.0, samples=[0.3, 1.0, 0.6, 0.9, 0.2, 0.5])


@pytest.mark.parametrize("profile, n_samples",
                         [*SWEEP_CASES, pytest.param(CAP_BINDS, 32, id="cap-binds")],
                         ids=lambda value: getattr(value, "family", value))
def test_end_values_match_the_path_sweep(monkeypatch, profile, n_samples):
    # the end values sum the path sweep's interval terms instead of running
    # through them, so on the grid the end-value sweep chose the two agree
    # to rounding of the summation order
    branches = (Branch.CO, Branch.COUNTER)
    grids = _record_grids(monkeypatch)
    ends = _sweep_ends(DIMENSIONAL, profile, branches, n_samples)
    ((chosen, _),) = grids
    span = DIMENSIONAL.trap_frequency * profile.duration
    assert chosen == (n_samples if span >= n_samples else max(16, math.ceil(span)))
    paths = _sweep(DIMENSIONAL, profile, branches, chosen)
    for (alpha, phase, square), ev in zip(ends, paths):
        assert alpha == ev.final_alpha
        assert abs(phase - ev.final_phase) <= 1e-12 * max(1.0, abs(ev.final_phase))
        assert abs(square - ev.abs2_integrals[-1]) <= 1e-12 * max(1.0, ev.abs2_integrals[-1])


def test_end_values_keep_the_sweep_checks(natural, flat):
    with pytest.raises(ConfigurationError):
        _sweep_ends(natural, flat, (Branch.CO,), 0)
    with pytest.raises(InsufficientResolution):
        _sweep_ends(natural, flat, (Branch.CO,), 8)
    with pytest.raises(ConvergenceError):
        _sweep_ends(TrapConfig(rotation=1e200), flat, (Branch.CO,), 16)


@pytest.mark.parametrize("n_samples", [64, 4096])
def test_end_value_sweep_takes_at_most_the_cap_plus_the_kinks(monkeypatch, n_samples):
    # omega0 T = 6.3e4 asks for far more intervals than the cap allows; the
    # grid is then the cap's uniform one, split at the profile's four kinks
    fast = TrapConfig(trap_frequency=1e4)
    profile = make_profile(ProfileFamily.TABULATED, 2 * np.pi,
                           samples=[0.3, 1.0, 0.6, 0.9, 0.2, 0.5])
    grids = _record_grids(monkeypatch)
    _sweep_ends(fast, profile, (Branch.CO, Branch.COUNTER), n_samples)
    ((count, intervals),) = grids
    assert count == n_samples
    assert intervals <= n_samples + 4


@pytest.mark.parametrize("sweep", [
    pytest.param(lambda config, profile, n: sample_trajectory(config, profile, Branch.CO, n),
                 id="sample_trajectory"),
    pytest.param(lambda config, profile, n: _sweep_ends(config, profile, (Branch.CO,), n),
                 id="_sweep_ends"),
])
def test_sample_count_above_the_ceiling_is_a_configuration_error(monkeypatch, flat, sweep):
    # refused before any interval is built; only the value one above the
    # ceiling is tried, an accepted one that large would take gigabytes
    limit = ringsagnac.evolution._MAX_SAMPLES
    grids = _record_grids(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"at most {limit}"):
        sweep(TrapConfig(), flat, limit + 1)
    assert grids == []


def test_width_tables_in_blocks_equal_one_block(monkeypatch):
    # a profile with nodes off the sample grid has more distinct interval
    # widths than one table block holds; building the tables block by block
    # gives the same sweep as one block over all widths
    nodes = np.random.default_rng(5).uniform(0.1, 1.0, 3001)
    profile = make_profile(ProfileFamily.TABULATED, 7.3, samples=nodes)
    edges = np.union1d(np.linspace(0.0, 7.3, 2049), profile.grid)
    assert len(np.unique(np.diff(edges))) > ringsagnac.evolution._TABLE_BLOCK
    branches = (Branch.CO, Branch.COUNTER)
    blocked = _sweep(DIMENSIONAL, profile, branches, 2048)
    monkeypatch.setattr(ringsagnac.evolution, "_TABLE_BLOCK", 10**9)
    whole = _sweep(DIMENSIONAL, profile, branches, 2048)
    for a, b in zip(blocked, whole):
        for name in ("alphas", "alpha_dots", "phases", "abs2_integrals"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-14)


def _imported_modules(name):
    source = Path(ringsagnac.__file__).parent / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                found.add(module.split(".")[0])
                found.update(alias.name for alias in node.names if not module)
            elif module.startswith("ringsagnac."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ringsagnac."))
    return found


_MODULES = sorted(path.stem for path in Path(ringsagnac.__file__).parent.glob("*.py"))


@pytest.mark.parametrize(
    "module, forbidden",
    [("evolution", {"spectrum", "interferometer", "geometry", "oracle"}),
     ("spectrum", {"evolution", "oracle"}),
     ("oracle", set(_MODULES) - {"model", "errors"}),
     *((name, {"oracle"}) for name in _MODULES
       if name not in ("cli", "evolution", "oracle", "spectrum"))],
)
def test_time_domain_and_spectral_routes_share_no_code(module, forbidden):
    # the path sweep and the spectrum check each other, so neither may
    # import the other (or, for the sweep, what builds on the spectrum);
    # the quadrature oracles check both, so they build on model and errors
    # alone, and no module but the CLI (__init__ included) imports them
    assert "oracle" in _MODULES
    assert _imported_modules(module) & forbidden == set()
