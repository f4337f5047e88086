"""Coherent-state path of a single branch: quadrature route and sampled sweep."""

import ast
import dataclasses
import io
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
)
import ringsagnac.cli
from ringsagnac.evolution import (
    _AFFINE_SWITCH,
    _affine_coef,
    _affine_table,
    _doublings,
    _gram_ends,
    _interval_terms,
    _kink_grid,
    _sweep,
    _sweep_ends,
    _trig_coef,
    _width_tables,
)
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


def test_zero_drive_stays_at_vacuum(switched_off):
    still = TrapConfig(rotation=0.0)
    profile = switched_off(4.0)
    ev = sample_trajectory(still, profile, Branch.CO, 64)
    np.testing.assert_array_equal(ev.alphas, np.zeros(65, dtype=complex))
    np.testing.assert_array_equal(ev.phases, np.zeros(65))
    np.testing.assert_array_equal(ev.abs2_integrals, np.zeros(65))


def test_trajectory_grid_shape(natural, flat):
    ev = sample_trajectory(natural, flat, Branch.CO, 100)
    assert ev.times.shape == (101,)
    np.testing.assert_allclose(np.diff(ev.times), 2 * np.pi / 100, rtol=1e-12)
    assert ev.times[-1] == pytest.approx(2 * np.pi, rel=1e-15)
    for arr in (ev.alphas, ev.alpha_dots, ev.phases, ev.abs2_integrals):
        assert arr.shape == (101,)


def test_minimum_resolution(natural, flat):
    with pytest.raises(InsufficientResolution):
        sample_trajectory(natural, flat, Branch.CO, 8)


@pytest.mark.parametrize("n_samples", [0, -5])
def test_sample_count_below_one_is_a_configuration_error(natural, flat, n_samples):
    with pytest.raises(ConfigurationError):
        sample_trajectory(natural, flat, Branch.CO, n_samples)


@pytest.mark.parametrize("n_samples", [64.0, 64.5, "64", None])
@pytest.mark.parametrize("route", [
    pytest.param(lambda config, profile, n: sample_trajectory(config, profile, Branch.CO, n),
                 id="sample_trajectory"),
    pytest.param(lambda config, profile, n: ringsagnac.decompose(config, profile, n_samples=n),
                 id="decompose"),
])
def test_non_integer_sample_count_is_a_configuration_error(natural, flat, route, n_samples):
    # refused up front, naming the parameter, even when the value is integral
    with pytest.raises(ConfigurationError, match="n_samples must be an integer"):
        route(natural, flat, n_samples)


def test_numpy_integer_sample_count_is_accepted(natural, flat):
    path = sample_trajectory(natural, flat, Branch.CO, np.int64(64))
    np.testing.assert_array_equal(path.alphas, sample_trajectory(natural, flat, Branch.CO, 64).alphas)


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


def test_alpha_linear_phase_quadratic_in_drive(switched_off):
    # with omega_P switched off the drive is proportional to the rotation
    # rate, alpha is linear in it and the accumulated phase quadratic
    profile = switched_off(3.0)
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


def _branch_ends(config, profile, branches) -> list:
    """(alpha(T), phi(T), int |alpha|^2) of each branch, from the (even, odd) end parts."""
    parts = _sweep_ends(config, profile)
    return [tuple(even + branch.sign * odd for even, odd in parts) for branch in branches]


def _record_grids(monkeypatch) -> list:
    """Record the interval count of every pass of the two interval stages.

    The path sweep runs _interval_terms over its grid, the end values take
    their Gram sums over the kink grid in _gram_ends.
    """
    grids = []
    paths = ringsagnac.evolution._interval_terms
    ends = ringsagnac.evolution._gram_ends

    def counted_paths(config, branches, edges, *tables):
        grids.append(len(edges) - 1)
        return paths(config, branches, edges, *tables)

    def counted_ends(config, T, h, coef, tables, forms):
        grids.append(len(coef[0]))
        return ends(config, T, h, coef, tables, forms)

    monkeypatch.setattr(ringsagnac.evolution, "_interval_terms", counted_paths)
    monkeypatch.setattr(ringsagnac.evolution, "_gram_ends", counted_ends)
    return grids


def _record_tables(monkeypatch) -> list:
    """Record (builder, widths) of every width-table build.

    The builders are the trigonometric basis's Gauss rule on an array of
    widths, _width_tables, recorded with its width count, and the affine
    basis's closed form on one width, _affine_table, recorded with that
    width.
    """
    builds = []
    build = ringsagnac.evolution._width_tables
    build_affine = ringsagnac.evolution._affine_table

    def counted(hs, w0, k, doublings):
        builds.append(("_width_tables", len(hs)))
        return build(hs, w0, k, doublings)

    def counted_affine(h, theta):
        builds.append(("_affine_table", h))
        return build_affine(h, theta)

    monkeypatch.setattr(ringsagnac.evolution, "_width_tables", counted)
    monkeypatch.setattr(ringsagnac.evolution, "_affine_table", counted_affine)
    return builds


# omega0 T = 61.2 on 32 samples: omega0 h up to 1.9, just below the affine
# table's switch at theta = 2
CAP_BINDS = make_profile(ProfileFamily.TABULATED, 36.0, samples=[0.3, 1.0, 0.6, 0.9, 0.2, 0.5])
# 4096 kink-grid intervals, whose Gram sums run over long prefix rows
LONG_GRID = make_profile(ProfileFamily.TABULATED, 7.3,
                         samples=np.random.default_rng(11).uniform(0.1, 1.0, 4097))
# and over T = 6000, omega0 h = 2.5 at DIMENSIONAL: above the affine table's
# switch, with the per-interval turns round the circle 1600 times
LONG_FAST = make_profile(ProfileFamily.TABULATED, 6000.0,
                         samples=np.random.default_rng(13).uniform(0.0, 1.0, 4097))
# 3001 nodes off the 2048-sample grid: 1359 distinct interval widths, each
# with its own closed-form table
MANY_WIDTHS = make_profile(ProfileFamily.TABULATED, 7.3,
                           samples=np.random.default_rng(5).uniform(0.1, 1.0, 3001))


@pytest.mark.parametrize("profile, n_samples",
                         [*SWEEP_CASES, pytest.param(CAP_BINDS, 32, id="cap-binds"),
                          pytest.param(LONG_GRID, 4096, id="4097-nodes"),
                          pytest.param(LONG_FAST, 4096, id="4097-nodes-fast"),
                          pytest.param(MANY_WIDTHS, 2048, id="1359-widths")],
                         ids=lambda value: getattr(value, "family", value))
def test_end_values_match_the_path_sweep(monkeypatch, profile, n_samples):
    # the end values take the sums of the interval terms of the kink grid
    # alone as Gram products, the path sweep runs the terms through its grid
    # of n_samples intervals; both are exact to rounding at any omega0 h, so
    # their final values agree to rounding
    branches = (Branch.CO, Branch.COUNTER)
    grids = _record_grids(monkeypatch)
    ends = _branch_ends(DIMENSIONAL, profile, branches)
    assert grids == [len(profile.breakpoints()) + 1]
    paths = _sweep(DIMENSIONAL, profile, branches, n_samples)
    for (alpha, phase, square), ev in zip(ends, paths):
        assert abs(alpha - ev.final_alpha) <= 1e-12 * max(1.0, abs(ev.final_alpha))
        assert abs(phase - ev.final_phase) <= 1e-12 * max(1.0, abs(ev.final_phase))
        assert abs(square - ev.abs2_integrals[-1]) <= 1e-12 * max(1.0, ev.abs2_integrals[-1])


def _as_vectors(tables, forms):
    """_affine_table's complex [G, S] and [K, L] in _width_tables' one-width layout."""
    tables = np.array(tables)
    vectors = np.array([tables[0].real, tables[0].imag, tables[1].real, tables[1].imag])
    return vectors[..., None], np.array(forms)[..., None]


def _gram_and_reference(config, profile):
    """Both branches' end values on the kink grid from its basis's width table.

    The scalar Gram pass, _gram_ends, and the path sweep's vectorised stage,
    _interval_terms, with the final Y and the summed interval terms, take
    the same table, coefficients and turns.  Returns (got, reference, scale)
    per branch, the scale being the larger of the summed term moduli and
    |even| + |odd| of the Gram pass's parts.
    """
    T, w0 = profile.duration, config.trap_frequency
    count, values = _kink_grid(profile)
    h = T / count
    edges = h * np.arange(count + 1.0)
    edges[-1] = T
    if values is None:
        coef = _trig_coef(profile, edges[:-1])
        vectors, forms = _width_tables(np.array([h]), w0, 2 * np.pi / T,
                                       _doublings(profile, w0, h))
    else:
        coef = np.array(_affine_coef(np.asarray(values)))
        vectors, forms = _as_vectors(*_affine_table(h, w0 * h))
    branches = (Branch.CO, Branch.COUNTER)
    y, d_phase, d_abs2 = _interval_terms(
        config, branches, edges, np.full(count, h), coef,
        np.repeat(vectors, count, axis=-1), np.repeat(forms, count, axis=-1))
    tables = vectors[0::2, :, 0] + 1j * vectors[1::2, :, 0]
    parts = _gram_ends(config, T, h, coef.tolist(), tables.tolist(), forms[..., 0].tolist())
    cases = []
    for b, branch in enumerate(branches):
        scales = (np.abs(y[b]).max(), np.abs(d_phase[b]).sum(), np.abs(d_abs2[b]).sum())
        cases.append(([even + branch.sign * odd for even, odd in parts],
                      [y[b, -1], d_phase[b].sum(), d_abs2[b].sum()],
                      [max(scale, abs(even) + abs(odd)) for scale, (even, odd) in zip(scales, parts)]))
    return cases


def _seeded_end_cases(seed: int, count: int):
    rng = np.random.default_rng(seed)
    families = ("tabulated", "flat", "sinusoidal", "cosinusoidal")
    for i in range(count):
        config = TrapConfig(mass=float(rng.uniform(0.5, 2)), hbar=float(rng.uniform(0.5, 2)),
                            trap_frequency=float(10 ** rng.uniform(-1, 3)),
                            radius=float(rng.uniform(0.5, 2)), rotation=float(rng.uniform(-1, 1)))
        family = families[i % 4]
        samples = (rng.uniform(0.1, 1.0, rng.integers(2, 40)) if family == "tabulated" else None)
        yield config, make_profile(family, float(rng.uniform(1, 20)), samples)


def _deepest(family):
    # omega0 h = 0.99 2^52 - k h on the kink grid (k = 2 pi / T), so nu h is
    # 0.99 2^52 for the trigonometric basis and just below it for the affine one
    profile = OFF_GRID if family is ProfileFamily.TABULATED else make_profile(family, 7.3)
    h = profile.duration / (len(profile.breakpoints()) + 1)
    return TrapConfig(trap_frequency=0.99 * 2.0**52 / h - 2 * np.pi / profile.duration), profile


@pytest.mark.parametrize("config, profile", [
    *_seeded_end_cases(5, 24),
    (DIMENSIONAL, LONG_GRID),
    *(_deepest(family) for family in ProfileFamily),
    (DIMENSIONAL, LONG_FAST),
], ids=lambda value: getattr(value, "family", None) and value.family.value)
def test_gram_pass_matches_the_vectorised_interval_terms(config, profile):
    # same table, same coefficients: the scalar pass and the array stage
    # differ only in summation order, so they agree to a few ulps of the
    # parts and terms summed (measured: 4e-15, and 1.1e-14 on LONG_FAST,
    # whose 1600 turns the array stage's running sums round), down to the
    # 4096 intervals of LONG_GRID and LONG_FAST and up to omega0 h near the
    # 2^52 ceiling
    with np.errstate(over="ignore", invalid="ignore"):
        cases = _gram_and_reference(config, profile)
    for got, reference, scales in cases:
        for value, expected, scale in zip(got, reference, scales):
            assert abs(value - expected) <= 2e-14 * scale


def test_end_values_keep_the_sweep_checks(natural, flat):
    # decompose checks the n_samples it does not use as the path sweep does
    for n_samples in (0, -5):
        with pytest.raises(ConfigurationError):
            ringsagnac.decompose(natural, flat, n_samples=n_samples)
    with pytest.raises(InsufficientResolution):
        ringsagnac.decompose(natural, flat, n_samples=8)
    with pytest.raises(ConvergenceError):
        _sweep_ends(TrapConfig(rotation=1e200), flat)


@pytest.mark.parametrize("n_samples", [64, 4096])
def test_end_value_sweep_takes_at_most_the_cap_plus_the_kinks(monkeypatch, n_samples):
    # omega0 T = 6.3e4, yet decompose sweeps the five intervals of the kink
    # grid alone, and n_samples changes no bit of its result
    fast = TrapConfig(trap_frequency=1e4)
    profile = make_profile(ProfileFamily.TABULATED, 2 * np.pi,
                           samples=[0.3, 1.0, 0.6, 0.9, 0.2, 0.5])
    grids = _record_grids(monkeypatch)
    dec = ringsagnac.decompose(fast, profile, n_samples=n_samples)
    assert grids == [5]
    assert repr(dec) == repr(ringsagnac.decompose(fast, profile, n_samples=16))


FAMILY_CASES = [make_profile(family, 7.3) for family in
                (ProfileFamily.FLAT, ProfileFamily.SINUSOIDAL, ProfileFamily.COSINUSOIDAL)]
FAMILY_CASES.append(OFF_GRID)


@pytest.mark.parametrize("config", [TrapConfig(), DIMENSIONAL], ids=["natural", "scaled"])
@pytest.mark.parametrize("span", [7.3, 1e3, 1e5])
@pytest.mark.parametrize("profile", FAMILY_CASES, ids=lambda profile: profile.family.value)
def test_end_values_match_a_resolved_path_sweep(config, span, profile):
    # the kink grid's tables reach omega0 h = span (doubled for the
    # trigonometric basis); the path sweep at n_samples >= (omega0 + 2 pi / T) T
    # needs no doubling.  Both round omega0 t to about eps omega0 T, which
    # bounds their gap beyond 1e-12
    config = dataclasses.replace(config, trap_frequency=span / profile.duration)
    n_samples = max(16, math.ceil(span + 2 * np.pi))
    branches = (Branch.CO, Branch.COUNTER)
    tol = 1e-12 + np.finfo(float).eps * span
    paths = _sweep(config, profile, branches, n_samples)
    for (alpha, phase, square), ev in zip(_branch_ends(config, profile, branches), paths):
        assert abs(alpha - ev.final_alpha) <= tol * max(1.0, abs(ev.final_alpha))
        assert abs(phase - ev.final_phase) <= tol * max(1.0, abs(ev.final_phase))
        assert abs(square - ev.abs2_integrals[-1]) <= tol * max(1.0, ev.abs2_integrals[-1])


@pytest.mark.parametrize("config", [TrapConfig(), TrapConfig(trap_frequency=1e4)],
                         ids=["natural", "fast"])
@pytest.mark.parametrize("profile", FAMILY_CASES, ids=lambda profile: profile.family.value)
def test_end_value_sweep_builds_one_table(monkeypatch, config, profile):
    # the kink grid is uniform, so one width table serves every interval;
    # the affine families take it in closed form
    builds = _record_tables(monkeypatch)
    _sweep_ends(config, profile)
    h = profile.duration / _kink_grid(profile)[0]
    affine = profile.family in (ProfileFamily.FLAT, ProfileFamily.TABULATED)
    assert builds == [("_affine_table", h) if affine else ("_width_tables", 1)]


@pytest.mark.parametrize("profile, n_samples",
                         [*SWEEP_CASES, pytest.param(MANY_WIDTHS, 2048, id="1359-widths")],
                         ids=lambda value: getattr(value, "family", value))
def test_path_sweep_builds_one_table_per_width(monkeypatch, profile, n_samples):
    # the affine basis takes one closed-form table per distinct interval
    # width and no Gauss table; the trigonometric basis one Gauss-rule call
    # over all its widths
    builds = _record_tables(monkeypatch)
    widths = []
    terms = ringsagnac.evolution._interval_terms

    def recording_terms(config, branches, edges, interval_widths, *rest):
        widths.append(interval_widths)
        return terms(config, branches, edges, interval_widths, *rest)

    monkeypatch.setattr(ringsagnac.evolution, "_interval_terms", recording_terms)
    _sweep(DIMENSIONAL, profile, (Branch.CO, Branch.COUNTER), n_samples)
    distinct = np.unique(widths[0]).tolist()
    if profile.family in (ProfileFamily.FLAT, ProfileFamily.TABULATED):
        assert builds == [("_affine_table", h) for h in distinct]
    else:
        assert builds == [("_width_tables", len(distinct))]
    if profile is MANY_WIDTHS:
        assert len(distinct) == 1359


# k h = 2^-30 on a width h: there sin(kd) / (k h) is d / h and cos kd is 1 to
# rounding, so the Gauss rule of {1, cos kd, sin kd} gives the tables of the
# affine basis {1, d/h} in its rows 0 and 2
_AFFINE_LIMIT = 2.0**-30


@pytest.mark.parametrize("k", [_AFFINE_LIMIT, 2 * np.pi / 7.3], ids=["affine", "trigonometric"])
def test_one_doubling_matches_the_plain_rule(k):
    # on [0, 2 w] with (omega0 + k) 2 w <= 1 the rule is exact to rounding, so
    # the tables of [0, w] doubled once must give the same, to the rounding
    # of the few products of table size that one doubling adds; also in the
    # affine limit k h < 2^-30, where a doubling rotates by almost nothing
    hs, w0 = np.array([0.3, 0.55]), 0.8
    assert (w0 + k) * hs.max() <= 1
    plain = _width_tables(hs, w0, k, 0)
    doubled = _width_tables(hs, w0, k, 1)
    for exact, table in zip(plain, doubled):
        np.testing.assert_allclose(table, exact, rtol=0, atol=1e-14 * np.abs(exact).max())


@pytest.mark.parametrize("config", [TrapConfig(), DIMENSIONAL], ids=["natural", "scaled"])
@pytest.mark.parametrize("span", [1e-3, 0.7, 1.0, 1.9, 3.0, 37.0, 1e3, 1e5])
@pytest.mark.parametrize("profile", [make_profile(ProfileFamily.FLAT, 7.3), OFF_GRID],
                         ids=["flat", "tabulated"])
def test_affine_width_table_matches_the_array_tables(config, span, profile):
    # the closed-form affine table against the Gauss rule in its affine
    # limit, at omega0 h = span (0 to 17 doublings of the rule): they agree
    # to the rule's own error where it needs no doubling (1.1e-14 of the
    # largest K and L entry at omega0 h = 1 against mpmath, where the closed
    # form is within 6e-17), and to the end-value bound 1e-12 + eps nu h
    # where it does
    w0 = config.trap_frequency
    h = span / w0
    doublings = _doublings(profile, w0, h)
    vectors, forms = _width_tables(np.array([h]), w0, _AFFINE_LIMIT / h, doublings)
    # rows 0 and 2, the second over k h
    scale = np.array([1.0, 1 / _AFFINE_LIMIT])
    reference = (vectors[:, [0, 2]] * scale[:, None],
                 forms[:, [0, 2]][:, :, [0, 2]] * scale[:, None, None] * scale[:, None])
    tol = 2e-14 if doublings == 0 else 1e-12 + np.finfo(float).eps * span
    for exact, table in zip(reference, _as_vectors(*_affine_table(h, w0 * h))):
        assert table.shape == exact.shape
        np.testing.assert_allclose(table, exact, rtol=0, atol=tol * np.abs(exact).max())


# the eleven entries on [0, 1] (h = 1) at theta = omega0 h: the real and
# imaginary parts of g0, g1, s0 and s1, then k00, k01, k10, k11, l00, l01 and
# l11, from their closed forms evaluated by mpmath at 150 digits (checked
# against direct mpmath quadrature of the defining integrals to 1e-31) and
# rounded to the nearest double; the thetas straddle the series switch
AFFINE_EXACT = {
    1e-08: (
        1.0, 5e-09, 0.5, 3.3333333333333334e-09, 0.5, 1.6666666666666667e-09,
        0.16666666666666666, 8.333333333333334e-10, -1.6666666666666667e-09,
        -4.166666666666667e-10, -1.25e-09, -3.333333333333333e-10, 0.3333333333333333, 0.125,
        0.05,
    ),
    0.001: (
        0.9999998333333416, 0.0004999999583333348, 0.4999998750000069, 0.0003333333000000012,
        0.4999999583333347, 0.00016666665833333353, 0.16666664166666767, 8.333332777777793e-05,
        -0.00016666665833333353, -4.1666665277777804e-05, -0.00012499999305555574,
        -3.3333332142857164e-05, 0.33333331666666705, 0.12499999305555573, 0.04999999801587306,
    ),
    0.27: (
        0.9878942099586339, 0.13418186531151663, 0.4909243384344982, 0.08934560589904926,
        0.49696987152413563, 0.044836259412467376, 0.16484943143178474, 0.022390863294953475,
        -0.044836259412467376, -0.011222698058756949, -0.03361356135371042,
        -0.008976599464345014, 0.33212044009235087, 0.12449467168040897, 0.049855561999504285,
    ),
    1.0: (
        0.8414709848078965, 0.4596976941318603, 0.3817732906760362, 0.3011686789397568,
        0.4596976941318603, 0.1585290151921035, 0.1426396637476533, 0.07792440345582406,
        -0.1585290151921035, -0.040302305868139716, -0.11822670932396377, -0.03216465439357655,
        0.317058030384207, 0.11822670932396377, 0.04805400583802674,
    ),
    1.9999999999999998: (
        0.45464871341284097, 0.7080734182735712, 0.10061200427605532, 0.4353977749799916,
        0.35403670913678564, 0.2726756432935796, 0.08136106584320604, 0.12671235243036516,
        -0.2726756432935796, -0.07298164543160719, -0.19969399786197237, -0.05781722292166876,
        0.2726756432935796, 0.0998469989309862, 0.04265280041173032,
    ),
    2.0: (
        0.45464871341284085, 0.7080734182735712, 0.10061200427605525, 0.4353977749799916,
        0.3540367091367856, 0.2726756432935796, 0.08136106584320602, 0.12671235243036516,
        -0.2726756432935796, -0.0729816454316072, -0.19969399786197237, -0.057817222921668764,
        0.2726756432935796, 0.09984699893098618, 0.04265280041173032,
    ),
    2.0000000000000004: (
        0.45464871341284063, 0.7080734182735713, 0.10061200427605511, 0.4353977749799916,
        0.35403670913678553, 0.27267564329357963, 0.08136106584320599, 0.1267123524303652,
        -0.27267564329357963, -0.07298164543160722, -0.1996939978619724, -0.05781722292166877,
        0.2726756432935796, 0.09984699893098618, 0.04265280041173032,
    ),
    2.95: (
        0.06455004995289053, 0.6717634586435437, -0.16316637670593784, 0.35466178066147275,
        0.22771642665882835, 0.317101677982071, 0.012732238196407366, 0.1325026452083953,
        -0.317101677982071, -0.09229951638683784, -0.22480216159523314, -0.07224033929007304,
        0.214984188462421, 0.0762041225746553, 0.035377059114107275,
    ),
    10.0: (
        -0.05440211108893698, 0.18390715290764525, -0.07279282637970151, 0.07846694179875155,
        0.018390715290764525, 0.10544021110889369, -0.0026973269310142153, 0.009118354167046603,
        -0.10544021110889369, -0.04816092847092355, -0.05727928263797015, -0.03254866391534582,
        0.02108804222177874, 0.005727928263797015, 0.003387279871953618,
    ),
    1000.0: (
        0.0008268795405320026, 0.000437620923709297, 0.0008264419196082933,
        -0.0005615521967501709, 4.37620923709297e-07, 0.000999173120459468,
        -1.560725317209639e-06, -8.260042986845839e-07, -0.000999173120459468,
        -0.0004999995623790762, -0.0004991735580803917, -0.0003333338948855301,
        1.998346240918936e-06, 4.991735580803917e-07, 3.3333645478396774e-07,
    ),
    100000000.0: (
        9.31639027109726e-09, 1.3633850893556905e-08, 9.31639013475875e-09,
        3.633850986720808e-09, 1.3633850893556906e-16, 9.999999906836097e-09,
        -6.366148920115289e-17, -9.316389998420243e-17, -9.999999906836097e-09,
        -4.9999999999999985e-09, -4.999999906836099e-09, -3.333333333333333e-09,
        1.9999999813672195e-16, 4.999999906836099e-17, 3.333333333333335e-17,
    ),
    1000000000000000.0: (
        8.582727931702359e-16, 1.5131937377869702e-15, 8.582727931702343e-16,
        5.131937377869711e-16, 1.5131937377869702e-30, 9.99999999999999e-16,
        -4.86806262213028e-31, -8.582727931702328e-31, -9.99999999999999e-16, -5e-16,
        -4.999999999999992e-16, -3.333333333333333e-16, 1.9999999999999984e-30,
        4.999999999999992e-31, 3.3333333333333333e-31,
    ),
}


def test_affine_table_matches_the_exact_entries():
    # each group (g, s, k, l) within 1e-15 of its largest entry, on both sides
    # of the switch and up to theta = 1e15, where the doubled rule was 1e-13
    # off and s1 off by 16 ulps of s0
    assert set(AFFINE_EXACT) >= {math.nextafter(_AFFINE_SWITCH, 0.0), _AFFINE_SWITCH,
                                 math.nextafter(_AFFINE_SWITCH, 3.0)}
    for theta, exact in AFFINE_EXACT.items():
        tables, forms = map(np.array, _affine_table(1.0, theta))
        got = [*np.stack([tables.real, tables.imag], axis=-1).ravel(), *forms[0].ravel(),
               forms[1, 0, 0], forms[1, 0, 1], forms[1, 1, 1]]
        assert forms[1, 1, 0] == forms[1, 0, 1]
        for group in (slice(0, 4), slice(4, 8), slice(8, 12), slice(12, 15)):
            scale = np.abs(exact[group]).max()
            np.testing.assert_allclose(got[group], exact[group], rtol=0, atol=1e-15 * scale,
                                       err_msg=f"theta = {theta!r}")


@pytest.mark.parametrize("sweep", [
    pytest.param(lambda config, profile: sample_trajectory(config, profile, Branch.CO, 4096),
                 id="sample_trajectory"),
    pytest.param(lambda config, profile: _sweep_ends(config, profile),
                 id="_sweep_ends"),
])
@pytest.mark.parametrize("duration", [1e300, 2.0**53 * 4096 * 1.01])
def test_doubling_ceiling_is_refused_before_any_table(monkeypatch, sweep, duration):
    # beyond omega0 h = 2^52 one ulp of omega0 h is a radian; such an
    # interval is refused before any table is built
    builds = _record_tables(monkeypatch)
    with pytest.raises(InsufficientResolution, match="omega0 h"):
        sweep(TrapConfig(), make_profile(ProfileFamily.FLAT, duration))
    assert builds == []


@pytest.mark.parametrize("profile", [
    [],
    ["--family", "tabulated", "--samples", "0.3,1,0.6,0.2"],
], ids=["flat", "tabulated"])
def test_fast_trap_path_matches_the_fine_run(capsys, profile):
    # omega0 h = 15 on 4096 samples: the closed-form affine tables make every
    # sample exact, so the coarse run equals the 65536-sample run at the shared
    # times, to the rounding of omega0 t; every cell of the coarse run is
    # finite (assert_allclose takes NaN as equal to NaN)
    runs = []
    for n_samples in (4096, 65536):
        assert ringsagnac.cli.run(["trajectory", *profile, "--trap-frequency", "1e4",
                                   "--n-samples", str(n_samples)]) == 0
        out = capsys.readouterr().out
        runs.append(np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1))
    coarse, fine = runs[0], runs[1][::16]
    assert coarse.shape[0] == 4097
    assert np.isfinite(coarse).all()
    np.testing.assert_array_equal(coarse[:, 0], fine[:, 0])
    tol = 1e-12 + np.finfo(float).eps * 1e4 * 2 * np.pi
    np.testing.assert_allclose(coarse[:, 1:], fine[:, 1:], rtol=0, atol=tol)


@pytest.mark.parametrize("sweep", [
    pytest.param(lambda config, profile, n: sample_trajectory(config, profile, Branch.CO, n),
                 id="sample_trajectory"),
    pytest.param(lambda config, profile, n: ringsagnac.decompose(config, profile, n_samples=n),
                 id="decompose"),
])
def test_sample_count_above_the_ceiling_is_a_configuration_error(monkeypatch, flat, sweep):
    # refused before any interval is built; only the value one above the
    # ceiling is tried, an accepted one that large would take gigabytes
    limit = ringsagnac.evolution._MAX_SAMPLES
    grids = _record_grids(monkeypatch)
    with pytest.raises(ConfigurationError, match=f"at most {limit}"):
        sweep(TrapConfig(), flat, limit + 1)
    assert grids == []


def test_gauss_constants_are_the_mapped_legendre_rule():
    # the rule's nodes and weights are written out; they must keep the bits
    # of leggauss(6) mapped to [0, 1], which the path sweep's tables rest on
    x, w = np.polynomial.legendre.leggauss(6)
    assert np.array(ringsagnac.evolution._GL_X).tobytes() == ((x + 1) / 2).tobytes()
    assert np.array(ringsagnac.evolution._GL_W).tobytes() == (w / 2).tobytes()


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
