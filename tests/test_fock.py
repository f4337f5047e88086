"""Number-basis propagation backend and its cross-checks."""

import re

import numpy as np
import pytest

from ringsagnac import fock

from ringsagnac import (
    Branch,
    ConfigurationError,
    ProfileFamily,
    StepCountInsufficient,
    TimeOutOfRange,
    TrapConfig,
    TruncationInsufficient,
    coherence_fock,
    design_time,
    evolve_fock,
    evolve_two_component,
    lambda_drive,
    make_profile,
    readout,
    zero_profile,
)
from ringsagnac.oracle import alpha_at, phi_at


def test_undriven_vacuum_picks_up_zero_point_phase():
    # rotation off, sweep off: the vacuum only rotates by e^{-i w0 T / 2}
    still = TrapConfig(rotation=0.0)
    T = 2 * np.pi
    state = evolve_fock(still, zero_profile(T), Branch.CO, n_max=8, steps=256)
    expected = np.exp(-1j * T / 2)
    assert abs(state.amplitudes[0] - expected) < 1e-12
    assert np.max(np.abs(state.amplitudes[1:])) < 1e-12
    assert state.norm == pytest.approx(1.0, abs=1e-12)


def test_flat_coherence_matches_closed_readout(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    coherence = coherence_fock(natural, profile, n_max=40, steps=4096)
    result = readout(natural, profile)
    assert abs(coherence) == pytest.approx(result.contrast, abs=1e-10)
    assert np.angle(coherence) == pytest.approx(result.principal_arg, abs=1e-10)


def test_si_regime_coherence_matches_closed_readout(rubidium):
    # the paper's regime: cosinusoidal M = 1000 at a 1 kHz 87Rb trap, T = 1 s
    config = rubidium(1e3)
    scheme = design_time(ProfileFamily.COSINUSOIDAL, config, 1000)
    coherence = coherence_fock(config, scheme.profile, n_max=40, steps=65536)
    result = readout(config, scheme.profile)
    assert abs(abs(coherence) - result.contrast) < 1e-4
    assert abs(np.angle(coherence / np.exp(1j * result.principal_arg))) < 1e-4


def test_mean_amplitude_matches_coherent_route(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    state = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=2048, until=np.pi)
    target = alpha_at(natural, profile, Branch.CO, np.pi)
    assert abs(state.mean_amplitude - target) < 1e-6
    assert state.time == np.pi
    assert state.branch is Branch.CO


def test_global_phase_matches_quadrature_route(natural):
    # vacuum overlap carries phi(T) on top of the zero-point turn
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    T = profile.duration
    for branch in (Branch.CO, Branch.COUNTER):
        state = evolve_fock(natural, profile, branch, n_max=40, steps=4096)
        alpha = alpha_at(natural, profile, branch, T)
        phi = phi_at(natural, profile, branch, T)
        # <alpha(T)| psi> = exp{i (phi - w0 T / 2)} for an exact run
        factorials = np.cumprod(np.concatenate([[1.0], np.arange(1.0, 40.0)]))
        coherent = np.exp(-np.abs(alpha) ** 2 / 2) * alpha ** np.arange(40) / np.sqrt(factorials)
        overlap = complex(np.vdot(coherent, state.amplitudes))
        assert abs(overlap - np.exp(1j * (phi - T / 2))) < 1e-6


def test_truncation_guard_trips(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(TruncationInsufficient):
        evolve_fock(natural, profile, Branch.CO, n_max=8, steps=512)


def test_two_component_truncation_guard_trips(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(TruncationInsufficient):
        evolve_two_component(natural, profile, n_max=8, steps=512)


def _number_operators(n_max):
    """(n + 1/2) and i(a - a^dag) in the number basis, built here, sharing nothing with fock."""
    lower = np.diag(np.sqrt(np.arange(1.0, n_max)), 1)
    return np.diag(np.arange(n_max) + 0.5), 1j * (lower - lower.T)


def _held_drives(config, profile, steps):
    """Midpoint drives, one column per step, and the flags of held steps."""
    mids = (np.arange(steps) + 0.5) * profile.duration / steps
    lams = np.array([lambda_drive(config, profile, branch, mids) for branch in Branch])
    repeats = np.all(lams[:, 1:] == lams[:, :-1], axis=0)
    return lams, repeats


def _held_runs(config, profile, steps):
    """Maximal runs of two or more steps whose midpoint drives repeat on both branches."""
    _, repeats = _held_drives(config, profile, steps)
    return int(np.sum(repeats & ~np.concatenate(([False], repeats[:-1]))))


def _distinct_held_drives(config, profile, steps):
    """Distinct drives among the held runs."""
    lams, repeats = _held_drives(config, profile, steps)
    return len({tuple(lams[:, k]) for k in np.flatnonzero(repeats)})


@pytest.mark.parametrize(
    "profile, steps",
    [
        (make_profile(ProfileFamily.FLAT, 2 * np.pi), 512),
        (make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi), 100),
        (make_profile(ProfileFamily.TABULATED, 2 * np.pi, samples=(0.2, 1.0, 1.0, 0.2)), 512),
    ],
    ids=["flat-512", "sinusoidal-100", "tabulated-512"],
)
def test_step_exponential_reused_while_drive_is_constant(natural, monkeypatch, profile, steps):
    # one eigendecomposition per distinct held drive of a pass, however long
    # its runs; every other step is split and takes none.  Flat K=1 is one
    # run; the plateau of the tabulated shape is one run; the sinusoidal L=0
    # drive repeats only where symmetric midpoints straddle a crest, and its
    # two crests repeat one drive
    calls = []

    def counting_basis(generator):
        calls.append(generator)
        return real_basis(generator)

    real_basis = fock._held_basis
    monkeypatch.setattr(fock, "_held_basis", counting_basis)
    evolve_two_component(natural, profile, n_max=40, steps=steps)
    expected = _distinct_held_drives(natural, profile, steps)
    assert len(calls) == expected == 1
    runs = _held_runs(natural, profile, steps)
    assert runs == (2 if profile.family is ProfileFamily.SINUSOIDAL else 1)


@pytest.mark.parametrize("size", [40, 80])
@pytest.mark.parametrize("dt", [0.01, 1.0])
def test_held_step_matches_dense_exponential(size, dt):
    # V diag(exp(-i dt E / hbar)) V^H from the cleaned eigenbasis against
    # scipy's Pade exponential on random Hermitian generators of the
    # single-branch and joint sizes
    expm = pytest.importorskip("scipy.linalg").expm
    rng = np.random.default_rng(size)
    for _ in range(5):
        x = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        generator = (x + x.conj().T) / 2
        energies, vecs = fock._held_basis(generator)
        step = (vecs * np.exp(-1j * dt / 0.7 * energies)) @ vecs.conj().T
        assert np.abs(step - expm(-1j * dt / 0.7 * generator)).max() <= 1e-13


@pytest.mark.parametrize("branches", [(Branch.CO,), tuple(Branch)], ids=["single", "joint"])
def test_held_run_matches_dense_exponential(natural, monkeypatch, branches):
    # a flat drive is one held run, whose state j steps in is evaluated in
    # closed form a chunk at a time from one phase table and a per-chunk
    # offset; it must match scipy's Pade exponential of the generator over
    # j dt on both sides of the first chunk edges, deep in the run and at the end
    linalg = pytest.importorskip("scipy.linalg")
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    steps = 4096
    dt = profile.duration / steps
    wanted = (1, 255, 256, 257, 511, 512, 513, 3841, 4096)
    seen = {}
    # held states reach the tail check in the real gauge psi~_n = i^(-n) psi_n;
    # the factors i^n map them back exactly
    gauge = np.tile(np.array([1, 1j, -1, -1j])[np.arange(40) % 4], len(branches))

    def recording_check(rows, tail, first):
        for j in wanted:
            if first < j <= first + len(rows):
                seen[j] = rows[j - 1 - first].ravel() * gauge
        real_check(rows, tail, first)

    real_check = fock._check_tails
    monkeypatch.setattr(fock, "_check_tails", recording_check)
    fock._propagate(natural, profile, branches, 40, steps, profile.duration)
    body, drive = _number_operators(40)
    generator = linalg.block_diag(*(
        natural.hbar * natural.trap_frequency * body
        + lambda_drive(natural, profile, branch, dt / 2) * drive
        for branch in branches
    ))
    vacuum = np.kron(np.ones(len(branches)), np.eye(40)[0]) / np.sqrt(len(branches))
    assert sorted(seen) == list(wanted)
    for j in wanted:
        expected = linalg.expm(-1j * j * dt / natural.hbar * generator) @ vacuum
        assert np.abs(seen[j] - expected).max() <= 1e-13


class _CountingExp:
    """numpy, except that exp counts the elements it evaluates."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        out = np.exp(x)
        self.elements += out.size
        return out


@pytest.mark.parametrize("shape", ["tabulated", "flat"])
def test_complex_exponentials_per_pass(natural, random_profile, monkeypatch, shape):
    # both branches share one sweep kick factor per split step, and a held
    # run takes one phase table of at most a chunk's columns plus one offset
    # per chunk; the rest is the per-call rotation factor and half body step.
    # Every factor is a unit phase from real angles, and np.exp is never called
    if shape == "flat":
        profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    else:
        profile = random_profile(np.random.default_rng(3))
    n_max, steps = 40, 1024
    angles = []

    def counting_phase(angle):
        assert np.isrealobj(angle)
        angles.append(np.size(angle))
        return real_phase(angle)

    real_phase = fock._unit_phase
    monkeypatch.setattr(fock, "_unit_phase", counting_phase)
    counting = _CountingExp()
    monkeypatch.setattr(fock, "np", counting)
    coherence_fock(natural, profile, n_max=n_max, steps=steps)
    assert counting.elements == 0
    if shape == "flat":
        rows = fock._CHUNK + steps // fock._CHUNK
        assert sum(angles) == rows * 2 * n_max + 2 * n_max
    else:
        # the sweep factors take angles on the upper half of the drive levels
        # only; the lower half are their mirrored conjugates
        assert _held_runs(natural, profile, steps) == 0
        assert sum(angles) == steps * (n_max - n_max // 2) + 2 * n_max


def test_unit_phase_matches_complex_exponential():
    # cos x - i sin x against np.exp(-1j x), part by part, to one ulp, from
    # signed zeros and subnormals up to angles of 1e6
    rng = np.random.default_rng(5)
    magnitudes = np.concatenate((
        [0.0, 5e-324, 1e-300, np.pi / 2, np.pi, 2 * np.pi, 1e6],
        rng.uniform(0.5, 1.0, 4000) * np.logspace(-20, 6, 4000),
    ))
    angles = np.concatenate((magnitudes, -magnitudes))
    got = fock._unit_phase(angles.reshape(2, -1)).ravel()
    expected = np.exp(-1j * angles)
    for part in ("real", "imag"):
        value, exact = getattr(got, part), getattr(expected, part)
        assert np.all(np.abs(value - exact) <= np.spacing(np.abs(exact)))


@pytest.mark.parametrize("n_max", [40, 80])
def test_held_step_is_unitary_to_rounding(n_max):
    # a held run maps thousands of states through one eigenbasis, so the
    # eigenvectors, and with them every held-run map, must be unitary to
    # rounding; eigh's eigenvectors alone miss that by up to 6e-15
    body, drive = _number_operators(n_max)
    for lam in np.linspace(-1.5, 1.5, 13):
        _, vecs = fock._held_basis(body + lam * drive)
        assert np.abs(vecs.conj().T @ vecs - np.eye(n_max)).max() <= 2e-15


@pytest.mark.parametrize("n_max", [8, 9, 40, 41, 512])
def test_drive_levels_are_exactly_antisymmetric(n_max):
    # the sweep factors of the lower half of the levels are taken as mirrored
    # conjugates of the upper half, which needs l_k = -l_(n-1-k) exactly; eigh
    # pairs them only to a few ulps, and the cached levels stay that close
    levels, _ = fock._drive_eigensystem(n_max)
    assert np.array_equal(levels, -levels[::-1])
    raw = np.linalg.eigh(_number_operators(n_max)[1])[0]
    assert np.abs(levels - raw).max() <= 4 * np.spacing(np.abs(raw).max())


@pytest.mark.parametrize("n_max", [40, 80])
@pytest.mark.parametrize("drives", [(0.63, -0.48), (-1.2, 0.35)])
@pytest.mark.parametrize("dt", [0.01, 1.0])
def test_real_gauge_basis_matches_dense_exponential(n_max, drives, dt):
    # a held run diagonalises the joint generator in the real gauge
    # psi~_n = i^(-n) psi_n as one real symmetric matrix; its eigenvectors,
    # mapped back by the factors i^n, must give the step of the complex
    # number-basis generator that scipy's Pade exponential takes
    linalg = pytest.importorskip("scipy.linalg")
    energies, basis = fock._held_basis(fock._real_generator(1.0, np.array(drives), n_max))
    assert np.isrealobj(basis)
    gauge = np.tile(np.array([1, 1j, -1, -1j])[np.arange(n_max) % 4], len(drives))
    vecs = gauge[:, None] * basis
    body, drive = _number_operators(n_max)
    generator = linalg.block_diag(*(body + lam * drive for lam in drives))
    step = (vecs * np.exp(-1j * dt * energies)) @ vecs.conj().T
    assert np.abs(step - linalg.expm(-1j * dt * generator)).max() <= 1e-13


@pytest.mark.parametrize("shape", ["tabulated", "cosinusoidal-2"])
def test_split_tail_fractions_match_fully_mapped_states(random_profile, monkeypatch, shape):
    # a split chunk maps its kicked rows to the top-decile levels only and
    # takes each block's total from the row's own norm.  Map every row in
    # full instead, row diag(exp(-i dt D Omega l / hbar)) V^T diag(half body),
    # and the tail fractions must agree.  The drive is strong enough that the
    # tabulated run leaks past the tolerance, so the fractions are not all
    # rounding noise; the cosinusoidal step count leaves no held run
    config = SCALED
    if shape == "tabulated":
        profile, steps = random_profile(np.random.default_rng(3)), 1024
    else:
        profile, steps = design_time("cosinusoidal", config, 2).profile, 1025
    assert _held_runs(config, profile, steps) == 0
    n_max = 40
    dt = profile.duration / steps
    levels, vecs = fock._drive_eigensystem(n_max)
    rotation = np.exp(-1j * dt / config.hbar * config.drive_scale * config.rotation * levels)
    half_body = np.exp(-0.5j * dt * config.trap_frequency * (np.arange(n_max) + 0.5))
    full_map = rotation[:, None] * vecs.T * half_body
    tail_from = 36
    checked, fractions = [], []

    def comparing_check(rows, tail, first):
        full = rows @ full_map
        expected = fock._mass(full[..., tail_from:]) / fock._mass(full)
        got = fock._mass(tail) / fock._mass(rows)
        assert np.all(np.abs(got - expected) <= 1e-12 * expected)
        checked.append(len(rows))
        fractions.append(expected)

    monkeypatch.setattr(fock, "_check_tails", comparing_check)
    fock._propagate(config, profile, tuple(Branch), n_max, steps, profile.duration)
    assert sum(checked) == steps
    if shape == "tabulated":
        assert max(f.max() for f in fractions) > fock._TAIL_TOL


def _reference_run(config, profile, branch, n_max, steps):
    """The per-step loop: a fresh exponential on each held step, else a Strang step.

    Returns the end state, or the index of the first step whose tail mass is
    above tolerance.
    """
    expm = pytest.importorskip("scipy.linalg").expm
    body, drive = _number_operators(n_max)
    dt = profile.duration / steps
    lams = lambda_drive(config, profile, branch, (np.arange(steps) + 0.5) * dt)
    repeats = np.concatenate(([False], lams[1:] == lams[:-1]))
    held = repeats | np.append(repeats[1:], False)
    levels, vecs = np.linalg.eigh(drive)
    half_body = np.exp(-0.5j * dt * config.trap_frequency * np.diagonal(body))
    tail_from = min(int(np.ceil(0.9 * n_max)), n_max - 1)
    psi = np.eye(n_max, dtype=complex)[0]
    for k, lam in enumerate(lams):
        if held[k]:
            generator = config.hbar * config.trap_frequency * body + lam * drive
            psi = expm(-1j * dt / config.hbar * generator) @ psi
        else:
            kick = np.exp(-1j * dt / config.hbar * lam * levels)
            psi = half_body * (vecs @ (kick * (vecs.conj().T @ (half_body * psi))))
        if not np.vdot(psi[tail_from:], psi[tail_from:]).real / np.vdot(psi, psi).real <= 1e-10:
            return k
    return psi


# hbar, mass, radius and omega0 off 1 give a drive scale D != 1, and the
# rotation is negative, so the split kick factors are checked off natural units
SCALED = TrapConfig(hbar=0.5, mass=2.0, radius=1.5, trap_frequency=1.7, rotation=-0.3)


@pytest.mark.parametrize(
    "shape", ["sinusoidal-1", "cosinusoidal-2", "tabulated", "scaled-cosinusoidal-2"]
)
def test_propagation_matches_per_step_reference(natural, random_profile, shape):
    # chunked, eigen-coordinate propagation of both branches in one pass
    # against the plain per-step loop, branch by branch
    config = SCALED if shape.startswith("scaled") else natural
    if shape == "tabulated":
        profile = random_profile(np.random.default_rng(3))
    else:
        family, index = shape.removeprefix("scaled-").split("-")
        profile = design_time(family, config, int(index)).profile
    co, counter = evolve_two_component(config, profile, n_max=40, steps=1024)
    for branch, joint in zip(Branch, (co, counter)):
        reference = _reference_run(config, profile, branch, 40, 1024)
        assert not isinstance(reference, int)
        single = evolve_fock(config, profile, branch, n_max=40, steps=1024)
        assert np.abs(single.amplitudes - reference).max() <= 1e-12
        assert np.abs(np.sqrt(2) * joint - reference).max() <= 1e-12


def _failing_step(call):
    with pytest.raises(TruncationInsufficient) as caught:
        call()
    return int(re.search(r"at step (\d+);", str(caught.value)).group(1))


@pytest.mark.parametrize(
    "family, index, n_max, branch",
    [("cosinusoidal", 2, 8, Branch.CO), ("flat", 1, 9, Branch.COUNTER)],
    ids=["split", "held"],
)
def test_truncation_trip_step_matches_reference(natural, family, index, n_max, branch):
    # the tail check runs a chunk at a time but names the same first failing
    # step as the per-step loop, here past the first 256-step chunk
    profile = design_time(family, natural, index).profile
    trips = {b: _reference_run(natural, profile, b, n_max, 1024) for b in Branch}
    expected = trips[branch]
    assert isinstance(expected, int) and expected >= fock._CHUNK
    step = _failing_step(lambda: evolve_fock(natural, profile, branch, n_max=n_max, steps=1024))
    assert step == expected
    # the joint run trips at the first step either branch fails
    first = min(trip for trip in trips.values() if isinstance(trip, int))
    assert _failing_step(lambda: coherence_fock(natural, profile, n_max=n_max, steps=1024)) == first


def test_step_check(natural):
    # sinusoidal L=1 at 128 steps is off by more than the 1e-4 budget
    profile = make_profile(ProfileFamily.SINUSOIDAL, 6 * np.pi)
    coarse = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=128)
    fine = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=32768)
    assert np.linalg.norm(coarse.amplitudes - fine.amplitudes) > 1e-4
    with pytest.raises(StepCountInsufficient):
        evolve_fock(natural, profile, Branch.CO, n_max=40, steps=128, check_steps=True)
    profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    state = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=2048, check_steps=True)
    assert state.norm == pytest.approx(1.0, abs=1e-10)


def _reported_estimate(call):
    with pytest.raises(StepCountInsufficient) as caught:
        call()
    return float(re.search(r"estimate (\S+) above", str(caught.value)).group(1))


@pytest.mark.parametrize("steps", [1024, 2048])
@pytest.mark.parametrize("shape", ["sinusoidal", "tabulated"])
def test_step_check_estimate_is_honest(natural, random_profile, monkeypatch, shape, steps):
    """The step-halving estimate is within a factor 2 of the true step error.

    True error: distance to a 32768-step run.  Sinusoidal L=0 at 1024 steps
    gives an estimate of 4.9e-7 against 5.5e-7, at 2048 steps 1.35e-7
    against 1.42e-7.  At 256 steps the estimate undershoots by more than 2
    (3.0e-6 against 6.7e-6): the halved run is then too coarse for the
    second-order extrapolation.
    """
    if shape == "sinusoidal":
        profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    else:
        profile = random_profile(np.random.default_rng(3))
    # a zero budget makes the guard report every estimate
    monkeypatch.setattr(fock, "_STEP_CHECK_TOL", 0.0)
    estimate = _reported_estimate(lambda: evolve_fock(
        natural, profile, Branch.CO, n_max=40, steps=steps, check_steps=True))
    state = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=steps)
    fine = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=32768)
    true = float(np.linalg.norm(state.amplitudes - fine.amplitudes))
    assert true / 2 <= estimate <= 2 * true


@pytest.mark.parametrize("shape", ["sinusoidal", "tabulated"])
def test_coherence_step_check_reports_larger_branch_estimate(
    natural, random_profile, monkeypatch, shape
):
    # both branches run as rows of one pass with weight 1/2 each; the check
    # rescales each row to unit weight and reports the larger estimate
    if shape == "sinusoidal":
        profile = make_profile(ProfileFamily.SINUSOIDAL, 2 * np.pi)
    else:
        profile = random_profile(np.random.default_rng(3))
    monkeypatch.setattr(fock, "_STEP_CHECK_TOL", 0.0)
    singles = [
        _reported_estimate(lambda branch=branch: evolve_fock(
            natural, profile, branch, n_max=40, steps=1024, check_steps=True))
        for branch in Branch
    ]
    joint = _reported_estimate(
        lambda: coherence_fock(natural, profile, n_max=40, steps=1024, check_steps=True))
    assert joint == pytest.approx(max(singles), rel=1e-3)


def test_parameter_floors(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    with pytest.raises(ConfigurationError):
        evolve_fock(natural, profile, Branch.CO, n_max=4)
    with pytest.raises(ConfigurationError):
        evolve_fock(natural, profile, Branch.CO, steps=50)
    # ceilings keep the joint generator and the drive tables bounded; each is
    # refused before anything is allocated
    for call in (evolve_fock, coherence_fock, evolve_two_component):
        args = (natural, profile, Branch.CO) if call is evolve_fock else (natural, profile)
        with pytest.raises(ConfigurationError, match="n_max must be at most 512"):
            call(*args, n_max=100_000)
        with pytest.raises(ConfigurationError, match="steps must be at most 1000000"):
            call(*args, steps=20_000_000)
    with pytest.raises(TimeOutOfRange):
        evolve_fock(natural, profile, Branch.CO, until=7.0)
    with pytest.raises(TimeOutOfRange):
        evolve_fock(natural, profile, Branch.CO, until=-0.5)


@pytest.mark.parametrize("name, value", [
    ("n_max", 40.0), ("n_max", 40.5), ("steps", 1024.0), ("steps", "1024"), ("steps", None),
])
def test_non_integer_counts_are_configuration_errors(natural, name, value):
    # refused up front, naming the parameter, even when the value is integral
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    for call in (evolve_fock, coherence_fock, evolve_two_component):
        args = (natural, profile, Branch.CO) if call is evolve_fock else (natural, profile)
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            call(*args, **{name: value})


def test_numpy_integer_counts_are_accepted(natural):
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    value = coherence_fock(natural, profile, n_max=np.int64(40), steps=np.int32(256))
    assert value == coherence_fock(natural, profile, n_max=40, steps=256)


def test_two_component_block_structure(natural):
    # joint spin x trap propagation must factor into the two separate
    # branch propagations, since the Hamiltonian never mixes the spins
    profile = make_profile(ProfileFamily.FLAT, 2 * np.pi)
    co, counter = evolve_two_component(natural, profile, n_max=40, steps=512)
    up = evolve_fock(natural, profile, Branch.CO, n_max=40, steps=512)
    down = evolve_fock(natural, profile, Branch.COUNTER, n_max=40, steps=512)
    assert np.max(np.abs(co * np.sqrt(2) - up.amplitudes)) < 1e-10
    assert np.max(np.abs(counter * np.sqrt(2) - down.amplitudes)) < 1e-10
    total = np.linalg.norm(np.concatenate([co, counter]))
    assert total == pytest.approx(1.0, abs=1e-10)
