"""Brute-force number-basis propagation.

Independent validation backend: the driven-trap Hamiltonian

    H(t) = hbar omega0 (n + 1/2) + i lambda(t) (a - a^dag)

is propagated from the vacuum in a truncated number basis with a
piecewise-constant midpoint Hamiltonian.  Nothing here uses the
coherent-state closed form, so agreement with the evolution/interferometer
modules is a real check.  evolve_fock returns one branch's number-basis
amplitudes as an array of n_max entries, evolve_two_component the two
branches' arrays, and coherence_fock their overlap.

One pass propagates every branch at once: each branch is one row of a
(branches, n_max) array, its vacuum holding equal weight, and all rows see
one joint generator.  The steps fall into segments:

* A step whose drive equals a neighbour's lies in a held run.  The run is
  taken in the real gauge psi~_n = i^(-n) psi_n, where the joint generator,
  hbar omega0 (n + 1/2) - lambda (a + a^dag) on each branch's block, is real
  symmetric.  One real eigendecomposition (numpy's eigh) of it, as one
  matrix, cleaned to orthonormal eigenvectors V, serves every run of the pass
  with the same drive, and the state j steps in is
  V diag(exp(-i j dt E / hbar)) V^T psi~, evaluated in closed form, so a
  constant drive is propagated exactly; the factors i^n that map it back are
  exact.  One phase table, exp(-i j dt E / hbar) for j up to the chunk
  length, serves every chunk of the run; a chunk first turns the
  coefficients V^T psi~ by its own offset from the run's start, and maps them
  to its states with one real product on their (re, im) pairs.
* Every other step is Strang-split (Feit, Fleck & Steiger 1982): half a
  body step, which is diagonal, the drive kick in the eigenbasis of
  i(a - a^dag), and half a body step.  Both are unitary; the step is second
  order.  The eigensystem of i(a - a^dag) depends on n_max alone and is
  cached, read-only, its levels l made exactly antisymmetric.  Since
  lambda = D (Omega + sign omega_P), the kick on the levels is
  exp(-i dt D Omega l / hbar), one factor per call, times
  exp(-i dt D omega_P(t) l / hbar)^sign, one factor per step shared by every
  branch.  The sweep factor takes cosines and sines on the non-negative half
  of the levels only; the other half are their mirrored conjugates, and the
  counter branch's factor, the conjugate, is the co branch's reversed.  The
  pass stays in the coordinates phi = psi T, T = diag(half body) V*, where a
  step is phi <- (phi * sweep factor) (F T) with F = R V^T diag(half body)
  and R the diagonal rotation factor: one matrix product covers every row.
  The loop over a chunk's steps allocates nothing: each step multiplies its
  kick row by phi in place and writes the product with F T, taken in real
  form on the (re, im) pairs of the row, into the one state buffer of the
  pass.

Every phase factor exp(-i x), of the half body step, the kicks and the
held-run phase tables alike, is built by _unit_phase as cos x - i sin x from
the real angle x, never by np.exp of a complex argument.

Segments are walked in chunks of at most _CHUNK steps, and the tail mass of
every branch block is checked after every step, naming the first failing
step; the final norm is checked too.  A split chunk maps its kicked rows
phi * sweep factor through the top-decile columns of F alone and takes each
block's total from the row's own norm, since F is unitary; only the segment's
last row is mapped back in full.  A held chunk checks its real-gauge states,
whose masses are those of the number-basis states.  The spin label never
appears in H, which is why propagating the two components separately must
agree with propagating them jointly; evolve_two_component exercises exactly
that.  Split steps act on each row alike, so on a varying drive that
agreement holds by construction; on a held drive the joint generator is
diagonalised as one unstructured matrix, and the block structure is an
outcome.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    StepCountInsufficient,
    TimeOutOfRange,
    TruncationInsufficient,
)
from .model import Branch, SweepProfile, TrapConfig, _check_count, eval_profile

__all__ = ["coherence_fock", "evolve_fock", "evolve_two_component"]

_NORM_TOL = 1e-8
_TAIL_TOL = 1e-10
_STEP_CHECK_TOL = 1e-4
MIN_LEVELS = 8
MIN_STEPS = 100
# Ceilings that keep one call's memory bounded: the joint generator of two
# 512-level blocks is 16.8 MB and its held-run eigendecomposition takes a few
# copies; a million steps keep the drive tables (midpoints, one drive row per
# branch, held flags) near 40 MB.  At either ceiling a coherence_fock call
# peaked about 110 MB above the import.
_MAX_LEVELS = 512
_MAX_STEPS = 1_000_000
# steps per tail check: the kicks, phases and states of one chunk are the only
# tables that grow with the step count beyond the drive itself
_CHUNK = 256


@lru_cache(maxsize=4)
def _drive_eigensystem(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues and eigenvectors of i(a - a^dag) at n_max levels.

    The spectrum is symmetric about 0; eigh pairs its levels only to a few
    ulps, so they are made exactly antisymmetric, (l - l reversed) / 2.  They
    depend on n_max alone; the cache holds four sizes, 17 MB at the 512-level
    ceiling.
    """
    lower = np.diag(np.sqrt(np.arange(1, n_max)).astype(complex), 1)
    levels, vecs = np.linalg.eigh(1j * (lower - lower.conj().T))
    levels = 0.5 * (levels - levels[::-1])
    levels.flags.writeable = vecs.flags.writeable = False
    return levels, vecs


def _unit_phase(angle: np.ndarray) -> np.ndarray:
    """exp(-i angle) of a real angle array, built as cos(angle) - i sin(angle).

    Every phase factor of a pass comes from here: the cosine and sine of a
    real array cost less than np.exp of the complex array -1j angle, and
    agree with it to an ulp.
    """
    out = np.empty(np.shape(angle), dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    np.negative(out.imag, out=out.imag)
    return out


def _validate(n_max: int, steps: int):
    _check_count("n_max", n_max)
    _check_count("steps", steps)
    if n_max < MIN_LEVELS:
        raise ConfigurationError(f"n_max must be at least {MIN_LEVELS}")
    if n_max > _MAX_LEVELS:
        raise ConfigurationError(f"n_max must be at most {_MAX_LEVELS}")
    if steps < MIN_STEPS:
        raise ConfigurationError(f"steps must be at least {MIN_STEPS}")
    if steps > _MAX_STEPS:
        raise ConfigurationError(f"steps must be at most {_MAX_STEPS}")


def _held_basis(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies E and eigenvectors V of a Hermitian generator.

    eigh's eigenvectors are orthonormal to a few ulps only, and a held run
    maps thousands of states through them; one Newton-Schulz step,
    V (3 - V^H V) / 2, makes them orthonormal to rounding first.
    """
    energies, vecs = np.linalg.eigh(generator)
    vecs = vecs @ (1.5 * np.eye(len(energies)) - 0.5 * (vecs.conj().T @ vecs))
    return energies, vecs


def _real_generator(energy: float, drives: np.ndarray, n_max: int) -> np.ndarray:
    """The joint generator of a held drive in the real gauge psi~_n = i^(-n) psi_n.

    There each branch's block, energy (n + 1/2) + i lambda (a - a^dag) in the
    number basis, is energy (n + 1/2) - lambda (a + a^dag): real symmetric.
    The blocks sit in one matrix, diagonalised as a whole.
    """
    size = len(drives) * n_max
    generator = np.zeros((size, size))
    diagonal = energy * (np.arange(n_max) + 0.5)
    rungs = np.sqrt(np.arange(1.0, n_max))
    for row, lam in enumerate(drives):
        block = np.arange(row * n_max, (row + 1) * n_max)
        generator[block, block] = diagonal
        generator[block[:-1], block[1:]] = generator[block[1:], block[:-1]] = -lam * rungs
    return generator


def _mass(amplitudes: np.ndarray) -> np.ndarray:
    """Squared norm over the last axis, summed on the (re, im) pairs."""
    pairs = amplitudes.view(float)
    return np.vecdot(pairs, pairs)


def _check_tails(rows: np.ndarray, tail: np.ndarray, first: int):
    """Raise unless every block of every state keeps its tail mass in tolerance.

    `rows` is (steps, blocks, n_max), the state after step `first` first, in
    coordinates that a unitary map takes to the number basis, so each row's
    norm is its block's; `tail` holds the number-basis amplitudes of the top
    decile of each row, up to unit factors.
    """
    # tail mass of each block's normalised state, worst block per step
    tails = np.max(_mass(tail) / _mass(rows), axis=-1)
    failing = np.flatnonzero(~(tails <= _TAIL_TOL))
    if failing.size:
        k = failing[0]
        raise TruncationInsufficient(
            f"tail mass {tails[k]:.3e} above {_TAIL_TOL:.1e} at step {first + k}; raise n_max"
        )


def _propagate(config, profile, branches, n_max, steps, t_end) -> np.ndarray:
    """Equal-weight vacuum blocks, one row per branch, under one joint generator."""
    hbar = config.hbar
    w0 = config.trap_frequency
    dt = t_end / steps
    mids = (np.arange(steps) + 0.5) * dt
    # lambda = D (Omega + sign omega_P) from one profile evaluation, formed as
    # lambda_drive forms it
    sweep = eval_profile(profile, mids)
    signs = np.array([branch.sign for branch in branches])
    lams = config.drive_scale * (config.rotation + signs[:, None] * sweep)
    # a step is held when its drive equals a neighbour's; each held run is one
    # segment, and so is each stretch of split steps between held runs
    repeats = np.concatenate(([False], np.all(lams[:, 1:] == lams[:, :-1], axis=0)))
    held = repeats | np.append(repeats[1:], False)
    starts = np.flatnonzero(held & ~repeats | ~held & np.concatenate(([True], held[:-1])))
    # a kick exp(-i dt lambda levels / hbar) is the rotation factor, the same
    # on every step and branch, times the sweep factor of its step.  Split
    # steps run in the coordinates phi = psi to_eigen, where a step is
    # phi <- (phi * sweep factor) split_step; the half body steps and the
    # rotation factor sit in the basis changes
    levels, vecs = _drive_eigensystem(n_max)
    rate = dt / hbar * config.drive_scale
    rotation_kick = _unit_phase(rate * config.rotation * levels)
    half_body = _unit_phase(0.5 * dt * w0 * (np.arange(n_max) + 0.5))
    to_eigen = half_body[:, None] * vecs.conj()
    from_eigen = rotation_kick[:, None] * vecs.T * half_body
    split_step = from_eigen @ to_eigen
    # each step takes its product with split_step in real form, on the
    # interleaved (re, im) pairs of the complex rows: (x + iy)(A + iB) =
    # (xA - yB) + i(xB + yA).  At n_max 40 two rows take a real 2 x 80 by
    # 80 x 80 product, which costs about half the complex 2 x 40 by 40 x 40
    # one on OpenBLAS
    split_real = np.empty((2 * n_max, 2 * n_max))
    split_real[0::2, 0::2] = split_real[1::2, 1::2] = split_step.real
    split_real[0::2, 1::2] = split_step.imag
    split_real[1::2, 0::2] = -split_step.imag
    # the tail check reads the top decile of the ladder, never an empty window;
    # the map back is unitary, so a kicked row's own norm is its block's total
    tail_from = min(int(np.ceil(0.9 * n_max)), n_max - 1)
    from_tail = np.ascontiguousarray(from_eigen[:, tail_from:])
    half = n_max // 2  # the levels from half on are the non-negative ones
    # held runs take the real gauge psi~_n = i^(-n) psi_n; the factors i^n,
    # read from a table by n mod 4, are exact, and the tail masses are the
    # same in either basis
    gauge = np.tile(np.array([1, 1j, -1, -1j])[np.arange(n_max) % 4], (len(branches), 1))
    bases = {}  # held-run eigensystems by drive, for this call

    # a chunk's states, one row per step and branch: the kicked rows of split
    # steps, the real-gauge states of held ones
    chunk_rows = np.empty((min(steps, _CHUNK), len(branches), n_max), dtype=complex)
    psi = np.zeros((len(branches), n_max), dtype=complex)
    psi[:, 0] = 1 / np.sqrt(len(branches))
    phi = np.empty_like(psi)  # the split steps' state, overwritten in place
    phi_real = phi.view(float)
    for begin, end in zip(starts, np.append(starts[1:], steps)):
        in_run = held[begin]
        if in_run:
            drive = lams[:, begin]
            key = drive.tobytes()
            if key not in bases:
                bases[key] = _held_basis(_real_generator(hbar * w0, drive, n_max))
            energies, basis = bases[key]
            coeffs = basis.T @ (psi * gauge.conj()).ravel()
            # column j - 1 holds exp(-i j dt E / hbar), j steps into a chunk;
            # each chunk turns it into `turned` and maps that into `states`,
            # buffers the run keeps, since fresh ones cost page faults
            j = np.arange(1, min(end - begin, _CHUNK) + 1)
            phases = _unit_phase(np.outer(energies, j * (dt / hbar)))
            turned = np.empty_like(phases)
            states = np.empty((len(energies), 2 * len(j)))
        else:
            np.dot(psi, to_eigen, out=phi)
        for first in range(begin, end, _CHUNK):
            count = min(first + _CHUNK, end) - first
            rows = chunk_rows[:count]
            if in_run:
                # the chunk's offset from the run's start moves its coefficients:
                # V diag(exp(-i (first - begin + j) dt E / hbar)) V^T psi~, one
                # column per step, taken as one real product on the (re, im) pairs
                offset = _unit_phase(((first - begin) * (dt / hbar)) * energies)
                np.multiply(phases[:, :count], (coeffs * offset)[:, None], out=turned[:, :count])
                np.matmul(basis, turned[:, :count].view(float), out=states[:, : 2 * count])
                np.copyto(rows.reshape(count, -1), states[:, : 2 * count].view(complex).T)
                _check_tails(rows, rows[..., tail_from:], first)
            else:
                # the sweep factors of the co branch: the upper half of the levels
                # from their angles, the lower half as mirrored conjugates
                upper = _unit_phase(rate * np.outer(sweep[first:first + count], levels[half:]))
                for branch, sign in enumerate(signs):
                    # the counter branch takes the conjugates: the co row reversed
                    row = rows[:, branch] if sign > 0 else rows[:, branch, ::-1]
                    np.conjugate(upper[:, ::-1][:, :half], out=row[:, :half])
                    row[:, half:] = upper
                for row, row_real in zip(rows, rows.view(float)):
                    np.multiply(row, phi, out=row)
                    np.dot(row_real, split_real, out=phi_real)
                tail = rows.reshape(-1, n_max) @ from_tail
                _check_tails(rows, tail.reshape(count, len(branches), -1), first)
        if in_run:
            psi = rows[-1] * gauge
        else:
            psi = rows[-1] @ from_eigen
    if not abs(np.linalg.norm(psi) - 1.0) <= _NORM_TOL:
        raise ConvergenceError("propagation lost unitarity beyond tolerance")
    return psi


def _check_halving(psi, config, profile, branches, n_max, steps, t_end):
    """Repeat the run at half the step count; raise unless each block agrees.

    Each block is rescaled to unit weight, so a joint run reports the larger
    of its branches' single-run estimates.
    """
    half = _propagate(config, profile, branches, n_max, steps // 2, t_end)
    gap = float(np.max(np.linalg.norm(psi - half, axis=1))) * np.sqrt(len(branches))
    estimate = gap / 3  # second-order halving
    if estimate > _STEP_CHECK_TOL:
        raise StepCountInsufficient(
            f"step-halving error estimate {estimate:.3e} above {_STEP_CHECK_TOL:.1e}"
        )


def evolve_fock(
    config: TrapConfig,
    profile: SweepProfile,
    branch: Branch,
    n_max: int = 40,
    steps: int = 4096,
    until: float | None = None,
    check_steps: bool = False,
) -> np.ndarray:
    """Propagate the vacuum of one branch to `until` (default: full window).

    Returns its number-basis amplitudes, shape (n_max,).  With
    check_steps=True the run is repeated at half the step count and the
    step-doubling error estimate must pass, otherwise
    StepCountInsufficient is raised.  From about 1024 steps on the design
    schemes the estimate is within a factor 2 of the true step error; on
    coarser grids it can undershoot (sinusoidal L=0 at 256 steps: 3.0e-6
    against 6.7e-6).
    """
    _validate(n_max, steps)
    t_end = profile.duration if until is None else float(until)
    if not 0 <= t_end <= profile.duration:
        raise TimeOutOfRange(f"until={t_end} outside [0, {profile.duration}]")
    psi = _propagate(config, profile, (branch,), n_max, steps, t_end)
    if check_steps:
        _check_halving(psi, config, profile, (branch,), n_max, steps, t_end)
    return psi[0]


def coherence_fock(
    config: TrapConfig,
    profile: SweepProfile,
    n_max: int = 40,
    steps: int = 4096,
    check_steps: bool = False,
) -> complex:
    """Branch overlap <psi_counter | psi_co> at recombination.

    Both branches are propagated in one pass, as the two rows of the joint
    run evolve_two_component makes, each holding weight 1/2, so the overlap
    is twice their inner product.  The pass takes its split steps in the
    drive's eigen coordinates, one matrix product for both rows, evaluates
    held runs in closed form, and checks both branches' tail mass after every
    step a chunk at a time, naming the first step either branch fails.
    check_steps repeats the pass at half the step count and raises
    StepCountInsufficient when the larger of the two branches' step-halving
    estimates is over budget.
    """
    _validate(n_max, steps)
    branches = (Branch.CO, Branch.COUNTER)
    psi = _propagate(config, profile, branches, n_max, steps, profile.duration)
    if check_steps:
        _check_halving(psi, config, profile, branches, n_max, steps, profile.duration)
    co, counter = psi
    value = complex(2 * np.vdot(counter, co))
    if abs(value) > 1 + _NORM_TOL:
        raise ConvergenceError("coherence modulus exceeds 1 beyond tolerance")
    return value


def evolve_two_component(
    config: TrapConfig, profile: SweepProfile, n_max: int = 40, steps: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate an equal spin superposition in the joint spin x trap space.

    On a held drive the joint generator is assembled as a full 2 n_max
    matrix and diagonalised as one block, so its block structure is an
    outcome, not an input; split steps act on each block.  Returns the
    (co, counter) trap-space components.
    """
    _validate(n_max, steps)
    co, counter = _propagate(
        config, profile, (Branch.CO, Branch.COUNTER), n_max, steps, profile.duration
    )
    return co, counter
