"""Brute-force number-basis propagation.

Independent validation backend: the driven-trap Hamiltonian

    H(t) = hbar omega0 (n + 1/2) + i lambda(t) (a - a^dag)

is propagated from the vacuum in a truncated number basis with a
piecewise-constant midpoint Hamiltonian and a dense matrix exponential
per step (unconditionally unitary), recomputed only when the drive
changes.  Nothing here uses the coherent-state closed form, so agreement
with the evolution/interferometer modules is a real check.  The spin
label never appears in H, which is why propagating the two components
separately must agree with propagating them jointly; evolve_two_component
exercises exactly that.  One loop serves single-branch and joint runs,
and both are guarded: every step checks each branch block's tail mass,
and the final norm is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    ConfigurationError,
    ConvergenceError,
    StepCountInsufficient,
    TimeOutOfRange,
    TruncationInsufficient,
)
from .model import Branch, SweepProfile, TrapConfig, lambda_drive

__all__ = ["FockState", "coherence_fock", "evolve_fock", "evolve_two_component"]

_NORM_TOL = 1e-8
_TAIL_TOL = 1e-10
_STEP_CHECK_TOL = 1e-4
MIN_LEVELS = 8
MIN_STEPS = 100


@dataclass(frozen=True)
class FockState:
    """Truncated number-basis state of one branch at a given time."""

    n_max: int
    amplitudes: np.ndarray
    branch: Branch
    time: float

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def mean_amplitude(self) -> complex:
        """Expectation of the lowering operator."""
        c = self.amplitudes
        n = np.arange(1, self.n_max)
        return complex(np.sum(np.conj(c[:-1]) * np.sqrt(n) * c[1:]))


def _operators(n_max: int):
    n = np.arange(n_max)
    lower = np.diag(np.sqrt(n[1:]).astype(complex), 1)
    body = np.diag(n + 0.5).astype(complex)          # units of hbar*omega0
    drive = 1j * (lower - lower.conj().T)            # units of lambda
    return body, drive


def _validate(n_max: int, steps: int):
    if n_max < MIN_LEVELS:
        raise ConfigurationError(f"n_max must be at least {MIN_LEVELS}")
    if steps < MIN_STEPS:
        raise ConfigurationError(f"steps must be at least {MIN_STEPS}")


def _propagate(config, profile, branches, n_max, steps, t_end) -> np.ndarray:
    """Equal-weight vacuum blocks, one per branch, under one joint generator."""
    hbar = config.hbar
    w0 = config.trap_frequency
    body, drive = _operators(n_max)
    dt = t_end / steps
    mids = (np.arange(steps) + 0.5) * dt
    lams = np.array([lambda_drive(config, profile, branch, mids) for branch in branches])
    fresh = np.concatenate(([True], np.any(lams[:, 1:] != lams[:, :-1], axis=0)))
    size = len(branches) * n_max
    blocks = [slice(start, start + n_max) for start in range(0, size, n_max)]
    # top decile of the ladder, but never an empty window
    tail_from = min(int(np.ceil(0.9 * n_max)), n_max - 1)
    tails = [slice(block.start + tail_from, block.stop) for block in blocks]

    generator = np.zeros((size, size), dtype=complex)
    psi = np.zeros(size, dtype=complex)
    psi[::n_max] = 1 / np.sqrt(len(branches))
    for k in range(steps):
        if fresh[k]:
            for block, lam in zip(blocks, lams[:, k]):
                generator[block, block] = hbar * w0 * body + lam * drive
            step_u = expm(-1j * dt / hbar * generator)
        psi = step_u @ psi
        # tail mass of each block's normalised state
        tail = max(
            np.vdot(psi[t], psi[t]).real / np.vdot(psi[b], psi[b]).real
            for b, t in zip(blocks, tails)
        )
        if not tail <= _TAIL_TOL:
            raise TruncationInsufficient(
                f"tail mass {tail:.3e} above {_TAIL_TOL:.1e} at step {k}; raise n_max"
            )
    if not abs(np.linalg.norm(psi) - 1.0) <= _NORM_TOL:
        raise ConvergenceError("propagation lost unitarity beyond tolerance")
    return psi


def evolve_fock(
    config: TrapConfig,
    profile: SweepProfile,
    branch: Branch,
    n_max: int = 40,
    steps: int = 4096,
    until: float | None = None,
    check_steps: bool = False,
) -> FockState:
    """Propagate the vacuum of one branch to `until` (default: full window).

    With check_steps=True the run is repeated at half the step count and
    the step-doubling error estimate must pass, otherwise
    StepCountInsufficient is raised.
    """
    _validate(n_max, steps)
    t_end = profile.duration if until is None else float(until)
    if t_end < 0 or t_end > profile.duration:
        raise TimeOutOfRange(f"until={t_end} outside [0, {profile.duration}]")
    psi = _propagate(config, profile, (branch,), n_max, steps, t_end)
    if check_steps:
        half = _propagate(config, profile, (branch,), n_max, steps // 2, t_end)
        estimate = float(np.linalg.norm(psi - half)) / 3  # second-order halving
        if estimate > _STEP_CHECK_TOL:
            raise StepCountInsufficient(
                f"step-halving error estimate {estimate:.3e} above {_STEP_CHECK_TOL:.1e}"
            )
    return FockState(n_max=n_max, amplitudes=psi, branch=branch, time=t_end)


def coherence_fock(
    config: TrapConfig,
    profile: SweepProfile,
    n_max: int = 40,
    steps: int = 4096,
    check_steps: bool = False,
) -> complex:
    """Branch overlap <psi_counter | psi_co> at recombination."""
    up = evolve_fock(config, profile, Branch.CO, n_max, steps, check_steps=check_steps)
    down = evolve_fock(config, profile, Branch.COUNTER, n_max, steps, check_steps=check_steps)
    value = complex(np.vdot(down.amplitudes, up.amplitudes))
    if abs(value) > 1 + _NORM_TOL:
        raise ConvergenceError("coherence modulus exceeds 1 beyond tolerance")
    return value


def evolve_two_component(
    config: TrapConfig, profile: SweepProfile, n_max: int = 40, steps: int = 512
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate an equal spin superposition in the joint spin x trap space.

    The joint generator is assembled as a full 2 n_max matrix and
    exponentiated as one block, so its block structure is an outcome, not
    an input; returns the (co, counter) trap-space components.
    """
    _validate(n_max, steps)
    psi = _propagate(config, profile, (Branch.CO, Branch.COUNTER), n_max, steps, profile.duration)
    return psi[:n_max], psi[n_max:]
