"""Trap-guided atomic-clock Sagnac interferometer toolkit.

Simulation, verification, and design of ring-trap interferometer schemes:
phase and contrast readout, phase-space trajectories, dynamic/geometric
phase decomposition, sensitivity limits, and sweep-profile design.
"""

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegeneratePath,
    InsufficientResolution,
    InvalidIndex,
    KappaUndefined,
    NegativeSample,
    NonPositiveDuration,
    NoZeroInBracket,
    QuadratureNonConvergence,
    StepCountInsufficient,
    TimeOutOfRange,
    TruncationInsufficient,
    UnsupportedFamily,
    ZeroProfile,
)
from .model import (
    Branch,
    ProfileFamily,
    SpectrumValue,
    SweepProfile,
    TrapConfig,
    eval_profile,
    lambda_drive,
    make_profile,
    zero_profile,
)
from .spectrum import spectrum_closed_form
from .evolution import BranchEvolution, sample_trajectory
from .fock import FockState, coherence_fock, evolve_fock, evolve_two_component
from .interferometer import InterferometerResult, readout, sagnac_phase
from .geometry import PhaseDecomposition, SchemeClass, decompose
from .design import SchemeSpec, design_time, find_zero_time
from .sensitivity import SensitivityReport, sensitivity_report

__version__ = "0.1.0"
