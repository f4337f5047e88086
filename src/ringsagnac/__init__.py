"""Trap-guided atomic-clock Sagnac interferometer toolkit.

Simulation, verification, and design of ring-trap interferometer schemes:
phase and contrast readout, phase-space trajectories, dynamic/geometric
phase decomposition, sensitivity limits, and sweep-profile design.

Only the exceptions are imported with the package.  Every other public
name is looked up in its defining submodule on first use (PEP 562), so
``import ringsagnac`` loads no numpy, and a program that runs only the
readout and sensitivity closed forms on analytic profiles never does.
"""

import importlib

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

__version__ = "0.1.0"

# the public names each submodule defines, imported on first use
_SUBMODULES = {
    "model": "Branch ProfileFamily SpectrumValue SweepProfile TrapConfig eval_profile "
             "lambda_drive make_profile zero_profile",
    "spectrum": "spectrum_closed_form",
    "evolution": "BranchEvolution sample_trajectory",
    "fock": "FockState coherence_fock evolve_fock evolve_two_component",
    "interferometer": "InterferometerResult readout sagnac_phase",
    "geometry": "PhaseDecomposition SchemeClass decompose",
    "design": "SchemeSpec design_time find_zero_time",
    "sensitivity": "SensitivityReport sensitivity_report",
    "oracle": "",
    "cli": "",
}
_LAZY = {name: module for module, names in _SUBMODULES.items() for name in names.split()}

# the exceptions imported above, and the names of the table
__all__ = sorted(
    [name for name, value in globals().items()
     if isinstance(value, type) and issubclass(value, Exception)] + list(_LAZY)
)


def __getattr__(name: str):
    if name in _SUBMODULES:  # ringsagnac.evolution before any import of it
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
