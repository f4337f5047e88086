"""Production routes load numpy only; scipy is imported by the oracle routes alone.

ringsagnac.oracle holds every quadrature route; no production step loads it.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import ringsagnac

SRC = Path(ringsagnac.__file__).resolve().parents[1]

# numpy-only commands, run one after another in a fresh interpreter
PRODUCTION = [
    ["simulate"],
    ["sensitivity"],
    ["decompose"],
    ["trajectory"],
    ["design", "--index", "1"],
    ["verify"],
    ["fig2", "--panel", "a"],
    ["simulate", "--sweep", "rotation=0.05:0.5:4"],
    ["decompose", "--sweep", "duration=4:8:3", "--format", "human"],
    ["fig2", "--panel", "b"],
    ["fig2", "--panel", "c", "--n-samples", "64"],
    ["fig2", "--panel", "d"],
    ["fig2", "--panel", "e"],
    ["fig2", "--panel", "f", "--format", "human"],
    ["verify", "--format", "human"],
]
# commands that take a quadrature or a scalar-minimiser route
ORACLE = [
    ["spectrum"],
    ["design", "--bracket", "5:7"],
]

SCRIPT = """
import contextlib, io, json, sys

def loaded():
    scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    return [scipy, "ringsagnac.oracle" in sys.modules]

report = {}
import ringsagnac as rs
report["import ringsagnac"] = [0, *loaded()]
config = rs.TrapConfig()
tabulated = rs.make_profile(rs.ProfileFamily.TABULATED, 7.0, samples=[0.3, 1.0, 0.6, 0.2])
rs.readout(config, tabulated)
rs.sensitivity_report(config, tabulated)
rs.decompose(config, tabulated, n_samples=256)
rs.sample_trajectory(config, tabulated, rs.Branch.CO, 256)
rs.design_time("sinusoidal", config, 0)
rs.coherence_fock(config, rs.make_profile(rs.ProfileFamily.FLAT, 6.283185307179586),
                  n_max=16, steps=256)
report["library"] = [0, *loaded()]
import ringsagnac.cli
report["import ringsagnac.cli"] = [0, *loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ringsagnac.cli.run(argv)
    report[" ".join(argv)] = [code, *loaded()]
print(json.dumps(report))
"""


def _run(commands) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_production_routes_load_no_scipy():
    report = _run(PRODUCTION)
    assert len(report) == 3 + len(PRODUCTION)
    for step, (code, scipy_loaded, oracle_loaded) in report.items():
        assert code == 0, step
        assert scipy_loaded == [], step
        assert not oracle_loaded, step


def test_oracle_commands_still_run():
    report = _run(ORACLE)
    for argv in ORACLE:
        code, scipy_loaded, _ = report[" ".join(argv)]
        assert code == 0
        assert scipy_loaded


# the public top-level API; a name added or removed must be listed here
PUBLIC_NAMES = [
    "Branch", "BranchEvolution", "ConfigurationError", "ConvergenceError",
    "DegeneratePath", "FockState", "InsufficientResolution", "InterferometerResult",
    "InvalidIndex", "KappaUndefined", "NegativeSample", "NoZeroInBracket",
    "NonPositiveDuration", "PhaseDecomposition", "ProfileFamily",
    "QuadratureNonConvergence", "SchemeClass", "SchemeSpec", "SensitivityReport",
    "SpectrumValue", "StepCountInsufficient", "SweepProfile", "TimeOutOfRange",
    "TrapConfig", "TruncationInsufficient", "UnsupportedFamily", "ZeroProfile",
    "coherence_fock", "decompose", "design_time", "eval_profile", "evolve_fock",
    "evolve_two_component", "find_zero_time", "lambda_drive", "make_profile",
    "readout", "sagnac_phase", "sample_trajectory", "sensitivity_report",
    "spectrum_closed_form", "zero_profile",
]


def test_public_names_are_pinned():
    # submodules become attributes of the package once imported, so they
    # are left out; everything else without a leading underscore is API
    public = sorted(name for name, value in vars(ringsagnac).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES
