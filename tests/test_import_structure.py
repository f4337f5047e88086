"""Each command loads only the modules it runs; scipy is imported by the time-domain oracles alone.

`import ringsagnac` loads the exceptions and nothing else.  The scalar
commands (simulate, sensitivity, decompose on a tabulated or flat
profile, their sweeps and the design zero search) and every input
refused while the run is configured load no numpy; the commands that
build arrays load numpy and the library modules they call.  ringsagnac.oracle holds
every quadrature route; the spectrum command is the one production step
that loads it, and its spectral rule runs on numpy.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
    ["design", "--bracket", "5:7"],
    # the oracle module's one production caller comes last, so that every
    # step before it is seen to leave the module unloaded
    ["spectrum"],
    ["spectrum", "--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4", "--duration", "5"],
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
    oracle_expected = False
    for step, (code, scipy_loaded, oracle_loaded) in report.items():
        oracle_expected = oracle_expected or step.startswith("spectrum")
        assert code == 0, step
        assert scipy_loaded == [], step
        assert oracle_loaded == oracle_expected, step


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
    # the package binds a name on its first lookup; once every name dir()
    # lists has been looked up, the namespace holds the whole API.
    # Submodules become attributes of the package once imported, so they
    # are left out; everything else without a leading underscore is API
    for name in dir(ringsagnac):
        getattr(ringsagnac, name)
    public = sorted(name for name, value in vars(ringsagnac).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == PUBLIC_NAMES
    assert sorted(ringsagnac.__all__) == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        ringsagnac.no_such_name  # noqa: B018


LOADS_SCRIPT = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "numpy" or name.startswith("ringsagnac."))

import ringsagnac
report = [[0, loaded()]]
import ringsagnac.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ringsagnac.cli.run(argv)
    report.append([code, loaded()])
print(json.dumps(report))
"""


def _loads(commands) -> list:
    """[exit code, numpy and package modules loaded] after import and after each command."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


ARRAY_MODULES = {"numpy", "ringsagnac.evolution", "ringsagnac.fock", "ringsagnac.geometry",
                 "ringsagnac.design", "ringsagnac.oracle"}
TABULATED = ["--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4"]
# the readout, sensitivity and end-value closed forms, sweeps of them, the
# tabulated zero search, and the inputs the benchmark's cli mix expects
# refused, each with the library modules it may load besides those of the
# steps before it.  A module stays loaded, so each step that adds one comes
# as late as it can: the design steps load ringsagnac.design, and decompose
# takes the end values from ringsagnac.evolution; that decompose loads no
# design module is checked in a fresh interpreter below
SCALAR = [
    (["simulate"], 0, set()),
    (["sensitivity", "--family", "sinusoidal"], 0, set()),
    (["simulate", "--sweep", "rotation=0.05:0.5:4"], 0, set()),
    (["simulate", "--sweep", "volume=1:2:3"], 2, set()),
    (["spectrum", "--samples", "1,2,3"], 2, set()),
    (["simulate", "--rotation", "nan"], 2, set()),
    (["simulate", *TABULATED], 0, set()),
    (["sensitivity", *TABULATED, "--sweep", "duration=4:8:4"], 0, set()),
    (["design", "--family", "cosinusoidal", "--index", "1"], 2, {"ringsagnac.design"}),
    (["design", "--family", "tabulated", "--samples", "0.4,1,1,0.4", "--bracket", "7:8.5"],
     0, set()),
    (["decompose"], 0, {"ringsagnac.evolution", "ringsagnac.geometry"}),
    (["decompose", *TABULATED], 0, set()),
    (["decompose", *TABULATED, "--sweep", "duration=4:8:4"], 0, set()),
]


def test_import_and_scalar_commands_load_no_numpy():
    (code, loaded), *steps = _loads([argv for argv, *_ in SCALAR])
    assert loaded == ["ringsagnac.errors"]
    allowed = set()
    for (argv, expected, modules), (code, loaded) in zip(SCALAR, steps, strict=True):
        assert code == expected, argv
        allowed |= modules
        assert ARRAY_MODULES & set(loaded) <= allowed, argv


@pytest.mark.parametrize("argv, needed, unloaded", [
    (["spectrum", "--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4"],
     {"numpy", "ringsagnac.oracle"},
     {"ringsagnac.evolution", "ringsagnac.fock", "ringsagnac.geometry", "ringsagnac.design"}),
    (["decompose"], {"ringsagnac.evolution", "ringsagnac.geometry"},
     {"numpy", "ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle"}),
    (["decompose", *TABULATED, "--sweep", "duration=4:8:4"],
     {"ringsagnac.evolution", "ringsagnac.geometry"},
     {"numpy", "ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle"}),
    (["decompose", "--family", "sinusoidal"],
     {"numpy", "ringsagnac.evolution", "ringsagnac.geometry"},
     {"ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle"}),
    (["trajectory"], {"numpy", "ringsagnac.evolution"},
     {"ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle", "ringsagnac.geometry"}),
], ids=["spectrum", "decompose", "decompose-tabulated-sweep", "decompose-sinusoidal",
        "trajectory"])
def test_array_command_loads_only_what_it_runs(argv, needed, unloaded):
    # each in a fresh interpreter, so that no earlier step loaded a module
    _, (code, loaded) = _loads([argv])
    assert code == 0
    assert needed <= set(loaded)
    assert not unloaded & set(loaded)
