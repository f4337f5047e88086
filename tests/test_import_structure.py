"""Each command loads only the modules it runs; scipy is imported by the time-domain oracles alone.

`import ringsagnac` loads the exceptions and nothing else.  The scalar
commands (simulate, sensitivity, decompose on a tabulated or flat
profile, spectrum on an analytic one, their sweeps and the design zero
search) and every input refused while the run is configured load no
numpy; the commands that build arrays load numpy and the library modules
they call.  ringsagnac.oracle holds every quadrature route; the spectrum
command on a tabulated profile is the one production step that loads it,
and its spectral rule runs on numpy.  The numpy checks run each command
through its `__main__` entry, as `python -m ringsagnac.cli` does, and a
command that prints a JSON record must print standard JSON.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ringsagnac

SRC = Path(ringsagnac.__file__).resolve().parents[1]
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# numpy-only commands, run one after another in a fresh interpreter, each
# with its exit code: a 256-step verify exits 4, since cosinusoidal M=2
# misses the 1e-4 budget at that step count
PRODUCTION = [
    (["simulate"], 0),
    (["spectrum"], 0),
    (["sensitivity"], 0),
    (["decompose"], 0),
    (["trajectory"], 0),
    (["design", "--index", "1"], 0),
    (["verify"], 0),
    (["fig2", "--panel", "a"], 0),
    (["simulate", "--sweep", "rotation=0.05:0.5:4"], 0),
    (["decompose", "--sweep", "duration=4:8:3", "--format", "human"], 0),
    (["fig2", "--panel", "b"], 0),
    (["fig2", "--panel", "c", "--n-samples", "64"], 0),
    (["fig2", "--panel", "d"], 0),
    (["fig2", "--panel", "e"], 0),
    (["fig2", "--panel", "f", "--format", "human"], 0),
    (["verify", "--format", "human"], 0),
    (["verify", "--steps", "256"], 4),
    (["design", "--bracket", "5:7"], 0),
    # the oracle module's one production caller, the tabulated spectrum,
    # comes last, so that every step before it is seen to leave the module
    # unloaded
    (["spectrum", "--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4", "--duration", "5"],
     0),
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
    report = _run([argv for argv, _ in PRODUCTION])
    expected_codes = [0, 0, 0, *(code for _, code in PRODUCTION)]
    oracle_expected = False
    for (step, (code, scipy_loaded, oracle_loaded)), expected in zip(
            report.items(), expected_codes, strict=True):
        oracle_expected = oracle_expected or step.startswith("spectrum --family tabulated")
        assert code == expected, step
        assert scipy_loaded == [], step
        assert oracle_loaded == oracle_expected, step


# the public top-level API; a name added or removed must be listed here
PUBLIC_NAMES = [
    "Branch", "BranchEvolution", "ConfigurationError", "ConvergenceError",
    "DegeneratePath", "InsufficientResolution", "InterferometerResult",
    "InvalidIndex", "NegativeSample", "NoZeroInBracket",
    "NonPositiveDuration", "PhaseDecomposition", "ProfileFamily",
    "QuadratureNonConvergence", "SchemeClass", "SchemeSpec", "SensitivityReport",
    "SpectrumValue", "StepCountInsufficient", "SweepProfile", "TimeOutOfRange",
    "TrapConfig", "TruncationInsufficient", "UnsupportedFamily", "ZeroProfile",
    "coherence_fock", "decompose", "design_time", "eval_profile", "evolve_fock",
    "evolve_two_component", "find_zero_time", "lambda_drive", "make_profile",
    "readout", "sagnac_phase", "sample_trajectory", "sensitivity_report",
    "spectrum_closed_form",
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
    for retired in ("zero_profile", "FockState", "KappaUndefined"):
        with pytest.raises(AttributeError, match=retired):
            getattr(ringsagnac, retired)


def test_benchmark_workloads_call_the_public_surface():
    # every ringsagnac name the benchmark's workloads use is public or a
    # submodule, and every call of one binds to the callee's signature, so
    # a trimmed name or keyword fails here before a benchmark run
    tree = ast.parse(WORKLOADS.read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in ("rs", "ringsagnac")}
    assert {"ProfileFamily", "TrapConfig", "decompose", "readout", "coherence_fock"} <= used
    for name in used:
        assert name in ringsagnac.__all__ or importlib.util.find_spec(f"ringsagnac.{name}"), name
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "rs"]
    assert {call.func.attr for call in calls} >= {"decompose", "coherence_fock", "design_time"}
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg is not None for kw in call.keywords)
        signature = inspect.signature(getattr(ringsagnac, call.func.attr))
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


LOADS_SCRIPT = """
import contextlib, io, json, runpy, sys

def loaded():
    return sorted(name for name in sys.modules
                  if name == "numpy" or name.startswith("ringsagnac."))

import ringsagnac
report = [[0, loaded(), ""]]
for argv in json.loads(sys.stdin.read()):
    sys.argv = ["ringsagnac", *argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("ringsagnac.cli", run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    report.append([code, loaded(), out.getvalue()])
print(json.dumps(report))
"""


def _loads(commands) -> list:
    """[exit code, numpy and package modules loaded, stdout] after import and after each command.

    Each command runs as `python -m ringsagnac.cli` does, through runpy as
    __main__, so the entry point itself is what is checked.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT], input=json.dumps(commands),
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


ARRAY_MODULES = {"numpy", "ringsagnac.evolution", "ringsagnac.fock", "ringsagnac.geometry",
                 "ringsagnac.design", "ringsagnac.oracle"}
TABULATED = ["--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4"]
# the readout, sensitivity, end-value and analytic spectrum closed forms,
# sweeps of them, the tabulated zero search, and the inputs the benchmark's
# cli mix expects refused, each with the library modules it may load
# besides those of the steps before it.  A module stays loaded, so each
# step that adds one comes as late as it can: the design steps load
# ringsagnac.design, and decompose takes the end values from
# ringsagnac.evolution; that decompose loads no design module is checked
# in a fresh interpreter below
SCALAR = [
    (["simulate"], 0, set()),
    (["spectrum"], 0, set()),
    (["spectrum", "--family", "sinusoidal", "--sweep", "omega=0.5:3:4"], 0, set()),
    (["spectrum", "--family", "cosinusoidal", "--omega", "3e5"], 0, set()),
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
    (code, loaded, _), *steps = _loads([argv for argv, *_ in SCALAR])
    assert loaded == ["ringsagnac.errors"]
    allowed = set()
    for (argv, expected, modules), (code, loaded, _) in zip(SCALAR, steps, strict=True):
        assert code == expected, argv
        allowed |= modules
        assert ARRAY_MODULES & set(loaded) <= allowed, argv


# a 4097-node tabulated profile, its samples spread over [0.09, 1]
LONG_SAMPLES = ",".join(str(((j * 7919) % 1000 + 100) / 1100) for j in range(4097))
SCALAR_UNLOADED = {"numpy", "ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle"}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv, needed, unloaded, prints_json", [
    (["spectrum", "--family", "tabulated", "--samples", "0.3,0.9,0.6,1.0,0.4"],
     {"numpy", "ringsagnac.oracle"},
     {"ringsagnac.evolution", "ringsagnac.fock", "ringsagnac.geometry", "ringsagnac.design"},
     True),
    (["decompose"], {"ringsagnac.evolution", "ringsagnac.geometry"}, SCALAR_UNLOADED, True),
    (["decompose", *TABULATED, "--sweep", "duration=4:8:4"],
     {"ringsagnac.evolution", "ringsagnac.geometry"}, SCALAR_UNLOADED, False),
    (["decompose", "--family", "sinusoidal"],
     {"numpy", "ringsagnac.evolution", "ringsagnac.geometry"},
     {"ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle"}, True),
    (["trajectory"], {"numpy", "ringsagnac.evolution"},
     {"ringsagnac.fock", "ringsagnac.design", "ringsagnac.oracle", "ringsagnac.geometry"},
     False),
    (["decompose", "--family", "tabulated", "--samples", LONG_SAMPLES],
     {"ringsagnac.evolution", "ringsagnac.geometry"}, SCALAR_UNLOADED, True),
], ids=["spectrum", "decompose", "decompose-tabulated-sweep", "decompose-sinusoidal",
        "trajectory", "decompose-tabulated-4097"])
def test_array_command_loads_only_what_it_runs(argv, needed, unloaded, prints_json):
    # each in a fresh interpreter, so that no earlier step loaded a module;
    # a JSON record must be standard JSON
    _, (code, loaded, out) = _loads([argv])
    assert code == 0
    assert needed <= set(loaded)
    assert not unloaded & set(loaded)
    if prints_json:
        json.loads(out, parse_constant=_reject_constant)
