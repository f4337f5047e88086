"""Seeded fuzz of the command line's input contract.

Every argument vector either succeeds with finite output (exit 0), is
refused as a configuration error (exit 2) or as a convergence error
(exit 3); `verify` may also report a failed check (exit 4).  No exception
escapes `cli.run` and no warning is raised.  The vectors are drawn from
`cli._OPTIONS`, so an option added there is fuzzed without a test edit.
The scalar readout, sensitivity and end-value routes are also called
directly at the edges of the float range, where they must return finite
fields or raise the package's own errors.
"""

import cmath
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from ringsagnac import (
    ConfigurationError,
    ConvergenceError,
    PhaseDecomposition,
    SensitivityReport,
    TrapConfig,
    cli,
    decompose,
    make_profile,
    readout,
    sensitivity_report,
)

COMMANDS = [name for name, _, _ in cli._COMMANDS]
# values at the edges of the float range, beside random magnitudes
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e154, 1e300, -1e300,
           math.nan, math.inf, -math.inf)
# upper bounds that keep every run small: path intervals, propagation steps,
# basis size, fig2 grid points and sweep points
CAPS = {"n_samples": 1024, "steps": 256, "n_max": 24, "points": 64}
SWEEP_POINTS = 4
# the one stated exception: the CSV of a sweep prints a missing optional
# field (decompose's kappa, sensitivity's qfi) as nan, the table writer's
# `missing`, not a NaN result; perfbench/cli_refs.json pins that text
MISSING_AS_NAN = {field.name for cls in (PhaseDecomposition, SensitivityReport)
                  for field in dataclasses.fields(cls) if "None" in str(field.type)}


def _number(rng) -> float:
    pick = rng.random()
    if pick < 0.35:
        return SPECIAL[rng.integers(len(SPECIAL))]
    value = 10.0 ** rng.uniform(*((-300, 300) if pick < 0.6 else (-3, 3)))
    return -value if rng.random() < 0.15 else value


def _integer(rng, cap: int | None) -> int:
    if rng.random() < 0.3:
        return int(rng.integers(-3, 3))
    return int(rng.integers(1, cap or 2000, endpoint=True))


def _value(rng, option, tmp_path) -> str:
    if option.name == "output":
        # a writable file, or one in a missing directory
        return str(tmp_path / ("out.txt" if rng.random() < 0.8 else "missing/out.txt"))
    if option.choices is not None:
        return str(option.choices[rng.integers(len(option.choices))])
    if option.kind is float:
        return repr(_number(rng))
    if option.kind is int:
        return str(_integer(rng, CAPS.get(option.name)))
    count = option.length or int(rng.integers(0, 7))
    return option.sep.join(repr(abs(_number(rng)) if rng.random() < 0.8 else _number(rng))
                           for _ in range(count))


def _argv(rng, tmp_path) -> list[str]:
    command = COMMANDS[rng.integers(len(COMMANDS))]
    argv = [command]
    for option in cli._OPTIONS:
        # verify's defaults are 4096 steps at n_max 40, so it always takes capped ones
        forced = command == "verify" and option.name in ("steps", "n_max")
        if forced or rng.random() < 0.2:
            argv += [f"--{option.name.replace('_', '-')}", _value(rng, option, tmp_path)]
    if rng.random() < 0.15:
        key = cli._SWEEPABLE[rng.integers(len(cli._SWEEPABLE))]
        count = int(rng.integers(0, SWEEP_POINTS, endpoint=True))
        argv += ["--sweep", f"{key}={_number(rng)!r}:{_number(rng)!r}:{count}"]
    return argv


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _json_problems(value, key="") -> list[str]:
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _json_problems(v, k)]
    if isinstance(value, list):
        return [p for v in value for p in _json_problems(v, key)]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{key} = {value}"]
    if value in ("nan", "-nan") or (value in ("inf", "-inf") and key != "delta_omega"):
        return [f"{key} = {value}"]
    return []


def _csv_problems(text: str) -> list[str]:
    header, *rows = text.rstrip("\n").split("\n")
    names = header.split(",")
    problems = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != len(names):
            problems.append(f"row of {len(cells)} cells under {len(names)} names")
            continue
        for name, cell in zip(names, cells):
            if cell == "nan" and name in MISSING_AS_NAN:
                continue
            if cell in ("nan", "-nan") or (cell in ("inf", "-inf") and name != "delta_omega"):
                problems.append(f"{name} = {cell}")
    return problems


def _human_problems(text: str) -> list[str]:
    tokens = text.replace(",", " ").replace("[", " ").replace("]", " ").split()
    return [token for token in tokens if token in ("nan", "-nan")]


def _output_problems(text: str, argv: list[str]) -> list[str]:
    if not text:
        return ["no output"]
    if "human" in argv:
        return _human_problems(text)
    if text.startswith("{"):
        try:
            return _json_problems(json.loads(text, parse_constant=_reject_constant))
        except ValueError as exc:
            return [f"not strict JSON: {exc}"]
    return _csv_problems(text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_input_contract(seed, tmp_path, capsys):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        argv = _argv(rng, tmp_path)
        written = tmp_path / "out.txt"
        written.unlink(missing_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.run(argv)
            except Exception as exc:  # noqa: BLE001  any escape fails the contract
                pytest.fail(f"{argv}: {exc!r} escaped")
        out = capsys.readouterr().out
        assert not caught, f"{argv}: {[str(w.message) for w in caught]}"
        allowed = (0, 2, 3, 4) if argv[0] == "verify" else (0, 2, 3)
        assert code in allowed, f"{argv}: exit {code}"
        if code == 0:
            text = written.read_text() if "--output" in argv else out
            problems = _output_problems(text, argv)
            assert not problems, f"{argv}: {problems}"


# trap parameters at the edges of the float range, beside random magnitudes
EDGES = (5e-324, 1e-300, 1e-154, 1.0, 1e154, 1e300, 1.7976931348623157e308)


def _edge(rng) -> float:
    pick = rng.random()
    if pick < 0.4:
        return EDGES[rng.integers(len(EDGES))]
    return float(10.0 ** rng.uniform(*((-300, 300) if pick < 0.7 else (-3, 3))))


@pytest.mark.parametrize("seed", [1, 2])
def test_library_overflow_contract(seed):
    # readout, sensitivity_report and decompose called directly, on tabulated
    # profiles with samples up to 1e300 and on flat ones, T from 1e-300 to
    # 1e300, and omega0, hbar and m at the float edges: each returns finite
    # fields (delta_omega may be inf) or raises a ringsagnac error, never a
    # bare OverflowError, ValueError or ZeroDivisionError from the scalar
    # arithmetic, and no warning
    rng = np.random.default_rng(seed)
    returned = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(400):
            try:
                config = TrapConfig(mass=_edge(rng), hbar=_edge(rng), trap_frequency=_edge(rng),
                                    radius=_edge(rng), rotation=-_edge(rng) if rng.random() < 0.5
                                    else _edge(rng))
                if rng.random() < 0.5:
                    samples = 10.0 ** rng.uniform(-300, 300, rng.integers(2, 12))
                    samples[rng.random(samples.size) < 0.2] = 0.0
                    profile = make_profile("tabulated", float(10 ** rng.uniform(-300, 300)),
                                           samples=samples)
                else:
                    profile = make_profile("flat", float(10 ** rng.uniform(-300, 300)))
            except ConfigurationError:
                continue
            for call in (readout, sensitivity_report, decompose):
                try:
                    result = call(config, profile)
                except (ConfigurationError, ConvergenceError):
                    continue
                fields = {name: value for name, value in vars(result).items()
                          if name != "delta_omega"}
                values = [value for value in fields.values()
                          if isinstance(value, (int, float, complex))]
                values += [part for value in fields.values() if isinstance(value, tuple)
                           for part in value]
                if call is sensitivity_report:
                    assert result.delta_omega > 0, config
                if call is readout:
                    values.append(result.spectrum.value)
                assert all(cmath.isfinite(value) for value in values), (call.__name__, config)
                returned += 1
    assert returned > 100
