"""Command-line front end.

Subcommands
-----------
spectrum     transform of the sweep profile at one frequency (or a sweep)
trajectory   CSV phase-space paths and accumulated phases for both branches
simulate     interferometer readout for one configuration
decompose    dynamic/geometric split, spectral functionals, classification
design       design-point scheme construction, or a spectrum-zero search
sensitivity  rotation-rate resolution report with Fisher-information bounds
verify       truncated-basis propagation cross-check (exit 4 on mismatch)
fig2         CSV data behind the six survey panels (a-f)

Configuration comes from an optional JSON file (--config); flags override
file values, and unknown keys are rejected.  File values take the flags'
types (finite numbers, whole numbers for the integer options, strings,
and lists of numbers for samples and bracket), and null leaves a key unset.  The JSON
schema mirrors the flags::

    {
      "trap":    {"mass": 1.0, "hbar": 1.0, "trap_frequency": 1.0,
                  "radius": 1.0, "rotation": 0.1},
      "profile": {"family": "flat", "duration": 6.283185307179586,
                  "samples": [0.2, 1.0, 0.4]},
      "omega": 1.0, "n_samples": 4096, "n_max": 40, "steps": 4096,
      "index": 1, "bracket": [5.0, 7.0], "points": 401, "panel": "f",
      "format": "machine", "output": "out.csv"
    }

Defaults are the natural-unit flat scheme (m = hbar = omega0 = r = 1,
rotation 0.1, T = 2 pi).  Exit codes: 0 success, 2 configuration error,
3 convergence error, 4 verification failure.  Output for a fixed
configuration is byte-identical across runs.  Tables are unquoted CSV with
17 significant digits: no header or cell holds a comma, a quote or a line
break, so no field needs quoting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass
from enum import Enum

# each handler imports the library modules it runs, so a command loads only
# those, and numpy only where arrays are built
from .errors import ConfigurationError, ConvergenceError
from .model import (Branch, ProfileFamily, SweepProfile, TrapConfig, _linspace, eval_profile,
                    make_profile)

_VERIFY_TOL = 1e-4
# argparse takes a dash-led token for an option unless it matches its own
# negative-number pattern (-1, -1.5), so `--rotation -1e-3` lost its value;
# here a dash followed by a digit, by a dot and a digit, or by the whole of
# inf, infinity or nan in any letter case is a value
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


@dataclass(frozen=True)
class _Option:
    """One setting: the flag --name, the config-file key name, and its check.

    kind is the type a config-file value must have and a flag's text is
    read as: float (finite), int, str, or tuple (finite numbers; the flag's
    text is split at sep).  A default of None leaves the setting unset; an
    unset trap key takes TrapConfig's default.
    """

    name: str
    block: str | None  # config-file object holding the key: "trap", "profile" or the top
    kind: type
    default: object = None
    choices: tuple | None = None
    minimum: int | None = None
    length: int | None = None
    sep: str | None = None
    metavar: str | None = None
    help: str | None = None


_OPTIONS = (
    _Option("mass", "trap", float),
    _Option("hbar", "trap", float),
    _Option("trap_frequency", "trap", float),
    _Option("radius", "trap", float),
    _Option("rotation", "trap", float),
    _Option("family", "profile", str, "flat", choices=tuple(f.value for f in ProfileFamily)),
    _Option("duration", "profile", float, 2 * math.pi),
    _Option("samples", "profile", tuple, sep=",", metavar="V1,V2,...",
            help="tabulated sweep rates, comma separated"),
    _Option("omega", None, float, help="evaluation frequency (spectrum)"),
    _Option("n_samples", None, int, 4096,
            help="path intervals; sizes trajectory and the fig2 c/f tables, while "
                 "decompose and the human fig2 record only check it"),
    _Option("n_max", None, int, 40, help="basis truncation (verify)"),
    _Option("steps", None, int, 4096, help="propagation steps (verify)"),
    _Option("index", None, int, help="scheme order (design)"),
    _Option("bracket", None, tuple, length=2, sep=":", metavar="LO:HI",
            help="search interval (design)"),
    _Option("points", None, int, 401, minimum=1, help="grid size for fig2 panels a/b/d/e"),
    _Option("panel", None, str, choices=tuple("abcdef"), help="fig2 panel"),
    _Option("format", None, str, "machine", choices=("machine", "human")),
    _Option("output", None, str, metavar="PATH", help="write result here instead of stdout"),
)
_SWEEPABLE = tuple(option.name for option in _OPTIONS if option.kind is float)


# validated, fully resolved settings for one invocation: the trap, the
# profile, one field per top-level option, and the given values they were
# resolved from, which a sweep resolves again at each point
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    ["trap", "profile", *(option.name for option in _OPTIONS if option.block is None), "given"],
    frozen=True,
)


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {number}")
    return number


def _integer(value, name: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


def _string(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


def _reals(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_real(item, f"{name} entry") for item in value)


_COERCERS = {float: _real, int: _integer, str: _string, tuple: _reals}


def _coerce(option: _Option, value):
    """Check one given value, from a flag or the config file, against its option."""
    value = _COERCERS[option.kind](value, option.name)
    if option.choices is not None and value not in option.choices:
        raise ConfigurationError(
            f"{option.name} must be one of {', '.join(option.choices)}, got {value!r}"
        )
    if option.minimum is not None and value < option.minimum:
        raise ConfigurationError(f"{option.name} must be at least {option.minimum}, got {value}")
    if option.length is not None and len(value) != option.length:
        raise ConfigurationError(
            f"{option.name} needs exactly {option.length} values, got {value!r}"
        )
    return value


def _split(text: str, option: _Option) -> list[float]:
    """The numbers in a list option's flag text."""
    try:
        return [float(part) for part in text.split(option.sep)]
    except ValueError as exc:
        raise ConfigurationError(f"bad {option.name} {text!r}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    """Values a JSON config file gives, by option name; a null value is unset."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    blocks = {None: data}
    for block in ("trap", "profile"):
        nested = data.pop(block, None)
        if nested is not None and not isinstance(nested, dict):
            raise ConfigurationError(f"config key {block!r} must be an object")
        blocks[block] = nested or {}
    given = {}
    for block, mapping in blocks.items():
        names = {option.name for option in _OPTIONS if option.block == block}
        for key, value in mapping.items():
            if key not in names:
                where = f"config {block!r} block" if block else "config file"
                raise ConfigurationError(f"unknown key {key!r} in {where}")
            if value is not None:
                given[key] = value
    return given


def _given_values(args) -> dict:
    """The values a run sets, by option name; a flag wins over the config file."""
    given = _load_config_file(args.config) if args.config else {}
    for option in _OPTIONS:
        flag = getattr(args, option.name)
        if flag is not None:
            given[option.name] = _split(flag, option) if option.sep else flag
    if args.command == "fig2" and given.keys() & {"family", "samples"}:
        raise ConfigurationError("fig2 panels fix the profile family; drop family and samples")
    return given


def _build_config(given: dict) -> RunConfig:
    settings = {"trap": {}, "profile": {}, None: {}}
    for option in _OPTIONS:
        value = _coerce(option, given[option.name]) if option.name in given else option.default
        settings[option.block][option.name] = value

    trap = TrapConfig(**{k: v for k, v in settings["trap"].items() if v is not None})
    profile = settings["profile"]
    family = ProfileFamily(profile["family"])
    if profile["samples"] is not None and family is not ProfileFamily.TABULATED:
        raise ConfigurationError("samples are only meaningful for the tabulated family")
    return RunConfig(
        trap=trap,
        profile=make_profile(family, profile["duration"], samples=profile["samples"]),
        **settings[None],
        given=given,
    )


# ---------------------------------------------------------------------------
# output helpers

def _is_bool(value) -> bool:
    # a numpy bool is no numbers.Integral, and can exist only once numpy is loaded
    numpy = sys.modules.get("numpy")
    return isinstance(value, bool) or (numpy is not None and isinstance(value, numpy.bool_))


def _cell(value, missing: str = "nan") -> str:
    if _is_bool(value):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if value is None:
        return missing
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    return str(value)


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if _is_bool(value):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def _json_text(record: dict) -> str:
    return json.dumps(_jsonable(record), indent=2, sort_keys=True) + "\n"


def _human_lines(record: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in record.items():
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_human_lines(value, prefix=f"{label}."))
        elif isinstance(value, (list, tuple)):
            joined = ", ".join(_cell(v, "null") for v in value)
            lines.append(f"{label} = [{joined}]")
        else:
            lines.append(f"{label} = {_cell(value, 'null')}")
    return lines


def _human_text(record: dict) -> str:
    return "\n".join(_human_lines(record)) + "\n"


def _record_text(record: dict, fmt: str) -> str:
    return _json_text(record) if fmt == "machine" else _human_text(record)


def _table_text(header, columns, fmt: str) -> str:
    """A table given column by column: CSV (machine) or aligned text (human)."""
    # a float array column keeps its floats, and "%.17g" % x is _cell's text
    # for every float; any other column is written cell by cell
    # a missing value is null, as in the JSON, but nan in a CSV number column
    missing = "nan" if fmt == "machine" else "null"
    specs, values = [], []
    for column in columns:
        dtype = getattr(column, "dtype", None)  # a numpy array's
        floats = dtype is not None and dtype.kind == "f"
        specs.append("%.17g" if floats else "%s")
        values.append(column.tolist() if floats else [_cell(item, missing) for item in column])
    if fmt == "machine":
        # no header or cell holds a comma, a quote or a line break, so the
        # CSV needs no quoting
        line = ",".join(specs) + "\n"
        return ",".join(header) + "\n" + "".join([line % row for row in zip(*values)])
    cells = [[spec % x for x in column] for spec, column in zip(specs, values)]
    widths = [max(map(len, (name, *column))) for name, column in zip(header, cells)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [header, *zip(*cells)])


# ---------------------------------------------------------------------------
# single-point evaluators (shared by plain runs and sweeps)

def _eval_spectrum(rc: RunConfig) -> dict:
    from .oracle import spectrum_derivative, spectrum_numeric
    from .spectrum import spectrum_closed_form

    omega = rc.trap.trap_frequency if rc.omega is None else rc.omega
    profile = rc.profile
    if profile.family is ProfileFamily.TABULATED:
        sample = spectrum_numeric(profile, omega)
    else:
        sample = spectrum_closed_form(profile.family, profile.duration, omega)
    return {
        "omega": omega,
        "re": sample.value.real,
        "im": sample.value.imag,
        "d_re_d_omega": spectrum_derivative(profile, omega),
        "method": sample.method,
    }


def _eval_simulate(rc: RunConfig) -> dict:
    from .interferometer import readout

    result = readout(rc.trap, rc.profile)
    names = ("contrast", "delta_alpha", "phase", "principal_arg", "sagnac", "sigma_y", "sigma_z")
    return {name: getattr(result, name) for name in names}


def _field_record(result) -> dict:
    """A result dataclass's fields in declaration order, enums by value."""
    record = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        record[field.name] = value.value if isinstance(value, Enum) else value
    return record


def _eval_decompose(rc: RunConfig) -> dict:
    from .geometry import decompose

    return _field_record(decompose(rc.trap, rc.profile, n_samples=rc.n_samples))


def _eval_sensitivity(rc: RunConfig) -> dict:
    from .sensitivity import sensitivity_report

    return _field_record(sensitivity_report(rc.trap, rc.profile))


_EVALUATORS = {
    "spectrum": _eval_spectrum,
    "simulate": _eval_simulate,
    "decompose": _eval_decompose,
    "sensitivity": _eval_sensitivity,
}


# ---------------------------------------------------------------------------
# sweeps

def _parse_sweep(text: str):
    try:
        key, _, rest = text.partition("=")
        start_s, stop_s, n_s = rest.split(":")
        start, stop, count = float(start_s), float(stop_s), int(n_s)
    except ValueError as exc:
        raise ConfigurationError(f"bad sweep spec {text!r}, want key=start:stop:n") from exc
    if key not in _SWEEPABLE:
        raise ConfigurationError(f"cannot sweep {key!r}; choose from {', '.join(_SWEEPABLE)}")
    if count < 1:
        raise ConfigurationError(f"sweep needs at least one point, got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigurationError(f"sweep endpoints must be finite, got {text!r}")
    return key, _linspace(start, stop, count)


def _flatten(record: dict) -> dict:
    flat: dict = {}
    for key, value in record.items():
        if isinstance(value, complex):
            flat[f"re_{key}"] = value.real
            flat[f"im_{key}"] = value.imag
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                flat[f"{key}_{i}"] = item
        else:
            flat[key] = value
    return flat


def _run_sweep(rc: RunConfig, command: str, sweep_spec: str, fmt: str) -> str:
    key, values = _parse_sweep(sweep_spec)
    evaluator = _EVALUATORS[command]
    # each point is resolved from the given values the way a single run is,
    # so a tabulated profile is rescaled from its given samples, not from
    # the already rescaled ones
    records = [_flatten(evaluator(_build_config({**rc.given, key: value}))) for value in values]
    header = [key] + [name for name in records[0] if name != key]
    columns = [values, *([record[name] for record in records] for name in header[1:])]
    return _table_text(header, columns, fmt)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_point(rc: RunConfig, args) -> tuple[str, int]:
    if args.sweep:
        return _run_sweep(rc, args.command, args.sweep, rc.format), 0
    return _record_text(_EVALUATORS[args.command](rc), rc.format), 0


def _paths(rc: RunConfig, profile: SweepProfile):
    """Both branch paths on one grid, and columns t, re/im alpha0, re/im alpha1."""
    from .evolution import _sweep

    co, counter = _sweep(rc.trap, profile, (Branch.CO, Branch.COUNTER), rc.n_samples)
    columns = [co.times, co.alphas.real, co.alphas.imag,
               counter.alphas.real, counter.alphas.imag]
    return co, counter, columns


def _cmd_trajectory(rc: RunConfig, args) -> tuple[str, int]:
    co, counter, columns = _paths(rc, rc.profile)
    if rc.format == "machine":
        header = ["t", "re_alpha0", "im_alpha0", "re_alpha1", "im_alpha1", "phi0", "phi1"]
        return _table_text(header, [*columns, co.phases, counter.phases], "machine"), 0
    record = {
        "samples": len(co.times),
        "duration": rc.profile.duration,
        "closure_alpha0": abs(co.final_alpha),
        "closure_alpha1": abs(counter.final_alpha),
        "final_phi0": co.final_phase,
        "final_phi1": counter.final_phase,
    }
    return _human_text(record), 0


def _cmd_design(rc: RunConfig, args) -> tuple[str, int]:
    from .design import design_time, find_zero_time
    from .interferometer import readout

    family = rc.profile.family
    if rc.bracket is not None:
        zero_time = find_zero_time(rc.profile, rc.trap, rc.bracket)
        profile = make_profile(family, zero_time, samples=rc.profile.samples)
        record = {
            "family": family.value,
            "bracket": list(rc.bracket),
            "duration": zero_time,
            "spectrum_modulus": abs(readout(rc.trap, profile).spectrum.value),
        }
        return _record_text(record, rc.format), 0
    if rc.index is None:
        raise ConfigurationError("design needs --index (scheme order) or --bracket (zero search)")
    scheme = design_time(family, rc.trap, rc.index)
    record = {
        "family": scheme.family.value,
        "index": scheme.index,
        "duration": scheme.duration,
        "spectrum_zero": scheme.spectrum_zero,
        "phase_equality": scheme.phase_equality,
        "qcrb_time": scheme.qcrb_time,
        "decomposition": _field_record(scheme.decomposition),
    }
    return _record_text(record, rc.format), 0


_VERIFY_SCHEMES = (
    ("flat-K1", ProfileFamily.FLAT, 1),
    ("sinusoidal-L0", ProfileFamily.SINUSOIDAL, 0),
    ("cosinusoidal-M2", ProfileFamily.COSINUSOIDAL, 2),
)


def _cmd_verify(rc: RunConfig, args) -> tuple[str, int]:
    import numpy as np

    from .design import design_time
    from .fock import coherence_fock
    from .interferometer import readout

    header = ["scheme", "duration", "contrast_closed", "contrast_fock",
              "arg_closed", "arg_fock", "discrepancy", "status"]
    rows = []
    all_pass = True
    for label, family, index in _VERIFY_SCHEMES:
        scheme = design_time(family, rc.trap, index)
        closed = readout(rc.trap, scheme.profile)
        coherence = coherence_fock(rc.trap, scheme.profile, n_max=rc.n_max, steps=rc.steps)
        arg_fock = float(np.angle(coherence))
        discrepancy = max(
            abs(abs(coherence) - closed.contrast),
            abs((arg_fock - closed.principal_arg + np.pi) % (2 * np.pi) - np.pi),
        )
        ok = discrepancy <= _VERIFY_TOL
        all_pass = all_pass and ok
        rows.append([label, scheme.duration, closed.contrast, abs(coherence),
                     closed.principal_arg, arg_fock, discrepancy,
                     "pass" if ok else "fail"])
    text = _table_text(header, zip(*rows), rc.format)
    if rc.format == "human":
        verdict = "all schemes verified" if all_pass else "verification FAILED"
        text += f"{verdict} (tolerance {_VERIFY_TOL:g})\n"
    return text, 0 if all_pass else 4


def _cmd_fig2(rc: RunConfig, args) -> tuple[str, int]:
    if rc.panel is None:
        raise ConfigurationError("fig2 needs --panel (one of a-f)")
    import numpy as np

    family = ProfileFamily.SINUSOIDAL if rc.panel in "abc" else ProfileFamily.FLAT
    profile = make_profile(family, rc.profile.duration)
    T = profile.duration

    if rc.panel in ("a", "d"):
        # panel units: sinusoidal rate in pi^2/(2T), flat rate in pi/T
        scale = 2 * T / np.pi**2 if rc.panel == "a" else T / np.pi
        header = ["t", "t_over_T", "sweep_rate", "sweep_rate_scaled"]
        times = np.linspace(0.0, T, rc.points)
        rates = eval_profile(profile, times)
        return _table_text(header, [times, times / T, rates, rates * scale], rc.format), 0
    if rc.panel in ("b", "e"):
        from .spectrum import spectrum_closed_form

        # frequency axis in units of 2 pi / T
        header = ["freq_scaled", "omega", "re_spectrum", "im_spectrum"]
        scaled = np.linspace(0.0, 4.0, rc.points)
        omegas = scaled * (2 * np.pi / T)
        values = np.array([spectrum_closed_form(family, T, omega).value for omega in omegas])
        return _table_text(header, [scaled, omegas, values.real, values.imag], rc.format), 0

    if rc.format == "machine":
        header = ["t", "re_alpha0", "im_alpha0", "re_alpha1", "im_alpha1",
                  "re_mirror1", "im_mirror1"]
        columns = _paths(rc, profile)[2]
        return _table_text(header, [*columns, -columns[3], -columns[4]], "machine"), 0
    from .geometry import decompose
    from .interferometer import sagnac_phase

    dec = decompose(rc.trap, profile, n_samples=rc.n_samples)
    record = {
        "area_measure": dec.delta_geometric_path / 2,
        "half_sagnac": sagnac_phase(rc.trap) / 2,
        "kappa": dec.kappa,
        "scheme_class": dec.scheme_class.value,
    }
    return _human_text(record), 0


_COMMANDS = (
    ("spectrum", _cmd_point, "profile transform at one frequency, or a frequency sweep"),
    ("trajectory", _cmd_trajectory, "phase-space paths and accumulated phases as CSV"),
    ("simulate", _cmd_point, "interferometer readout (contrast, phase, spin projections)"),
    ("decompose", _cmd_point, "dynamic/geometric phase split and scheme classification"),
    ("design", _cmd_design, "design-point scheme by index, or spectrum-zero search"),
    ("sensitivity", _cmd_point, "rotation-rate resolution and Fisher-information bounds"),
    ("verify", _cmd_verify, "cross-check closed forms against truncated-basis propagation"),
    ("fig2", _cmd_fig2, "CSV data behind the six survey panels"),
)
_HANDLERS = {name: handler for name, handler, _ in _COMMANDS}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON configuration file")
    for option in _OPTIONS:
        # a list option's flag keeps its text; _build_config splits it
        shared.add_argument(f"--{option.name.replace('_', '-')}", dest=option.name,
                            type=None if option.sep else option.kind, choices=option.choices,
                            metavar=option.metavar, help=option.help)
    shared.add_argument("--sweep", metavar="KEY=START:STOP:N",
                        help="evaluate over a grid of one numeric key")

    parser = argparse.ArgumentParser(
        prog="ringsagnac",
        description="trap-guided ring interferometer models: spectra, phases, sensitivity",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, _, blurb in _COMMANDS:
        command = commands.add_parser(name, parents=[shared], help=blurb, description=blurb)
        command._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def _deliver(text: str, rc: RunConfig):
    if not rc.output:
        sys.stdout.write(text)
        return
    try:
        with open(rc.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output {rc.output!r}: {exc}") from exc


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        rc = _build_config(_given_values(args))
        if args.sweep and args.command not in _EVALUATORS:
            raise ConfigurationError(
                f"--sweep works with {', '.join(_EVALUATORS)}, not {args.command}"
            )
        text, code = _HANDLERS[args.command](rc, args)
        _deliver(text, rc)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    return code


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
