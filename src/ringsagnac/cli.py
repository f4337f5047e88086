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
file values, and unknown keys are rejected.  The JSON schema mirrors the
flags::

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
configuration is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .design import design_time, find_zero_time
from .errors import ConfigurationError, ConvergenceError
from .fock import coherence_fock
from .geometry import decompose
from .interferometer import readout, sagnac_phase
from .model import (
    Branch,
    ProfileFamily,
    SweepProfile,
    TrapConfig,
    eval_profile,
    make_profile,
)
from .evolution import sample_trajectory
from .sensitivity import sensitivity_report
from .spectrum import spectrum_closed_form, spectrum_derivative, spectrum_numeric

_TRAP_KEYS = ("mass", "hbar", "trap_frequency", "radius", "rotation")
_PROFILE_KEYS = ("family", "duration", "samples")
_TOP_KEYS = (
    "trap",
    "profile",
    "omega",
    "n_samples",
    "n_max",
    "steps",
    "index",
    "bracket",
    "points",
    "panel",
    "format",
    "output",
)
_SWEEPABLE = ("mass", "hbar", "trap_frequency", "radius", "rotation", "duration", "omega")
_VERIFY_TOL = 1e-4
_MAX_WORKERS = 8
# argparse takes a dash-led token for an option unless it matches its own
# negative-number pattern (-1, -1.5), so `--rotation -1e-3` lost its value;
# here a dash followed by a digit, or by a dot and a digit, is a value
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved settings for one invocation."""

    trap: TrapConfig
    profile: SweepProfile
    omega: float | None
    n_samples: int
    n_max: int
    steps: int
    index: int | None
    bracket: tuple[float, float] | None
    points: int
    panel: str | None
    fmt: str
    output: str | None


def _parse_samples(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"bad samples list {text!r}: {exc}") from exc


def _parse_bracket(value) -> tuple[float, float]:
    if isinstance(value, str):
        parts = value.split(":")
    else:
        parts = list(value)
    if len(parts) != 2:
        raise ConfigurationError(f"bracket needs exactly two endpoints, got {value!r}")
    try:
        return float(parts[0]), float(parts[1])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad bracket {value!r}: {exc}") from exc


def _reject_unknown(mapping: dict, allowed, where: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigurationError(f"unknown key {key!r} in {where}")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a JSON object")
    _reject_unknown(data, _TOP_KEYS, "config file")
    for block, keys in (("trap", _TRAP_KEYS), ("profile", _PROFILE_KEYS)):
        if block in data:
            if not isinstance(data[block], dict):
                raise ConfigurationError(f"config key {block!r} must be an object")
            _reject_unknown(data[block], keys, f"config {block!r} block")
    return data


def _coerce_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc


def _coerce_int(value, name: str) -> int:
    if isinstance(value, bool) or (not isinstance(value, int) and not float(value).is_integer()):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _build_config(args) -> RunConfig:
    data = _load_config_file(args.config) if args.config else {}
    trap_block = dict(data.get("trap", {}))
    profile_block = dict(data.get("profile", {}))

    for key in _TRAP_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            trap_block[key] = flag
    trap_kwargs = {k: _coerce_float(v, k) for k, v in trap_block.items()}
    trap = TrapConfig(**trap_kwargs)

    if args.family is not None:
        profile_block["family"] = args.family
    if args.duration is not None:
        profile_block["duration"] = args.duration
    if args.samples is not None:
        profile_block["samples"] = _parse_samples(args.samples)
    family_name = profile_block.get("family", "flat")
    try:
        family = ProfileFamily(family_name)
    except ValueError as exc:
        raise ConfigurationError(f"unknown profile family {family_name!r}") from exc
    duration = _coerce_float(profile_block.get("duration", 2 * math.pi), "duration")
    samples = profile_block.get("samples")
    if samples is not None and family is not ProfileFamily.TABULATED:
        raise ConfigurationError("samples are only meaningful for the tabulated family")
    profile = make_profile(family, duration, samples=samples)

    bracket = data.get("bracket")
    if args.bracket is not None:
        bracket = args.bracket
    if bracket is not None:
        bracket = _parse_bracket(bracket)

    def pick(name, default, coerce):
        flag = getattr(args, name)
        if flag is not None:
            return coerce(flag, name)
        if name in data and data[name] is not None:
            return coerce(data[name], name)
        return default

    fmt = pick("format", "machine", lambda v, _: str(v))
    if fmt not in ("machine", "human"):
        raise ConfigurationError(f"format must be 'machine' or 'human', got {fmt!r}")
    panel = pick("panel", None, lambda v, _: str(v))
    if panel is not None and panel not in "abcdef":
        raise ConfigurationError(f"panel must be one of a-f, got {panel!r}")
    index = pick("index", None, _coerce_int)
    omega = pick("omega", None, _coerce_float)
    if omega is not None and not math.isfinite(omega):
        raise ConfigurationError(f"omega must be finite, got {omega}")
    points = pick("points", 401, _coerce_int)
    if points < 1:
        raise ConfigurationError(f"points must be at least 1, got {points}")

    return RunConfig(
        trap=trap,
        profile=profile,
        omega=omega,
        n_samples=pick("n_samples", 4096, _coerce_int),
        n_max=pick("n_max", 40, _coerce_int),
        steps=pick("steps", 4096, _coerce_int),
        index=index,
        bracket=bracket,
        points=points,
        panel=panel,
        fmt=fmt,
        output=pick("output", None, lambda v, _: str(v)),
    )


# ---------------------------------------------------------------------------
# output helpers

def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(item) for item in row])
    return buffer.getvalue()


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": _jsonable(value.real), "im": _jsonable(value.imag)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
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
            joined = ", ".join(_cell(v) for v in value)
            lines.append(f"{label} = [{joined}]")
        else:
            lines.append(f"{label} = {_cell(value)}")
    return lines


def _human_text(record: dict) -> str:
    return "\n".join(_human_lines(record)) + "\n"


def _record_text(record: dict, fmt: str) -> str:
    return _json_text(record) if fmt == "machine" else _human_text(record)


def _table_text(header, rows, fmt: str) -> str:
    if fmt == "machine":
        return _csv_text(header, rows)
    cells = [[_cell(item) for item in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(header)]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# single-point evaluators (shared by plain runs and sweeps)

def _resolved_omega(rc: RunConfig) -> float:
    return rc.trap.trap_frequency if rc.omega is None else rc.omega


def _eval_spectrum(rc: RunConfig) -> dict:
    omega = _resolved_omega(rc)
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
    result = readout(rc.trap, rc.profile)
    return {
        "contrast": result.contrast,
        "delta_alpha": result.delta_alpha,
        "phase": result.phase,
        "principal_arg": result.principal_arg,
        "sagnac": result.sagnac,
        "sigma_y": result.sigma_y,
        "sigma_z": result.sigma_z,
    }


def _decomposition_record(dec) -> dict:
    return {
        "phase": dec.phase,
        "delta_dynamic": dec.delta_dynamic,
        "delta_geometric": dec.delta_geometric,
        "delta_geometric_path": dec.delta_geometric_path,
        "xi": dec.xi,
        "xi0": dec.xi0,
        "kappa": dec.kappa,
        "scheme_class": dec.scheme_class.value,
        "gamma_dynamic": list(dec.gamma_dynamic),
        "gamma_geometric": list(dec.gamma_geometric),
        "residual_angle": dec.residual_angle,
    }


def _eval_decompose(rc: RunConfig) -> dict:
    return _decomposition_record(decompose(rc.trap, rc.profile, n_samples=rc.n_samples))


def _eval_sensitivity(rc: RunConfig) -> dict:
    report = sensitivity_report(rc.trap, rc.profile)
    return {
        "delta_omega": report.delta_omega,
        "signal_fisher": report.signal_fisher,
        "qfi": report.qfi,
        "qfi_valid": report.qfi_valid,
        "saturated": report.saturated,
        "limit_evaluated": report.limit_evaluated,
    }


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
    return key, np.linspace(start, stop, count)


def _with_value(rc: RunConfig, key: str, value: float) -> RunConfig:
    if key in _TRAP_KEYS:
        return dataclasses.replace(rc, trap=dataclasses.replace(rc.trap, **{key: value}))
    if key == "duration":
        profile = make_profile(rc.profile.family, value, samples=rc.profile.samples)
        return dataclasses.replace(rc, profile=profile)
    return dataclasses.replace(rc, omega=value)


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

    def point(value: float) -> dict:
        return _flatten(evaluator(_with_value(rc, key, float(value))))

    workers = min(_MAX_WORKERS, len(values))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(pool.map(point, values))  # map() preserves sweep order

    header = [key] + [name for name in records[0] if name != key]
    rows = [[value] + [record[name] for name in header[1:]]
            for value, record in zip(values, records)]
    return _table_text(header, rows, fmt)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_point(rc: RunConfig, args) -> tuple[str, int]:
    if args.sweep:
        return _run_sweep(rc, args.command, args.sweep, rc.fmt), 0
    return _record_text(_EVALUATORS[args.command](rc), rc.fmt), 0


def _trajectory_rows(rc: RunConfig):
    co = sample_trajectory(rc.trap, rc.profile, Branch.CO, n_samples=rc.n_samples)
    counter = sample_trajectory(rc.trap, rc.profile, Branch.COUNTER, n_samples=rc.n_samples)
    rows = []
    for i, t in enumerate(co.times):
        rows.append([
            float(t),
            co.alphas[i].real, co.alphas[i].imag,
            counter.alphas[i].real, counter.alphas[i].imag,
            float(co.phases[i]), float(counter.phases[i]),
        ])
    return co, counter, rows


def _cmd_trajectory(rc: RunConfig, args) -> tuple[str, int]:
    co, counter, rows = _trajectory_rows(rc)
    header = ["t", "re_alpha0", "im_alpha0", "re_alpha1", "im_alpha1", "phi0", "phi1"]
    if rc.fmt == "machine":
        return _csv_text(header, rows), 0
    record = {
        "samples": len(rows),
        "duration": rc.profile.duration,
        "closure_alpha0": abs(co.final_alpha),
        "closure_alpha1": abs(counter.final_alpha),
        "final_phi0": co.final_phase,
        "final_phi1": counter.final_phase,
    }
    return _human_text(record), 0


def _cmd_design(rc: RunConfig, args) -> tuple[str, int]:
    family = rc.profile.family
    if rc.bracket is not None:
        shape = rc.profile if family is ProfileFamily.TABULATED else family
        zero_time = find_zero_time(shape, rc.trap, rc.bracket)
        profile = make_profile(family, zero_time, samples=rc.profile.samples)
        modulus = abs(spectrum_numeric(profile, rc.trap.trap_frequency).value)
        record = {
            "family": family.value,
            "bracket": list(rc.bracket),
            "duration": zero_time,
            "spectrum_modulus": modulus,
        }
        return _record_text(record, rc.fmt), 0
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
        "decomposition": _decomposition_record(scheme.decomposition),
    }
    return _record_text(record, rc.fmt), 0


_VERIFY_SCHEMES = (
    ("flat-K1", ProfileFamily.FLAT, 1),
    ("sinusoidal-L0", ProfileFamily.SINUSOIDAL, 0),
    ("cosinusoidal-M2", ProfileFamily.COSINUSOIDAL, 2),
)


def _wrap_angle(value: float) -> float:
    return (value + np.pi) % (2 * np.pi) - np.pi


def _cmd_verify(rc: RunConfig, args) -> tuple[str, int]:
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
            abs(_wrap_angle(arg_fock - closed.principal_arg)),
        )
        ok = discrepancy <= _VERIFY_TOL
        all_pass = all_pass and ok
        rows.append([label, scheme.duration, closed.contrast, abs(coherence),
                     closed.principal_arg, arg_fock, discrepancy,
                     "pass" if ok else "fail"])
    text = _table_text(header, rows, rc.fmt)
    if rc.fmt == "human":
        verdict = "all schemes verified" if all_pass else "verification FAILED"
        text += f"{verdict} (tolerance {_VERIFY_TOL:g})\n"
    return text, 0 if all_pass else 4


def _panel_family(panel: str) -> ProfileFamily:
    return ProfileFamily.SINUSOIDAL if panel in "abc" else ProfileFamily.FLAT


def _fig2_profile_rows(profile: SweepProfile, points: int, scale: float):
    times = np.linspace(0.0, profile.duration, points)
    rates = eval_profile(profile, times)
    return [[float(t), float(t / profile.duration), float(r), float(r * scale)]
            for t, r in zip(times, rates)]


def _fig2_spectrum_rows(profile: SweepProfile, points: int):
    base = 2 * np.pi / profile.duration
    rows = []
    for scaled in np.linspace(0.0, 4.0, points):
        omega = scaled * base
        value = spectrum_closed_form(profile.family, profile.duration, omega).value
        rows.append([float(scaled), float(omega), value.real, value.imag])
    return rows


def _fig2_path_rows(rc: RunConfig, profile: SweepProfile):
    co = sample_trajectory(rc.trap, profile, Branch.CO, n_samples=rc.n_samples)
    counter = sample_trajectory(rc.trap, profile, Branch.COUNTER, n_samples=rc.n_samples)
    rows = []
    for i, t in enumerate(co.times):
        a1 = counter.alphas[i]
        rows.append([
            float(t),
            co.alphas[i].real, co.alphas[i].imag,
            a1.real, a1.imag,
            -a1.real, -a1.imag,
        ])
    return rows


def _cmd_fig2(rc: RunConfig, args) -> tuple[str, int]:
    if rc.panel is None:
        raise ConfigurationError("fig2 needs --panel (one of a-f)")
    if args.family is not None:
        raise ConfigurationError("fig2 panels fix the profile family; drop --family")
    family = _panel_family(rc.panel)
    profile = make_profile(family, rc.profile.duration)
    T = profile.duration

    if rc.panel in ("a", "d"):
        # panel units: sinusoidal rate in pi^2/(2T), flat rate in pi/T
        scale = 2 * T / np.pi**2 if rc.panel == "a" else T / np.pi
        header = ["t", "t_over_T", "sweep_rate", "sweep_rate_scaled"]
        rows = _fig2_profile_rows(profile, rc.points, scale)
        return _table_text(header, rows, rc.fmt), 0
    if rc.panel in ("b", "e"):
        # frequency axis in units of 2 pi / T
        header = ["freq_scaled", "omega", "re_spectrum", "im_spectrum"]
        rows = _fig2_spectrum_rows(profile, rc.points)
        return _table_text(header, rows, rc.fmt), 0

    rows = _fig2_path_rows(rc, profile)
    header = ["t", "re_alpha0", "im_alpha0", "re_alpha1", "im_alpha1",
              "re_mirror1", "im_mirror1"]
    if rc.fmt == "machine":
        return _csv_text(header, rows), 0
    dec = decompose(rc.trap, profile, n_samples=rc.n_samples)
    sagnac = sagnac_phase(rc.trap)
    record = {
        "samples": len(rows),
        "area_measure": dec.delta_geometric_path / 2,
        "half_sagnac": sagnac / 2,
        "kappa": dec.kappa,
        "scheme_class": dec.scheme_class.value,
    }
    return _human_text(record), 0


_HANDLERS = {
    "spectrum": _cmd_point,
    "trajectory": _cmd_trajectory,
    "simulate": _cmd_point,
    "decompose": _cmd_point,
    "design": _cmd_design,
    "sensitivity": _cmd_point,
    "verify": _cmd_verify,
    "fig2": _cmd_fig2,
}

_SUBCOMMAND_HELP = {
    "spectrum": "profile transform at one frequency, or a frequency sweep",
    "trajectory": "phase-space paths and accumulated phases as CSV",
    "simulate": "interferometer readout (contrast, phase, spin projections)",
    "decompose": "dynamic/geometric phase split and scheme classification",
    "design": "design-point scheme by index, or spectrum-zero search",
    "sensitivity": "rotation-rate resolution and Fisher-information bounds",
    "verify": "cross-check closed forms against truncated-basis propagation",
    "fig2": "CSV data behind the six survey panels",
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON configuration file")
    shared.add_argument("--mass", type=float)
    shared.add_argument("--hbar", type=float)
    shared.add_argument("--trap-frequency", dest="trap_frequency", type=float)
    shared.add_argument("--radius", type=float)
    shared.add_argument("--rotation", type=float)
    shared.add_argument("--family", choices=[f.value for f in ProfileFamily])
    shared.add_argument("--duration", type=float)
    shared.add_argument("--samples", metavar="V1,V2,...",
                        help="tabulated sweep rates, comma separated")
    shared.add_argument("--omega", type=float, help="evaluation frequency (spectrum)")
    shared.add_argument("--n-samples", dest="n_samples", type=int,
                        help="path sample count for trajectory-based commands")
    shared.add_argument("--n-max", dest="n_max", type=int, help="basis truncation (verify)")
    shared.add_argument("--steps", type=int, help="propagation steps (verify)")
    shared.add_argument("--index", type=int, help="scheme order (design)")
    shared.add_argument("--bracket", metavar="LO:HI", help="search interval (design)")
    shared.add_argument("--points", type=int, help="grid size for fig2 panels a/b/d/e")
    shared.add_argument("--panel", choices=list("abcdef"), help="fig2 panel")
    shared.add_argument("--format", choices=["machine", "human"])
    shared.add_argument("--output", metavar="PATH", help="write result here instead of stdout")
    shared.add_argument("--sweep", metavar="KEY=START:STOP:N",
                        help="evaluate over a grid of one numeric key")

    parser = argparse.ArgumentParser(
        prog="ringsagnac",
        description="trap-guided ring interferometer models: spectra, phases, sensitivity",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, blurb in _SUBCOMMAND_HELP.items():
        command = commands.add_parser(name, parents=[shared], help=blurb, description=blurb)
        command._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def _deliver(text: str, rc: RunConfig):
    if rc.output:
        with open(rc.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        rc = _build_config(args)
        if args.sweep and args.command not in _EVALUATORS:
            raise ConfigurationError(
                f"--sweep works with {', '.join(_EVALUATORS)}, not {args.command}"
            )
        text, code = _HANDLERS[args.command](rc, args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    _deliver(text, rc)
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
