"""Command-line interface: exit codes, output formats, reproducibility."""

import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringsagnac
from ringsagnac import TrapConfig, cli, make_profile, readout
from ringsagnac.cli import _json_text, run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")

SAGNAC_NATURAL = 0.6283185307179586


def _lines(text: str) -> list[str]:
    return text.rstrip("\n").split("\n")


def _human_value(text: str, key: str) -> str:
    for line in _lines(text):
        if line.startswith(f"{key} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"no line for {key!r} in output")


def test_simulate_defaults(capsys):
    # bare run: natural units, flat profile, T = 2 pi
    assert run(["simulate"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["contrast"] == pytest.approx(1.0, abs=1e-12)
    assert record["phase"] == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert record["sagnac"] == pytest.approx(SAGNAC_NATURAL, rel=1e-12)
    assert abs(record["delta_alpha"]["re"]) < 1e-12
    assert abs(record["delta_alpha"]["im"]) < 1e-12


def test_simulate_human_format(capsys):
    assert run(["simulate", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert float(_human_value(out, "contrast")) == pytest.approx(1.0, abs=1e-12)
    assert float(_human_value(out, "phase")) == pytest.approx(SAGNAC_NATURAL, rel=1e-12)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "trap": {"rotation": 0.2},
        "profile": {"family": "flat", "duration": 2 * np.pi},
    }))
    assert run(["simulate", "--config", str(cfg)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sagnac"] == pytest.approx(2 * np.pi * 0.2, rel=1e-12)

    # explicit flags win over config file values
    assert run(["simulate", "--config", str(cfg), "--rotation", "0.3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sagnac"] == pytest.approx(2 * np.pi * 0.3, rel=1e-12)


def test_config_numeric_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n_samples": 32}))
    assert run(["trajectory", "--config", str(cfg)]) == 0
    assert len(_lines(capsys.readouterr().out)) == 34  # header + 33 points


def test_unknown_config_keys_rejected(tmp_path, capsys):
    for payload in ({"volume": 3}, {"trap": {"spring": 1.0}}):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        assert run(["simulate", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["simulate", "--config", str(cfg)]) == 2
    assert run(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
    # json raises a plain ValueError for an integer longer than Python will parse
    cfg.write_text('{"n_samples": 1' + "0" * 5000 + "}")
    assert run(["simulate", "--config", str(cfg)]) == 2
    capsys.readouterr()


def _assert_one_line_failure(capsys, argv, code, prefix):
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rotation", "nan"],
        ["simulate", "--rotation", "inf"],
        ["simulate", "--mass", "inf"],
        ["simulate", "--duration", "inf"],
        ["simulate", "--family", "tabulated", "--samples", "nan,1,1"],
        ["simulate", "--family", "tabulated", "--samples", "inf,1,1"],
        ["spectrum", "--omega", "nan"],
        ["spectrum", "--sweep", "omega=nan:1:3"],
        ["simulate", "--mass", "1e300", "--radius", "1e300"],
        # pi m omega0 / hbar overflows where m omega0 / hbar does not
        ["simulate", "--mass", "1e300", "--trap-frequency", "1e8", "--duration", "1e-300",
         "--family", "flat"],
        ["sensitivity", "--mass", "1e300", "--trap-frequency", "1e8", "--duration", "1e-300",
         "--family", "flat"],
        ["simulate", "--hbar", "1e-320"],
        # a finite Sagnac phase whose product with 1 - sqrt(2/pi) Re W overflows
        ["simulate", "--mass", "1e300", "--rotation", "2.45e7", "--duration", "4",
         "--family", "flat"],
        ["simulate", "--rotation", "1e308"],
        ["spectrum", "--omega", "1e308"],
        ["spectrum", "--family", "tabulated", "--samples", "0.5,1,0.5", "--omega", "1e308"],
        ["simulate", "--family", "tabulated", "--samples", "1e308,1e308"],
        ["simulate", "--family", "tabulated", "--samples", "1e-320,1e-320"],
        ["decompose", "--n-samples", "-5"],
        ["trajectory", "--n-samples", "0"],
        ["simulate", "--rotation", "-inf"],
        ["spectrum", "--omega", "-nan"],
        ["simulate", "--trap-frequency", "1e308"],
        ["simulate", "--family", "tabulated", "--samples", "0.5,1,0.5",
         "--trap-frequency", "1e308"],
        ["verify", "--steps", "20000000"],
        ["verify", "--n-max", "100000"],
        *([*command, "--n-samples", str(ringsagnac.evolution._MAX_SAMPLES + 1)]
          for command in (["trajectory"], ["fig2", "--panel", "c"], ["decompose"])),
        # 2 pi / T overflows, so the slope's kernel arguments are not finite
        *([command, "--family", family, "--duration", "1e-320"]
          for command in ("simulate", "sensitivity", "decompose")
          for family in ("flat", "sinusoidal", "cosinusoidal")),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_nonfinite_input_rejected(capsys, argv):
    # a non-finite input or derived scale, a sample count below one, or a
    # sample count or oracle size whose arrays would not fit in memory is a
    # configuration error, never NaN output with exit 0 nor a traceback
    _assert_one_line_failure(capsys, argv, 2, "configuration error:")


@pytest.mark.parametrize(
    "argv",
    [
        # omega T beyond the panel ceiling of the spectral oracle
        ["spectrum", "--omega", "1e300"],
        ["spectrum", "--sweep", "omega=1e307:1e308:2"],
        ["spectrum", "--duration", "1e300"],
        ["spectrum", "--family", "tabulated", "--samples", "0.5,1,0.5", "--duration", "1e300"],
        ["spectrum", "--family", "sinusoidal", "--duration", "1e300"],
        # pi / T overflows, so the spectral oracle's integrand is not finite
        ["spectrum", "--family", "flat", "--duration", "1e-320", "--omega", "0.7"],
        ["decompose", "--duration", "1e300"],
        ["decompose", "--family", "tabulated", "--samples", "0.5,1,0.5", "--duration", "1e300"],
        ["trajectory", "--duration", "1e300", "--format", "human"],
        ["trajectory", "--rotation", "1e200"],
        ["fig2", "--panel", "c", "--rotation", "1e300"],
        ["sensitivity", "--hbar", "1e-300"],
        ["sensitivity", "--radius", "1e150"],
        ["sensitivity", "--radius", "1e-154", "--rotation", "1.1540420280551653",
         "--family", "sinusoidal"],
        ["design", "--family", "flat", "--index", "2000000000000000"],
        # a spectral geometric part that is rounding of omega0 t, within its
        # spread of the classification threshold
        ["decompose", "--family", "sinusoidal", "--trap-frequency", "1e8"],
        ["design", "--family", "sinusoidal", "--index", "100000000"],
        # 2 pi / T overflows, so the trigonometric basis frequency is inf
        ["trajectory", "--family", "sinusoidal", "--duration", "1e-320"],
        ["fig2", "--panel", "c", "--duration", "1e-320"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_nan_quadrature_error_is_a_convergence_error(capsys, argv):
    # a NaN error estimate fails the budget instead of passing it; decompose
    # gets its spectrum exactly, and an overflowing path sweep is refused
    # instead of handing on inf or NaN; an interval with omega0 h beyond the
    # doubling ceiling is refused before its tables are built; a scheme
    # class that the routes cannot resolve is not given; a Fisher
    # information that over- or underflows is refused too
    _assert_one_line_failure(capsys, argv, 3, "convergence error:")


FAST_TRAPS = [
    (["decompose", "--trap-frequency", "1e6"], "pure-geometric"),
    (["decompose", "--family", "tabulated", "--samples", "0.3,1,0.6,0.2",
      "--trap-frequency", "1e4"], "unconventional-geometric"),
    (["design", "--family", "flat", "--index", "3000"], "pure-geometric"),
    (["design", "--family", "flat", "--index", "10000"], "pure-geometric"),
    (["design", "--family", "flat", "--index", "100000000"], "pure-geometric"),
    # its spectral dgg (3e-10) is rounding of omega0 t, below the threshold
    # by more than its spread: dynamic, so kappa is not given
    (["design", "--family", "sinusoidal", "--index", "1000000"], "dynamic"),
]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("argv, label", FAST_TRAPS,
                         ids=[" ".join(argv) for argv, _ in FAST_TRAPS])
def test_fast_traps_decompose(capsys, argv, label):
    # the end values are exact at any omega0 h, so fast traps decompose with
    # the path and spectral geometric parts agreeing to rounding, and the
    # label follows the physics: kappa = 1 for the flat designs
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    dec = record.get("decomposition", record)
    assert abs(dec["delta_geometric_path"] - dec["delta_geometric"]) <= 1e-8
    assert dec["scheme_class"] == label
    if label == "pure-geometric":
        assert dec["kappa"] == pytest.approx(1.0, abs=1e-12)
    if label == "dynamic":
        assert dec["kappa"] is None


def test_one_ulp_route_gap_decomposes(capsys):
    # at Omega = 1e150 the path and spectral dgg (6.3e150) differ in their
    # last bit: a gap far above the absolute tolerance, yet rounding at their
    # size, so the flat scheme is labelled pure-geometric with kappa 1
    assert run(["decompose", "--rotation", "1e150"]) == 0
    dec = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    gap = abs(dec["delta_geometric_path"] - dec["delta_geometric"])
    assert 0 < gap <= 4 * math.ulp(dec["delta_geometric"])
    assert dec["scheme_class"] == "pure-geometric"
    assert dec["kappa"] == pytest.approx(1.0, abs=1e-12)


def test_si_design_kappa_follows_label(capsys, rubidium):
    # 87Rb on a 100 um ring at the Earth's rate, 1 kHz trap, M = 1000: the
    # geometric part phi_S / (1 - M^2) is about -6e-9, so a kappa of about
    # -1e6 printed beside a "dynamic" label would contradict it
    config = rubidium(1e3)
    flags = [f"--{name.replace('_', '-')}={getattr(config, name)!r}"
             for name in ("mass", "hbar", "trap_frequency", "radius", "rotation")]
    assert run(["design", "--family", "cosinusoidal", "--index", "1000", *flags]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    dec = record["decomposition"]
    geometric = dec["scheme_class"] in ("pure-geometric", "unconventional-geometric")
    # so a "dynamic" label prints kappa null
    assert (dec["kappa"] is not None) == (geometric and record["spectrum_zero"])


@pytest.mark.parametrize("frequency", ["3.5e14", "7e14"])
def test_deepest_doublings_decompose(capsys, frequency):
    # omega0 h = 2.2e15 and 4.4e15 on the flat kink grid, the deepest below
    # the 2^52 ceiling, where the closed-form width table is exact to
    # rounding (the doubled Gauss rule took 51 and 52 doublings here): the
    # command still exits 0 with standard JSON
    assert run(["decompose", "--family", "flat", "--trap-frequency", frequency]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert record["scheme_class"] == "pure-geometric"


def test_deepest_tabulated_decompose_resolves(capsys):
    # omega0 h = 7.3e14 on the 4-node kink grid, eps omega0 T about 0.5 rad:
    # the tabulated spectrum takes its two end nodes' phases exactly, so the
    # spectral and path geometric parts agree, and with 60-digit mpmath of
    # the same float inputs (dgg = 0.30566847440333036727)
    argv = ["decompose", "--family", "tabulated", "--samples", "0.3,1,0.6,0.2",
            "--trap-frequency", "3.5e14"]
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    for name in ("delta_geometric", "delta_geometric_path"):
        assert record[name] == pytest.approx(0.30566847440333036727, abs=1e-8)


@pytest.mark.parametrize("argv, message", [
    # omega0 h = 6.3e15, above the 2^52 ceiling
    (["decompose", "--family", "flat", "--trap-frequency", "1e15"],
     "the width tables cannot resolve omega0 h"),
], ids=["flat-1e15"])
def test_deepest_doublings_refusals(capsys, argv, message):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"convergence error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--hbar", "1e-8"],
        ["--hbar", "1e-10"],
        ["--radius", "1e4"],
        ["--hbar", "1e-8", "--rotation", "1e-6"],
        ["--hbar", "1e-8", "--rotation", "0"],
        ["--hbar", "1e-12", "--rotation", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_large_phases_decompose(capsys, argv):
    # the path/spectral agreement check accepts rounding of the branch
    # phases, so dimensional runs with phases far above one are decomposed,
    # and the parts add up to the phase to that rounding; at rest the flat
    # sweep's branches are exact negations, so their gap is within the absolute
    # tolerance however large the branch phases are
    assert run(["decompose", *argv]) == 0
    record = json.loads(capsys.readouterr().out)
    parts = (record["delta_dynamic"], record["delta_geometric"],
             record["delta_geometric_path"], record["phase"])
    assert all(np.isfinite(value) for value in parts)
    total = record["delta_dynamic"] + record["delta_geometric_path"]
    branch_scale = max(abs(value) for value in record["gamma_geometric"])
    assert abs(total - record["phase"]) <= 1e-14 * branch_scale


@pytest.mark.parametrize("family", ["flat", "sinusoidal", "cosinusoidal", "tabulated"])
def test_huge_duration_has_an_exact_readout(capsys, family):
    # the readout takes W(omega0) without quadrature, so omega0 T = 1e300 is
    # answered, and with the library's values
    argv = ["simulate", "--family", family, "--duration", "1e300"]
    samples = None
    if family == "tabulated":
        samples = (0.5, 1.0, 0.5)
        argv += ["--samples", "0.5,1,0.5"]
    assert run(argv) == 0
    record = json.loads(capsys.readouterr().out)
    expected = readout(TrapConfig(), make_profile(family, 1e300, samples=samples))
    assert record["contrast"] == expected.contrast
    assert record["phase"] == expected.phase
    assert record["delta_alpha"] == {"re": expected.delta_alpha.real,
                                     "im": expected.delta_alpha.imag}
    assert all(np.isfinite(value) for value in (record["sigma_y"], record["sigma_z"]))


def test_tiny_hbar(capsys):
    # hbar**2 underflows to zero below hbar ~ 1e-162; the paths divide by hbar
    # twice, so they start from the vacuum and stay finite
    assert run(["trajectory", "--hbar", "1e-200", "--n-samples", "64"]) == 0
    rows = [[float(x) for x in line.split(",")]
            for line in _lines(capsys.readouterr().out)[1:]]
    assert rows[0] == [0.0] * 7
    assert np.all(np.isfinite(rows))
    # the phases are of order 1e200, and the path/spectral check scales with them
    assert run(["decompose", "--hbar", "1e-200"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(value) for value in record.values() if isinstance(value, float))


def test_subnormal_hbar_paths_are_zeros(capsys):
    # m hbar omega0 underflows, so the drive and the paths are 0; dividing
    # the complex paths by hbar must not form 1/hbar, which is inf here
    flags = ["--trap-frequency", "1e-154", "--hbar", "5e-324", "--radius", "5e-324",
             "--n-samples", "16"]
    assert run(["trajectory", *flags]) == 0
    lines = _lines(capsys.readouterr().out)
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 17
    assert all(value == 0.0 for row in rows for value in row[1:])
    assert np.all(np.isfinite(rows))
    # at hbar = 1 the start keeps the signed zeros of numpy's complex quotient
    assert run(["trajectory", "--n-samples", "16"]) == 0
    assert _lines(capsys.readouterr().out)[1] == "0,-0,0,-0,0,0,0"


@pytest.mark.parametrize(
    "payload",
    [
        {"n_samples": "abc"},
        {"n_samples": [1]},
        {"points": {}},
        {"profile": {"family": "tabulated", "samples": "1,2,3"}},
        {"profile": {"family": "tabulated", "samples": ["a", 1]}},
        {"bracket": 7},
        {"trap": {"rotation": "0.2"}},
        {"trap": {"rotation": True}},
        {"trap": {"rotation": 10**400}},
        {"panel": "ab"},
    ],
    ids=lambda payload: json.dumps(payload)[:48],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, payload):
    # config-file values take the flags' types; a value of another JSON type
    # is a configuration error, not a traceback or a silent conversion
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(payload))
    _assert_one_line_failure(capsys, ["simulate", "--config", str(cfg)], 2,
                             "configuration error:")


@pytest.mark.parametrize(
    "payload",
    [{"format": None}, {"trap": {"rotation": None}}, {"profile": None},
     {"trap": None, "profile": {"samples": None}, "omega": None}],
    ids=json.dumps,
)
def test_config_null_is_unset(tmp_path, capsys, payload):
    # null leaves a key unset at every level, so the default applies
    assert run(["simulate"]) == 0
    expected = capsys.readouterr().out
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(payload))
    assert run(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected


# one valid value per option: the command it shows in, the flag's text, and
# the same value as a config file writes it
FLAG_AND_FILE = {
    "mass": (["simulate"], "2", 2),
    "hbar": (["simulate"], "0.5", 0.5),
    "trap_frequency": (["simulate"], "1.5", 1.5),
    "radius": (["simulate"], "0.8", 0.8),
    "rotation": (["simulate"], "-1e-3", -1e-3),
    "family": (["simulate"], "sinusoidal", "sinusoidal"),
    "duration": (["simulate"], "7", 7.0),
    "samples": (["simulate", "--family", "tabulated"], "0.5,1,0.5", [0.5, 1, 0.5]),
    "omega": (["spectrum"], "0.7", 0.7),
    "n_samples": (["trajectory"], "32", 32),
    "n_max": (["verify", "--steps", "1024"], "36", 36),
    "steps": (["verify"], "1024", 1024),
    "index": (["design", "--family", "sinusoidal"], "1", 1),
    "bracket": (["design"], "5:7", [5, 7]),
    "points": (["fig2", "--panel", "a"], "5", 5),
    "panel": (["fig2", "--points", "5"], "b", "b"),
    "format": (["simulate"], "human", "human"),
    "output": (["spectrum"], "out.txt", "out.txt"),
}


@pytest.mark.parametrize("name", FLAG_AND_FILE)
def test_flag_and_config_file_agree(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)  # where --output writes
    argv, text, value = FLAG_AND_FILE[name]
    block = next(option.block for option in cli._OPTIONS if option.name == name)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({block: {name: value}} if block else {name: value}))
    results = []
    for extra in ([f"--{name.replace('_', '-')}", text], ["--config", str(cfg)]):
        code = run([*argv, *extra])
        written = Path("out.txt").read_text() if Path("out.txt").exists() else None
        results.append((code, capsys.readouterr().out, written))
        Path("out.txt").unlink(missing_ok=True)
    assert results[0][0] == 0
    assert results[0] == results[1]


def _schema_blocks(text: str) -> dict:
    schema = json.loads(re.search(r"^( *)\{\n.*?^\1\}$", text, re.S | re.M).group(0))
    return {
        None: set(schema) - {"trap", "profile"},
        "trap": set(schema["trap"]),
        "profile": set(schema["profile"]),
    }


@pytest.mark.parametrize("source", ["cli docstring", "README"])
def test_documented_schema_matches_option_table(source):
    text = cli.__doc__ if source == "cli docstring" else README.read_text()
    if source == "README":
        text = text.split("## Command line", 1)[1]
    table = {block: {o.name for o in cli._OPTIONS if o.block == block}
             for block in (None, "trap", "profile")}
    assert _schema_blocks(text) == table


def test_every_option_has_a_flag_and_file_case():
    assert list(FLAG_AND_FILE) == [option.name for option in cli._OPTIONS]


def test_json_text_is_strict_for_complex_values():
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = _json_text({"z": complex(float("nan"), float("inf"))})
    assert json.loads(text, parse_constant=reject) == {"z": {"re": "nan", "im": "inf"}}


def test_argparse_failures(capsys):
    assert run(["simulate", "--bogus"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_n_samples_help_names_what_it_sizes(capsys):
    assert run(["fig2", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("sizes trajectory and the fig2 c/f tables, while decompose and the human "
            "fig2 record only check it") in text


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--rotation", "-1e-3"],
        ["spectrum", "--omega", "-2.5E-1"],
        ["simulate", "--format", "human", "--rotation", "-.5e-2"],
    ],
    ids=" ".join,
)
def test_negative_exponent_values_are_values(capsys, argv):
    # argparse's own negative-number pattern misses these; it read them as options
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert run(joined) == 0
    expected = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_samples_need_tabulated_family(capsys):
    assert run(["spectrum", "--samples", "1,2,3"]) == 2
    assert "tabulated" in capsys.readouterr().err


def test_tabulated_spectrum(capsys):
    code = run(["spectrum", "--family", "tabulated", "--samples", "0.5,1.0,0.5",
                "--duration", "6.0", "--omega", "0"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["method"] == "quadrature"
    assert record["re"] == pytest.approx(np.sqrt(np.pi / 2), rel=1e-10)
    assert record["im"] == pytest.approx(0.0, abs=1e-12)


def test_spectrum_defaults_to_trap_frequency(capsys):
    assert run(["spectrum"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["omega"] == 1.0
    assert record["method"] == "closed-form"
    assert abs(record["re"]) < 1e-15 and abs(record["im"]) < 1e-15
    assert record["d_re_d_omega"] == pytest.approx(1.2533141373155001, rel=1e-10)


def test_trajectory_csv(capsys):
    assert run(["trajectory", "--n-samples", "64"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0] == "t,re_alpha0,im_alpha0,re_alpha1,im_alpha1,phi0,phi1"
    assert len(lines) == 66
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0] * 7
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(2 * np.pi, rel=1e-12)
    assert last[5] == pytest.approx(1.1309733552923256, abs=1e-8)
    assert last[6] == pytest.approx(0.5026548245743669, abs=1e-8)


def test_trajectory_human(capsys):
    assert run(["trajectory", "--n-samples", "64", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert float(_human_value(out, "closure_alpha0")) < 1e-8
    assert float(_human_value(out, "final_phi0")) == pytest.approx(
        1.1309733552923256, abs=1e-8
    )


def test_trajectory_resolution_exit(capsys):
    assert run(["trajectory", "--n-samples", "8"]) == 3
    assert "convergence error" in capsys.readouterr().err


def test_decompose_json(capsys):
    assert run(["decompose"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scheme_class"] == "pure-geometric"
    assert record["kappa"] == pytest.approx(1.0, abs=1e-12)
    assert record["delta_dynamic"] == pytest.approx(0.0, abs=1e-10)
    assert record["gamma_dynamic"][0] == pytest.approx(-np.pi, abs=1e-10)
    assert len(record["gamma_geometric"]) == 2


def test_decompose_kappa_absent_serializes_null(capsys):
    assert run(["decompose", "--family", "sinusoidal", "--duration",
                format(6 * np.pi, ".17g")]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["kappa"] is None
    assert record["scheme_class"] == "dynamic"


def test_decompose_human(capsys):
    assert run(["decompose", "--family", "sinusoidal", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert _human_value(out, "scheme_class") == "unconventional-geometric"
    assert float(_human_value(out, "kappa")) == pytest.approx(0.8105694691387022, rel=1e-10)


def test_human_output_prints_a_missing_value_as_null(capsys):
    # null, as in the JSON; a CSV number column keeps nan
    dynamic = ["decompose", "--family", "sinusoidal", "--duration", format(6 * np.pi, ".17g")]
    assert run([*dynamic, "--format", "human"]) == 0
    assert _human_value(capsys.readouterr().out, "kappa") == "null"
    assert run(["sensitivity", "--duration", "5", "--format", "human"]) == 0
    assert _human_value(capsys.readouterr().out, "qfi") == "null"
    sweep = ["decompose", "--family", "tabulated", "--samples", "0.3,1,0.6,0.2",
             "--sweep", "duration=4:5:2"]
    assert run([*sweep, "--format", "human"]) == 0
    header, *rows = [line.split() for line in _lines(capsys.readouterr().out)]
    assert [row[header.index("kappa")] for row in rows] == ["null", "null"]
    assert run(sweep) == 0
    header, *rows = [line.split(",") for line in _lines(capsys.readouterr().out)]
    assert [row[header.index("kappa")] for row in rows] == ["nan", "nan"]


def test_sweep_rows_ordered(capsys):
    assert run(["simulate", "--sweep", "rotation=0.1:0.3:3"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0].startswith("rotation,contrast,")
    assert len(lines) == 4
    header = lines[0].split(",")
    sagnac_col = header.index("sagnac")
    rotations, sagnacs = [], []
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        rotations.append(cells[0])
        sagnacs.append(cells[sagnac_col])
    np.testing.assert_allclose(rotations, [0.1, 0.2, 0.3], rtol=1e-12)
    np.testing.assert_allclose(sagnacs, 2 * np.pi * np.asarray(rotations), rtol=1e-12)


def test_sweep_omega(capsys):
    assert run(["spectrum", "--sweep", "omega=0:2:5"]) == 0
    lines = _lines(capsys.readouterr().out)
    header = lines[0].split(",")
    assert header[0] == "omega"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[header.index("re")]) == pytest.approx(
        np.sqrt(np.pi / 2), rel=1e-12
    )
    assert first[header.index("method")] == "closed-form"


def _flat_record(record: dict) -> dict:
    """A JSON record flattened the way sweep columns are named."""
    flat = {}
    for key, value in record.items():
        if isinstance(value, dict):  # a complex value
            flat[f"re_{key}"], flat[f"im_{key}"] = value["re"], value["im"]
        elif isinstance(value, list):
            flat.update({f"{key}_{i}": item for i, item in enumerate(value)})
        else:
            flat[key] = value
    return flat


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--family", "tabulated", "--samples", "0.2,1,0.4", "--sweep",
         "omega=0.3:1.7:3"],
        ["simulate", "--family", "sinusoidal", "--sweep", "rotation=0.05:0.5:3"],
        ["decompose", "--family", "tabulated", "--samples", "0.2,1,0.4", "--n-samples", "256",
         "--sweep", "duration=5:7:2"],
        ["sensitivity", "--sweep", "trap_frequency=0.9:1.1:3"],
    ],
    ids=["spectrum", "simulate", "decompose", "sensitivity"],
)
def test_sweep_rows_equal_single_point_runs(capsys, argv):
    assert run(argv) == 0
    header, *rows = [line.split(",") for line in _lines(capsys.readouterr().out)]
    key = argv[-1].split("=")[0]
    for row in rows:
        point = [*argv[:-2], f"--{key.replace('_', '-')}", row[0]]
        assert run(point) == 0
        record = _flat_record(json.loads(capsys.readouterr().out))
        assert set(record) - {key} == set(header[1:])
        # 17 significant digits give back the same double, so equal cells
        # mean equal values
        assert row[1:] == [cli._cell(record[name]) for name in header[1:]]


@pytest.mark.parametrize("start, stop, count", [
    (0.05, 0.5, 64), (4.0, 8.0, 32), (0.1, 3.1, 64), (0.5, -0.25, 7), (-0.0, 0.0, 1),
    (3.0, 3.0, 5), (1e308, -1e308, 3), (0.0, 5e-324, 7), (-1e-320, 1e-320, 9), (1.0, 2.0, 1),
    (0.1, 0.7, 2), (-2.5, 1e-300, 1001),
])
def test_sweep_grid_is_numpy_linspace(start, stop, count):
    # the grid is built without numpy, with linspace's own steps, signed
    # zeros and subnormal steps included
    key, points = cli._parse_sweep(f"rotation={start!r}:{stop!r}:{count}")
    assert key == "rotation"
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linspace(start, stop, count)
    assert [repr(x) for x in points] == [repr(x) for x in expected.tolist()]


def test_sweep_validation(capsys):
    assert run(["verify", "--sweep", "rotation=0.1:0.3:3"]) == 2
    assert run(["simulate", "--sweep", "rotation=1:2"]) == 2
    assert run(["simulate", "--sweep", "volume=1:2:3"]) == 2
    assert run(["simulate", "--sweep", "rotation=1:2:0"]) == 2
    capsys.readouterr()


def test_repeat_runs_byte_identical(capsys):
    assert run(["fig2", "--panel", "b", "--points", "101"]) == 0
    first = capsys.readouterr().out
    assert run(["fig2", "--panel", "b", "--points", "101"]) == 0
    assert capsys.readouterr().out == first


@pytest.fixture
def console_script(tmp_path, monkeypatch):
    """The declared `ringsagnac` console script, written as pip writes it.

    The target is read from `[project.scripts]`, so a missing or stale
    declaration fails here instead of being papered over by whatever
    executable PATH holds.  The child's PYTHONPATH starts at the directory
    the in-process package was imported from, so the script runs the code
    under test even where another copy is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    assert "ringsagnac" in scripts, "pyproject.toml declares no ringsagnac console script"
    target = scripts["ringsagnac"]
    module, _, func = target.partition(":")
    assert callable(getattr(importlib.import_module(module), func, None)), (
        f"console script target {target!r} names no importable function"
    )
    binary = tmp_path / "bin" / "ringsagnac"
    binary.parent.mkdir()
    binary.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n"
    )
    binary.chmod(0o755)
    package_root = str(Path(ringsagnac.__file__).parents[1])
    inherited = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join([package_root, inherited]) if inherited else package_root
    )
    return str(binary)


def test_installed_entry_point_byte_identical(capsys, console_script):
    binary = console_script
    argv = ["decompose", "--family", "sinusoidal", "--n-samples", "512"]
    runs = [subprocess.run([binary, *argv], capture_output=True, check=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert run(argv) == 0
    assert capsys.readouterr().out == runs[0].stdout.decode()


def test_output_file(tmp_path, capsys):
    target = tmp_path / "spectrum.json"
    assert run(["spectrum", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    record = json.loads(target.read_text())
    assert record["method"] == "closed-form"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_output_to_an_unwritable_path_is_a_configuration_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    assert run(["simulate", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot write output")
    assert "Traceback" not in captured.err


def test_closed_pipe_exits_cleanly(console_script):
    # 8193 rows are about 1.1 MB, far past a pipe buffer, so the writer
    # meets the closed pipe mid-table.  Unbuffered stdout would end in a
    # short write, not a BrokenPipeError, so the child runs buffered
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([console_script, "trajectory", "--n-samples", "8192"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"t,")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert b"Traceback" not in stderr


def test_table_text_cells():
    floats = np.array([0.0, -0.0, 5e-324, 1.7976931348623157e308, np.nan, np.inf, -np.inf, 0.1])
    mixed = [True, np.bool_(False), 3, np.int64(-2), None, "closed-form", 1 / 3, np.float64(2.5)]
    text = cli._table_text(["x", "y"], [floats, mixed], "machine")
    expected = ["x,y", *(f"{cli._cell(a)},{cli._cell(b)}" for a, b in zip(floats, mixed))]
    assert text == "\n".join(expected) + "\n"
    assert expected[1:4] == ["0,true", "-0,false", "4.9406564584124654e-324,3"]
    assert expected[5:8] == ["nan,nan", "inf,closed-form", "-inf,0.33333333333333331"]

    human = cli._table_text(["name", "value"], [["a", "bb"], np.array([1.5, -0.25])], "human")
    assert human == "name  value\na     1.5\nbb    -0.25\n"


def test_design_by_index(capsys):
    assert run(["design", "--family", "cosinusoidal", "--index", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["duration"] == pytest.approx(4 * np.pi, rel=1e-12)
    assert record["spectrum_zero"] is True
    assert record["phase_equality"] is True
    assert record["qcrb_time"] is True
    assert record["decomposition"]["kappa"] == pytest.approx(-3.0, rel=1e-10)


def test_design_by_bracket(capsys):
    assert run(["design", "--bracket", "5:7"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["family"] == "flat"
    assert record["bracket"] == [5.0, 7.0]
    assert record["duration"] == pytest.approx(2 * np.pi, abs=1e-8)
    assert record["spectrum_modulus"] < 1e-8


def test_design_errors(capsys):
    assert run(["design"]) == 2
    assert run(["design", "--family", "cosinusoidal", "--index", "1"]) == 2
    err = capsys.readouterr().err
    assert "nonzero" in err and "-0.62665" in err
    assert run(["design", "--bracket", "2:4"]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "panel,header",
    [
        ("a", "t,t_over_T,sweep_rate,sweep_rate_scaled"),
        ("d", "t,t_over_T,sweep_rate,sweep_rate_scaled"),
        ("b", "freq_scaled,omega,re_spectrum,im_spectrum"),
        ("e", "freq_scaled,omega,re_spectrum,im_spectrum"),
        ("c", "t,re_alpha0,im_alpha0,re_alpha1,im_alpha1,re_mirror1,im_mirror1"),
        ("f", "t,re_alpha0,im_alpha0,re_alpha1,im_alpha1,re_mirror1,im_mirror1"),
    ],
)
def test_fig2_headers(capsys, panel, header):
    assert run(["fig2", "--panel", panel, "--points", "21", "--n-samples", "64"]) == 0
    assert _lines(capsys.readouterr().out)[0] == header


def test_fig2_profile_panels_normalized(capsys):
    # scaled sweep rates peak at 1 in the panel units
    for panel in ("a", "d"):
        assert run(["fig2", "--panel", panel, "--points", "401"]) == 0
        lines = _lines(capsys.readouterr().out)[1:]
        scaled = [float(line.split(",")[3]) for line in lines]
        assert max(scaled) == pytest.approx(1.0, abs=1e-6)


def test_fig2_spectra_vanish_at_design_frequency(capsys):
    for panel in ("b", "e"):
        assert run(["fig2", "--panel", panel, "--points", "401"]) == 0
        lines = _lines(capsys.readouterr().out)[1:]
        at_one = [line for line in lines if float(line.split(",")[0]) == 1.0]
        assert at_one, "frequency grid must include the design point"
        cells = [float(x) for x in at_one[0].split(",")]
        assert abs(cells[2]) < 1e-14 and abs(cells[3]) < 1e-14


def test_fig2_mirror_columns(capsys):
    assert run(["fig2", "--panel", "c", "--points", "21", "--n-samples", "64"]) == 0
    for line in _lines(capsys.readouterr().out)[1:]:
        cells = [float(x) for x in line.split(",")]
        assert cells[5] == -cells[3] and cells[6] == -cells[4]


def test_fig2_area_measures(capsys):
    # unfilled-region measure between the co path and the mirrored counter
    # path: phi_S/(2 kappa) for the sinusoidal scheme, phi_S/2 for flat
    assert run(["fig2", "--panel", "c", "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert float(_human_value(out, "area_measure")) == pytest.approx(
        0.3875784585037477, abs=1e-8
    )
    assert _human_value(out, "scheme_class") == "unconventional-geometric"
    assert run(["fig2", "--panel", "f", "--format", "human"]) == 0
    out = capsys.readouterr().out
    measure = float(_human_value(out, "area_measure"))
    assert measure == pytest.approx(0.3141592653589793, abs=1e-8)
    assert measure == pytest.approx(float(_human_value(out, "half_sagnac")), abs=1e-8)


@pytest.mark.parametrize(
    ("panel", "expected"),
    [
        ("c", "area_measure = 0.387578458503748\nhalf_sagnac = 0.31415926535897931\n"
              "kappa = 0.81056946913870209\nscheme_class = unconventional-geometric\n"),
        ("f", "area_measure = 0.31415926535897948\nhalf_sagnac = 0.31415926535897931\n"
              "kappa = 0.99999999999999978\nscheme_class = pure-geometric\n"),
    ],
    ids=["c", "f"],
)
def test_fig2_human_record_has_no_sample_count(capsys, panel, expected):
    # the record reads decompose, whose end values come from the kink grid,
    # so a sample count would describe nothing; the other fields keep their
    # bytes, at any n_samples
    for n_samples in ("64", "4096"):
        assert run(["fig2", "--panel", panel, "--format", "human",
                    "--n-samples", n_samples]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "profile",
    [{"family": "flat"}, {"family": "tabulated", "samples": [0.5, 1, 0.5]}],
    ids=["family", "family-and-samples"],
)
def test_fig2_rejects_a_profile_from_flag_and_file(tmp_path, capsys, profile):
    # the panels fix the family, so a family or samples given in a config
    # file is rejected exactly as the flags are, not silently ignored
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"profile": profile}))
    flags = ["--family", profile["family"]]
    if "samples" in profile:
        flags += ["--samples", ",".join(str(v) for v in profile["samples"])]
    for extra in (flags, ["--config", str(cfg)]):
        assert run(["fig2", "--panel", "f", "--n-samples", "64", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fig2 panels fix the profile family" in captured.err


def test_fig2_validation(capsys):
    assert run(["fig2"]) == 2
    assert run(["fig2", "--panel", "c", "--family", "flat"]) == 2
    assert run(["fig2", "--panel", "a", "--points", "-3"]) == 2
    assert run(["fig2", "--panel", "a", "--points", "0"]) == 2
    capsys.readouterr()


def test_verify_passes(capsys):
    assert run(["verify", "--steps", "1024"]) == 0
    lines = _lines(capsys.readouterr().out)
    assert lines[0].split(",")[0] == "scheme"
    assert len(lines) == 4
    assert all(line.endswith(",pass") for line in lines[1:])


def test_verify_detects_coarse_propagation(capsys):
    # deliberately coarse steps push the sinusoidal row over tolerance
    assert run(["verify", "--steps", "100", "--rotation", "0.4"]) == 4
    lines = _lines(capsys.readouterr().out)
    assert any(line.startswith("sinusoidal") and line.endswith(",fail")
               for line in lines[1:])
    assert run(["verify", "--steps", "100", "--rotation", "0.4",
                "--format", "human"]) == 4
    assert "verification FAILED" in capsys.readouterr().out


def test_verify_truncation_exit(capsys):
    assert run(["verify", "--n-max", "8"]) == 3
    assert "convergence error" in capsys.readouterr().err
