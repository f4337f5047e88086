"""Command-line interface: exit codes, output formats, reproducibility."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringsagnac
from ringsagnac.cli import _json_text, run

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
        ["simulate", "--hbar", "1e-320"],
        ["simulate", "--rotation", "1e308"],
        ["spectrum", "--omega", "1e308"],
        ["simulate", "--family", "tabulated", "--samples", "1e308,1e308"],
        ["simulate", "--family", "tabulated", "--samples", "1e-320,1e-320"],
        ["decompose", "--n-samples", "-5"],
        ["trajectory", "--n-samples", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_nonfinite_input_rejected(capsys, argv):
    # a non-finite input or derived scale, or a sample count below one, is a
    # configuration error, never NaN output with exit 0
    _assert_one_line_failure(capsys, argv, 2, "configuration error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--omega", "1e300"],
        ["spectrum", "--family", "tabulated", "--samples", "0.5,1,0.5", "--omega", "1e308"],
        ["spectrum", "--sweep", "omega=1e307:1e308:2"],
        ["simulate", "--trap-frequency", "1e308"],
        ["simulate", "--duration", "1e300"],
        ["decompose", "--duration", "1e300"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_nan_quadrature_error_is_a_convergence_error(capsys, argv):
    # a NaN error estimate fails the budget instead of passing it
    _assert_one_line_failure(capsys, argv, 3, "convergence error:")


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
