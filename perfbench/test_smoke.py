"""Smoke test of the benchmark itself, on a seed held out from tuning.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs at a tiny size, traced and untraced, and must report
every metric BENCHMARK.json names, with its unit.  A deliberately wrong
reference must turn an op into a failure.
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 918273
sys.path.insert(0, str(wl.SRC))


def _bench(*args, cwd=wl.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_reported(workload, trace):
    proc = _bench(str(HERE / "run.py"), "--workload", workload, "--seed", str(HELD_OUT_SEED),
                  "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])


def test_cli_wrong_reference_fails():
    cli = wl.Cli()
    cli.setup(HELD_OUT_SEED, tiny=True, inproc=False)
    op = next(op for op in cli.ops if op.key == "simulate")
    output = cli.execute(op)
    assert cli.check(op, output)[0] == "ok"
    wrong = json.loads(json.dumps(cli.refs))
    wrong["simulate"]["phase"] += 1e-6
    assert cli.check(op, output, wrong)[0] == "wrong"


def test_oracle_wrong_reference_fails():
    oracle = wl.Oracle()
    oracle.setup(HELD_OUT_SEED, tiny=True)
    op = oracle.ops[0]
    coherence = oracle.execute(op)
    assert oracle.check(op, coherence)[0] == "ok"
    contrast, arg = op.ref
    assert oracle.check(op, coherence, ref=(contrast, arg + 1e-3))[0] == "wrong"


def test_corpus_wrong_route_fails():
    corpus = wl.Corpus()
    corpus.setup(HELD_OUT_SEED, tiny=True)
    result, report, dec = corpus.execute(corpus.ops[0])
    assert corpus.check(None, (result, report, dec))[0] == "ok"
    shifted = dataclasses.replace(result, phase=result.phase + 1e-6)
    assert corpus.check(None, (shifted, report, dec))[0] == "wrong"
    for field in ("delta_omega", "signal_fisher"):
        off = dataclasses.replace(report, **{field: getattr(report, field) * (1 + 1e-6)})
        assert corpus.check(None, (result, off, dec))[0] == "wrong"


def test_unexpected_failure_is_an_error():
    cli = wl.Cli()
    cli.setup(HELD_OUT_SEED, tiny=True, inproc=False)
    argv = ("simulate", "--rotation", "nan")  # exits 0 at the seed, where 2 is expected
    assert cli.run(wl.CliOp("nan", argv, expect=2))[0] == "error"
    assert cli.run(wl.CliOp("nan", argv, expect=2, fails_at_seed=True))[0] in ("known", "ok")
    assert cli.run(wl.CliOp("bad-command", ("no-such-command",)))[0] == "error"


def test_tracer_skips_removed_names(monkeypatch):
    import ringsagnac as rs
    import ringsagnac.cli  # noqa: F401

    for module, name in (("fock", "expm"), ("fock", "_propagate"),
                         ("design", "_profile_for_duration"), ("cli", "ThreadPoolExecutor")):
        monkeypatch.delattr(importlib.import_module(f"ringsagnac.{module}"), name)
    tracer = tracing.Tracer(rs)
    tracer.install()
    try:
        rs.readout(rs.TrapConfig(), rs.make_profile(rs.ProfileFamily.FLAT, 2 * math.pi))
    finally:
        tracer.uninstall()
    found = tracer.metrics()
    assert found["fock.expm_calls"] == found["design.objective_evals"] == 0
    assert found["spectrum.quad_calls"] > 0


def test_strict_parse():
    with pytest.raises(ValueError):
        wl.parse_output('{"phase": NaN}\n')
    got = wl.parse_output('{"phase": "nan"}\n')
    assert wl.compare(got, {"phase": 0.6}, 1e-12, 1e-12) is not None
    table = wl.parse_output("a,b\n1,nan\n")
    assert wl.compare(table, {"header": ["a", "b"], "n_rows": 1, "rows": {"0": [1.0, 2.0]}},
                      1e-12, 0) is not None


def test_refuses_without_sources(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(*SPEC["command"], "--workload", "corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
