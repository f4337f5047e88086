"""The three benchmark workloads: seeded inputs, one op, and its correctness gate.

Each workload is single-process and closed-loop: one client issues the
next op only after the previous one has finished and been checked.

* ``corpus``: one op is readout + sensitivity_report + decompose(2048) on
  one random tabulated profile drawn like ``tests/conftest.py``.  Spectrum
  quadrature, sample_trajectory and geometry do the work; no Fock, no
  import.
* ``cli``: one op is one cold ``python -m ringsagnac.cli`` invocation from
  a fixed mix.  Import, the sweep thread pool, serialisation and the
  design scan do the work.
* ``oracle``: one op is one number-basis oracle call at n_max 40.  The
  per-step matrix exponential does nearly all the work.

An op's status is ``ok``, ``error`` (it raised or exited with an
unexpected code), ``wrong`` (it ran but failed its value check) or
``known`` (it failed, and is marked ``fails_at_seed``: a defect the
program had when the benchmark was added).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS_PATH = Path(__file__).resolve().parent / "cli_refs.json"

N_MAX = 40
ROUTE_TOL = 1e-8      # criterion 4: spectral vs time-domain phase routes
VERIFY_TOL = 1e-4     # cli verify / criterion 6: oracle vs closed form
REPORT_RTOL = 1e-8    # criterion 8: sensitivity report relations
CLI_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for child interpreters: the checkout's own sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def random_profile(rs, rng, n_nodes=None):
    """Admissible random tabulated profile, drawn as in tests/conftest.py."""
    n_nodes = int(rng.integers(5, 13)) if n_nodes is None else int(n_nodes)
    values = rng.uniform(0.1, 1.0, size=n_nodes)
    duration = float(rng.uniform(3.0, 12.0))
    return rs.make_profile(rs.ProfileFamily.TABULATED, duration, samples=values)


class Workload:
    """Shared shape: setup() builds self.ops, run() executes and checks one."""

    name = ""
    import_module = "ringsagnac"
    rate = 1.0              # ops/s when the benchmark was added; sizes a run from --seconds
    min_ops = 20            # so a tail with 10 ops beyond it always exists
    rss_who = resource.RUSAGE_SELF

    def __init__(self):
        self.ops = []
        self.reset_accumulators()

    def reset_accumulators(self):
        self.max_gap = 0.0
        self.stdout_bytes = 0

    def op_count(self, seconds: float) -> int:
        """Ops sized from seconds, rounded up to whole passes over the op list."""
        count = max(self.min_ops, round(seconds * self.rate))
        return math.ceil(count / len(self.ops)) * len(self.ops)

    def trace_ops(self) -> list:
        return list(self.ops)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rss_who).ru_maxrss / 1024.0

    def run(self, op) -> tuple[str, str, float]:
        """Execute one op, then check it: (status, message, execution seconds)."""
        start = time.perf_counter()
        try:
            output = self.execute(op)
            elapsed = time.perf_counter() - start
            status, message = self.check(op, output)
        except Exception as exc:  # an op that raises is counted, not fatal
            elapsed = time.perf_counter() - start
            status, message = "error", f"{type(exc).__name__}: {exc}"
        if status != "ok" and getattr(op, "fails_at_seed", False):
            status = "known"
        return status, message, elapsed


# ---------------------------------------------------------------------------
# corpus


class Corpus(Workload):
    name = "corpus"
    rate = 24.0
    BATCH = 512
    TINY_BATCH = 4
    TRACE_OPS = 32
    N_SAMPLES = 2048

    def setup(self, seed: int, tiny: bool, inproc: bool = True):
        import numpy as np
        import ringsagnac as rs

        self.np, self.rs = np, rs
        self.config = rs.TrapConfig()
        rng = np.random.default_rng(seed)
        # node counts 5-12 in equal shares: an op's cost grows with its node
        # count, so an i.i.d. draw would let the seed move the median op
        nodes = rng.permutation(np.resize(np.arange(5, 13), self.BATCH))
        count = self.TINY_BATCH if tiny else self.BATCH
        self.ops = [random_profile(rs, rng, n) for n in nodes[:count]]
        for profile in self.ops[:2]:
            self.run(profile)

    def trace_ops(self) -> list:
        return self.ops[: self.TRACE_OPS]

    def execute(self, profile):
        rs, config = self.rs, self.config
        return (
            rs.readout(config, profile),
            rs.sensitivity_report(config, profile),
            rs.decompose(config, profile, n_samples=self.N_SAMPLES),
        )

    def check(self, profile, output) -> tuple[str, str]:
        result, report, dec = output
        fields = (result.contrast, result.phase, result.principal_arg, result.sagnac,
                  result.sigma_y, result.sigma_z, result.delta_alpha.real,
                  result.delta_alpha.imag, dec.delta_dynamic, dec.delta_geometric_path)
        if not all(math.isfinite(v) for v in fields):
            return "wrong", "non-finite readout or decomposition field"
        # the time-domain route: dgd + dgg(path) = phi0 - phi1 + overlap angle
        gap = abs(result.phase - (dec.delta_dynamic + dec.delta_geometric_path))
        if not gap <= ROUTE_TOL:
            return "wrong", f"spectral/time-domain phase gap {gap:.3e} > {ROUTE_TOL:.0e}"
        return check_report(report, result, self.config.rotation)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPORT_RTOL * abs(b)


def check_report(report, result, rotation: float) -> tuple[str, str]:
    """Sensitivity report against itself and against the readout it rests on.

    The phase is linear in the rotation, so its slope is phase / rotation;
    delta_omega = sqrt(|C|^-2 - 1 + sin^2 phi) / |slope sin phi|, with
    |C|^-2 - 1 = expm1(|d alpha|^2).  Criterion 8 asks rel 1e-8.
    """
    if math.isnan(report.delta_omega) or not report.delta_omega > 0:
        return "wrong", f"delta_omega {report.delta_omega!r} is not positive"
    fisher = 0.0 if math.isinf(report.delta_omega) else report.delta_omega ** -2
    if not (math.isfinite(report.signal_fisher) and _close(report.signal_fisher, fisher)):
        return "wrong", f"signal_fisher {report.signal_fisher!r} is not 1/delta_omega^2"
    if report.qfi_valid != (report.qfi is not None):
        return "wrong", "qfi present without qfi_valid, or missing with it"
    if report.saturated and not _close(report.signal_fisher, report.qfi):
        return "wrong", f"saturated, but signal_fisher {report.signal_fisher!r} != qfi"
    s = math.sin(result.phase)
    if s != 0.0:
        excess = math.expm1(abs(result.delta_alpha) ** 2)
        expected = math.sqrt(excess + s * s) / abs(result.phase / rotation * s)
        if not _close(report.delta_omega, expected):
            return "wrong", f"delta_omega {report.delta_omega!r} vs readout {expected!r}"
    return "ok", ""


# ---------------------------------------------------------------------------
# oracle


@dataclass
class OracleOp:
    label: str
    kind: str              # "coherence" | "two_component"
    profile: object
    steps: int
    check_steps: bool
    ref: tuple = ()        # closed-form (contrast, principal_arg)


class Oracle(Workload):
    name = "oracle"
    rate = 1.7
    STEPS = 1024
    TWO_COMPONENT_STEPS = 128
    N_TABULATED = 3
    DESIGN_SCHEMES = (
        ("flat", 1), ("flat", 2), ("flat", 3),
        ("sinusoidal", 0), ("sinusoidal", 1),
        ("cosinusoidal", 2), ("cosinusoidal", 3), ("cosinusoidal", 4),
    )

    def setup(self, seed: int, tiny: bool, inproc: bool = True):
        import numpy as np
        import ringsagnac as rs

        self.np, self.rs = np, rs
        self.config = rs.TrapConfig()
        rng = np.random.default_rng(seed)
        schemes = {f"{fam}-{idx}": rs.design_time(fam, self.config, idx).profile
                   for fam, idx in self.DESIGN_SCHEMES}
        ops = [OracleOp(label, "coherence", p, self.STEPS, False) for label, p in schemes.items()]
        ops += [OracleOp(f"tabulated-{k}", "coherence", random_profile(rs, rng), self.STEPS, False)
                for k in range(self.N_TABULATED)]
        ops.append(OracleOp("sinusoidal-0-check-steps", "coherence", schemes["sinusoidal-0"],
                            self.STEPS, True))
        ops.append(OracleOp("flat-1-two-component", "two_component", schemes["flat-1"],
                            self.TWO_COMPONENT_STEPS, False))
        if tiny:
            ops = [op for op in ops if op.label in ("flat-1", "flat-2", "flat-3")]
        for op in ops:
            closed = rs.readout(self.config, op.profile)
            op.ref = (closed.contrast, closed.principal_arg)
        order = rng.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        warm = next(op for op in self.ops if op.label == "flat-1")
        self.run(warm)  # the first expm pays scipy's one-time set-up
        self.reset_accumulators()

    def execute(self, op: OracleOp) -> complex:
        rs = self.rs
        if op.kind == "two_component":
            co, counter = rs.evolve_two_component(self.config, op.profile, n_max=N_MAX,
                                                  steps=op.steps)
            return complex(2 * self.np.vdot(counter, co))
        return rs.coherence_fock(self.config, op.profile, n_max=N_MAX, steps=op.steps,
                                 check_steps=op.check_steps)

    def check(self, op: OracleOp, coherence: complex, ref=None) -> tuple[str, str]:
        np = self.np
        contrast, arg = ref or op.ref
        gap = max(abs(abs(coherence) - contrast),
                  abs(float(np.angle(np.exp(1j * (np.angle(coherence) - arg))))))
        self.max_gap = max(self.max_gap, gap)
        if not gap <= VERIFY_TOL:
            return "wrong", f"{op.label}: gap to closed form {gap:.3e} > {VERIFY_TOL:.0e}"
        return "ok", ""


# ---------------------------------------------------------------------------
# cli

# tabulated profiles the seed chooses from; cli_refs.json holds each one's
# reference values
TABULATED = (
    ("0.3,0.9,0.6,1.0,0.4", "5.0"),
    ("0.8,0.2,0.7,0.5,0.9,0.3,0.6", "7.5"),
    ("0.5,1.0,0.5", "6.0"),
    ("0.2,0.4,0.9,1.0,0.7,0.3,0.2,0.6,0.8", "9.0"),
)
# palindromic, so W(omega0) exp(i omega0 T / 2) is real and |W| has true zeros;
# one lies in the bracket, near T = 7.65
SYMMETRIC = "0.4,1.0,1.0,0.4"


@dataclass(frozen=True)
class CliOp:
    key: str
    argv: tuple
    expect: int = 0        # 0: values checked against cli_refs.json; 2: rejected
    atol: float = 0.0
    rtol: float = 0.0
    stride: int = 1        # CSV rows kept in the reference: every stride-th and the last
    tabulated: bool = False
    fails_at_seed: bool = False  # a defect the program had when the benchmark was added

    def ref_key(self, variant: int) -> str:
        return f"{self.key}@{variant}" if self.tabulated else self.key

    def command(self, variant: int) -> list:
        samples, duration = TABULATED[variant]
        tab = ["--family", "tabulated", "--samples", samples, "--duration", duration]
        return [part for arg in self.argv for part in (tab if arg == "TAB" else [arg])]


# tolerances follow the matching tests: tests/test_cli.py and the acceptance
# criteria (4/5: 1e-8, 8: rel 1e-8, 6/verify: 1e-4)
MIX = (
    CliOp("simulate", ("simulate",), atol=1e-12, rtol=1e-12),
    CliOp("spectrum-tabulated", ("spectrum", "TAB"), atol=1e-10, rtol=1e-10, tabulated=True),
    CliOp("sensitivity", ("sensitivity", "--family", "sinusoidal"), rtol=1e-8),
    CliOp("decompose-tabulated", ("decompose", "TAB"), atol=1e-8, tabulated=True),
    CliOp("spectrum-sweep-omega", ("spectrum", "TAB", "--sweep", "omega=0.1:3.1:64"),
          atol=1e-10, rtol=1e-10, tabulated=True),
    CliOp("simulate-sweep-rotation", ("simulate", "--sweep", "rotation=0.05:0.5:64"),
          atol=1e-12, rtol=1e-12),
    CliOp("decompose-sweep-duration", ("decompose", "TAB", "--sweep", "duration=4:8:32"),
          atol=1e-8, tabulated=True),
    CliOp("trajectory", ("trajectory", "--n-samples", "8192"), atol=1e-8, stride=256),
    CliOp("design-bracket", ("design", "--family", "tabulated", "--samples", SYMMETRIC,
                             "--bracket", "7:8.5"), atol=1e-8),
    CliOp("design-index", ("design", "--family", "sinusoidal", "--index", "1"), atol=1e-8),
    CliOp("verify", ("verify", "--steps", "1024"), atol=VERIFY_TOL),
    CliOp("reject-sweep-key", ("simulate", "--sweep", "volume=1:2:3"), expect=2),
    CliOp("reject-cosinusoidal-1", ("design", "--family", "cosinusoidal", "--index", "1"),
          expect=2),
    CliOp("reject-samples-family", ("spectrum", "--samples", "1,2,3"), expect=2),
    # exits 0 with NaN output when the benchmark was added (ROADMAP item 5): a failed
    # op that leaves the run correct, until it is fixed
    CliOp("reject-rotation-nan", ("simulate", "--rotation", "nan"), expect=2,
          fails_at_seed=True),
)
TINY_MIX = ("simulate", "spectrum-tabulated", "reject-sweep-key", "reject-rotation-nan")


def _strict_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def parse_output(text: str, stride: int = 1):
    """Machine output as values: strict JSON, or CSV with numeric cells.

    JSON rejects bare NaN/Infinity tokens.  Non-finite CSV cells stay as
    their text, so they match only a reference holding the same text.
    """
    if text.startswith("{"):
        return json.loads(text, parse_constant=_strict_constant)
    lines = text.rstrip("\n").split("\n")
    rows = [[_cell(c) for c in line.split(",")] for line in lines[1:]]
    keep = sorted({*range(0, len(rows), stride), len(rows) - 1}) if rows else []
    return {"header": lines[0].split(","), "n_rows": len(rows),
            "rows": {str(i): rows[i] for i in keep}}


def compare(got, ref, atol: float, rtol: float, where: str = "$"):
    """First mismatch between parsed output and reference, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return f"{where}: keys differ"
        for key in ref:
            found = compare(got[key], ref[key], atol, rtol, f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{where}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            found = compare(g, r, atol, rtol, f"{where}[{i}]")
            if found:
                return found
        return None
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if (isinstance(got, numeric) and not isinstance(got, bool) and math.isfinite(got)
                and abs(got - ref) <= atol + rtol * abs(ref)):
            return None
        return f"{where}: {got!r} vs reference {ref!r}"
    return None if got == ref else f"{where}: {got!r} vs reference {ref!r}"


class Cli(Workload):
    name = "cli"
    import_module = "ringsagnac.cli"
    rate = 1.15
    # three passes: the tail op (10 beyond it) then falls among the repeated
    # sweeps, trajectory and design runs, not at the slowest of the quick
    # invocations, where one slow spell of the host decides it
    min_ops = 40
    rss_who = resource.RUSAGE_CHILDREN

    def setup(self, seed: int, tiny: bool, inproc: bool = False):
        rng = random.Random(seed)
        self.variant = rng.randrange(len(TABULATED))
        self.refs = json.loads(REFS_PATH.read_text())["values"]
        ops = [op for op in MIX if not tiny or op.key in TINY_MIX]
        rng.shuffle(ops)
        self.ops = ops
        self.inproc = inproc
        if inproc:
            import ringsagnac.cli

            self.cli = ringsagnac.cli
        self.run(MIX[0])  # warms the file cache (or the in-process import)
        self.reset_accumulators()

    def execute(self, op: CliOp) -> tuple[int, str, str]:
        argv = op.command(self.variant)
        if self.inproc:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "ringsagnac.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: CliOp, output, refs=None) -> tuple[str, str]:
        code, stdout, stderr = output
        self.stdout_bytes += len(stdout.encode())
        if "Traceback" in stderr:
            return "error", f"{op.key}: traceback"
        if code != op.expect:
            return "error", f"{op.key}: exit {code}, expected {op.expect}"
        if op.expect != 0:
            return ("wrong", f"{op.key}: rejected run wrote stdout") if stdout else ("ok", "")
        try:
            got = parse_output(stdout, op.stride)
        except ValueError as exc:
            return "wrong", f"{op.key}: unparseable output ({exc})"
        found = compare(got, (refs or self.refs)[op.ref_key(self.variant)], op.atol, op.rtol)
        if found:
            return "wrong", f"{op.key}: {found}"
        if op.key == "verify":
            column = got["header"].index("discrepancy")
            self.max_gap = max(self.max_gap, *(row[column] for row in got["rows"].values()))
        return "ok", ""


WORKLOADS = {w.name: w for w in (Corpus, Cli, Oracle)}
