"""ringsagnac benchmark: three seeded closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload corpus|cli|oracle --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
that holds this file, and nothing is installed.

``--trace 0`` times a fixed number of ops sized from ``--seconds`` (at the
rate measured when the benchmark was added, rounded up to whole passes over
the op list, so every commit measures the same ops and the same tail
percentile) and prints the end-to-end metrics.  Times are in reference-host
seconds: each is scaled by host-speed probes taken just before it (see
``probe_s``); the unscaled values are in the ``# detail`` line.

``--trace 1`` traces the set-up, runs one fixed pass once to pay first-call
costs, then three rounds of the pass untraced and traced; it prints the
per-layer metrics of the set-up and the first traced pass, the tracing
overhead (median traced minus median untraced), and checks in a second
interpreter that the exact counts repeat.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops that
raised, exited with an unexpected code or failed their value check;
``correct`` is false when any op failed, other than an op marked as
failing when the benchmark was added, or the exact counts did not repeat.  The lines before it are ``#`` comments and one
``# detail`` JSON line with the machine, failed_frac, the tail percentile
and its op count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: on a shared 2-core host OpenBLAS's second thread spin-waits
# against any other load and a 40x40 expm then slows by up to 20x.  Set
# before numpy loads here or in any child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads as wl  # noqa: E402

SETUP_REPEATS = 3     # setup_s is the median of this many set-ups
IMPORT_REPEATS = 7    # import_s is the median of this many cold imports
OVERHEAD_ROUNDS = 3   # traced and untraced passes whose medians give the overhead
PROBE_EVERY_S = 0.5   # seconds of ops between two host-speed probes
PROBE_WINDOW = 5      # a timing is scaled by the median of this many last probes
# median probe_s() on the reference host (2-core Xeon VM) when it ran at its
# usual speed; a constant, so scaled times compare across runs and commits
REFERENCE_PROBE_S = 0.0175
STATUSES = ("ok", "error", "wrong", "known")  # see workloads.py
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("import_s", "s"),
)


def _python(*args, timeout=120) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=wl.ROOT, env=wl.child_env(),
                          capture_output=True, text=True, timeout=timeout)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _self_argv(args, *extra) -> list:
    return [str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds),
            *(["--tiny"] if args.tiny else []), *extra]


def cold_import_s(module: str) -> float:
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    return float(_python("-c", code).stdout.strip())


def import_breakdown(module: str, names) -> dict:
    """Cumulative import seconds per module from ``python -X importtime``."""
    found = {}
    for line in _python("-X", "importtime", "-c", f"import {module}").stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {name: found.get(name, 0.0) for name in names}


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = [ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")]
        info["cpu"] = models[0] if models else info["cpu"]
    except OSError:
        pass
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's BLAS so its threads can be read

    info["numpy"], info["scipy"] = numpy.__version__, scipy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    info["blas_env"] = {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                        if k in os.environ}
    head = wl.ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                                text=True).stdout.strip() or commit
    info["commit"] = commit
    return info


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    threads = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {ln.split()[-1] for ln in handle if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return threads
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads[Path(lib).name] = getattr(handle, symbol)()
                break
    return threads


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with 10 ops beyond it.

    With 10 or fewer completed ops, the slowest one; with none, (0, 0).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return (100.0, ordered[-1]) if ordered else (0.0, 0.0)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def check_origin():
    """Refuse a ringsagnac that was not imported from this checkout's src/."""
    module = sys.modules.get("ringsagnac")
    if module and not Path(module.__file__).resolve().is_relative_to(wl.SRC.resolve()):
        raise RuntimeError(f"ringsagnac imported from {module.__file__}, not {wl.SRC}")


def probe_s(_state={}) -> float:
    """Seconds for a fixed CPU probe that does not touch ringsagnac.

    Interpreter bytecode plus small dense matrix products, the two kinds
    of work the program does.  The speed of a shared host drifts by 20 to
    35 % within minutes; every timing is scaled by REFERENCE_PROBE_S over
    the median of the probes taken just before it, which halved the
    run-to-run spread of the end-to-end times on the reference host.
    """
    import numpy as np

    matrix = _state.setdefault("matrix", np.random.default_rng(0).standard_normal((40, 40)))
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(200):
        matrix @ matrix
    return time.perf_counter() - start


class Loop:
    """Closed loop over ops: latencies of ok ops, busy seconds, status tally.

    With probe_every set, a host-speed probe runs whenever that many seconds
    of ops have passed since the last one, and each latency is also kept
    scaled by the recent probes.
    """

    def __init__(self, workload, probe_every=None):
        self.workload = workload
        self.latencies, self.busy = [], 0.0
        self.scaled, self.scaled_busy = [], 0.0
        self.tally = {status: 0 for status in STATUSES}
        self.tally["messages"] = {}
        self.probe_every, self.probes, self._since_probe = probe_every, [], float("inf")
        self.scale = 1.0

    def probe(self) -> float:
        """Reference-host seconds per second, over the last few probes."""
        self.probes.append(probe_s())
        self._since_probe = 0.0
        self.scale = REFERENCE_PROBE_S / statistics.median(self.probes[-PROBE_WINDOW:])
        return self.scale

    def run(self, ops) -> "Loop":
        for op in ops:
            if self.probe_every is not None and self._since_probe >= self.probe_every:
                self.probe()
            status, message, elapsed = self.workload.run(op)
            scaled = elapsed * self.scale
            self.busy += elapsed
            self.scaled_busy += scaled
            self._since_probe += elapsed
            self.tally[status] += 1
            if status == "ok":
                self.latencies.append(elapsed)
                self.scaled.append(scaled)
            else:
                self.tally["messages"][message] = self.tally["messages"].get(message, 0) + 1
        return self


def _summary(latencies, busy, setups, imports) -> dict:
    return {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "op_tail_ms": tail(latencies)[1] * 1e3,
        "setup_s": statistics.median(setups),
        "import_s": statistics.median(imports),
    }


def timed(args, workload) -> tuple[dict, dict, dict]:
    start = time.perf_counter()
    workload.setup(args.seed, args.tiny, inproc=False)
    setups = [time.perf_counter() - start]
    check_origin()

    count = workload.op_count(args.seconds)
    ops = [workload.ops[i % len(workload.ops)] for i in range(count)]
    # the side measurements are spread through the run, so a slow spell of
    # a shared host moves them no more than it moves the ops
    loop, imports, done = Loop(workload, PROBE_EVERY_S), [], 0
    setups_scaled = [setups[0] * loop.probe()]
    imports_scaled = []
    for chunk in range(IMPORT_REPEATS):
        stop = round(count * (chunk + 1) / IMPORT_REPEATS)
        loop.run(ops[done:stop])
        done = stop
        scale = loop.probe()
        imports.append(cold_import_s(workload.import_module))
        imports_scaled.append(imports[-1] * scale)
        if chunk < SETUP_REPEATS - 1:
            setups.append(_last_json(_python(*_self_argv(args, "--setup-only")))["setup_s"])
            setups_scaled.append(setups[-1] * scale)

    values = _summary(loop.scaled, loop.scaled_busy, setups_scaled, imports_scaled)
    values["peak_rss_mb"] = workload.peak_rss_mb()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"ops": count, "tail_percentile": tail(loop.latencies)[0],
              "tail_n": len(loop.latencies),
              "unscaled": _summary(loop.latencies, loop.busy, setups, imports),
              "probe_samples_s": loop.probes,
              "setup_samples_s": setups, "import_samples_s": imports}
    return metrics, loop.tally, detail


def traced(args, workload) -> tuple[dict, dict, dict]:
    import tracing

    import ringsagnac as rs
    import ringsagnac.cli  # noqa: F401  the tracer wraps the CLI stages too

    check_origin()

    tracer = tracing.Tracer(rs)
    tracer.install()
    try:
        workload.setup(args.seed, args.tiny, inproc=True)
    finally:
        tracer.uninstall()
    ops = workload.trace_ops()

    Loop(workload).run(ops)  # pays first-call costs before either timed pass
    untraced_s, traced_s = [], []
    # counts come from the first traced pass; later rounds, each with a
    # fresh tracer, only steady the overhead, untraced and traced alternating
    for i in range(1 if args.counts_only else OVERHEAD_ROUNDS):
        start = time.perf_counter()
        loop_u = Loop(workload).run(ops)
        untraced_s.append(time.perf_counter() - start)
        if i:
            tracer = tracing.Tracer(rs)
        else:
            workload.reset_accumulators()
        tracer.install()
        start = time.perf_counter()
        try:
            loop_t = Loop(workload).run(ops)
        finally:
            traced_s.append(time.perf_counter() - start)
            tracer.uninstall()
        if not i:
            values = tracer.metrics()
            values["fock.max_gap"] = workload.max_gap
            values["cli.stdout_bytes"] = workload.stdout_bytes
            tally_u, tally_t = loop_u.tally, loop_t.tally

    counts = {name: values[name] for name in tracing.EXACT}
    if args.counts_only:
        return counts, {}, {}

    repeat = _last_json(_python(*_self_argv(args, "--trace", "1", "--counts-only"),
                                timeout=170))
    mismatched = {k: (counts[k], repeat.get(k)) for k in counts if repeat.get(k) != counts[k]}
    breakdown = [import_breakdown(workload.import_module, tracing.IMPORT_MODULES)
                 for _ in range(3)]
    for name in tracing.IMPORT_MODULES:
        values[f"cli.import_s.{name}"] = statistics.median(b[name] for b in breakdown)
    overhead = statistics.median(traced_s) - statistics.median(untraced_s)
    values["trace.overhead_s"] = overhead

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in tracing.LAYER_METRICS}
    tally = {key: tally_u[key] + tally_t[key] for key in STATUSES}
    tally["messages"] = {m: tally_u["messages"].get(m, 0) + tally_t["messages"].get(m, 0)
                         for m in {**tally_u["messages"], **tally_t["messages"]}}
    tally["counts_mismatch"] = mismatched
    detail = {"trace_ops": len(ops), "untraced_s": untraced_s, "traced_s": traced_s,
              "overhead_frac": overhead / statistics.median(untraced_s),
              "counts_repeat": not mismatched, "counts": counts}
    return metrics, tally, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh interpreter that only times set-up, or only repeats
    # the traced counts; --tiny is the smoke test's reduced input size
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (wl.SRC / "ringsagnac" / "__init__.py").is_file():
        print(f"perfbench: no ringsagnac sources under {wl.SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]()

    sys.path.insert(0, str(wl.SRC))
    if args.setup_only:
        start = time.perf_counter()
        workload.setup(args.seed, args.tiny, inproc=False)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    if args.trace:
        metrics, tally, detail = traced(args, workload)
        if args.counts_only:
            print(json.dumps(metrics))
            return 0
    else:
        metrics, tally, detail = timed(args, workload)

    attempted = sum(tally[status] for status in STATUSES)
    failed = attempted - tally["ok"]
    # an op marked fails_at_seed may fail; any other failure makes the run wrong
    correct = tally["error"] == tally["wrong"] == 0 and not tally.get("counts_mismatch")
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failed_frac=failed / attempted if attempted else None,
                  failures=tally["messages"], counts_mismatch=tally.get("counts_mismatch", {}),
                  machine=machine())
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops, {failed} failed, correct={correct}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for message, times in tally["messages"].items():
        print(f"# failure x{times}: {message}")
    print("# detail " + json.dumps(detail, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
