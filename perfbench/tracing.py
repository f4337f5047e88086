"""Span and count recorder installed around ringsagnac from the outside.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds module
attributes to recording wrappers and ``Tracer.uninstall`` puts the
originals back.  Two kinds of names are wrapped:

* every public function of a layer module (its ``__all__``), in the
  defining module and in every module that imported the binding, so
  ``geometry.spectrum_numeric`` and ``sensitivity.spectrum_numeric`` both
  record a ``spectrum.spectrum_numeric`` span;
* names a module looks up at call time (``spectrum.quad``,
  ``spectrum.eval_profile``, ``evolution.lambda_drive``, ``fock.expm``)
  and the private CLI stages, so per-layer counts are taken where the
  work happens.  A name the program no longer has is skipped, and the
  metrics it feeds read 0: a layer that was removed does no work.

Each span records (id, name, start, end, parent, thread).  Spans are kept
in memory and reduced to per-layer metrics by ``Tracer.metrics``.  Work
submitted to the CLI sweep pool is attached to the span that submitted
it, so pool-thread spans nest under the enclosing sweep span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

# layers whose public functions get spans; model is counted, not spanned,
# because eval_profile and lambda_drive sit inside every quadrature loop
SPAN_MODULES = ("spectrum", "evolution", "fock", "interferometer", "geometry", "design",
                "sensitivity")
ALL_MODULES = ("model", *SPAN_MODULES, "cli")
SPECTRUM_CALLS = ("spectrum_numeric", "spectrum_derivative", "spectrum_closed_form")
SERIALIZERS = ("_record_text", "_table_text", "_csv_text", "_human_text", "_deliver")
IMPORT_MODULES = ("numpy", "scipy.integrate", "scipy.linalg", "scipy.optimize", "ringsagnac")

# (name, unit, better); counts listed in EXACT must repeat between traced runs
LAYER_METRICS = (
    ("spectrum.self_s", "s", "lower"),
    ("spectrum.quad_calls", "count", "lower"),
    ("spectrum.integrand_evals", "count", "lower"),
    ("spectrum.distinct_ratio", "ratio", "higher"),
    ("evolution.self_s", "s", "lower"),
    ("evolution.samples", "count", "lower"),
    ("evolution.integrand_evals", "count", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("interferometer.self_s", "s", "lower"),
    ("sensitivity.self_s", "s", "lower"),
    ("design.self_s", "s", "lower"),
    ("design.objective_evals", "count", "lower"),
    ("fock.self_s", "s", "lower"),
    ("fock.expm_calls", "count", "lower"),
    ("fock.expm_s", "s", "lower"),
    ("fock.steps", "count", "lower"),
    ("fock.max_gap", "1", "lower"),
    ("model.profiles_built", "count", "lower"),
    *((f"cli.import_s.{name}", "s", "lower") for name in IMPORT_MODULES),
    ("cli.parse_s", "s", "lower"),
    ("cli.compute_s", "s", "lower"),
    ("cli.serialize_s", "s", "lower"),
    ("cli.sweep_points", "count", "lower"),
    ("cli.pool_threads", "count", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
EXACT = (
    "spectrum.quad_calls",
    "spectrum.integrand_evals",
    "spectrum.distinct_ratio",
    "evolution.samples",
    "evolution.integrand_evals",
    "design.objective_evals",
    "fock.expm_calls",
    "fock.steps",
    "model.profiles_built",
    "cli.sweep_points",
    "cli.pool_threads",
    "cli.stdout_bytes",
)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _profile_key(profile, omega) -> tuple:
    return (profile.family.value, profile.duration, profile.samples, float(omega))


def _covered(intervals, start, end) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Records spans and counts while installed; reduced by metrics()."""

    def __init__(self, rs):
        self.rs = rs
        self.modules = {name: importlib.import_module(f"ringsagnac.{name}")
                        for name in ALL_MODULES}
        self._patches = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.spans = []
        self.counts = defaultdict(int)
        self.spectrum_keys = set()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount=1):
        with self._lock:
            self.counts[key] += amount

    def span(self, name: str, fn, before=None, after=None):
        """Wrapper that records a span; before/after see the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(result)
            return result

        return traced

    def counter(self, fn, on_call):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            on_call(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def executor_class(self, base):
        """A ThreadPoolExecutor class that parents pool-thread spans to the submitter."""
        tracer = self

        class TracedExecutor(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.add("cli.pool_threads", self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def attached(*a, **k):
                    local = tracer._stack()
                    local.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        local.pop()

                return super().submit(attached, *args, **kwargs)

        return TracedExecutor

    # -- installation -----------------------------------------------------

    def _set(self, owner, name, value):
        if isinstance(owner, dict):
            self._patches.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)

    def _wrap(self, owner, name, make):
        """Rebind owner.name to make(original), unless the program has no such name."""
        original = owner.get(name) if isinstance(owner, dict) else getattr(owner, name, None)
        if original is not None:
            self._set(owner, name, make(original))

    def install(self):
        mods = self.modules
        spectrum, fock, design, cli = mods["spectrum"], mods["fock"], mods["design"], mods["cli"]
        wrappers = {}

        def note_spectrum(fn):
            def before(args, kwargs):
                a = _bound(fn, args, kwargs)
                if fn.__name__ == "spectrum_closed_form":
                    family = self.rs.ProfileFamily(a["family"]).value
                    key = (family, float(a["duration"]), None, float(a["omega"]))
                else:
                    key = _profile_key(a["profile"], a["omega"])
                with self._lock:
                    self.counts["spectrum.calls"] += 1
                    self.spectrum_keys.add(key)
            return before

        def note_args(key, arg, fn):
            def before(args, kwargs):
                self.add(key, int(_bound(fn, args, kwargs)[arg]))
            return before

        def note_steps(fn):
            # steps propagated: check_steps repeats the run at half the count
            def before(args, kwargs):
                a = _bound(fn, args, kwargs)
                steps = int(a["steps"])
                self.add("fock.steps", steps + (steps // 2 if a.get("check_steps") else 0))
            return before

        for mod_name in SPAN_MODULES:
            module = mods[mod_name]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                before = None
                if mod_name == "spectrum" and name in SPECTRUM_CALLS:
                    before = note_spectrum(fn)
                elif mod_name == "evolution" and name == "sample_trajectory":
                    before = note_args("evolution.samples", "n_samples", fn)
                elif mod_name == "fock" and name in ("evolve_fock", "evolve_two_component"):
                    before = note_steps(fn)
                wrappers[id(fn)] = self.span(f"{mod_name}.{name}", fn, before)

        model = mods["model"]
        for name in ("make_profile", "zero_profile"):
            fn = getattr(model, name, None)
            if fn is None:
                continue
            wrappers[id(fn)] = self.counter(
                fn, lambda args, kwargs: self.add("model.profiles_built"))

        # rebind every module's copy of a wrapped function, package included
        for module in (self.rs, *mods.values()):
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._set(module, name, wrappers[id(value)])

        # names looked up at call time, counted where the work happens
        self._wrap(spectrum, "quad", lambda fn: self.span(
            "spectrum.quad", fn, before=lambda args, kwargs: self.add("spectrum.quad_calls")))
        self._wrap(spectrum, "eval_profile", lambda fn: self.counter(
            fn, lambda args, kwargs: self.add("spectrum.integrand_evals", np.size(args[1]))))
        self._wrap(mods["evolution"], "lambda_drive", lambda fn: self.counter(
            fn, lambda args, kwargs: self.add("evolution.integrand_evals", np.size(args[3]))))
        self._wrap(fock, "expm", lambda fn: self.span(
            "fock.expm", fn, before=lambda args, kwargs: self.add("fock.expm_calls")))
        self._wrap(design, "_profile_for_duration", lambda fn: self.counter(
            fn, lambda args, kwargs: self.add("design.objective_evals")))

        # CLI stages
        self._wrap(cli, "run", lambda fn: self.span("cli.run", fn))
        self._wrap(cli, "_run_sweep", lambda fn: self.span("cli.sweep", fn))
        self._wrap(cli, "_parse_sweep", lambda fn: self.span(
            "cli.parse_sweep", fn,
            after=lambda result: self.add("cli.sweep_points", len(result[1]))))
        for name in SERIALIZERS:
            self._wrap(cli, name, lambda fn, name=name: self.span(f"cli.serialize.{name}", fn))
        for command in list(getattr(cli, "_HANDLERS", {})):
            self._wrap(cli._HANDLERS, command,
                       lambda fn, command=command: self.span(f"cli.handler.{command}", fn))
        self._wrap(cli, "ThreadPoolExecutor", self.executor_class)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer self time and counts over everything recorded so far."""
        children = defaultdict(list)
        by_id = {}
        for sid, name, start, end, parent, _ in self.spans:
            by_id[sid] = name
            children[parent].append((start, end))
        self_time = defaultdict(float)
        total = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            own = end - start - _covered(children.get(sid, ()), start, end)
            self_time[name.split(".")[0]] += own
            total[name] += end - start

        serialize = sum(
            end - start for sid, name, start, end, parent, _ in self.spans
            if name.startswith("cli.serialize.")
            and not by_id.get(parent, "").startswith("cli.serialize.")
        )
        deliver = total["cli.serialize._deliver"]
        handlers = sum(v for k, v in total.items() if k.startswith("cli.handler."))
        calls = self.counts["spectrum.calls"]
        out = {f"{layer}.self_s": self_time[layer] for layer in
               ("spectrum", "evolution", "geometry", "interferometer", "sensitivity",
                "design", "fock")}
        out.update({
            "spectrum.quad_calls": self.counts["spectrum.quad_calls"],
            "spectrum.integrand_evals": self.counts["spectrum.integrand_evals"],
            "spectrum.distinct_ratio": len(self.spectrum_keys) / calls if calls else 1.0,
            "evolution.samples": self.counts["evolution.samples"],
            "evolution.integrand_evals": self.counts["evolution.integrand_evals"],
            "design.objective_evals": self.counts["design.objective_evals"],
            "fock.expm_calls": self.counts["fock.expm_calls"],
            "fock.expm_s": total["fock.expm"],
            "fock.steps": self.counts["fock.steps"],
            "model.profiles_built": self.counts["model.profiles_built"],
            "cli.parse_s": total["cli.run"] - handlers - deliver,
            "cli.compute_s": handlers - (serialize - deliver),
            "cli.serialize_s": serialize,
            "cli.sweep_points": self.counts["cli.sweep_points"],
            "cli.pool_threads": self.counts["cli.pool_threads"],
        })
        return out
