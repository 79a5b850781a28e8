"""Per-layer tracing from outside the program.

The tracer wraps hrflow's public functions where their callers look them
up (``hrflow.cli.integrate``, ``hrflow.stepper.run_adaptive``, ...) and
records one span per call: name, start, end, parent and the time its
children cover.  Spans are kept in memory and written out at the end.  A
span's self time is its duration minus its children's, so the self times of
all layers partition the traced time.

Vector-field evaluations are too many to record as spans.  The closures
returned by ``make_rhs`` are wrapped to count every evaluation; evaluations
made outside the stepper (the portrait grid) and the scalar-curvature
helper are also timed and booked to the flow layer.  Inside the stepper
they are only counted, so ``stepper.ms`` includes the field evaluations it
makes.  Nothing is recorded outside a ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter_ns

from hrflow.classify import SingularType
from hrflow.errors import InsufficientHorizon, Unclassified
from hrflow.flow import Trajectory

# (module, attribute, span name): the layer boundaries, each patched where
# its caller looks the name up
SPANS = (
    ("hrflow.cli", "build_parser", "cli.parser"),
    ("hrflow.cli", "load_space", "spaces"),
    ("hrflow.cli", "get_space", "spaces"),
    ("hrflow.cli", "validate", "spaces"),
    ("hrflow.cli", "derive_coeffs", "spaces"),
    ("hrflow.spaces", "validate", "spaces"),
    ("hrflow.cli", "einstein_roots", "einstein"),
    ("hrflow.cli", "critical_directions", "einstein"),
    ("hrflow.cli", "scalar_zero_directions", "einstein"),
    ("hrflow.flow", "einstein_roots", "einstein"),
    ("hrflow.classify", "einstein_roots", "einstein"),
    ("hrflow.cli", "integrate", "flow"),
    ("hrflow.stepper", "run_adaptive", "stepper"),
    ("hrflow.cli", "classify_trajectory", "classify"),
    ("hrflow.cli", "predicted_report", "classify"),
    ("hrflow.cli", "regime_of", "classify"),
    ("hrflow.cli", "soliton_limit", "blowup"),
)


def _observe_run(counts, raw) -> None:
    counts["stepper.steps"] += raw.n_steps
    # stride 1: one sample per accepted step, the located event included
    counts["stepper.accepted"] += len(raw.s) - 1
    counts[f"stepper.{raw.status}_runs"] += 1


def _observe_integrate(counts, traj) -> None:
    counts["flow.samples"] += traj.n_samples


def _observe_report(counts, rep) -> None:
    counts["classify.undetermined"] += (
        rep.singular_type is SingularType.UNDETERMINED)


# patched attribute -> (result observer, exceptions counted, counter key)
_HOOKS = {
    "run_adaptive": (_observe_run, (), None),
    "integrate": (_observe_integrate, (), None),
    "classify_trajectory": (_observe_report, (InsufficientHorizon,),
                            "classify.undetermined"),
    "soliton_limit": (None, (Unclassified,), "blowup.unclassified"),
}


class Tracer:
    def __init__(self):
        # span records: [name, start_ns, end_ns, parent index, child_ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.leaf_ns = 0            # flow evaluations booked outside spans
        self._stack: list[int] = []
        self._top = None            # name of the innermost open span
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0, 0, parent, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        outer, self._top = self._top, name
        rec[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = end = perf_counter_ns()
            self._stack.pop()
            self._top = outer
            if parent >= 0:
                self.spans[parent][4] += end - rec[1]

    def _leaf(self, fn, *args):
        t0 = perf_counter_ns()
        result = fn(*args)
        dt = perf_counter_ns() - t0
        self.leaf_ns += dt
        self.spans[self._stack[-1]][4] += dt
        return result

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name: str, fn):
        observe, raises, key = _HOOKS.get(fn.__name__, (None, (), None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            try:
                result = self.span(name, fn, *args, **kwargs)
            except raises:
                self.counts[key] += 1
                raise
            if observe is not None:
                observe(self.counts, result)
            return result
        return wrapper

    def _counting_rhs(self, make_rhs):
        @functools.wraps(make_rhs)
        def patched(c):
            f = make_rhs(c)
            if not self._stack:
                return f

            def counted(x1, x2):
                self.counts["flow.rhs_evals"] += 1
                if self._top == "stepper":
                    return f(x1, x2)
                return self._leaf(f, x1, x2)
            return counted
        return patched

    def _timed_leaf(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if not self._stack:
                return fn(*args)
            return self._leaf(fn, *args)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        self._patch(Trajectory, "to_csv",
                    self._wrap("cli.csv", Trajectory.to_csv))
        for module in ("hrflow.cli", "hrflow.flow"):
            mod = importlib.import_module(module)
            self._patch(mod, "make_rhs", self._counting_rhs(mod.make_rhs))
        flow = importlib.import_module("hrflow.flow")
        self._patch(flow, "_scalar_curvature_arrays",
                    self._timed_leaf(flow._scalar_curvature_arrays))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, units: int, bytes_out: int,
                      speed: float) -> dict[str, float]:
        """Per-unit layer metrics over every span recorded so far; times
        are multiplied by ``speed``, the run's nominal-to-actual speed."""
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, parent, child in self.spans:
            self_ns[name] += end - start - child
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1
        c = self.counts
        per = 1.0 / max(units, 1)

        def ms(ns):
            return ns / 1e6 * per * speed

        out = {
            "stepper.calls": calls["stepper"] * per,
            "stepper.ms": ms(self_ns["stepper"]),
            "stepper.steps": c["stepper.steps"] * per,
            "stepper.accepted": c["stepper.accepted"] * per,
            "stepper.accept_ratio": (c["stepper.accepted"]
                                     / max(c["stepper.steps"], 1)),
            "stepper.horizon_runs": c["stepper.horizon_runs"] * per,
            "stepper.event_runs": c["stepper.event_runs"] * per,
            "stepper.step_limit_runs": c["stepper.step_limit_runs"] * per,
            "flow.integrate_calls": calls["flow"] * per,
            "flow.self_ms": ms(self_ns["flow"] + self.leaf_ns),
            "flow.samples": c["flow.samples"] * per,
            "flow.rhs_evals": c["flow.rhs_evals"] * per,
            "cli.calls": calls["cli"] * per,
            "cli.self_ms": ms(self_ns["cli"]),
            "cli.parser_ms": ms(self_ns["cli.parser"]),
            "cli.csv_ms": ms(self_ns["cli.csv"]),
            "cli.bytes_out": bytes_out * per,
        }
        for layer in ("spaces", "einstein", "classify", "blowup"):
            out[f"{layer}.calls"] = calls[layer] * per
            out[f"{layer}.ms"] = ms(self_ns[layer])
        out["classify.undetermined"] = c["classify.undetermined"] * per
        out["blowup.unclassified"] = c["blowup.unclassified"] * per
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "self_ns": end - start - child}) + "\n")
