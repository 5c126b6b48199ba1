"""Spans around calls into vaxmpc's public functions, patched in from outside.

The tracer replaces each function where its caller looks it up (a module
attribute), so nothing under ``src/`` knows it is being traced.  Ordinary
calls become full spans (name, start, end, parent).  The hot leaves below
``mpc.solve_ocp`` -- ``si_step``, ``predict`` and ``project_capacity`` --
run about 10^5 times per solve, so they are not kept one by one: each is
added to its nearest full ancestor as a call count and busy time, keyed by
its own name and the name of its immediate caller.

A span's self time is its duration minus the durations of its direct
children, hot or not.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    #: (leaf name, caller name) -> [calls, busy seconds] for hot calls below.
    leaves: dict = field(default_factory=dict)
    #: Facts read off the call's result (solver iterations, bytes written).
    info: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


def _solve_info(span: Span, args, kwargs, result) -> None:
    span.info["iterations"] = result.iterations


def _write_info(span: Span, args, kwargs, result) -> None:
    out_dir = Path(kwargs["out_dir"] if "out_dir" in kwargs else args[1])
    span.info["bytes"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


# (module, attribute the caller looks up, span name, hot, result observer)
PATCHES = (
    ("vaxmpc.mpc", "si_step", "model.si_step", True, None),
    ("vaxmpc.model", "si_step", "model.si_step", True, None),
    ("vaxmpc.certificates", "si_step", "model.si_step", True, None),
    ("vaxmpc.mpc", "predict", "mpc.predict", True, None),
    ("vaxmpc.mpc", "project_capacity", "mpc.project_capacity", True, None),
    ("vaxmpc.mpc", "build_ocp", "mpc.build_ocp", False, None),
    ("vaxmpc.mpc", "solve_ocp", "mpc.solve_ocp", False, _solve_info),
    ("vaxmpc.mpc", "step", "model.step", False, None),
    ("vaxmpc.mpc", "run_policy_loop", "mpc.run_policy_loop", False, None),
    ("vaxmpc.strategies", "national_allocate", "strategies.national_allocate", False, None),
    ("vaxmpc.scenario", "write_run", "scenario.write_run", False, _write_info),
    ("vaxmpc.scenario", "compute_metrics", "scenario.compute_metrics", False, None),
    ("vaxmpc.certificates", "sample_terminal_states",
     "certificates.sample_terminal_states", False, None),
    ("vaxmpc.certificates", "check_invariance", "certificates.check_invariance", False, None),
    ("vaxmpc.certificates", "check_lyapunov_decrease",
     "certificates.check_lyapunov_decrease", False, None),
    ("vaxmpc.certificates", "check_eta_bound", "certificates.check_eta_bound", False, None),
)


class Tracer:
    """Records spans while patched in; ``with tracer:`` patches and restores."""

    def __init__(self):
        self.spans: list[Span] = [Span("root", None, time.perf_counter())]
        # open frames: [name, child seconds, index of nearest full span]
        self._stack: list[list] = [["root", 0.0, 0]]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, hot, observe in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrapper = self._hot(name, original) if hot else self._full(name, original, observe)
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self.spans[0].end = time.perf_counter()

    def _hot(self, name, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append([name, 0.0, parent[2]])
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                leaves = spans[parent[2]].leaves
                agg = leaves.get((name, parent[0]))
                if agg is None:
                    leaves[(name, parent[0])] = [1, dur]
                else:
                    agg[0] += 1
                    agg[1] += dur

        return wrapper

    def _full(self, name, fn, observe):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(name, parent[2], clock())
            spans.append(span)
            frame = [name, 0.0, len(spans) - 1]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                span.child_s = frame[1]
                parent[1] += span.busy_s
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return wrapper


def layer_metrics(tracers: list[Tracer], traced_walls: list[float]) -> dict[str, float]:
    """Per-layer numbers, averaged per traced operation (one tracer each)."""
    n_ops = len(tracers)
    full = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
    leaf = defaultdict(lambda: [0, 0.0])
    iterations = 0
    write_bytes = 0
    for tracer in tracers:
        for span in tracer.spans[1:]:
            row = full[span.name]
            row["calls"] += 1
            row["busy_s"] += span.busy_s
            row["self_s"] += span.self_s
            row["durations"].append(span.busy_s)
            iterations += span.info.get("iterations", 0)
            write_bytes += span.info.get("bytes", 0)
        for span in tracer.spans:
            for (name, caller), (calls, busy) in span.leaves.items():
                keys = [name]
                if name == "model.si_step":
                    keys.append(f"{name}.under_{_kernel_use(caller)}")
                for key in keys:
                    leaf[key][0] += calls
                    leaf[key][1] += busy

    out: dict[str, float] = {}

    def per_op(value: float) -> float:
        return value / n_ops

    for name in (
        "mpc.solve_ocp", "mpc.build_ocp", "mpc.run_policy_loop", "model.step",
        "strategies.national_allocate", "scenario.write_run", "scenario.compute_metrics",
        "certificates.sample_terminal_states", "certificates.check_invariance",
        "certificates.check_lyapunov_decrease", "certificates.check_eta_bound",
    ):
        row = full[name]
        out[f"{name}.calls"] = per_op(row["calls"])
        out[f"{name}.busy_s"] = per_op(row["busy_s"])
        out[f"{name}.self_s"] = per_op(row["self_s"])
    solve_durations = full["mpc.solve_ocp"]["durations"]
    out["mpc.solve_ocp.p50_s"] = statistics.median(solve_durations) if solve_durations else 0.0
    out["mpc.solve_ocp.max_s"] = max(solve_durations, default=0.0)
    for name in (
        "mpc.predict", "mpc.project_capacity", "model.si_step",
        "model.si_step.under_predict", "model.si_step.under_step",
        "model.si_step.under_certificates",
    ):
        calls, busy = leaf[name]
        out[f"{name}.calls"] = per_op(calls)
        out[f"{name}.busy_s"] = per_op(busy)
    out["mpc.iterations"] = per_op(iterations)
    trials = out["mpc.predict.calls"] - out["mpc.solve_ocp.calls"]
    out["mpc.accept_ratio"] = out["mpc.iterations"] / trials if trials > 0 else 0.0
    out["scenario.write_run.bytes"] = per_op(write_bytes)
    wall = sum(traced_walls)
    out["mpc.solve_ocp.share"] = full["mpc.solve_ocp"]["busy_s"] / wall
    out["scenario.write_run.share"] = full["scenario.write_run"]["busy_s"] / wall
    first = first_solve(tracers[0])
    out["mpc.iterations_first"] = first["iterations"]
    return out


def first_solve(tracer: Tracer) -> dict[str, int]:
    """Counts of the first ``solve_ocp`` call a tracer saw (zeros if none)."""
    for span in tracer.spans:
        if span.name == "mpc.solve_ocp":
            calls = defaultdict(int)
            for (name, _caller), (n, _busy) in span.leaves.items():
                calls[name] += n
            return {
                "iterations": span.info.get("iterations", 0),
                "predict_calls": calls["mpc.predict"],
                "project_capacity_calls": calls["mpc.project_capacity"],
                "si_step_calls": calls["model.si_step"],
            }
    return {"iterations": 0, "predict_calls": 0, "project_capacity_calls": 0, "si_step_calls": 0}


def _kernel_use(caller: str) -> str:
    """Which use of the kernel a caller is: predict, step or certificates."""
    if caller.startswith("certificates."):
        return "certificates"
    return caller.rsplit(".", 1)[-1]
