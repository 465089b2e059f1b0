"""Per-layer call tracing for the benchmark's traced runs.

The tracer times calls into the public functions of each ``l1sim`` module
from outside the package.  ``install`` rebinds every ``l1sim.*`` module
attribute that holds a target function object to a timing wrapper, so calls
made through names imported with ``from .x import f`` are seen too; methods
are patched on their class.  ``restore`` puts every original back.  A target
that the package no longer defines is listed in ``absent`` and reports zero,
so the benchmark keeps running when a later version deletes a function.

Calls, inclusive time and the time covered by wrapped children are
aggregated for every call.  A tracer made with ``span_cap > 0`` also keeps
each call as one span (target, start, end, parent span, operation id) in
memory, up to that many; the benchmark records spans in a pass of their own,
so their bookkeeping stays out of the per-pass numbers.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from array import array
from functools import update_wrapper
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, qualified name, report self time).  Self time is reported where
# the target calls other targets.
TARGETS = (
    ("scenario", "build_scenario", True),
    ("scenario", "load_scenario", True),
    ("scenario", "run_preset", True),
    ("scenario", "run_scenario", True),
    ("scenario", "scenario_fingerprint", False),
    ("scenario", "format_report", False),
    ("augmentation", "PiecewiseConstantLaw.__init__", True),
    ("augmentation", "error_dynamics_matrix", False),
    ("augmentation", "adaptation_gain", True),
    ("augmentation", "build_control_law", True),
    ("augmentation", "unmatched_path_model", True),
    ("augmentation", "PiecewiseConstantLaw.update", False),
    ("augmentation", "control_update", True),
    ("augmentation", "predictor_deriv", False),
    ("statespace", "mat_exp", False),
    ("statespace", "mat_exp_integral", False),
    ("statespace", "discretize_zoh", False),
    ("statespace", "dc_gain", False),
    ("statespace", "null_complement", False),
    ("statespace", "filter_step", False),
    ("engine", "run_closed_loop", True),
    ("engine", "rk4_step", True),
    ("plant", "UncertainPlant.from_matrices", True),
    ("plant", "plant_deriv", False),
    ("plant", "reference_model_deriv", False),
    ("plant", "reference_value", False),
    ("metrics", "compute_metrics", False),
    ("traceio", "emit_csv", False),
    ("traceio", "load_csv", False),
    ("plots", "emit_plots", True),
    ("plots", "line_chart_svg", False),
    ("cli", "main", True),
)

NAMES = tuple(f"{mod}.{qual}" for mod, qual, _ in TARGETS)

# Work counters recorded at the boundary of the call that does the work.
COUNTERS = {"engine.samples": "count", "traceio.bytes": "bytes", "plots.bytes": "bytes"}


def _samples(trace):
    return "engine.samples", len(trace.t)


def _csv_bytes(path):
    return "traceio.bytes", os.path.getsize(path)


def _svg_bytes(paths):
    return "plots.bytes", sum(os.path.getsize(p) for p in paths)


HOOKS = {
    "engine.run_closed_loop": _samples,
    "traceio.emit_csv": _csv_bytes,
    "plots.emit_plots": _svg_bytes,
}

# Wasted work: builds per simulated run.  One per run is the useful amount.
RATIOS = {
    "augmentation.gain_builds_per_run": ("augmentation.PiecewiseConstantLaw.__init__", "engine.run_closed_loop"),
    "statespace.discretize_zoh.per_run": ("statespace.discretize_zoh", "engine.run_closed_loop"),
}

IMPORT_MODULES = (
    "l1sim",
    "l1sim.errors",
    "l1sim.statespace",
    "l1sim.plant",
    "l1sim.augmentation",
    "l1sim.engine",
    "l1sim.metrics",
    "l1sim.plots",
    "l1sim.scenario",
    "l1sim.traceio",
    "l1sim.cli",
    "scipy.signal",
)

# Set-up work: configuration, gains, filters.  Time inside the outermost of
# these calls counts as set-up; the rest of a pass is the simulation loop,
# emit and import.
SETUP = (
    "scenario.build_scenario",
    "augmentation.PiecewiseConstantLaw.__init__",
    "augmentation.build_control_law",
    "augmentation.error_dynamics_matrix",
)

SPAN_CAP = 100_000


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for (_mod, _qual, self_time), name in zip(TARGETS, NAMES):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if self_time:
            units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    for ratio in RATIOS:
        units[ratio] = "ratio"
    for mod in IMPORT_MODULES:
        units[f"import.{mod}.s"] = "s"
    units["setup.share_pct"] = "%"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Timing wrappers around the TARGETS, with spans and aggregates in memory."""

    def __init__(self, span_cap: int = 0):
        self.calls = [0] * len(NAMES)
        self.total = [0.0] * len(NAMES)
        self.child = [0.0] * len(NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.setup_s = 0.0  # time inside outermost SETUP calls
        self._setup_depth = 0
        self.span_cap = span_cap
        self.absent: list[str] = []
        self.op_id = 0
        self.spans_dropped = 0
        self._span_target = array("i")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []  # [span index, time in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        hook = HOOKS.get(NAMES[idx])
        setup = NAMES[idx] in SETUP
        spans = self.span_cap > 0
        stack = self._stack
        calls, total, child = self.calls, self.total, self.child

        def wrapper(*args, **kwargs):
            span = self._open(idx) if spans else -1
            frame = [span, 0.0]
            stack.append(frame)
            if setup:
                self._setup_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                calls[idx] += 1
                total[idx] += elapsed
                child[idx] += frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if setup:
                    self._setup_depth -= 1
                    if not self._setup_depth:
                        self.setup_s += elapsed
                if span >= 0:
                    self._span_start[span] = t0
                    self._span_end[span] = t1
            if hook is not None:
                counter, amount = hook(result)
                self.counters[counter] += amount
            return result

        return update_wrapper(wrapper, fn)

    def _open(self, idx: int) -> int:
        span = len(self._span_target)
        if span >= self.span_cap:
            self.spans_dropped += 1
            return -1
        self._span_target.append(idx)
        self._span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._span_op.append(self.op_id)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        return span

    def install(self) -> None:
        """Wrap every target the package defines; list the others as absent."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for idx, (mod, qual, _self_time) in enumerate(TARGETS):
            try:
                module = importlib.import_module(f"l1sim.{mod}")
            except ModuleNotFoundError:
                self.absent.append(NAMES[idx])
                continue
            if "." in qual:
                self._patch_method(idx, module, qual)
            else:
                self._patch_function(idx, module, qual)

    def _patch_function(self, idx: int, module, qual: str) -> None:
        fn = getattr(module, qual, None)
        if fn is None:
            self.absent.append(NAMES[idx])
            return
        wrapper = self._wrap(idx, fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "l1sim" or name.startswith("l1sim.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, fn))

    def _patch_method(self, idx: int, module, qual: str) -> None:
        cls_name, attr = qual.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if raw is None:
            self.absent.append(NAMES[idx])
            return
        if isinstance(raw, (classmethod, staticmethod)):
            patched = type(raw)(self._wrap(idx, raw.__func__))
        else:
            patched = self._wrap(idx, raw)
        setattr(cls, attr, patched)
        self._patches.append((cls, attr, raw))

    def restore(self) -> None:
        """Put back every original function and method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def span_count(self) -> int:
        return len(self._span_target)

    def aggregates(self) -> dict:
        """Totals and spans that can be merged into another tracer (see ``merge``)."""
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "total": dict(zip(NAMES, self.total)),
            "child": dict(zip(NAMES, self.child)),
            "counters": dict(self.counters),
            "setup_s": self.setup_s,
            "absent": list(self.absent),
            "spans": {
                "target": self._span_target.tolist(),
                "parent": self._span_parent.tolist(),
                "start": self._span_start.tolist(),
                "end": self._span_end.tolist(),
            },
        }

    def merge(self, agg: dict) -> None:
        """Add the totals and spans of a tracer that ran in another process.

        ``perf_counter`` is the system-wide monotonic clock, so span times of
        both processes share one time axis.  Merged spans belong to the
        current operation and keep their parents within the merged set.
        """
        for idx, name in enumerate(NAMES):
            self.calls[idx] += agg["calls"].get(name, 0)
            self.total[idx] += agg["total"].get(name, 0.0)
            self.child[idx] += agg["child"].get(name, 0.0)
        for counter, amount in agg["counters"].items():
            self.counters[counter] = self.counters.get(counter, 0) + amount
        self.setup_s += agg["setup_s"]
        self.absent = sorted(set(self.absent) | set(agg["absent"]))
        spans = agg["spans"]
        offset = len(self._span_target)
        room = max(0, self.span_cap - offset)
        self.spans_dropped += max(0, len(spans["target"]) - room)
        for target, parent, start, end in list(zip(spans["target"], spans["parent"],
                                                   spans["start"], spans["end"]))[:room]:
            self._span_target.append(target)
            self._span_parent.append(parent + offset if parent >= 0 else -1)
            self._span_op.append(self.op_id)
            self._span_start.append(start)
            self._span_end.append(end)

    def layer_metrics(self, passes: int, pass_seconds: float) -> dict[str, float]:
        """Per-pass calls and seconds, counters, wasted-work ratios and the
        set-up share of ``pass_seconds`` (the summed time of those passes)."""
        out: dict[str, float] = {}
        calls = dict(zip(NAMES, self.calls))
        for idx, ((_mod, _qual, self_time), name) in enumerate(zip(TARGETS, NAMES)):
            out[f"{name}.calls"] = self.calls[idx] / passes
            out[f"{name}.s"] = self.total[idx] / passes
            if self_time:
                out[f"{name}.self_s"] = (self.total[idx] - self.child[idx]) / passes
        for counter, amount in self.counters.items():
            out[counter] = amount / passes
        for ratio, (num, den) in RATIOS.items():
            out[ratio] = calls[num] / calls[den] if calls[den] else 0.0
        out["setup.share_pct"] = 100.0 * self.setup_s / pass_seconds
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans (times relative to the first span) as .npz."""
        start = np.frombuffer(self._span_start, dtype=float)
        origin = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            target=np.frombuffer(self._span_target, dtype=np.int32),
            parent=np.frombuffer(self._span_parent, dtype=np.int32),
            op=np.frombuffer(self._span_op, dtype=np.int32),
            start=start - origin,
            end=np.frombuffer(self._span_end, dtype=float) - origin,
        )


def import_times(python: str, env: dict, cwd: Path) -> dict[str, float]:
    """Cumulative import seconds of IMPORT_MODULES from ``-X importtime``."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", "import l1sim.cli"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    found: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {f"import.{mod}.s": found.get(mod, 0.0) for mod in IMPORT_MODULES}
