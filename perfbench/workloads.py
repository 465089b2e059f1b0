"""The four benchmark workloads and the checks on their outputs.

A workload is a list of set-up steps plus a list of operations that make
one pass; every pass repeats the same operations.
The runner (``bench.py``) calls them from a single caller, one operation at
a time: each waits for the previous one and nothing runs concurrently (a
closed loop, which suits a batch simulator that serves no arriving
requests).  Every operation returns its result to an untimed check that
raises ``CheckFailed`` on a wrong output and otherwise reports how many
sample boundaries and simulation runs the operation handled.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import shutil
import subprocess
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import l1sim
import sweepgen
from tracer import Tracer

WHY = {
    "campaign": "the eight runs of the six built-in presets: the per-sample loop (engine, plant, "
                "estimator, law filters) does nearly all the work, so engine changes show here first",
    "sweep": "a seeded grid of distinct short configurations, so per-configuration set-up "
             "(validation, expm, realisation, discretisation) is a large share of each run",
    "export": "CSV and SVG emit, CSV reload and metrics on two fixed 10 001-sample traces, "
              "so trace I/O and metrics do the timed work and the engine none",
    "cold-cli": "fresh-interpreter CLI runs of a short scenario file, so package import and the "
                "CLI front end, which no in-process workload pays for, dominate",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; ``TINY`` is for the self-test only."""

    presets: tuple[str, ...] | None  # campaign presets; None runs all of them
    sweep_configs: int
    export_t_end: float | None  # horizon of the export traces; None keeps the preset's
    setup_reps: int  # set-up repeats at least this often ...
    setup_seconds: float  # ... and until this much time has gone
    import_probes: int


FULL = Sizes(presets=None, sweep_configs=len(sweepgen.COST_GRID), export_t_end=None,
             setup_reps=3, setup_seconds=1.0, import_probes=5)
TINY = Sizes(presets=("nominal-step",), sweep_configs=4, export_t_end=2.5,
             setup_reps=1, setup_seconds=0.0, import_probes=1)


class CheckFailed(Exception):
    """An operation returned a wrong output."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Context:
    root: Path           # checkout the benchmark runs in
    work: Path           # scratch directory of this run, inside the checkout
    seed: int
    sizes: Sizes
    python: str
    env: dict            # environment for child interpreters
    tracer: Tracer | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]  # result -> (samples, runs)


class Workload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.record: dict = {}  # inputs of this run, for the run record

    def setup_steps(self) -> list[Callable[[], object]]:
        """Steps that build what every pass needs; timed as the set-up metric."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; raises CheckFailed."""


def _finite_trace(trace) -> bool:
    arrays = (trace.t, trace.r, trace.y, trace.y_m, trace.u_a, trace.sigma1, trace.sigma2,
              trace.x, trace.x_hat, trace.x_tilde)
    return all(np.all(np.isfinite(a)) for a in arrays)


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for a in (trace.t, trace.r, trace.y, trace.y_m, trace.u_a, trace.sigma1, trace.sigma2,
              trace.x, trace.x_hat):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _steady(values: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean(values[t >= t[-1] - 0.1 * (t[-1] - t[0])]))


def check_preset(name: str, result) -> None:
    """The acceptance campaign's invariants, at its tolerances.

    They concern final and steady-state values, which an exact change to the
    transient (an event-timing fix, an exact discretisation) leaves alone.
    """
    runs = result.runs
    for run in runs:
        require(_finite_trace(run.trace), f"{name}/{run.label}: non-finite trace")
    first = runs[0]
    y_end = float(first.trace.y[-1])
    if name == "nominal-step":
        require(abs(y_end - 1.0) < 1e-3, f"nominal-step y(t_end) = {y_end}")
    elif name == "nominal-ramp":
        lag = first.metrics.tracking_lag
        require(abs(lag - 0.2) <= 1e-2, f"nominal-ramp lag = {lag}")
    elif name == "uncertain-step-off":
        require(abs(y_end - 3.0002) <= 1e-3, f"uncertain-step-off y(t_end) = {y_end}")
    elif name == "uncertain-step-matched-only":
        residual = abs(_steady(first.trace.y, first.trace.t) - 1.0)
        require(abs(residual - 2.0e-4) <= 5e-5, f"matched-only residual = {residual}")
    elif name in ("uncertain-step-compare", "uncertain-ramp-compare"):
        require(len(runs) == 2, f"{name}: expected two laws, got {len(runs)}")
        orig, mod = runs
        if name == "uncertain-step-compare":
            yss_o = _steady(orig.trace.y, orig.trace.t)
            yss_m = _steady(mod.trace.y, mod.trace.t)
            require(abs(yss_o - 1.0) < 1e-3 and abs(yss_m - 1.0) < 1e-3,
                    f"compare y_ss = {yss_o}, {yss_m}")
            require(abs(yss_o - yss_m) < 1e-6, f"compare laws disagree at DC by {abs(yss_o - yss_m)}")
            require(mod.metrics.overshoot_pct >= orig.metrics.overshoot_pct
                    and mod.metrics.rise_time_10_90 >= orig.metrics.rise_time_10_90,
                    "compare transient ordering")
            s1 = _steady(mod.trace.sigma1[:, 0], mod.trace.t)
            s2 = _steady(mod.trace.sigma2[:, 0], mod.trace.t)
            require(abs(s1 - 0.05) < 5e-3 and abs(s2 - 0.001) < 5e-4,
                    f"estimates sigma1 = {s1}, sigma2 = {s2}")
        else:
            lag_o, lag_m = orig.metrics.tracking_lag, mod.metrics.tracking_lag
            require(abs(lag_o - lag_m) < 1e-6, f"ramp-compare laws disagree at DC: {lag_o} vs {lag_m}")


def compress(doc: dict, factor: float) -> dict:
    """The same experiment ``factor`` times shorter: horizon and onsets scale,
    the sample period and everything else stay."""
    doc = copy.deepcopy(doc)
    doc["engine"]["t_end"] /= factor
    for section in ("reference", "uncertainty"):
        if "onset" in doc[section]:
            doc[section]["onset"] /= factor
    return doc


class Campaign(Workload):
    """Every run of every built-in preset.

    A timed operation does for one run what ``run_preset`` does for each of
    a preset's laws: ``build_scenario``, ``scenario_fingerprint`` and
    ``run_scenario``, on the preset ten times shorter in simulated time
    (1 001 samples).  Short operations give a run many passes, so a burst of
    interference from other processes moves few of them.  The full-length
    presets run once per run through ``run_preset`` and ``format_report``,
    untimed, for the acceptance checks.
    """

    COMPRESSION = 10.0

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.presets = list(ctx.sizes.presets or l1sim.preset_names())
        self.runs = {f"{name}/{law}": (name, law, compress(l1sim.PRESETS[name]["doc"], self.COMPRESSION))
                     for name in self.presets for law in l1sim.PRESETS[name]["laws"]}
        self.fingerprints: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.record = {"presets": self.presets, "runs": list(self.runs), "compression": self.COMPRESSION}

    def setup_steps(self) -> list[Callable[[], object]]:
        return [functools.partial(self._build, key) for key in self.runs]

    def _build(self, key: str):
        name, law, doc = self.runs[key]
        return l1sim.build_scenario(copy.deepcopy(doc), name=name, law_override=law)

    def ops(self) -> list[Op]:
        return [Op(key, functools.partial(self._run, key), functools.partial(self._check, key))
                for key in self.runs]

    def _run(self, key: str):
        scenario = self._build(key)
        return l1sim.scenario_fingerprint(scenario), l1sim.run_scenario(scenario)

    def _check(self, key: str, value) -> tuple[int, int]:
        fingerprint, result = value
        name = self.runs[key][0]
        require(self.fingerprints.setdefault(name, fingerprint) == fingerprint,
                f"{key}: inputs differ from the preset's other law")
        require(_finite_trace(result.trace), f"{key}: non-finite trace")
        digest = _trace_digest(result.trace)
        require(self.digests.setdefault(key, digest) == digest, f"{key}: trace differs from the first pass")
        return result.trace.n_samples, 1

    def finish(self) -> None:
        for name in self.presets:
            result = l1sim.run_preset(name)
            check_preset(name, result)
            require(l1sim.format_report(result).startswith(f"scenario: {name}"),
                    f"{name}: report header missing")


class Sweep(Workload):
    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.docs, self.record = sweepgen.generate(ctx.seed, ctx.sizes.sweep_configs)
        self.first = None

    def setup_steps(self) -> list[Callable[[], object]]:
        return [functools.partial(l1sim.build_scenario, doc) for doc in self.docs]

    def ops(self) -> list[Op]:
        return [Op(doc["name"], self._runner(doc), self._check) for doc in self.docs]

    @staticmethod
    def _runner(doc: dict):
        return lambda: l1sim.run_scenario(l1sim.build_scenario(doc))

    def _check(self, result) -> tuple[int, int]:
        require(_finite_trace(result.trace), f"{result.trace.label}: non-finite trace")
        for key, value in vars(result.metrics).items():
            require(value is None or np.isfinite(value), f"metric {key} = {value}")
        if self.first is None:
            self.first = result
        return result.trace.n_samples, 1

    def finish(self) -> None:
        again = l1sim.run_scenario(l1sim.build_scenario(self.docs[0]))
        for key, value in vars(self.first.trace).items():
            if isinstance(value, np.ndarray):
                require(np.array_equal(value, getattr(again.trace, key)),
                        f"re-run of {self.docs[0]['name']} differs in {key}")


class Export(Workload):
    PRESET = "uncertain-step-compare"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        spec = l1sim.PRESETS[self.PRESET]
        self.doc = copy.deepcopy(spec["doc"])
        if ctx.sizes.export_t_end is not None:
            self.doc["engine"]["t_end"] = ctx.sizes.export_t_end
        self.laws = spec["laws"]
        self.out = ctx.work / "export"
        self.out.mkdir()
        self.csv_digests: list[str] | None = None
        self.record = {"preset": self.PRESET, "laws": self.laws}

    def setup_steps(self) -> list[Callable[[], object]]:
        self.scenarios: list = [None] * len(self.laws)
        self.results: list = [None] * len(self.laws)
        return [functools.partial(self._build, i) for i in range(len(self.laws))] + \
               [functools.partial(self._simulate, i) for i in range(len(self.laws))]

    def _build(self, i: int) -> None:
        self.scenarios[i] = l1sim.build_scenario(copy.deepcopy(self.doc), name=self.PRESET,
                                                 law_override=self.laws[i])

    def _simulate(self, i: int) -> None:
        self.results[i] = l1sim.run_scenario(self.scenarios[i])

    def ops(self) -> list[Op]:
        return [Op("export", self._run, self._check)]

    def _run(self):
        paths = [l1sim.emit_csv(r.trace, self.out / f"{self.PRESET}__{r.label}.csv")
                 for r in self.results]
        svgs = l1sim.emit_plots([r.trace for r in self.results], self.out, self.PRESET)
        loaded = [l1sim.load_csv(p) for p in paths]
        metrics = [l1sim.compute_metrics(tr, s.signal) for tr, s in zip(loaded, self.scenarios)]
        return paths, svgs, metrics

    def _check(self, value) -> tuple[int, int]:
        paths, svgs, metrics = value
        digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
        if self.csv_digests is None:
            self.csv_digests = digests
        require(digests == self.csv_digests, "CSV bytes differ from the first pass")
        for got, run in zip(metrics, self.results):
            require(got == run.metrics, f"{run.label}: reloaded metrics differ from in-memory ones")
        require(len(svgs) == 2, f"expected two SVG files, got {len(svgs)}")
        for svg in svgs:
            try:
                root = ET.parse(svg).getroot()
            except ET.ParseError as exc:
                raise CheckFailed(f"{svg} is not XML: {exc}") from exc
            require(root.tag.endswith("svg"), f"{svg}: root element is {root.tag}")
        return sum(r.trace.n_samples for r in self.results), len(self.results)


class ColdCli(Workload):
    NAME = "cold-cli"
    LAW = "original"  # the law with the most set-up work; fixed so seeds cost the same
    T_END = 0.2
    SAMPLE_PERIOD = 1e-3

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        rng = np.random.default_rng(ctx.seed)
        doc = {
            "name": self.NAME,
            "plant": {"preset": "paper-siso"},
            "uncertainty": {
                "matched": [float(rng.uniform(-0.1, 0.1))],
                "unmatched": [float(rng.uniform(-0.01, 0.01))],
                "onset": 0.1,
            },
            "reference": {"kind": "step", "onset": 0.1, "amplitude": float(rng.uniform(0.5, 2.0))},
            "controller": {"law": self.LAW, "sample_period": self.SAMPLE_PERIOD},
            "engine": {"t_end": self.T_END},
        }
        self.path = ctx.work / "scenario.yaml"
        self.path.write_text(yaml.safe_dump(doc, sort_keys=False))
        self.out = ctx.work / "cli-out"
        self.trace_out = ctx.work / "cli-trace.json"
        self.samples = round(self.T_END / self.SAMPLE_PERIOD) + 1
        self.record = {"scenario": doc}

    def setup_steps(self) -> list[Callable[[], object]]:
        return [functools.partial(l1sim.load_scenario, self.path)]

    def ops(self) -> list[Op]:
        return [Op("invoke", self._run, self._check)]

    def _run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["run", str(self.path), "--csv", "--plots", "--out", str(self.out)]
        if self.ctx.tracer is None:
            cmd = [self.ctx.python, "-m", "l1sim.cli", *args]
        else:
            launcher = Path(__file__).with_name("cli_launcher.py")
            cmd = [self.ctx.python, str(launcher), str(self.trace_out),
                   str(self.ctx.tracer.span_cap), *args]
        return subprocess.run(cmd, cwd=self.ctx.root, env=self.ctx.env, capture_output=True,
                              text=True, timeout=120)

    def _check(self, proc) -> tuple[int, int]:
        require(proc.returncode == 0, f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        lines = proc.stdout.splitlines()
        require(f"scenario: {self.NAME}" in lines, "report header missing")
        require(any(line.startswith(f"law={self.LAW}") for line in lines), "report line missing")
        for leaf in (f"{self.NAME}__{self.LAW}.csv", f"{self.NAME}__output.svg",
                     f"{self.NAME}__adaptive.svg"):
            require((self.out / leaf).is_file(), f"{leaf} was not written")
        if self.ctx.tracer is not None:
            self.ctx.tracer.merge(json.loads(self.trace_out.read_text()))
        return self.samples, 1


WORKLOADS = {"campaign": Campaign, "sweep": Sweep, "export": Export, "cold-cli": ColdCli}
