"""Runs one workload: set-up, timed passes, checks, metrics and run record.

End-to-end metrics come from an untraced run.  Each pass repeats the same
operations, and the timing metrics are medians: of each operation over the
passes, of each set-up step over its repeats, and of the import probes.

A traced run (``trace=True``) times untraced passes, then installs the
tracer and repeats whole passes; it reports per-pass per-layer numbers, and
the tracing overhead as the traced pass time over the untraced one.  One
last traced pass records the spans; it is left out of every per-pass number.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads as wl

END_TO_END_UNITS = {
    "us_per_sample": "us",
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p95": "ms",
    "setup_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = "import time; t0 = time.perf_counter(); import l1sim; print(time.perf_counter() - t0)"


@dataclass
class Tally:
    """Outcome of the timed passes."""

    attempted: int = 0
    failed: int = 0
    passes: int = 0
    latencies: list[float] = field(default_factory=list)  # seconds per successful op
    per_op: dict[str, list[float]] = field(default_factory=dict)  # op name -> its latencies
    work: dict[str, tuple[int, int]] = field(default_factory=dict)  # op name -> (samples, runs)
    pass_seconds: list[float] = field(default_factory=list)


def run_passes(workload: wl.Workload, seconds: float, tally: Tally,
               tracer: tracing.Tracer | None = None) -> None:
    """Whole passes until ``seconds`` of wall time have gone; at least one."""
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for op in workload.ops():
            tally.attempted += 1
            if tracer is not None:
                tracer.op_id = tally.attempted
            try:
                t0 = perf_counter()
                value = op.run()
                elapsed = perf_counter() - t0
                samples, runs = op.check(value)
            except Exception:  # a failed operation is counted, and the run goes on
                tally.failed += 1
                print(f"operation {op.name} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            tally.latencies.append(elapsed)
            tally.per_op.setdefault(op.name, []).append(elapsed)
            tally.work[op.name] = (samples, runs)
        tally.pass_seconds.append(perf_counter() - pass_start)
        tally.passes += 1
        if perf_counter() - start >= seconds:
            return


def run_traced(workload: wl.Workload, ctx: wl.Context, seconds: float, tally: Tally,
               tracer: tracing.Tracer) -> None:
    ctx.tracer = tracer
    tracer.install()
    try:
        run_passes(workload, seconds, tally, tracer=tracer)
    finally:
        tracer.restore()
        ctx.tracer = None


def _finish(workload: wl.Workload, tally: Tally) -> None:
    tally.attempted += 1
    try:
        workload.finish()
    except Exception:
        tally.failed += 1
        print("final check failed:", file=sys.stderr)
        traceback.print_exc()


def time_setup(workload: wl.Workload, reps: int, budget: float) -> list[list[float]]:
    """Run every set-up step ``reps`` times and until ``budget`` seconds
    have gone; returns each step's times."""
    steps = workload.setup_steps()
    times: list[list[float]] = [[] for _ in steps]
    start = perf_counter()
    while len(times[0]) < reps or perf_counter() - start < budget:
        for step, spent in zip(steps, times):
            t0 = perf_counter()
            step()
            spent.append(perf_counter() - t0)
    return times


def import_seconds(ctx: wl.Context, probes: int) -> list[float]:
    """Fresh-interpreter ``import l1sim`` times.

    The benchmark's own import has already byte-compiled the package and
    brought its dependencies into the file cache.
    """
    def probe() -> float:
        return float(subprocess.run([ctx.python, "-c", _IMPORT_PROBE], cwd=ctx.root, env=ctx.env,
                                    capture_output=True, text=True, timeout=120, check=True).stdout)
    return [probe() for _ in range(probes)]


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally, setup: list[list[float]], imports: list[float], rss_mb: float) -> dict:
    """From each operation's median time over the passes, and each set-up
    step's median over its repeats.

    The latency quantiles are taken over the operations of a pass, so on
    ``sweep`` they describe how the cost varies between configurations.
    Taken over every latency of a run instead, the 95th percentile of the
    few long operations of ``export`` and ``cold-cli`` would be their
    slowest repeat, which follows the load of the shared machine.
    """
    per_op = [statistics.median(times) for times in tally.per_op.values()]
    samples = sum(tally.work[name][0] for name in tally.per_op)
    runs = sum(tally.work[name][1] for name in tally.per_op)
    return {
        "us_per_sample": sum(per_op) / samples * 1e6,
        "runs_per_s": runs / sum(per_op),
        "run_ms_p50": statistics.median(per_op) * 1e3,
        "run_ms_p95": _quantile(per_op, 95) * 1e3,
        "setup_s": sum(statistics.median(step) for step in setup),
        "import_s": statistics.median(imports),
        "peak_rss_mb": rss_mb,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _git(root: Path) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def environment(root: Path) -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"versions": versions, "nproc": os.cpu_count(), "git": _git(root)}


def execute(name: str, ctx: wl.Context, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    workload = wl.WORKLOADS[name](ctx)
    if trace:
        setup = time_setup(workload, 1, 0.0)
    else:
        setup = time_setup(workload, ctx.sizes.setup_reps, ctx.sizes.setup_seconds)

    tally = Tally()
    record = {"workload": name, "why": wl.WHY[name], "seed": ctx.seed, "seconds": seconds,
              "trace": trace, **environment(ctx.root), "inputs": workload.record}
    if trace:
        layer = tracing.import_times(ctx.python, ctx.env, ctx.root)
        run_passes(workload, seconds, tally)  # untraced reference passes
        untraced = statistics.median(tally.pass_seconds)
        first_traced = tally.passes
        tracer = tracing.Tracer()
        run_traced(workload, ctx, seconds, tally, tracer)
        traced = tally.pass_seconds[first_traced:]
        layer.update(tracer.layer_metrics(len(traced), sum(traced)))
        overhead = (statistics.median(traced) / untraced - 1.0) * 100.0
        layer["trace.overhead_pct"] = overhead
        units = tracing.layer_metric_units()
        metrics = {key: (layer[key], units[key]) for key in units}

        span_tally = Tally()
        span_tracer = tracing.Tracer(span_cap=tracing.SPAN_CAP)
        run_traced(workload, ctx, 0.0, span_tally, span_tracer)
        tally.attempted += span_tally.attempted
        tally.failed += span_tally.failed
        spans = ctx.root / ".perfbench_out" / f"spans-{name}-seed{ctx.seed}.npz"
        span_tracer.write_spans(spans)
        record["tracing"] = {
            "overhead_pct": overhead,
            "untraced_pass_s": untraced,
            "traced_pass_s": statistics.median(traced),
            "traced_passes": len(traced),
            "setup_share_pct": layer["setup.share_pct"],
            "absent": sorted(set(tracer.absent)),
            "spans_in_memory": span_tracer.span_count,
            "spans_dropped": span_tracer.spans_dropped,
            "spans_file": str(spans.relative_to(ctx.root)),
        }
    else:
        imports = import_seconds(ctx, ctx.sizes.import_probes)
        record["import_seconds"] = imports
        run_passes(workload, seconds, tally)
        rss = peak_rss_mb(children=name == "cold-cli")
        if not tally.latencies:
            raise RuntimeError(f"every operation of {name} failed")
        values = end_to_end(tally, setup, imports, rss)
        metrics = {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}
    _finish(workload, tally)

    record.update({
        "passes": tally.passes,
        "operations": tally.attempted,
        "failed": tally.failed,
        "samples_per_pass": sum(samples for samples, _ in tally.work.values()),
        "runs_per_pass": sum(runs for _, runs in tally.work.values()),
        "setup_step_seconds": setup,
        "op_seconds": tally.latencies,
        "op_names": list(tally.per_op),
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    })
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }
    return result, record
