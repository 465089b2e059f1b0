"""Fast self-test of the benchmark at tiny sizes; not part of the timed runs.

    python3 perfbench/selftest.py        (from the root of a checkout)

Checks that BENCHMARK.json parses and lists exactly the workloads and
metrics the benchmark emits; runs every workload untraced and traced at tiny
sizes and checks that every listed metric comes out as a finite number and
that the outputs are correct; checks that the tracer reports a deleted
function as absent and restores what it wrapped; and checks that the
benchmark fails, without a result line, where there is no package to run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "l1sim" / "__init__.py").is_file():
        print(f"error: no l1sim package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    import l1sim
    import run
    import tracer as tracing
    import workloads as wl

    failures: list[str] = []

    def expect(ok, what: str) -> None:
        if not ok:
            failures.append(what)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    expect(set(spec) == BENCHMARK_KEYS, f"BENCHMARK.json keys are {sorted(spec)}")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS),
           "workload names differ")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == bench.END_TO_END_UNITS, "end_to_end metrics differ from the emitted ones")
    expect(per_layer == tracing.layer_metric_units(), "per_layer metrics differ from the emitted ones")

    work = root / ".perfbench_out" / f"selftest-{os.getpid()}"
    try:
        for name in wl.WORKLOADS:
            for trace in (False, True):
                run_dir = work / f"{name}-trace{int(trace)}"
                run_dir.mkdir(parents=True)
                ctx = wl.Context(root=root, work=run_dir, seed=7, sizes=wl.TINY,
                                 python=sys.executable, env=dict(os.environ, PYTHONPATH=str(src)))
                result, record = bench.execute(name, ctx, 0.0, trace)
                where = f"{name} (trace {int(trace)})"
                expected = per_layer if trace else end_to_end
                expect(set(result) == RESULT_KEYS, f"{where}: result keys {sorted(result)}")
                expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                       f"{where}: outputs not correct")
                expect(set(result["metrics"]) == set(expected), f"{where}: metric names differ")
                for key, metric in result["metrics"].items():
                    value = metric["value"]
                    expect(isinstance(value, (int, float)) and math.isfinite(value),
                           f"{where}: {key} = {value!r}")
                    expect(metric["unit"] == expected.get(key), f"{where}: unit of {key}")
                json.dumps(record)
                if trace and name in ("campaign", "sweep"):
                    ratio = result["metrics"]["augmentation.gain_builds_per_run"]["value"]
                    expect(ratio >= 1.0, f"{where}: gain builds per run = {ratio}")

        original = l1sim.engine.rk4_step
        del l1sim.engine.rk4_step
        try:
            probe = tracing.Tracer()
            probe.install()
            try:
                expect(probe.absent == ["engine.rk4_step"], f"absent targets: {probe.absent}")
                expect(hasattr(l1sim.scenario.run_closed_loop, "__wrapped__"),
                       "a name imported into another module was not wrapped")
            finally:
                probe.restore()
        finally:
            l1sim.engine.rk4_step = original
        expect(l1sim.scenario.run_closed_loop is l1sim.engine.run_closed_loop
               and not hasattr(l1sim.engine.run_closed_loop, "__wrapped__")
               and not hasattr(vars(l1sim.PiecewiseConstantLaw)["update"], "__wrapped__"),
               "the tracer left a wrapper installed")

        bare = work / "bare"
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "campaign",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without a package the benchmark did not fail")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
