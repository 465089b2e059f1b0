"""Benchmark of the l1sim package: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Run it from the root of an l1sim checkout; it imports the package from
``src/`` there and exits with code 2 when there is none.  It prints every
metric by name and unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A run record (inputs, versions, machine, counts, tracing overhead) is written
under ``.perfbench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "sweep", "export", "cold-cli")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _print_table(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<9} {name:<52} {metric['value']:>14.6g} {metric['unit']}")


def run_all(args, root: Path) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "l1sim" / "__init__.py").is_file():
        print(f"error: no l1sim package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)

    # The package's matrices are at most a few rows: BLAS helper threads do
    # no useful work on them, and while another process holds the second
    # core, waking them made some set-up calls several times slower.  One
    # thread keeps the run a single-core closed loop; child interpreters
    # inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bench
    import l1sim
    import workloads

    if not Path(l1sim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported l1sim from {l1sim.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=root, work=work, seed=args.seed, sizes=workloads.FULL,
                            python=sys.executable, env=dict(os.environ, PYTHONPATH=str(src)))
    try:
        result, record = bench.execute(args.workload, ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = out / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    _print_table(args.workload, result["metrics"])
    if record.get("tracing", {}).get("absent"):
        print(f"absent (reported as 0): {', '.join(record['tracing']['absent'])}")
    print(f"run record: {path.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
