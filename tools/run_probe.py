"""Time a full-length run and count its minor page faults, per call.

    python tools/run_probe.py [CHECKOUT] [--calls N] [--repeats R]

On the full-length (10 001-sample) ``uncertain-step-compare`` preset, under
its ``original`` and ``modified`` laws, the probe measures, each in a fresh
interpreter:

* a loop of ``run_scenario`` calls, each result dropped before the next;
* ``run_closed_loop`` alone, in the same kind of loop, and then
  ``compute_metrics`` alone, on one trace that stays alive.

It prints, per call, the best time over R repeats of N calls, and the minor
page faults (``resource.getrusage(RUSAGE_SELF).ru_minflt``) over all the
repeats, and the ratio of the ``run_scenario`` time to the sum of the two
timed alone.  CHECKOUT (default: the checkout holding this file) is the tree
whose ``src/`` is imported, so two checkouts can be compared; nothing in it
is written.

Why the loop can fault: glibc's malloc serves a request at or above its mmap
threshold by ``mmap`` and gives it back to the system on ``free``; freeing
such a block raises the threshold to the block's size, and the heap top is
trimmed once more than twice that is free (malloc(3), ``M_MMAP_THRESHOLD``
and ``M_TRIM_THRESHOLD``).  A run whose largest array is smaller than the
rest of what it allocates has its heap trimmed on every free, so the next
run faults its pages in again.  A run that allocates its trace and work
array as one block raises the threshold past everything it allocates, and
its memory stays mapped from one run to the next.  The package calls no
``mallopt`` and sets no environment variable: the fix rests on that dynamic
threshold alone, so another allocator may behave otherwise.  Each
measurement runs in a fresh interpreter because the threshold, once raised,
stays raised for the life of the process.  Where a run allocates in several
blocks, whether its loop faults depends on what the process allocated
before, down to whether the package's bytecode was current, so byte-compile
a checkout (``python -m compileall``) before probing it.  Standard library
only, besides the checkout's own package and its dependencies.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

PRESET = "uncertain-step-compare"
LAWS = ("original", "modified")


def _loop(call, calls: int, repeats: int) -> tuple[float, float]:
    """Best µs per call over the repeats, and minor faults per call over all of them."""
    for _ in range(3):  # warm-up: imports, caches, the first mappings
        call()
    best = float("inf")
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return best * 1e6, faults / (calls * repeats)


def _child(checkout: Path, law: str, kind: str, calls: int, repeats: int) -> dict:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "src"))
    import l1sim

    scenario = l1sim.build_scenario(l1sim.PRESETS[PRESET]["doc"], name=PRESET, law_override=law)
    if kind == "run_scenario":
        us, faults = _loop(lambda: l1sim.run_scenario(scenario), calls, repeats)
        return {"run_scenario": [us, faults]}

    def simulate():
        return l1sim.run_closed_loop(scenario.plant, scenario.augmentation, scenario.signal,
                                     scenario.engine, label=law, model=scenario.loop)

    engine = _loop(simulate, calls, repeats)
    trace = simulate()
    metrics = _loop(lambda: l1sim.compute_metrics(trace, scenario.signal), calls, repeats)
    return {"run_closed_loop": list(engine), "compute_metrics": list(metrics)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--child", nargs=2, metavar=("LAW", "KIND"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if args.child:
        print(json.dumps(_child(checkout, *args.child, args.calls, args.repeats)))
        return 0

    print(f"{PRESET}, 10 001 samples, best of {args.repeats} x {args.calls} calls; {checkout}")
    print(f"{'law':<9} {'operation':<32} {'us/call':>9} {'faults/call':>12}")
    for law in LAWS:
        result = {}
        for kind in ("run_scenario", "alone"):
            proc = subprocess.run(
                [sys.executable, __file__, str(checkout), "--calls", str(args.calls),
                 "--repeats", str(args.repeats), "--child", law, kind],
                capture_output=True, text=True, check=True)
            result.update(json.loads(proc.stdout))
        for name, (us, faults) in result.items():
            print(f"{law:<9} {name:<32} {us:>9.1f} {faults:>12.2f}")
        alone = result["run_closed_loop"][0] + result["compute_metrics"][0]
        print(f"{law:<9} {'run_scenario / (alone sum)':<32} {result['run_scenario'][0] / alone:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
