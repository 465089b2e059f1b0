"""Runs ``l1sim.cli.main`` under the tracer, for the traced cold-cli workload.

    python perfbench/cli_launcher.py TRACE.json SPAN_CAP CLI-ARGS...

The package is imported before the tracer is installed, so import time is
not in the totals; the traced run measures it separately with
``-X importtime``.  Writes the tracer's totals, and up to SPAN_CAP spans, to
TRACE.json, then exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

import l1sim.cli

from tracer import Tracer


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer(span_cap=int(sys.argv[2]))
    tracer.install()
    try:
        code = l1sim.cli.main(sys.argv[3:])
    finally:
        tracer.restore()
    out.write_text(json.dumps(tracer.aggregates()))
    return code


if __name__ == "__main__":
    sys.exit(main())
