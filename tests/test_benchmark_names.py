"""The benchmark's tracer (perfbench/tracer.py) times calls by module and
function name.  A refactor that deletes or renames one of those names makes
the benchmark report it as absent; this test makes that a test failure."""

import importlib.util
from pathlib import Path

import l1sim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    probe = load_tracer().Tracer()
    probe.install()
    try:
        assert probe.absent == []
        assert hasattr(l1sim.scenario.run_closed_loop, "__wrapped__")
    finally:
        probe.restore()
    assert l1sim.scenario.run_closed_loop is l1sim.engine.run_closed_loop
    assert not hasattr(l1sim.engine.run_closed_loop, "__wrapped__")
