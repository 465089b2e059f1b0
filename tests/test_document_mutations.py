"""Every mutated document either builds and runs, or is rejected naming a key it mutated."""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from l1sim import PRESETS, ConfigError, EngineConfig, SimulationDiverged, build_scenario
from l1sim import run_closed_loop
from l1sim import scenario as scenario_module
from l1sim.engine import _sample_count

# every key of every section, as ``section.key``
FIELDS = sorted(
    (section, key)
    for section in ("plant", "uncertainty", "reference", "controller", "engine", "output")
    for key in getattr(scenario_module, f"_{section.upper()}_KEYS")
)
# values no key takes as they are: each must build a valid scenario or be rejected
BAD = [
    None, True, False, "abc", "", {"a": 1.0}, [], [[]], [[[1.0]]], [[1.0, 2.0], [3.0]],
    [["a", "b"]], [{"a": 1.0}], [None], [10**400], [[math.inf, 0.0]], [math.nan],
    10**400, -(10**400), math.inf, -math.inf, math.nan, 1e308, -1e308,
]
# a large finite horizon allocates memory in proportion (N + 1 lifted states),
# so it is not drawn; an integrator-step count of 10**400 or 1e308 is past its
# precision bound of 2**22, and no count allocates in proportion to itself
LARGE = {("engine", "t_end"): (1e308,)}
HORIZON = 10  # samples run of whatever builds


@st.composite
def mutated_documents(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    document = copy.deepcopy(PRESETS[preset]["doc"])
    document["controller"]["law"] = draw(st.sampled_from(PRESETS[preset]["laws"]))
    fields = draw(st.lists(st.sampled_from(FIELDS), min_size=1, max_size=2, unique=True))
    for section, key in fields:
        value = draw(st.sampled_from([v for v in BAD if v not in LARGE.get((section, key), ())]))
        document.setdefault(section, {})[key] = value
    return document, [f"{section}.{key}" for section, key in fields]


# the suite's derandomized profile, with more examples: a build costs under a millisecond
@settings(max_examples=300)
@given(mutated_documents())
def test_mutated_document_builds_or_names_its_key(case):
    document, keys = case
    try:
        scenario = build_scenario(document, name="mutated")
    except ConfigError as exc:
        assert any(key in str(exc) for key in keys), (keys, str(exc))
        return
    T = scenario.augmentation.sample_period
    samples = min(HORIZON, _sample_count(scenario.engine.t_end, T))
    engine = EngineConfig(t_end=samples * T,
                          substeps_per_sample=scenario.engine.substeps_per_sample)
    try:
        run_closed_loop(scenario.plant, scenario.augmentation, scenario.signal, engine,
                        model=scenario.loop)
    except SimulationDiverged:
        pass
