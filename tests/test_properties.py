"""Property tests over random stable, controllable plants of order 2-5."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from l1sim import (
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    compile_loop,
    run_closed_loop,
)
from l1sim.augmentation import LAWS
from conftest import canonical_plant
from oracle import TRACE_FIELDS, rk4_closed_loop


@st.composite
def plant_roots(draw, count: int, lo: float, hi: float, signed: bool) -> list[complex]:
    """Real roots in [-hi, -lo] (either sign when ``signed``), with one complex
    pair when there is room for it."""
    roots = [-draw(st.floats(lo, hi)) for _ in range(count)]
    if signed:
        roots = [draw(st.sampled_from([1, -1])) * r for r in roots]
    if count >= 2 and draw(st.booleans()):
        im = draw(st.floats(1.0, 10.0))
        roots[0], roots[1] = complex(roots[0], im), complex(roots[0], -im)
    return roots


@st.composite
def scenarios(draw):
    order = draw(st.integers(2, 5))
    poles = np.array(draw(plant_roots(order, 1.0, 20.0, signed=False)))
    zeros = np.array(draw(plant_roots(order - 1, 0.5, 15.0, signed=True)))
    # no near pole-zero cancellation, and a bounded initial transient
    assume(np.min(np.abs(zeros[:, None] - poles[None, :])) >= 0.3)
    assume(abs(np.prod(poles) / np.prod(zeros)) <= 200.0)
    T = draw(st.sampled_from([1e-3, 2e-3, 5e-3]))
    plant = canonical_plant(
        poles, zeros, draw(st.floats(0.5, 5.0)),
        f1=[draw(st.floats(-0.1, 0.1))],
        f2=draw(st.lists(st.floats(-0.01, 0.01), min_size=order - 1, max_size=order - 1)),
        onset=draw(st.sampled_from([0, 5])) * T,
    )
    kind = draw(st.sampled_from(["step", "ramp"]))
    size = draw(st.floats(0.5, 2.0))
    sig = ReferenceSignal(
        kind=kind, onset=draw(st.sampled_from([0, 3])) * T,
        amplitude=size if kind == "step" else None, gradient=size if kind == "ramp" else None,
    )
    bandwidths = {
        key: draw(st.sampled_from([10.0, 40.0, 80.0]))
        for key in ("bandwidth_matched", "bandwidth_unmatched")
    }
    return plant, T, bandwidths, sig


def dc_output(model) -> float:
    """Output at the fixed point of the lifted loop under a unit step command
    and the disturbances acting."""
    d = model.transition.shape[0]
    forcing = model.command_maps.sum(axis=0) + model.disturbance_map
    state = np.linalg.solve(np.eye(d) - model.transition, forcing)
    return model.plant.output(state[model.blocks["plant"]])


@given(scenarios())
def test_exact_engine_matches_rk4_oracle_under_every_law(case):
    plant, T, bandwidths, sig = case
    eng = EngineConfig(t_end=24 * T, substeps_per_sample=4)
    dc = {}
    for law in LAWS:
        cfg = AugmentationConfig(law=law, sample_period=T, **bandwidths)
        try:
            model = compile_loop(plant, cfg, eng.substeps_per_sample)
        except ConfigError:
            assert law == "original"  # a non-minimum-phase plant
            continue
        exact = run_closed_loop(plant, cfg, sig, eng, model=model)
        oracle = rk4_closed_loop(plant, cfg, sig, eng)
        for name in TRACE_FIELDS:
            a, b = getattr(exact, name), getattr(oracle, name)
            scale = max(1.0, float(np.abs(b).max(initial=0.0)))
            assert np.abs(a - b).max(initial=0.0) <= 1e-6 * scale, (law, name)
        dc[law] = dc_output(model)
    if "original" in dc:
        assert abs(dc["original"] - dc["modified"]) <= 1e-9 * max(1.0, abs(dc["modified"]))
