"""Property tests over random stable, controllable plants of order 2-5."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from l1sim import (
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    UncertainPlant,
    compile_loop,
    run_closed_loop,
)
from l1sim.augmentation import LAWS
from l1sim.engine import lifted_states
from conftest import canonical_plant
from oracle import TRACE_FIELDS, lifted_forcing, rk4_closed_loop, sequential_states

# horizons at the edges of the power-doubling stages of a segment from sample
# 0: N + 1 rows at a power of two or one or two past it, where the last stage
# maps all of the rows it has, one or two
SCAN_HORIZONS = (1, 2, 3, 7, 8, 9, 1023, 1024, 1025)


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
    forcing = model.command_maps[0] + model.disturbance_map  # the level map
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


@given(scenarios(), st.data())
def test_doubling_scan_matches_sequential_recurrence(case, data):
    plant, T, bandwidths, sig = case
    # the command onset on the sample grid, and the disturbance onset before,
    # at or after it
    onset = data.draw(st.sampled_from([0, 2, 3]), "command onset / T")
    sig = ReferenceSignal(kind=sig.kind, onset=onset * T,
                          amplitude=sig.amplitude, gradient=sig.gradient)
    dist = data.draw(st.sampled_from([0, 2, 3, 5]), "disturbance onset / T")
    # a nonzero initial state starts the first segment, and reaches the last
    # row only through the last stage
    x0 = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=plant.n, max_size=plant.n))
    plant = UncertainPlant.from_matrices(
        plant.A, plant.B1, plant.C, x0=x0, f1=plant.f1, f2=plant.f2, onset=dist * T
    )
    for law in LAWS:
        cfg = AugmentationConfig(law=law, sample_period=T, **bandwidths)
        for substeps in (1, 2, 4):
            try:
                model = compile_loop(plant, cfg, substeps)
            except ConfigError:
                assert law == "original"  # a non-minimum-phase plant
                break
            # the segments start where the disturbances or the command come on
            edges = {dist, onset}
            horizons = sorted({*SCAN_HORIZONS, *(n for e in edges for n in (e - 1, e, e + 1)
                                                 if n >= 1)})
            # a row depends only on the rows before it, so every horizon's
            # reference is a prefix of the longest one
            ref = sequential_states(model, lifted_forcing(model, sig, max(horizons)))
            for n in horizons:
                states = lifted_states(model, sig, n)
                scale = float(np.abs(ref[: n + 1]).max())
                assert np.abs(states - ref[: n + 1]).max() <= 1e-12 * scale, (law, substeps, n)
