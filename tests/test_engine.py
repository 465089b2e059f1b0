import copy
import math
import tracemalloc

import numpy as np
import pytest

from l1sim import (
    PRESETS,
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    SimulationDiverged,
    UncertainPlant,
    build_scenario,
    compile_loop,
    discretize_zoh,
    mat_exp,
    rk4_step,
    run_closed_loop,
    run_scenario,
)
from l1sim.augmentation import LAWS
from l1sim.engine import lifted_states
from l1sim.statespace import StateSpaceModel
from conftest import BENCH_A, BENCH_B1, BENCH_C, canonical_plant, seeded_canonical_plants
from oracle import TRACE_FIELDS, lifted_forcing, max_deviation, rk4_closed_loop, sequential_states

# the size key of each command kind; a signal takes only its own kind's key
KIND_KEY = {"step": "amplitude", "ramp": "gradient"}


class TestRk4Step:
    def test_zero_derivative(self):
        x = np.array([1.0, -2.0])
        out = rk4_step(lambda t, s: np.zeros(2), 0.0, x, 0.1)
        np.testing.assert_array_equal(out, x)

    def test_scalar_decay_closed_form(self):
        out = rk4_step(lambda t, s: -s, 0.0, np.array([1.0]), 0.001)
        assert out[0] == pytest.approx(0.9990005, abs=1e-9)
        assert out[0] == pytest.approx(math.exp(-0.001), abs=1e-12)

    def test_linear_system_vs_exact_propagator(self):
        rng = np.random.default_rng(19)
        h = 1e-3
        prop = mat_exp(BENCH_A, h)
        for _ in range(10):
            x = rng.standard_normal(2)
            out = rk4_step(lambda t, s: BENCH_A @ s, 0.0, x, h)
            np.testing.assert_allclose(out, prop @ x, atol=1e-10)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError, match="> 0"):
            rk4_step(lambda t, s: s, 0.0, np.zeros(1), 0.0)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="t_end"):
            EngineConfig(t_end=0.0)
        for bad in (0, 1.5, "abc", float("nan"), True):
            with pytest.raises(ConfigError, match="engine.substeps_per_sample"):
                EngineConfig(substeps_per_sample=bad)
        assert EngineConfig(substeps_per_sample=3.0).substeps_per_sample == 3

    @pytest.mark.parametrize("count", [10**400, 1e308], ids=["int-10e400", "float-1e308"])
    def test_step_count_past_the_index_range_names_its_key(self, count):
        # far past the precision bound below, and past numpy's index range too
        with pytest.raises(ConfigError, match=r"engine\.substeps_per_sample must be at most"):
            EngineConfig(substeps_per_sample=count)

    def test_step_count_past_the_precision_bound_names_its_key(self):
        # the sample's propagator drifts by about S eps: 2**22 eps is the grid's 1e-9
        assert EngineConfig(substeps_per_sample=2**22).substeps_per_sample == 2**22
        with pytest.raises(ConfigError, match=r"engine\.substeps_per_sample must be at most 2\*\*22"):
            EngineConfig(substeps_per_sample=2**22 + 1)

    def test_largest_step_count_compiles_without_allocating_per_step(self, bench_plant):
        # the steps fold by one matrix power: 2**22 of them cost 22 squarings
        eng = EngineConfig(t_end=0.01, substeps_per_sample=2**22)
        cfg = AugmentationConfig(law="modified")
        tracemalloc.start()
        try:
            model = compile_loop(bench_plant, cfg, eng.substeps_per_sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # and the propagator is still e^(A T) to the grid's tolerance
        prop = model.transition[model.blocks["plant"], model.blocks["plant"]]
        exact = compile_loop(bench_plant, cfg).transition[model.blocks["plant"], model.blocks["plant"]]
        assert np.abs(prop - exact).max() <= 1e-9 * np.abs(exact).max()

    def test_t_end_must_align_with_sample_grid(self, bench_plant):
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        with pytest.raises(ConfigError, match="whole number"):
            run_closed_loop(
                bench_plant,
                AugmentationConfig(law="off"),
                sig,
                EngineConfig(t_end=0.0105),
            )


class TestClosedLoop:
    def test_trace_shape_and_grid(self, bench_plant):
        sig = ReferenceSignal(kind="step", onset=0.1, amplitude=1.0)
        trace = run_closed_loop(
            bench_plant, AugmentationConfig(law="off"), sig, EngineConfig(t_end=0.5),
            label="demo",
        )
        assert trace.n_samples == 501
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(trace.t) > 0)
        assert trace.label == "demo"
        assert trace.u_a.shape == (501, 1)
        assert trace.x.shape == (501, 2)

    def test_determinism_bit_identical(self, bench_uncertain_plant):
        sig = ReferenceSignal(kind="step", onset=0.2, amplitude=1.0)
        cfg = AugmentationConfig(law="modified")
        eng = EngineConfig(t_end=1.0)
        t1 = run_closed_loop(bench_uncertain_plant, cfg, sig, eng)
        t2 = run_closed_loop(bench_uncertain_plant, cfg, sig, eng)
        for name in ("t", "r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name)), name

    def test_states_do_not_depend_on_the_horizon(self):
        # the segment from the onset at sample 5 has 2^i + 1 rows at these
        # horizons, so its last power-doubling stage maps a single row
        p = UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, x0=[0.3, -0.7],
                                         f1=[0.05], f2=[0.001], onset=5e-3)
        model = compile_loop(p, AugmentationConfig(law="modified"))
        for kind in ("step", "ramp"):
            sig = ReferenceSignal(kind=kind, onset=0.0, **{KIND_KEY[kind]: 1.0})
            longest = lifted_states(model, sig, 300)
            for n in (6, 7, 9, 13, 21, 37, 69, 133, 261):
                assert np.array_equal(lifted_states(model, sig, n), longest[: n + 1]), (kind, n)

    @pytest.mark.parametrize("period, onset", [(0.3, 1226.7), (0.1, 1653.7000000000003)])
    def test_segments_start_where_the_hold_grid_switches(self, period, onset):
        # onset / period rounds to one side of the sample whose start time
        # compares the other way, so a segment placed by the quotient alone
        # would be off by a sample
        p = UncertainPlant.from_matrices([[-1.0]], [[1.0]], [[1.0]])
        model = compile_loop(p, AugmentationConfig(law="off", sample_period=period))
        sig = ReferenceSignal(kind="step", onset=onset, amplitude=1.0)
        n = round(onset / period) + 3
        ref = sequential_states(model, lifted_forcing(model, sig, n))
        assert np.array_equal(lifted_states(model, sig, n), ref)

    @pytest.mark.parametrize("substeps", [1, 4, 1024])
    def test_ramp_lag_matches_the_staircase_closed_form(self, substeps):
        # paper-siso lags a ramp by 2 zeta / omega_n = 0.2 s, and a ramp held
        # over steps of h = T / S lags itself by h / 2 on average
        doc = copy.deepcopy(PRESETS["nominal-ramp"]["doc"])
        doc["engine"]["substeps_per_sample"] = substeps
        sc = build_scenario(doc)
        lag = run_scenario(sc).metrics.tracking_lag
        assert abs(lag - 0.2 - sc.augmentation.sample_period / (2 * substeps)) <= 1e-9

    def test_law_off_matches_zoh_exact_propagation(self, bench_uncertain_plant):
        # constant command from t = 0 and constant disturbances: the sampled
        # states must match the exact hold-equivalent recurrence
        p = bench_uncertain_plant
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        cfg = AugmentationConfig(law="off")
        trace = run_closed_loop(p, cfg, sig, EngineConfig(t_end=1.0))
        d = discretize_zoh(
            StateSpaceModel(A=p.A, B=np.eye(2), C=p.C), cfg.sample_period
        )
        w = p.B1 @ (np.array([0.05]) + p.k_ff * 1.0) + p.B2 @ np.array([0.001])
        x = np.zeros(2)
        for i in range(trace.n_samples):
            np.testing.assert_allclose(trace.x[i], x, atol=1e-8)
            x = d.A @ x + d.B @ w
    def test_rejects_model_compiled_for_other_configuration(self, bench_plant):
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        cfg = AugmentationConfig(law="modified")
        model = compile_loop(bench_plant, AugmentationConfig(law="modified"))
        with pytest.raises(ValueError, match="different plant or configuration"):
            run_closed_loop(bench_plant, cfg, sig, EngineConfig(t_end=0.01), model=model)

    def test_rejects_model_compiled_for_other_substeps(self, bench_plant):
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        cfg = AugmentationConfig(law="modified")
        model = compile_loop(bench_plant, cfg)
        eng = EngineConfig(t_end=0.01, substeps_per_sample=4)
        with pytest.raises(ValueError, match="different plant or configuration"):
            run_closed_loop(bench_plant, cfg, sig, eng, model=model)
        run_closed_loop(bench_plant, cfg, sig, eng, model=compile_loop(bench_plant, cfg, 4))

    def test_step_refinement_converged(self, bench_uncertain_plant):
        sig = ReferenceSignal(kind="step", onset=0.5, amplitude=1.0)
        cfg = AugmentationConfig(law="modified")
        y1 = run_closed_loop(bench_uncertain_plant, cfg, sig, EngineConfig(t_end=2.0)).y[-1]
        y2 = run_closed_loop(
            bench_uncertain_plant, cfg, sig, EngineConfig(t_end=2.0, substeps_per_sample=2)
        ).y[-1]
        assert abs(y1 - y2) < 1e-6

    def test_divergence_reports_time(self):
        p = UncertainPlant.from_matrices([[500.0]], [[1.0]], [[1.0]])
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        with pytest.raises(SimulationDiverged) as err:
            run_closed_loop(p, AugmentationConfig(law="off"), sig, EngineConfig(t_end=3.0))
        assert 0.0 < err.value.time <= 3.0
        assert "diverged" in str(err.value)

    def test_divergence_names_block_and_sample(self):
        p = UncertainPlant.from_matrices([[500.0]], [[1.0]], [[1.0]])
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        with pytest.raises(SimulationDiverged) as err:
            run_closed_loop(p, AugmentationConfig(law="off"), sig, EngineConfig(t_end=3.0))
        # plant and reference model share A = 500 and overflow together;
        # the plant is the first block of the state
        assert err.value.block == "plant"
        assert err.value.sample * 1e-3 == err.value.time
        assert 1e307 < err.value.last_norm < math.inf
        assert f"sample {err.value.sample}: the plant state" in str(err.value)

    @pytest.mark.parametrize(
        "a, b1, c, f1, law, t_end, sample, kind, block",
        [
            ([[500.0]], [[1.0]], [[1.0]], None, "off", 3.0, 1420, "step", "plant"),
            ([[300.0, 1.0], [0.0, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]], None, "off", 3.0, 2366,
             "step", "plant"),
            # the doubling scan's own rounding would name sample 11822 here
            ([[100.0, 50.0], [-40.0, 20.0]], [[1.0], [0.5]], [[0.0, 1.0]], [0.1],
             "modified", 30.0, 11821, "step", "plant"),
            ([[100.0, 50.0], [-40.0, 20.0]], [[1.0], [0.5]], [[0.0, 1.0]], [0.1],
             "matched_only", 30.0, 11821, "step", "plant"),
            # under a unit ramp the reference model's state overflows first,
            # at the same sample under every law
            *[([[100.0, 50.0], [-40.0, 20.0]], [[1.0], [0.5]], [[0.0, 1.0]], [0.1],
               law, 30.0, 11885, "ramp", "reference model")
              for law in ("off", "matched_only", "modified")],
        ],
    )
    def test_divergence_matches_sequential_recurrence(self, a, b1, c, f1, law, t_end, sample,
                                                      kind, block):
        p = UncertainPlant.from_matrices(a, b1, c, f1=f1)
        cfg = AugmentationConfig(law=law)
        sig = ReferenceSignal(kind=kind, onset=0.0, **{KIND_KEY[kind]: 1.0})
        eng = EngineConfig(t_end=t_end)
        model = compile_loop(p, cfg)
        with pytest.raises(SimulationDiverged) as err:
            run_closed_loop(p, cfg, sig, eng, model=model)
        ref = sequential_states(model, lifted_forcing(model, sig, round(t_end / 1e-3)))
        k = int(np.argmin(np.isfinite(ref).all(axis=1)))
        first = next(name for name, cols in model.blocks.items()
                     if not np.isfinite(ref[k, cols]).all())
        assert (err.value.sample, err.value.block) == (k, first) == (sample, block)
        assert err.value.last_norm == float(np.abs(ref[k - 1]).max())

    def test_overflowing_scan_powers_are_not_a_divergence(self):
        # M^2048 = e^1024 overflows, while a 1e-300 command, held or ramping,
        # keeps every state below 1e157: the sequential pass finds no divergence
        p = UncertainPlant.from_matrices([[500.0]], [[1.0]], [[1.0]])
        cfg = AugmentationConfig(law="off")
        model = compile_loop(p, cfg)
        for kind in ("step", "ramp"):
            sig = ReferenceSignal(kind=kind, onset=0.0, **{KIND_KEY[kind]: 1e-300})
            trace = run_closed_loop(p, cfg, sig, EngineConfig(t_end=2.1), model=model)
            ref = sequential_states(model, lifted_forcing(model, sig, 2100))
            assert np.isfinite(ref).all()
            assert np.array_equal(trace.x, ref[:, model.blocks["plant"]])

    def test_estimates_recorded_with_law_off(self, bench_uncertain_plant):
        # the estimator observes even when the augmentation injects nothing
        sig = ReferenceSignal(kind="step", onset=0.2, amplitude=1.0)
        trace = run_closed_loop(
            bench_uncertain_plant, AugmentationConfig(law="off"), sig, EngineConfig(t_end=1.0)
        )
        assert np.all(trace.u_a == 0.0)
        assert trace.sigma1[-1, 0] == pytest.approx(0.05, abs=1e-4)


def row_wise_projections(model, states) -> dict:
    """Each trace field that ``run_closed_loop`` projects from the lifted
    states, by its definition, formed row by row: sigma = x_tilde gain^T,
    u_a = s input_map^T + 0.0, y = C x, y_m = C x_m and x_hat = x + x_tilde."""
    blocks, c = model.blocks, model.plant.C[0]
    x, x_tilde = states[:, blocks["plant"]], states[:, blocks["predictor"]]
    sigma = x_tilde @ model.gain.T
    return {"y": x @ c, "y_m": states[:, blocks["reference model"]] @ c,
            "u_a": states @ model.input_map.T + 0.0, "sigma1": sigma[:, :1],
            "sigma2": sigma[:, 1:], "x": x, "x_hat": x + x_tilde}


@pytest.mark.parametrize("law", LAWS)
def test_trace_fields_are_their_row_wise_definitions(law):
    """Every projected field is bit-equal to its definition, sign of zero
    included, on each preset run of the law at full length, and on seeded
    plants of order 1-5 with a nonzero start, disturbances and negative
    step and ramp commands."""
    runs = [(sc.plant, sc.augmentation, sc.signal, sc.engine)
            for name in sorted(PRESETS) if law in PRESETS[name]["laws"]
            for sc in [build_scenario(PRESETS[name]["doc"], law_override=law)]]
    rng = np.random.default_rng(26)
    for p in [UncertainPlant.from_matrices([[-2.0]], [[1.0]], [[3.0]]),
              *seeded_canonical_plants(26, 2)]:
        plant = UncertainPlant.from_matrices(
            p.A, p.B1, p.C, x0=rng.standard_normal(p.n), f1=rng.standard_normal(1),
            f2=rng.standard_normal(p.n - 1), onset=0.05)
        for kind in ("step", "ramp"):
            sig = ReferenceSignal(kind=kind, onset=0.1, **{KIND_KEY[kind]: -rng.uniform(0.5, 2.0)})
            runs.append((plant, AugmentationConfig(law=law), sig,
                         EngineConfig(t_end=0.5, substeps_per_sample=2)))
    assert len(runs) >= 18
    for plant, cfg, sig, eng in runs:
        model = compile_loop(plant, cfg, eng.substeps_per_sample)
        trace = run_closed_loop(plant, cfg, sig, eng, model=model)
        states = lifted_states(model, sig, trace.n_samples - 1)
        for name, want in row_wise_projections(model, states).items():
            got = getattr(trace, name)
            assert got.shape == want.shape and np.array_equal(got, want), name
            assert np.array_equal(np.signbit(got), np.signbit(want)), name


class TestExactEngine:
    """The exact lifted engine against the RK4 oracle in ``tests/oracle.py``."""

    @pytest.mark.parametrize(
        "preset, law", [(name, law) for name in sorted(PRESETS) for law in PRESETS[name]["laws"]]
    )
    def test_matches_rk4_oracle_on_presets(self, preset, law):
        sc = build_scenario(copy.deepcopy(PRESETS[preset]["doc"]), law_override=law)
        assert sc.engine.substeps_per_sample == 1
        exact = run_closed_loop(sc.plant, sc.augmentation, sc.signal, sc.engine)
        oracle = rk4_closed_loop(sc.plant, sc.augmentation, sc.signal, sc.engine)
        assert max_deviation(exact, oracle) <= 1e-9

    @pytest.mark.parametrize(
        "preset, law", [(name, law) for name in sorted(PRESETS) for law in PRESETS[name]["laws"]]
    )
    def test_full_length_states_match_sequential_recurrence(self, preset, law):
        # the powers of M^n are formed by repeated squaring, whose error grows
        # with the horizon: check it at the presets' full length
        sc = build_scenario(copy.deepcopy(PRESETS[preset]["doc"]), law_override=law)
        n = round(sc.engine.t_end / sc.augmentation.sample_period)
        states = lifted_states(sc.loop, sc.signal, n)
        ref = sequential_states(sc.loop, lifted_forcing(sc.loop, sc.signal, n))
        assert states.shape[0] == 10_001
        assert np.abs(states - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_rk4_oracle_converges_at_fourth_order(self):
        # stiff for the sample period: poles up to |22| at T = 5 ms, so one
        # RK4 step per sample leaves an error far above rounding
        T = 5e-3
        p = canonical_plant(
            [-20 + 10j, -20 - 10j, -15, -8], [-3, -6 + 2j, -6 - 2j], 2.0,
            f1=[0.05], f2=[0.004, -0.003, 0.002], onset=5 * T,
        )
        cfg = AugmentationConfig(
            law="original", sample_period=T, bandwidth_matched=80.0, bandwidth_unmatched=80.0
        )
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        errors = []
        for substeps in (1, 4, 16):
            eng = EngineConfig(t_end=32 * T, substeps_per_sample=substeps)
            errors.append(
                max_deviation(
                    run_closed_loop(p, cfg, sig, eng), rk4_closed_loop(p, cfg, sig, eng)
                )
            )
        assert errors[0] > 1e-6
        assert errors[0] / errors[1] >= 100.0
        assert errors[1] / errors[2] >= 100.0


class TestOnsetTiming:
    """A disturbance onset on the sample grid takes effect from the first
    sample that starts at or after it, so no sample at or before it sees it."""

    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("period, onset", [(2.0**-10, 32 * 2.0**-10), (1e-3, 0.05)])
    def test_no_disturbance_effect_up_to_onset(self, substeps, period, onset):
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        cfg = AugmentationConfig(law="modified", sample_period=period)
        eng = EngineConfig(t_end=96 * period, substeps_per_sample=substeps)
        quiet = UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C)
        disturbed = UncertainPlant.from_matrices(
            BENCH_A,
            BENCH_B1,
            BENCH_C,
            f1=[0.05],
            f2=[0.001],
            onset=onset,
        )
        a = run_closed_loop(quiet, cfg, sig, eng)
        b = run_closed_loop(disturbed, cfg, sig, eng)
        upto = a.t <= onset
        assert a.t[upto][-1] == pytest.approx(onset, abs=1e-12)
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(a, name)[upto], getattr(b, name)[upto]), name
        # it acts from the sample that starts at the onset
        first_after = int(np.argmin(upto))
        assert not np.array_equal(a.x[first_after], b.x[first_after])

    def test_onset_off_the_sample_grid_rejected(self):
        cfg = AugmentationConfig(law="modified", sample_period=1e-3)
        late = UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, f1=[0.05], onset=0.0005)
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        model = compile_loop(late, cfg)  # the loop model reads no onset: the engine checks it
        with pytest.raises(ConfigError, match=r"uncertainty\.onset = 0\.0005 must be a whole"):
            run_closed_loop(late, cfg, sig, EngineConfig(t_end=0.01), model=model)

    @pytest.mark.parametrize(
        "period, onset",
        [(1e-3, 0.1), (1e-3, 0.0), (2.0**-10, 32 * 2.0**-10)]
        + [(period, 5 * period) for period in (1e-3, 2e-3, 5e-3)],
    )
    def test_onset_on_the_sample_grid_accepted(self, period, onset):
        cfg = AugmentationConfig(law="modified", sample_period=period)
        plant = UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, onset=onset)
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        # the onset is checked on the grid whether or not it falls inside the horizon
        run_closed_loop(plant, cfg, sig, EngineConfig(t_end=10 * period))
