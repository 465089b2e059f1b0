import math

import numpy as np
import pytest

from l1sim import (
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    SimulationDiverged,
    UncertainPlant,
    compile_loop,
    constant_disturbance,
    discretize_zoh,
    mat_exp,
    rk4_step,
    run_closed_loop,
)
from l1sim.statespace import StateSpaceModel
from conftest import BENCH_A, BENCH_B1, BENCH_C


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

    def test_integrator_step_divides_sample(self):
        eng = EngineConfig(t_end=1.0, substeps_per_sample=4)
        assert eng.integrator_step(1e-3) == pytest.approx(2.5e-4)

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

    def test_estimates_recorded_with_law_off(self, bench_uncertain_plant):
        # the estimator observes even when the augmentation injects nothing
        sig = ReferenceSignal(kind="step", onset=0.2, amplitude=1.0)
        trace = run_closed_loop(
            bench_uncertain_plant, AugmentationConfig(law="off"), sig, EngineConfig(t_end=1.0)
        )
        assert np.all(trace.u_a == 0.0)
        assert trace.sigma1[-1, 0] == pytest.approx(0.05, abs=1e-4)


TRACE_FIELDS = ("r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde")


class TestOnsetTiming:
    """A disturbance onset takes effect from the first integrator step that
    starts at or after it, so no sample at or before the onset sees it."""

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
            f1=constant_disturbance([0.05], onset),
            f2=constant_disturbance([0.001], onset),
        )
        a = run_closed_loop(quiet, cfg, sig, eng)
        b = run_closed_loop(disturbed, cfg, sig, eng)
        upto = a.t <= onset
        assert a.t[upto][-1] == pytest.approx(onset, abs=1e-12)
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(a, name)[upto], getattr(b, name)[upto]), name
        # it acts from the step that starts at the onset
        first_after = int(np.argmin(upto))
        assert not np.array_equal(a.x[first_after], b.x[first_after])
