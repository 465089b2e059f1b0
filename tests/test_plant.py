import numpy as np
import pytest

from l1sim import (
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    UncertainPlant,
    UncertaintySpec,
    plant_deriv,
    reference_model_deriv,
    reference_value,
    run_closed_loop,
)
from conftest import BENCH_A, BENCH_B1, BENCH_C


class TestReferenceSignal:
    def test_step_before_onset(self):
        sig = ReferenceSignal(kind="step", onset=2.0, amplitude=1.0)
        assert reference_value(sig, 1.99) == 0.0

    def test_step_at_onset(self):
        sig = ReferenceSignal(kind="step", onset=2.0, amplitude=1.0)
        assert reference_value(sig, 2.0) == 1.0

    def test_ramp_value(self):
        sig = ReferenceSignal(kind="ramp", onset=2.0, gradient=1.0)
        assert reference_value(sig, 5.0) == pytest.approx(3.0)
        assert reference_value(sig, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError, match="reference.kind"):
            ReferenceSignal(kind="impulse", onset=0.0, amplitude=1.0)
        with pytest.raises(ConfigError, match="reference.onset must be >= 0"):
            ReferenceSignal(kind="step", onset=-1.0, amplitude=1.0)
        with pytest.raises(ConfigError, match="reference.onset must be a number"):
            ReferenceSignal(kind="step", onset="soon", amplitude=1.0)
        with pytest.raises(ConfigError, match="reference.amplitude"):
            ReferenceSignal(kind="step", onset=0.0)
        with pytest.raises(ConfigError, match="reference.gradient"):
            ReferenceSignal(kind="ramp", onset=0.0)
        with pytest.raises(ConfigError, match="reference.amplitude must be a number"):
            ReferenceSignal(kind="step", onset=0.0, amplitude="big")
        assert ReferenceSignal(kind="step", onset="2", amplitude=1).onset == 2.0


class TestUncertaintySpec:
    def test_onset_gating(self):
        spec = UncertaintySpec(matched=[0.05], unmatched=[0.001], onset=2.0)
        f1, f2 = spec.matched_fn(), spec.unmatched_fn()
        x = np.zeros(2)
        assert np.array_equal(f1(x, 1.9), [0.0])
        assert np.array_equal(f1(x, 2.0), [0.05])
        assert np.array_equal(f2(x, 3.0), [0.001])

    def test_scalar_coercion(self):
        spec = UncertaintySpec(matched=0.05, unmatched=0.001)
        assert spec.matched.shape == (1,)

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="uncertainty.onset must be >= 0"):
            UncertaintySpec(matched=[0.05], unmatched=[0.001], onset=-1.0)
        with pytest.raises(ConfigError, match="uncertainty.unmatched has non-finite"):
            UncertaintySpec(matched=[0.05], unmatched=[float("inf")])

    def test_absent_channel_has_no_function(self):
        spec = UncertaintySpec(matched=[0.05])
        assert spec.unmatched is None and spec.unmatched_fn() is None


class TestPlantConstruction:
    def test_benchmark_fixture_sanity(self, bench_plant):
        assert bench_plant.k_ff == pytest.approx(0.025, rel=1e-12)
        np.testing.assert_allclose(bench_plant.B2, [[0.0], [1.0]], atol=1e-14)
        # closed-loop poles at -5 +/- 5j (damping ~0.707)
        eigs = np.sort_complex(np.linalg.eigvals(bench_plant.A))
        np.testing.assert_allclose(eigs, [-5.0 - 5.0j, -5.0 + 5.0j], atol=1e-12)

    def test_rejects_non_orthogonal_b2(self):
        with pytest.raises(ValueError, match="orthogonal"):
            UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, B2=[[1.0], [1.0]])

    def test_rejects_inconsistent_k_ff(self, bench_plant):
        with pytest.raises(ValueError, match="feedforward"):
            UncertainPlant(
                A=bench_plant.A,
                B1=bench_plant.B1,
                B2=bench_plant.B2,
                C=bench_plant.C,
                k_ff=1.0,
                x0=bench_plant.x0,
                f1=bench_plant.f1,
                f2=bench_plant.f2,
            )

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError, match="plant.A must be square"):
            UncertainPlant.from_matrices(np.ones((2, 3)), BENCH_B1, BENCH_C)
        with pytest.raises(ConfigError, match="plant.x0"):
            UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, x0=[0.0, 0.0, 0.0])
        with pytest.raises(ConfigError, match="plant.B2 has non-finite"):
            UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, B2=[[0.0], [float("nan")]])

    def test_flat_b1_is_one_column(self):
        p = UncertainPlant.from_matrices(BENCH_A, [2000.0, 0.0], BENCH_C)
        np.testing.assert_array_equal(p.B1, BENCH_B1)

    def test_single_state_plant_has_empty_complement(self):
        p = UncertainPlant.from_matrices([[-1.0]], [[1.0]], [[1.0]])
        assert p.B2.shape == (1, 0)
        assert p.n_unmatched == 0


class TestDerivatives:
    def test_equilibrium_at_origin(self, bench_plant):
        d = plant_deriv(bench_plant, np.zeros(2), np.zeros(1), 0.0, 0.0)
        np.testing.assert_array_equal(d, np.zeros(2))

    def test_disturbed_step_injection(self, bench_uncertain_plant):
        # x = 0, r = 1, u_a = 0: B1 (k_ff + f1) + B2 f2 = [2000*0.075, 0.001]
        d = plant_deriv(bench_uncertain_plant, np.zeros(2), np.zeros(1), 1.0, 0.0)
        np.testing.assert_allclose(d, [150.0, 0.001], rtol=1e-12)

    def test_unaugmented_steady_state_output(self, bench_uncertain_plant):
        # linear-solve oracle for the uncompensated steady state
        p = bench_uncertain_plant
        rhs = p.B1 @ (np.array([0.05]) + p.k_ff * 1.0) + p.B2 @ np.array([0.001])
        x_ss = np.linalg.solve(-p.A, rhs)
        y_ss = (p.C @ x_ss).item()
        assert y_ss == pytest.approx(3.0002, abs=1e-9)
        # the derivative vanishes there
        d = plant_deriv(p, x_ss, np.zeros(1), 1.0, 10.0)
        np.testing.assert_allclose(d, np.zeros(2), atol=1e-10)

    def test_reference_model_zero(self, bench_plant):
        np.testing.assert_array_equal(
            reference_model_deriv(bench_plant, np.zeros(2), 0.0), np.zeros(2)
        )

    def test_matches_plant_without_disturbances(self, bench_plant):
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = rng.standard_normal(2)
            r = float(rng.standard_normal())
            t = float(rng.uniform(0.0, 10.0))
            d_plant = plant_deriv(bench_plant, x, np.zeros(1), r, t)
            d_ref = reference_model_deriv(bench_plant, x, r)
            np.testing.assert_allclose(d_plant, d_ref, atol=1e-14)

    def test_reference_model_unit_dc(self, bench_plant):
        # steady state of the reference model under r = 1 has unit output
        rhs = bench_plant.B1 @ np.array([bench_plant.k_ff * 1.0])
        x_ss = np.linalg.solve(-bench_plant.A, rhs)
        assert (bench_plant.C @ x_ss).item() == pytest.approx(1.0, abs=1e-12)


class TestSimulatedSteadyState:
    def test_converges_to_analytic_value(self, bench_uncertain_plant):
        # ten dominant time constants (tau = 0.2 s) at law = off
        p = bench_uncertain_plant
        sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
        trace = run_closed_loop(
            p, AugmentationConfig(law="off"), sig, EngineConfig(t_end=2.0)
        )
        rhs = p.B1 @ (np.array([0.05]) + p.k_ff * 1.0) + p.B2 @ np.array([0.001])
        y_expect = (p.C @ np.linalg.solve(-p.A, rhs)).item()
        assert trace.y[-1] == pytest.approx(y_expect, abs=1e-3)
