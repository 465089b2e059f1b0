from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from l1sim import (
    AugmentationConfig,
    ConfigError,
    EngineConfig,
    ReferenceSignal,
    StateSpaceModel,
    UncertainPlant,
    compile_loop,
    null_complement,
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


def disturbed(**kwargs) -> UncertainPlant:
    return UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, **kwargs)


class TestUncertaintySpec:
    """The plant's disturbances: constant vectors f1, f2 and their onset."""

    def test_onset_gating(self):
        p = disturbed(f1=[0.05], f2=[0.001], onset=2.0)
        x, u_a = np.zeros(2), np.zeros(1)
        # x = 0, r = 0, u_a = 0: the derivative is B1 f1 + B2 f2 once active
        assert np.array_equal(plant_deriv(p, x, u_a, 0.0, 1.9), [0.0, 0.0])
        np.testing.assert_allclose(plant_deriv(p, x, u_a, 0.0, 2.0), [100.0, 0.001], rtol=1e-12)

    def test_scalar_coercion(self):
        p = disturbed(f1=0.05, f2=0.001, onset="2")
        assert p.f1.shape == (1,) and p.f2.shape == (1,)
        assert p.onset == 2.0

    def test_validation_names_key(self):
        with pytest.raises(ConfigError, match="uncertainty.onset must be >= 0"):
            disturbed(f1=[0.05], f2=[0.001], onset=-1.0)
        with pytest.raises(ConfigError, match="uncertainty.unmatched has non-finite"):
            disturbed(f1=[0.05], f2=[float("inf")])
        with pytest.raises(ConfigError, match="uncertainty.matched must have 1 entries"):
            disturbed(f1=[0.05, 0.05])
        with pytest.raises(ConfigError, match="uncertainty.onset must be a number"):
            disturbed(onset="soon")

    def test_absent_channel_is_zero(self):
        p = disturbed(f1=[0.05])
        assert np.array_equal(p.f2, [0.0]) and not np.signbit(p.f2).any()
        assert p.onset == 0.0


class TestPlantConstruction:
    def test_benchmark_fixture_sanity(self, bench_plant):
        assert bench_plant.k_ff == pytest.approx(0.025, rel=1e-12)
        np.testing.assert_allclose(bench_plant.B2, [[0.0], [1.0]], atol=1e-14)
        # closed-loop poles at -5 +/- 5j (damping ~0.707)
        eigs = np.sort_complex(np.linalg.eigvals(bench_plant.A))
        np.testing.assert_allclose(eigs, [-5.0 - 5.0j, -5.0 + 5.0j], atol=1e-12)

    def test_k_ff_is_derived(self, bench_plant):
        with pytest.raises(TypeError, match="k_ff"):
            UncertainPlant(A=BENCH_A, B1=BENCH_B1, C=BENCH_C, k_ff=1.0)
        assert UncertainPlant(A=BENCH_A, B1=BENCH_B1, C=BENCH_C).k_ff == bench_plant.k_ff

    def test_b2_is_derived(self, bench_plant):
        with pytest.raises(TypeError, match="B2"):
            UncertainPlant(A=BENCH_A, B1=BENCH_B1, C=BENCH_C, B2=[[0.0], [1.0]])
        assert bench_plant.B2.tobytes() == null_complement(BENCH_B1).tobytes()

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError, match="plant.A must be square"):
            UncertainPlant.from_matrices(np.ones((2, 3)), BENCH_B1, BENCH_C)
        with pytest.raises(ConfigError, match="plant.x0"):
            UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C, x0=[0.0, 0.0, 0.0])

    def test_flat_b1_is_one_column(self):
        # and a flat C is one row
        p = UncertainPlant.from_matrices(BENCH_A, [2000.0, 0.0], [0.0, 1.0])
        np.testing.assert_array_equal(p.B1, BENCH_B1)
        np.testing.assert_array_equal(p.C, BENCH_C)

    def test_sizes_name_what_sets_them(self):
        cases = [
            (dict(A=[[-1.0]]), r"^plant.B1 must be a 1x1 matrix to match plant.A and one control "
                               r"input, got shape \(2, 1\)$"),
            (dict(C=[[0.0, 1.0, 0.0]]), r"^plant.C must be a 1x2 matrix to match plant.A"),
            (dict(x0=[0.0]), "^plant.x0 must have 2 entries to match plant.A, got 1$"),
            (dict(f2=[0.0, 0.0]), "^uncertainty.unmatched must have 1 entries to match plant.A, got 2$"),
        ]
        for override, message in cases:
            with pytest.raises(ConfigError, match=message):
                UncertainPlant(**{"A": BENCH_A, "B1": BENCH_B1, "C": BENCH_C, **override})

    def test_array_holders_compare_by_identity(self):
        def pair(make):
            return make(), make()

        lp = -0.01 * np.eye(2) - BENCH_A
        plants = pair(lambda: UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C))
        for a, b in (
            plants,
            pair(lambda: AugmentationConfig(law="modified", predictor_gain=lp)),
            pair(lambda: StateSpaceModel(A=BENCH_A, B=BENCH_B1, C=BENCH_C)),
            pair(lambda: compile_loop(plants[0], AugmentationConfig(law="off"))),
        ):
            assert a == a and a != b
            assert len({a, b, a}) == 2

    def test_single_state_plant_has_empty_complement(self):
        p = UncertainPlant.from_matrices([[-1.0]], [[1.0]], [[1.0]], f2=[])
        assert p.B2.shape == (1, 0) and p.f2.shape == (0,)
        assert p.n_unmatched == 0


B1_OUT_OF_SCALE = ("plant.B1 is zero or out of scale: with its unit-norm complement B2, "
                   "[B1 B2] does not span the state space")


@given(st.integers(1, 5), st.sampled_from([0.0, 1e-20, 1.0, 1e20]), st.integers(0, 2**32 - 1))
def test_plant_accepts_exactly_the_b1_that_spans_with_its_complement(n, scale, seed):
    """A B1 builds a plant when [B1 B2] has full rank, B2 an orthonormal basis of
    the complement (scipy's), and the plant's B2 is then ``null_complement``'s."""
    b1 = scale * np.random.default_rng(seed).standard_normal((n, 1))
    ref = scipy.linalg.null_space(b1.T)  # n columns for a zero B1, which spans nothing
    spans = ref.shape[1] == n - 1 and np.linalg.matrix_rank(np.hstack([b1, ref])) == n
    build = partial(UncertainPlant.from_matrices, -np.eye(n), b1, b1.T)  # C A^-1 B1 = -|B1|^2
    if not spans:
        with pytest.raises(ConfigError) as info:
            build()
        assert str(info.value) == B1_OUT_OF_SCALE
        return
    b2 = build().B2
    if n == 1:
        assert b2.shape == (1, 0)
    else:
        assert b2.tobytes() == null_complement(b1).tobytes() and b2.shape == (n, n - 1)


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
