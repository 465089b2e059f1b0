import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from l1sim import (
    AugmentationConfig,
    ConfigError,
    DisturbanceEstimate,
    EngineConfig,
    ReferenceSignal,
    UncertainPlant,
    adaptation_gain,
    build_control_law,
    compile_loop,
    control_update,
    dc_gain_discrete,
    discretize_zoh,
    filter_step,
    low_pass_model,
    matched_transmission_zeros,
    plant_deriv,
    predictor_deriv,
    run_closed_loop,
    unmatched_path_model,
)
from l1sim import statespace
from l1sim.augmentation import LAWS, error_dynamics_matrix
from conftest import canonical_plant, make_nmp_plant, seeded_canonical_plants


def tf_response(num, den, s: complex) -> complex:
    """Polynomial oracle: evaluate num(s)/den(s)."""
    return np.polyval(num, s) / np.polyval(den, s)


def channel_responses(model, s: complex) -> np.ndarray:
    """Frequency response of a single-output state-space model at s, per input."""
    n = model.order
    return (model.C @ np.linalg.solve(s * np.eye(n) - model.A, model.B) + model.D)[0]


def model_response(model, s: complex) -> complex:
    """Frequency response of a single-input, single-output model at s."""
    return complex(channel_responses(model, s).sum())


class TestAdaptationGain:
    def test_scalar_closed_form(self):
        # gain = -e^(aT) / Phi(T) with Phi = (e^(aT) - 1)/a
        gain = adaptation_gain(np.array([[-1.0]]), np.array([[1.0]]), 0.1)
        expect = -math.exp(-0.1) / (1.0 - math.exp(-0.1))
        assert gain[0, 0] == pytest.approx(expect, rel=1e-12)
        assert gain[0, 0] == pytest.approx(-9.5083, abs=5e-5)

    def test_scalar_estimate_value(self):
        p = UncertainPlant.from_matrices([[-1.0]], [[1.0]], [[1.0]])
        cfg = AugmentationConfig(law="off", sample_period=0.1, predictor_gain=np.zeros((1, 1)))
        est = compile_loop(p, cfg).update(np.array([0.01]))
        assert est.matched[0] == pytest.approx(-0.0950833, abs=1e-7)
        assert est.unmatched.shape == (0,)

    def test_zero_error_zero_estimate(self, bench_plant):
        model = compile_loop(bench_plant, AugmentationConfig(law="modified"))
        est = model.update(np.zeros(2))
        np.testing.assert_array_equal(est.matched, [0.0])
        np.testing.assert_array_equal(est.unmatched, [0.0])

    def test_rejects_singular_input_matrix(self):
        with pytest.raises(ConfigError, match="singular"):
            adaptation_gain(-np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 0.01)


class TestEstimatorFixedPoint:
    """Closed-loop estimates against the analytic fixed point.

    For constant disturbances the boundary prediction error settles at
    -Phi(T) B f and the estimate at B^-1 e^(A_err T) B f (independent oracle
    built from scipy directly).
    """

    def _run(self, plant, cfg, t_end=1.0):
        sig = ReferenceSignal(kind="step", onset=0.5, amplitude=1.0)
        return run_closed_loop(plant, cfg, sig, EngineConfig(t_end=t_end))

    def _oracle(self, plant, a_err, T):
        f = np.concatenate([plant.f1, plant.f2])
        b = np.hstack([plant.B1, plant.B2])
        n = plant.n
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = a_err
        aug[:n, n:] = np.eye(n)
        phi = scipy.linalg.expm(aug * T)[:n, n:]
        x_tilde = -phi @ (b @ f)
        sigma = np.linalg.solve(b, scipy.linalg.expm(a_err * T) @ (b @ f))
        return x_tilde, sigma

    def test_default_shaping_reconstructs_disturbances(self, bench_uncertain_plant):
        cfg = AugmentationConfig(law="modified")
        trace = self._run(bench_uncertain_plant, cfg)
        a_err = error_dynamics_matrix(bench_uncertain_plant, cfg)
        x_t_expect, sigma_expect = self._oracle(bench_uncertain_plant, a_err, cfg.sample_period)
        np.testing.assert_allclose(trace.x_tilde[-1], x_t_expect, atol=1e-8)
        np.testing.assert_allclose(
            np.concatenate([trace.sigma1[-1], trace.sigma2[-1]]), sigma_expect, atol=1e-6
        )
        # near-exact reconstruction under the default error pole
        assert trace.sigma1[-1, 0] == pytest.approx(0.05, abs=1e-5)
        assert trace.sigma2[-1, 0] == pytest.approx(0.001, abs=1e-6)

    def test_fixed_point_for_arbitrary_hurwitz_shaping(self, bench_uncertain_plant):
        rng = np.random.default_rng(31)
        for _ in range(3):
            d = -rng.uniform(0.5, 20.0, 2)
            a_err_target = np.diag(d) + 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])
            lp = a_err_target - bench_uncertain_plant.A
            cfg = AugmentationConfig(law="modified", predictor_gain=lp)
            trace = self._run(bench_uncertain_plant, cfg)
            a_err = error_dynamics_matrix(bench_uncertain_plant, cfg)
            np.testing.assert_allclose(a_err, a_err_target, atol=1e-12)
            x_t_expect, sigma_expect = self._oracle(
                bench_uncertain_plant, a_err, cfg.sample_period
            )
            np.testing.assert_allclose(trace.x_tilde[-1], x_t_expect, atol=1e-8)
            np.testing.assert_allclose(
                np.concatenate([trace.sigma1[-1], trace.sigma2[-1]]), sigma_expect, atol=1e-6
            )

    def test_halving_sample_period_halves_error_bound(self, bench_uncertain_plant):
        cfg1 = AugmentationConfig(law="modified", sample_period=1e-3)
        cfg2 = AugmentationConfig(law="modified", sample_period=5e-4)
        t1 = self._run(bench_uncertain_plant, cfg1, t_end=0.5)
        t2 = self._run(bench_uncertain_plant, cfg2, t_end=0.5)
        b1 = np.abs(t1.x_tilde[-100:]).max()
        b2 = np.abs(t2.x_tilde[-100:]).max()
        assert b2 <= 0.55 * b1

    def test_estimate_held_between_boundaries(self, bench_uncertain_plant):
        # refining the integrator must not move the boundary estimates:
        # the held values depend only on the boundary prediction errors
        cfg = AugmentationConfig(law="modified")
        tr1 = self._run(bench_uncertain_plant, cfg, t_end=0.2)
        eng = EngineConfig(t_end=0.2, substeps_per_sample=4)
        sig = ReferenceSignal(kind="step", onset=0.5, amplitude=1.0)
        tr4 = run_closed_loop(bench_uncertain_plant, cfg, sig, eng)
        np.testing.assert_allclose(tr1.sigma1, tr4.sigma1, atol=1e-10)
        np.testing.assert_allclose(tr1.sigma2, tr4.sigma2, atol=1e-10)


class TestPredictorDeriv:
    def test_all_zero(self, bench_plant):
        est = DisturbanceEstimate(np.zeros(1), np.zeros(1))
        model = compile_loop(bench_plant, AugmentationConfig(law="off"))
        d = predictor_deriv(model, np.zeros(2), np.zeros(1), 0.0, est, np.zeros(2))
        np.testing.assert_array_equal(d, np.zeros(2))

    def test_matches_plant_when_estimates_exact(self, bench_uncertain_plant):
        # x_hat = x and sigma = (f1, f2) makes predictor and plant derivatives equal
        p = bench_uncertain_plant
        model = compile_loop(p, AugmentationConfig(law="modified"))
        rng = np.random.default_rng(41)
        for _ in range(10):
            x = rng.standard_normal(2)
            u_a = rng.standard_normal(1)
            r = float(rng.standard_normal())
            est = DisturbanceEstimate(p.f1, p.f2)
            d_pred = predictor_deriv(model, x, u_a, r, est, np.zeros(2))
            d_plant = plant_deriv(p, x, u_a, r, 5.0)
            np.testing.assert_allclose(d_pred, d_plant, atol=1e-12)

    def test_error_feedback_term_isolated(self, bench_plant):
        model = compile_loop(bench_plant, AugmentationConfig(law="off"))
        est = DisturbanceEstimate(np.zeros(1), np.zeros(1))
        e = np.array([0.3, -0.7])
        d = predictor_deriv(model, np.zeros(2), np.zeros(1), 0.0, est, e)
        np.testing.assert_allclose(d, model.predictor_gain @ e, atol=1e-14)
        # the applied error feedback places the error poles at the default
        np.testing.assert_allclose(model.predictor_gain + bench_plant.A, -0.01 * np.eye(2))


class TestUnmatchedPath:
    def test_original_law_polynomial_oracle(self, bench_plant):
        # expected: w (s + 10) / (2000 (s + w))
        w = 40.0
        cfg = AugmentationConfig(law="original", bandwidth_unmatched=w)
        model = unmatched_path_model(bench_plant, cfg)
        num = w * np.array([1.0, 10.0])
        den = 2000.0 * np.array([1.0, w])
        for s in [0.0, 1j, 5j, 50j, 1.0 + 2j]:
            expect = tf_response(num, den, s)
            assert model_response(model, s) == pytest.approx(expect, rel=1e-9)

    def test_modified_law_polynomial_oracle(self, bench_plant):
        # expected: (1/40) * w/(s+w) * (s + 10)/(s^2 + 10 s + 50)
        w = 40.0
        cfg = AugmentationConfig(law="modified", bandwidth_unmatched=w)
        model = unmatched_path_model(bench_plant, cfg)
        num = 0.025 * w * np.array([1.0, 10.0])
        den = np.polymul([1.0, w], [1.0, 10.0, 50.0])
        for s in [0.0, 1j, 5j, 50j, 1.0 + 2j]:
            expect = tf_response(num, den, s)
            assert model_response(model, s) == pytest.approx(expect, rel=1e-9)

    def test_dc_equivalence_of_both_laws(self, bench_plant):
        orig = compile_loop(bench_plant, AugmentationConfig(law="original")).unmatched
        mod = compile_loop(bench_plant, AugmentationConfig(law="modified")).unmatched
        g_orig = dc_gain_discrete(orig)
        g_mod = dc_gain_discrete(mod)
        np.testing.assert_allclose(g_orig, g_mod, atol=1e-12)
        # value: H1(0)^-1 H2(0) = 0.2 / 40
        assert g_orig[0, 0] == pytest.approx(0.005, rel=1e-9)

    def test_constant_input_responses_agree_at_dc(self, bench_plant):
        orig = compile_loop(bench_plant, AugmentationConfig(law="original")).unmatched
        mod = compile_loop(bench_plant, AugmentationConfig(law="modified")).unmatched
        s_o, s_m = np.zeros(orig.order), np.zeros(mod.order)
        u = np.array([0.001])
        for _ in range(20000):
            s_o, y_o = filter_step(orig, s_o, u)
            s_m, y_m = filter_step(mod, s_m, u)
        np.testing.assert_allclose(y_o, y_m, atol=1e-12)

    @pytest.mark.parametrize("law", ["original", "modified"])
    def test_multi_channel_polynomial_oracle(self, law):
        # channel j is w g num2_j / ((s + w) den): with H1 = num1/det(sI - A) and
        # H2_j = num2_j/det(sI - A), that is w H2_j / ((s + w) H1) under
        # original and w k_ff H2_j / (s + w) under modified
        rng = np.random.default_rng(3)
        w = 40.0
        cfg = AugmentationConfig(law=law, bandwidth_unmatched=w)
        plants = []
        for order in (3, 4, 5):
            for _ in range(3):
                poles = -rng.uniform(1.0, 20.0, order)
                zeros = -rng.uniform(0.5, 15.0, order - 1)
                plants.append((canonical_plant(poles, zeros, rng.uniform(0.5, 5.0)), poles, zeros))
        # relative degree 2 in rotated coordinates, where C B1 is rounding noise,
        # in output units as given and scaled by 1e-13 (C A B1 = 3e-13 there)
        poles, zeros = np.array([-1.0, -2.0, -3.0, -4.0]), np.array([-50.0, -60.0])
        p = canonical_plant(poles, zeros, 3.0)
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        for units in (1.0, 1e-13):
            rotated = UncertainPlant.from_matrices(q.T @ p.A @ q, q.T @ p.B1, units * p.C @ q)
            assert 0.0 < abs((rotated.C @ rotated.B1).item()) < 1e-15 * np.linalg.norm(rotated.C)
            plants.append((rotated, poles, zeros))
        for p, poles, zeros in plants:
            order = p.n
            model = unmatched_path_model(p, cfg)
            den = np.convolve([1.0, w], np.poly(zeros if law == "original" else poles))
            assert model.n_inputs == order - 1
            assert model.order == den.size - 1
            for s in [0.0, 1j, 5j, 50j, 1.0 + 2j]:
                resolvent = np.linalg.inv(s * np.eye(order) - p.A)
                h1 = (p.C @ resolvent @ p.B1)[0, 0]
                h2 = (p.C @ resolvent @ p.B2)[0]
                scale = 1.0 / h1 if law == "original" else p.k_ff
                expect = w / (s + w) * scale * h2
                assert channel_responses(model, s) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("law", ["original", "modified"])
    def test_characteristic_polynomials_computed_once(self, monkeypatch, law):
        # both laws realize their path from the state space, with no polynomial
        rng = np.random.default_rng(8)
        plants = []
        for order in (2, 3, 4):
            poles, zeros = -rng.uniform(1.0, 20.0, order), -rng.uniform(0.5, 15.0, order - 1)
            plants.append(canonical_plant(poles, zeros, 2.0))
        calls = []
        for name in ("poly", "roots"):
            func = getattr(np, name)
            monkeypatch.setattr(np, name, lambda a, func=func: calls.append(1) or func(a))
        for p in plants:
            for build in (unmatched_path_model, compile_loop):
                build(p, AugmentationConfig(law=law))
                assert calls == [], (p.n, build.__name__)

    def test_no_unmatched_directions_gives_none(self):
        p = UncertainPlant.from_matrices([[-1.0]], [[1.0]], [[1.0]])
        assert compile_loop(p, AugmentationConfig(law="modified")).unmatched is None


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), np.finfo(float).tiny))


class TestOnePassCompile:
    """compile_loop discretizes plant, predictor error and law filters together."""

    @pytest.mark.parametrize("substeps", [1, 2, 4])
    @pytest.mark.parametrize("law", LAWS)
    def test_one_exponential_per_compile(self, monkeypatch, bench_plant, law, substeps):
        calls = []
        expm = statespace._expm
        monkeypatch.setattr(statespace, "_expm", lambda a: calls.append(1) or expm(a))
        for plant in (bench_plant, canonical_plant([-2.0, -3.0, -4.0], [-1.0, -5.0], 2.0)):
            calls.clear()
            compile_loop(plant, AugmentationConfig(law=law), substeps)
            assert len(calls) == 1

    @pytest.mark.parametrize("law", ["original", "modified"])
    def test_unmatched_path_is_well_scaled(self, law):
        # observer-canonical realizations of these paths reach ~1e10 (original)
        # and ~1e12 (modified) entries here
        for p in seeded_canonical_plants(5, 10):
            for period, bandwidth in itertools.product((1e-3, 5e-3), (10.0, 80.0)):
                cfg = AugmentationConfig(
                    law=law,
                    sample_period=period,
                    bandwidth_matched=bandwidth,
                    bandwidth_unmatched=bandwidth,
                )
                loop = compile_loop(p, cfg)
                assert loop.unmatched.order == p.n + (law == "modified")
                assert np.abs(loop.transition).max() <= 1e6, p.n

    @pytest.mark.parametrize("substeps", [1, 2, 4])
    def test_filters_equal_separate_discretization(self, substeps):
        period = 2e-3
        for p in seeded_canonical_plants(6, 3):
            for law in ("matched_only", "original", "modified"):
                cfg = AugmentationConfig(
                    law=law, sample_period=period, bandwidth_matched=80.0, bandwidth_unmatched=10.0
                )
                loop = compile_loop(p, cfg, substeps)
                pairs = [(loop.matched, low_pass_model(80.0, p.m))]
                if law == "modified":
                    pairs.append((loop.unmatched, unmatched_path_model(p, cfg)))
                for got, model in pairs:
                    want = discretize_zoh(model, period)
                    assert relative_gap(got.A, want.A) <= 1e-12
                    assert relative_gap(got.B, want.B) <= 1e-12
                    assert np.array_equal(got.C, want.C) and np.array_equal(got.D, want.D)
                # build_control_law returns the filters of this one compile
                single = compile_loop(p, cfg)
                for got, want in zip(build_control_law(p, cfg), (single.matched, single.unmatched)):
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert np.array_equal(got.A, want.A) and np.array_equal(got.B, want.B)


class TestNonMinimumPhaseGate:
    def test_zero_location_oracle(self):
        p = make_nmp_plant()
        zeros = matched_transmission_zeros(p)
        # independent root check on the constructed numerator (s - 1)
        np.testing.assert_allclose(np.sort(zeros.real), [1.0], atol=1e-9)
        assert np.roots([1.0, -1.0])[0] == pytest.approx(1.0)

    def test_original_law_rejected(self):
        p = make_nmp_plant()
        with pytest.raises(ConfigError, match="open left half plane"):
            compile_loop(p, AugmentationConfig(law="original"))

    def test_modified_law_accepted(self):
        p = make_nmp_plant()
        _matched, unmatched = build_control_law(p, AugmentationConfig(law="modified"))
        assert unmatched is not None
        eigs = np.linalg.eigvals(unmatched.A)
        assert np.all(np.abs(eigs) < 1.0)  # stable discrete realization

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("pair", [False, True])
    def test_zeros_near_the_imaginary_axis(self, side, pair):
        # an order-5 plant with zeros of real part +-1e-6: the right-half-plane
        # ones are rejected and the left-half-plane ones accepted
        near = [side * 1e-6 + 5j, side * 1e-6 - 5j] if pair else [side * 1e-6, -4.0]
        p = canonical_plant([-1.0, -2.5, -5.0, -10.0, -20.0], near + [-2.0, -3.0], 2.0)
        cfg = AugmentationConfig(law="original")
        if side > 0.0:
            with pytest.raises(ConfigError, match="open left half plane"):
                compile_loop(p, cfg)
        else:
            assert compile_loop(p, cfg).unmatched is not None

    def test_matched_path_zero_to_rounding_rejected(self):
        # H1 = 1e-11 / (s + 1) read through C = [1e-11, 1e8]: its DC gain is
        # 1e-19 of |C| |A^-1 B1|, so the plant itself is rejected
        with pytest.raises(ConfigError, match="^zero DC path from input to output"):
            UncertainPlant.from_matrices(-np.eye(2), [[1.0], [0.0]], [[1e-11, 1e8]])
        # H1 = 1e-13 / (s + 1e-6): C B1 and C A B1 are 1e-13 of |C A^k| |B1|, below
        # the relative-degree tolerance, while its DC gain, 1e-7 of
        # |C| |A^-1 B1|, passes the feedforward floor
        p = UncertainPlant.from_matrices(np.diag([-1.0, -1e-6]), [[1.0], [1e-13]], [[0.0, 1.0]])
        message = "^the matched path is zero to rounding; it has no inverse$"
        with pytest.raises(ConfigError, match=message):
            matched_transmission_zeros(p)
        with pytest.raises(ConfigError, match=message):
            compile_loop(p, AugmentationConfig(law="original"))
        assert compile_loop(p, AugmentationConfig(law="modified")).unmatched is not None

    def test_benchmark_plant_accepted_by_original(self, bench_plant):
        _matched, unmatched = build_control_law(bench_plant, AugmentationConfig(law="original"))
        assert unmatched is not None


def run_law(model, est, samples):
    """Hold est for a number of samples from zero filter states; return the last input."""
    xf_m, xf_u = (None if f is None else np.zeros(f.order) for f in (model.matched, model.unmatched))
    u = np.zeros(model.plant.m)
    for _ in range(samples):
        u, xf_m, xf_u = control_update(model, est, xf_m, xf_u)
    return u


class TestControlUpdate:
    def test_off_law_zero(self, bench_plant):
        law = compile_loop(bench_plant, AugmentationConfig(law="off"))
        est = DisturbanceEstimate(np.array([123.0]), np.array([9.0]))
        assert build_control_law(bench_plant, AugmentationConfig(law="off")) == (None, None)
        assert law.matched is None and law.unmatched is None
        np.testing.assert_array_equal(run_law(law, est, 1), [0.0])

    def test_matched_dc_cancellation(self, bench_plant):
        law = compile_loop(bench_plant, AugmentationConfig(law="matched_only"))
        est = DisturbanceEstimate(np.array([0.05]), np.array([0.0]))
        assert law.unmatched is None
        assert run_law(law, est, 20000)[0] == pytest.approx(-0.05, abs=1e-9)

    def test_modified_dc_composition(self, bench_plant):
        law = compile_loop(bench_plant, AugmentationConfig(law="modified"))
        est = DisturbanceEstimate(np.array([0.05]), np.array([0.001]))
        # -0.05 - (1/40) * 0.2 * 0.001
        assert run_law(law, est, 20000)[0] == pytest.approx(-0.050005, abs=1e-9)

    def test_filters_advance_once_per_call(self, bench_plant):
        law = compile_loop(bench_plant, AugmentationConfig(law="matched_only"))
        est = DisturbanceEstimate(np.array([1.0]), np.array([0.0]))
        xf = np.zeros(law.matched.order)
        u1, xf1, _ = control_update(law, est, xf, None)
        u2, xf2, _ = control_update(law, est, xf1, None)
        np.testing.assert_array_equal(xf, np.zeros(law.matched.order))  # inputs not mutated
        assert abs(u2[0]) > abs(u1[0])  # filter state moved exactly one step
        np.testing.assert_array_equal(u2, control_update(law, est, xf1, None)[0])


class TestConfigValidation:
    def test_law_names(self):
        assert AugmentationConfig(law="matched-only").law == "matched_only"
        with pytest.raises(ConfigError, match="law"):
            AugmentationConfig(law="bogus")

    def test_positive_parameters(self):
        with pytest.raises(ConfigError, match="sample_period"):
            AugmentationConfig(law="off", sample_period=0.0)
        with pytest.raises(ConfigError, match="bandwidth_matched"):
            AugmentationConfig(law="off", bandwidth_matched=-1.0)

    def test_non_hurwitz_shaping_rejected(self, bench_plant):
        lp = -bench_plant.A  # error dynamics become identically zero
        with pytest.raises(ConfigError, match="Hurwitz"):
            error_dynamics_matrix(bench_plant, AugmentationConfig(law="off", predictor_gain=lp))

    def test_default_shaping_is_hurwitz_and_slow(self, bench_plant):
        a_err = error_dynamics_matrix(bench_plant, AugmentationConfig(law="off"))
        np.testing.assert_allclose(a_err, -0.01 * np.eye(2), atol=1e-15)
