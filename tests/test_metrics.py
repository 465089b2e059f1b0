import math

import numpy as np
import pytest

from l1sim import ReferenceSignal, compute_metrics, line_chart_svg
from l1sim.metrics import steady_window
from oracle import trace_of


def make_trace(t, y, r, u_a=None):
    n = len(t)
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    r = np.asarray(r, float)
    u = np.zeros((n, 1)) if u_a is None else np.asarray(u_a, float).reshape(n, 1)
    z2 = np.zeros((n, 2))
    return trace_of(
        t=t, r=r, y=y, y_m=y.copy(), u_a=u,
        sigma1=np.zeros((n, 1)), sigma2=np.zeros((n, 1)),
        x=z2, x_hat=z2.copy(),
    )


class TestStepMetrics:
    def test_perfect_tracking(self):
        t = np.linspace(0.0, 10.0, 1001)
        y = np.ones_like(t)
        m = compute_metrics(make_trace(t, y, y), ReferenceSignal("step", 0.0, amplitude=1.0))
        assert m.steady_state_error == 0.0
        assert m.overshoot_pct == 0.0
        assert m.tracking_lag is None

    def test_first_order_closed_forms(self):
        # y = 1 - e^(-t): no overshoot, settle at ln(50), rise ln(9)
        t = np.arange(0.0, 20.0 + 1e-9, 1e-3)
        y = 1.0 - np.exp(-t)
        m = compute_metrics(
            make_trace(t, y, np.ones_like(t)), ReferenceSignal("step", 0.0, amplitude=1.0)
        )
        assert m.overshoot_pct == pytest.approx(0.0, abs=1e-6)
        assert m.settling_time_2pct == pytest.approx(math.log(50.0), abs=2e-3)
        assert m.rise_time_10_90 == pytest.approx(math.log(9.0), abs=2e-3)

    def test_overshoot_value(self):
        # triangle overshooting to 1.25 then settling at 1
        t = np.linspace(0.0, 10.0, 2001)
        y = np.ones_like(t)
        y[t < 1.0] = t[t < 1.0] * 1.25
        between = (t >= 1.0) & (t < 2.0)
        y[between] = 1.25 - 0.25 * (t[between] - 1.0)
        m = compute_metrics(
            make_trace(t, y, np.ones_like(t)), ReferenceSignal("step", 0.0, amplitude=1.0)
        )
        assert m.overshoot_pct == pytest.approx(25.0, abs=0.1)

    def test_never_settles_flagged(self):
        t = np.linspace(0.0, 10.0, 1001)
        y = 1.0 + 0.5 * np.sin(8.0 * t)
        m = compute_metrics(
            make_trace(t, y, np.ones_like(t)), ReferenceSignal("step", 0.0, amplitude=1.0)
        )
        assert m.settling_time_2pct is None

    def test_measured_from_onset(self):
        t = np.arange(0.0, 22.0, 1e-3)
        y = np.where(t >= 2.0, 1.0 - np.exp(-(t - 2.0)), 0.0)
        m = compute_metrics(
            make_trace(t, y, np.where(t >= 2.0, 1.0, 0.0)),
            ReferenceSignal("step", 2.0, amplitude=1.0),
        )
        assert m.settling_time_2pct == pytest.approx(math.log(50.0), abs=2e-3)
        assert m.rise_time_10_90 == pytest.approx(math.log(9.0), abs=2e-3)

    def test_peak_u_and_l2(self):
        t = np.linspace(0.0, 1.0, 101)
        y = np.ones_like(t)
        r = np.ones_like(t)
        u = np.linspace(0.0, -0.3, 101)
        m = compute_metrics(make_trace(t, y, r, u), ReferenceSignal("step", 0.0, amplitude=1.0))
        assert m.peak_u_a == pytest.approx(0.3)
        assert m.tracking_error_l2 == 0.0

    def test_l2_constant_error(self):
        t = np.linspace(0.0, 2.0, 2001)
        y = np.zeros_like(t)
        r = np.ones_like(t)
        m = compute_metrics(make_trace(t, y, r), ReferenceSignal("step", 0.0, amplitude=1.0))
        assert m.tracking_error_l2 == pytest.approx(2.0, rel=1e-9)


class TestRampMetrics:
    def test_tracking_lag(self):
        t = np.arange(0.0, 10.0, 1e-2)
        r = np.where(t >= 2.0, t - 2.0, 0.0)
        y = np.where(t >= 2.0, np.maximum(t - 2.2, 0.0), 0.0)  # 0.2 lag
        m = compute_metrics(make_trace(t, y, r), ReferenceSignal("ramp", 2.0, gradient=1.0))
        assert m.tracking_lag == pytest.approx(0.2, abs=1e-9)
        assert m.overshoot_pct is None
        assert m.settling_time_2pct is None
        assert m.rise_time_10_90 is None

    def test_steady_state_error_matches_lag(self):
        t = np.arange(0.0, 10.0, 1e-2)
        r = t.copy()
        y = t - 0.15
        m = compute_metrics(make_trace(t, y, r), ReferenceSignal("ramp", 0.0, gradient=1.0))
        assert m.steady_state_error == pytest.approx(0.15, abs=1e-12)


class TestValidation:
    def test_short_trace_rejected(self):
        t = np.array([0.0])
        with pytest.raises(ValueError, match="two samples"):
            compute_metrics(make_trace(t, t, t), ReferenceSignal("step", 0.0, amplitude=1.0))

    def test_onset_past_trace_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="onset"):
            compute_metrics(
                make_trace(t, t, t), ReferenceSignal("step", 5.0, amplitude=1.0)
            )


class TestTraceRule:
    """compute_metrics takes the traces line_chart_svg takes: t, r, y and u_a
    finite and t never decreasing, checked by the one ``check_series``."""

    STEP = ReferenceSignal("step", 1.0, amplitude=1.0)

    @staticmethod
    def step_response(t: np.ndarray):
        rel = np.maximum(t - 1.0, 0.0)
        y = np.where(t >= 1.0, 1.0 - np.exp(-2.0 * rel) * np.cos(5.0 * rel), 0.0)
        return y, np.where(t >= 1.0, 1.0, 0.0), np.sin(t)

    def test_steady_window_is_a_slice(self):
        t = np.linspace(0.0, 10.0, 1001)
        window = steady_window(t)
        assert isinstance(window, slice)
        assert np.array_equal(t[window], t[t >= 10.0 - 0.1 * 10.0])

    def test_decreasing_time_rejected(self):
        # 0..10 s, then back to 0.5 s and on to 9.5 s, as a hand-edited CSV might
        t = np.concatenate([np.linspace(0.0, 10.0, 1001), np.linspace(0.5, 9.5, 901)])
        y, r, u = self.step_response(t)
        with pytest.raises(ValueError, match="^trace has a decreasing t value$"):
            compute_metrics(make_trace(t, y, r, u), self.STEP)
        with pytest.raises(ValueError, match="^series 'y' has a decreasing x value$"):
            line_chart_svg([("y", t, y)], "title", "t", "y")

    def test_nan_in_time_rejected(self):
        t = np.linspace(0.0, 10.0, 1001)
        y, r, u = self.step_response(t)
        t[500] = math.nan
        with pytest.raises(ValueError, match="^trace has a non-finite t value$"):
            compute_metrics(make_trace(t, y, r, u), self.STEP)

    @pytest.mark.parametrize("field", ["r", "y", "u_a"])
    def test_non_finite_values_rejected(self, field):
        # mid-run (the overshoot's search) and at the last sample (the settling search's start)
        t = np.linspace(0.0, 10.0, 1001)
        for sample in (500, -1):
            for bad in (math.nan, math.inf, -math.inf):
                values = dict(zip(("y", "r", "u_a"), self.step_response(t)))
                values[field][sample] = bad
                trace = make_trace(t, values["y"], values["r"], values["u_a"])
                with pytest.raises(ValueError, match=f"^trace has a non-finite {field} value$"):
                    compute_metrics(trace, self.STEP)
