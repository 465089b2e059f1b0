import math

import numpy as np
import pytest

from l1sim import ReferenceSignal, SimTrace, compute_metrics
from l1sim.metrics import steady_window


def make_trace(t, y, r, u_a=None):
    n = len(t)
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    r = np.asarray(r, float)
    u = np.zeros((n, 1)) if u_a is None else np.asarray(u_a, float).reshape(n, 1)
    z2 = np.zeros((n, 2))
    return SimTrace(
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


class TestNonIncreasingTime:
    """A t that steps back (a hand-edited CSV) selects its windows by boolean
    masks; the metrics must equal that computation, written out here."""

    # 0..10 s, then back to 0.5 s and on to 9.5 s: the final 10% of the span
    # (t >= 8.55) and the samples from the onset on are then not suffixes
    T = np.concatenate([np.linspace(0.0, 10.0, 1001), np.linspace(0.5, 9.5, 901)])

    def test_windows_are_masks(self):
        window = steady_window(self.T)
        assert isinstance(window, np.ndarray) and window.dtype == bool
        assert np.array_equal(window, self.T >= 9.5 - 0.1 * 9.5)

    def test_step_metrics_match_boolean_masks(self):
        t, onset = self.T, 1.0
        rel = np.maximum(t - onset, 0.0)
        y = np.where(t >= onset, 1.0 - np.exp(-2.0 * rel) * np.cos(5.0 * rel), 0.0)
        r = np.where(t >= onset, 1.0, 0.0)
        u = np.sin(t)
        m = compute_metrics(make_trace(t, y, r, u), ReferenceSignal("step", onset, amplitude=1.0))

        steady, after = t >= t[-1] - 0.1 * (t[-1] - t[0]), t >= onset
        err = y - r
        t_a, y_a = t[after], y[after]
        y_final = float(np.mean(y[steady]))
        span = y_final - float(y_a[0])
        outside = np.nonzero(np.abs(y_a - y_final) > 0.02 * abs(span))[0]
        t10 = t_a[np.nonzero(y_a >= y_a[0] + 0.1 * span)[0][0]]
        t90 = t_a[np.nonzero(y_a >= y_a[0] + 0.9 * span)[0][0]]
        assert m.steady_state_error == float(np.mean(np.abs(err[steady])))
        assert m.tracking_error_l2 == float(np.sum(0.5 * (err[1:] ** 2 + err[:-1] ** 2)
                                                   * np.diff(t)))
        assert m.peak_u_a == float(np.abs(u).max())
        assert m.overshoot_pct == (float(y_a.max()) - y_final) / abs(span) * 100.0 > 0.0
        assert m.settling_time_2pct == float(t_a[outside[-1] + 1] - onset)
        assert m.rise_time_10_90 == float(t90 - t10)
        # the last sample outside the band is in the second pass, after the
        # 901 samples of the first pass that start at or after the onset
        assert outside[-1] >= 901

    def test_ramp_metrics_match_boolean_masks(self):
        t = self.T
        r = np.maximum(t - 2.0, 0.0)
        y = np.maximum(t - 2.2, 0.0) + 0.01 * np.cos(3.0 * t)
        m = compute_metrics(make_trace(t, y, r), ReferenceSignal("ramp", 2.0, gradient=1.0))
        steady = t >= t[-1] - 0.1 * (t[-1] - t[0])
        assert m.steady_state_error == float(np.mean(np.abs((y - r)[steady])))
        assert m.tracking_lag == float(np.mean(r[steady] - y[steady]))
