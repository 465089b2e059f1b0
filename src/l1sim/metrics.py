"""Scalar summaries of a simulation trace.

Step commands get the classic step-response numbers (overshoot, 2% settling
time, 10-90% rise time); ramp commands get the asymptotic tracking lag
instead.  A trace keeps the trace rule of ``engine.check_series``, as a
chart's series does: t, r, y and u_a finite and t never decreasing.  So the
steady-state window (the final 10% of the span) and the samples from the
onset on are suffixes of t, indexed as slices.  A mean is ``a.sum() /
a.size``, ``np.mean``'s own sum and division, so the metrics are its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimTrace, check_series
from .errors import ConfigError
from .plant import ReferenceSignal

STEADY_WINDOW_FRACTION = 0.1


@dataclass(frozen=True)
class Metrics:
    """Scalar summary of one closed-loop run.

    Times are measured from the command onset.  ``settling_time_2pct`` and
    ``rise_time_10_90`` are None when the trace never settles or never
    crosses the thresholds; step-only metrics are None for ramp commands and
    ``tracking_lag`` is None for steps.
    """

    steady_state_error: float
    tracking_error_l2: float
    peak_u_a: float
    overshoot_pct: float | None = None
    settling_time_2pct: float | None = None
    rise_time_10_90: float | None = None
    tracking_lag: float | None = None


def steady_window(t: np.ndarray) -> slice:
    """Slice of the steady-state window of a never-decreasing ``t``: the
    samples in the final 10% of the time span."""
    return slice(int(t.searchsorted(t[-1] - STEADY_WINDOW_FRACTION * (t[-1] - t[0]))), None)


def _mean(a: np.ndarray) -> float:
    """``np.mean(a)``: the same pairwise sum and division, less overhead."""
    return float(a.sum() / a.size)


def _first_crossing(t: np.ndarray, y: np.ndarray, level: float, rising: bool) -> float | None:
    """Time of the first sample at or past the level (sample-grid resolution)."""
    above = y >= level if rising else y <= level
    first = int(above.argmax())
    return float(t[first]) if above[first] else None


def compute_metrics(trace: SimTrace, sig: ReferenceSignal) -> Metrics:
    """Summarize a trace against the command that produced it; ``ValueError``
    names a field that breaks the trace rule."""
    if trace.n_samples < 2:
        raise ValueError("trace must contain at least two samples")
    t, y, r = trace.t, trace.y, trace.r
    check_series("trace", "t", t, r=r, y=y, u_a=trace.u_a)
    steady = steady_window(t)
    err = y - r
    steady_state_error = _mean(np.abs(err[steady]))
    sq = err * err
    trapezoids = sq[1:] + sq[:-1]  # 0.5 (sq[1:] + sq[:-1]) dt, in place
    trapezoids *= 0.5
    trapezoids *= t[1:] - t[:-1]
    tracking_error_l2 = float(trapezoids.sum())
    peak_u_a = float(np.abs(trace.u_a).max())

    if sig.kind == "ramp":
        return Metrics(steady_state_error, tracking_error_l2, peak_u_a,
                       tracking_lag=_mean(r[steady] - y[steady]))

    first = int(t.searchsorted(sig.onset))
    t_a, y_a = t[first:], y[first:]
    if not t_a.size:
        raise ConfigError("reference.onset must not be after engine.t_end for step metrics")
    y_final = _mean(y[steady])
    y_start = float(y_a[0])
    span = y_final - y_start

    if abs(span) < 1e-12:
        overshoot_pct, settling_time, rise_time = 0.0, 0.0, None
    else:
        # excursion past the final value in the step direction, as % of the step
        excursion = float(y_a.max()) - y_final if span > 0 else y_final - float(y_a.min())
        overshoot_pct = max(0.0, excursion / abs(span) * 100.0)
        band = 0.02 * abs(span)
        # the last sample outside the band is the first one counted from the end;
        # y_a[0] is |span| from y_final, so there is one, and last == 0 never settles
        outside = np.abs(y_a[::-1] - y_final) > band
        last = int(outside.argmax())
        settling_time = float(t_a[t_a.size - last] - sig.onset) if last else None
        rising = span > 0
        t10 = _first_crossing(t_a, y_a, y_start + 0.1 * span, rising)
        t90 = _first_crossing(t_a, y_a, y_start + 0.9 * span, rising)
        rise_time = None if t10 is None or t90 is None else max(0.0, t90 - t10)

    return Metrics(steady_state_error, tracking_error_l2, peak_u_a,
                   overshoot_pct, settling_time, rise_time)
