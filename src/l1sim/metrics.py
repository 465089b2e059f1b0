"""Scalar summaries of a simulation trace.

Step commands get the classic step-response numbers (overshoot, 2% settling
time, 10-90% rise time); ramp commands get the asymptotic tracking lag
instead.  The steady-state window is the final 10% of the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SimTrace
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


def steady_mask(t: np.ndarray) -> np.ndarray:
    """Samples in the steady-state window: the final 10% of the time span."""
    return t >= t[-1] - STEADY_WINDOW_FRACTION * (t[-1] - t[0])


def _first_crossing(t: np.ndarray, y: np.ndarray, level: float, rising: bool) -> float | None:
    """Time of the first sample at or past the level (sample-grid resolution)."""
    above = y >= level if rising else y <= level
    idx = np.nonzero(above)[0]
    if idx.size == 0:
        return None
    return float(t[idx[0]])


def compute_metrics(trace: SimTrace, sig: ReferenceSignal) -> Metrics:
    """Summarize a trace against the command that produced it."""
    if trace.n_samples < 2:
        raise ValueError("trace must contain at least two samples")
    t, y, r = trace.t, trace.y, trace.r
    mask = steady_mask(t)
    err = y - r
    steady_state_error = float(np.mean(np.abs(err[mask])))
    dt = np.diff(t)
    sq = err * err
    tracking_error_l2 = float(np.sum(0.5 * (sq[1:] + sq[:-1]) * dt))
    peak_u_a = float(np.abs(trace.u_a).max()) if trace.u_a.size else 0.0

    if sig.kind == "ramp":
        tracking_lag = float(np.mean(r[mask] - y[mask]))
        return Metrics(
            steady_state_error=steady_state_error,
            tracking_error_l2=tracking_error_l2,
            peak_u_a=peak_u_a,
            tracking_lag=tracking_lag,
        )

    after = t >= sig.onset
    if not np.any(after):
        raise ConfigError("reference.onset must not be after engine.t_end for step metrics")
    t_a, y_a = t[after], y[after]
    y_final = float(np.mean(y[mask]))
    y_start = float(y_a[0])
    span = y_final - y_start

    if abs(span) < 1e-12:
        overshoot_pct = 0.0
        settling_time = 0.0
        rise_time = None
    else:
        # excursion past the final value in the step direction, as % of the step
        excursion = float(y_a.max()) - y_final if span > 0 else y_final - float(y_a.min())
        overshoot_pct = max(0.0, excursion / abs(span) * 100.0)
        band = 0.02 * abs(span)
        outside = np.nonzero(np.abs(y_a - y_final) > band)[0]
        if outside.size == 0:
            settling_time = 0.0
        elif outside[-1] == t_a.size - 1:
            settling_time = None  # never settles inside the band
        else:
            settling_time = float(t_a[outside[-1] + 1] - sig.onset)
        rising = span > 0
        t10 = _first_crossing(t_a, y_a, y_start + 0.1 * span, rising)
        t90 = _first_crossing(t_a, y_a, y_start + 0.9 * span, rising)
        rise_time = None if t10 is None or t90 is None else max(0.0, t90 - t10)

    return Metrics(
        steady_state_error=steady_state_error,
        tracking_error_l2=tracking_error_l2,
        peak_u_a=peak_u_a,
        overshoot_pct=overshoot_pct,
        settling_time_2pct=settling_time,
        rise_time_10_90=rise_time,
    )
