"""Reference implementations the package is checked against.

``rk4_closed_loop`` is the closed loop integrated with classical RK4;
``lifted_forcing`` and ``sequential_states`` step the lifted recurrence of
a ``LoopModel`` one sample at a time, the reference for the engine's
power doubling; ``reference_csv_text`` and ``reference_polylines`` format
trace files one value (or point) per Python call, the way the block
formatters in ``l1sim.traceio`` and ``l1sim.plots`` must reproduce byte for
byte.

The engine (``run_closed_loop``) solves the sampled loop exactly between
sample boundaries.  This oracle integrates the same loop numerically, built
only from the package's public pieces: ``rk4_step`` for the continuous
dynamics (``plant_deriv``, ``reference_model_deriv`` and
``predictor_deriv``), and ``LoopModel.update`` and ``control_update`` at
each boundary.  It holds the estimate and the adaptive input over a sample,
and the command and the disturbance switch over an integrator step at their
step-start values, so it converges to the engine at 4th order in the step.
``lifted_forcing`` likewise holds the command over each integrator step
through maps of its own, not through the loop model's folded command maps.
"""

from __future__ import annotations

import numpy as np

from l1sim import (
    SimTrace,
    compile_loop,
    csv_header,
    control_update,
    plant_deriv,
    predictor_deriv,
    reference_model_deriv,
    reference_value,
    rk4_step,
)
from l1sim.plots import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH
from l1sim.statespace import zoh_maps

TRACE_FIELDS = ("r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde")


def rk4_closed_loop(plant, cfg, sig, eng) -> SimTrace:
    """Simulate the closed loop with ``eng.substeps_per_sample`` RK4 steps per sample."""
    model = compile_loop(plant, cfg, eng.substeps_per_sample)
    T = cfg.sample_period
    h = T / eng.substeps_per_sample
    n, m, k = plant.n, plant.m, plant.n_unmatched
    rows = round(eng.t_end / T) + 1
    out = SimTrace(
        t=np.arange(rows) * T,
        r=np.zeros(rows),
        y=np.zeros(rows),
        y_m=np.zeros(rows),
        u_a=np.zeros((rows, m)),
        sigma1=np.zeros((rows, m)),
        sigma2=np.zeros((rows, k)),
        x=np.zeros((rows, n)),
        x_hat=np.zeros((rows, n)),
        x_tilde=np.zeros((rows, n)),
    )

    z = np.concatenate([plant.x0, plant.x0, plant.x0])  # [x, x_m, x_hat]
    xf_m, xf_u = (
        None if f is None else np.zeros(f.order) for f in (model.matched, model.unmatched)
    )
    # u_a, est, r and t_hold are held over each integrator step; deriv reads them
    u_a, est, r, t_hold = np.zeros(m), None, 0.0, 0.0

    def deriv(_t: float, state: np.ndarray) -> np.ndarray:
        x, x_m, x_hat = state[:n], state[n : 2 * n], state[2 * n :]
        return np.concatenate([
            plant_deriv(plant, x, u_a, r, t_hold),
            reference_model_deriv(plant, x_m, r),
            predictor_deriv(model, x_hat, u_a, r, est, x_hat - x),
        ])

    for i in range(rows):
        x, x_m, x_hat = z[:n], z[n : 2 * n], z[2 * n :]
        est = model.update(x_hat - x)
        u_a, xf_m, xf_u = control_update(model, est, xf_m, xf_u)
        out.r[i] = reference_value(sig, out.t[i])
        out.y[i] = plant.output(x)
        out.y_m[i] = plant.output(x_m)
        out.u_a[i] = u_a
        out.sigma1[i] = est.matched
        out.sigma2[i] = est.unmatched
        out.x[i] = x
        out.x_hat[i] = x_hat
        out.x_tilde[i] = x_hat - x
        for j in range(eng.substeps_per_sample if i < rows - 1 else 0):
            t_hold = i * T + j * h
            r = reference_value(sig, t_hold)
            z = rk4_step(deriv, t_hold, z, h)
    return out


def lifted_forcing(model, sig, n_samples: int) -> np.ndarray:
    """f[k] of the lifted recurrence for samples k < n_samples: the command
    held over each integrator step j at r(kT + jh), from the first sample
    that starts at or after its onset, through that step's map into the plant
    and the reference model, plus the disturbance map once the disturbances
    act.  The step maps are the plant's own: the ZOH maps (a_h, b_h) of
    (A, B1 k_ff) over one step h, and a_h^(S-1-j) b_h for step j."""
    plant, T, substeps = model.plant, model.config.sample_period, model.substeps
    h = T / substeps
    a_h, b_h = zoh_maps(plant.A, plant.B1 * plant.k_ff, h)
    start = np.arange(n_samples) * T
    forcing = np.outer(start >= plant.onset, model.disturbance_map)
    on = start >= sig.onset
    step_map = b_h[:, 0]
    for j in range(substeps - 1, -1, -1):
        command = np.outer(on * reference_value(sig, start + j * h), step_map)
        forcing[:, model.blocks["plant"]] += command
        forcing[:, model.blocks["reference model"]] += command
        step_map = a_h @ step_map
    return forcing


def sequential_states(model, forcing: np.ndarray) -> np.ndarray:
    """s[0..N] of s[k+1] = transition @ s[k] + forcing[k], one sample at a
    time, from the initial plant and reference-model state x0."""
    blocks = model.blocks
    states = np.zeros((forcing.shape[0] + 1, model.transition.shape[0]))
    states[0, blocks["plant"]] = model.plant.x0
    states[0, blocks["reference model"]] = model.plant.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, f in enumerate(forcing):
            states[k + 1] = model.transition @ states[k] + f
    return states


def max_deviation(a: SimTrace, b: SimTrace) -> float:
    """Largest absolute difference between two traces over every signal."""
    return max(float(np.abs(getattr(a, f) - getattr(b, f)).max(initial=0.0)) for f in TRACE_FIELDS)


def reference_csv_text(trace: SimTrace) -> str:
    """The trace CSV as text, one ``format(v, ".17g")`` call per value."""
    n, m, k = trace.x.shape[1], trace.u_a.shape[1], trace.sigma2.shape[1]
    data = np.column_stack([trace.t, trace.r, trace.y, trace.y_m, trace.u_a, trace.sigma1,
                            trace.sigma2, trace.x, trace.x_hat])
    lines = [csv_header(n, m, k)]
    for row in data:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def reference_polylines(series) -> list[str]:
    """The ``points`` of each series of ``line_chart_svg``, mapped to pixels by
    scalar Python arithmetic and formatted one f-string per point."""
    x_lo = min(float(np.min(sx)) for _, sx, _ in series)
    x_hi = max(float(np.max(sx)) for _, sx, _ in series)
    y_lo = min(float(np.min(sy)) for _, _, sy in series)
    y_hi = max(float(np.max(sy)) for _, _, sy in series)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return [
        " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(sx, sy))
        for _, sx, sy in series
    ]
