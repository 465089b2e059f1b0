"""Reference closed loop integrated with classical RK4.

The engine (``run_closed_loop``) solves the sampled loop exactly between
sample boundaries.  This oracle integrates the same loop numerically, built
only from the package's public pieces: ``rk4_step`` for the continuous
dynamics (``plant_deriv``, ``reference_model_deriv`` and
``predictor_deriv``), and ``LoopModel.update`` and ``control_update`` at
each boundary.  It holds the estimate and the adaptive input over a sample,
and the command and the disturbance switch over an integrator step at their
step-start values, so it converges to the engine at 4th order in the step.
"""

from __future__ import annotations

import numpy as np

from l1sim import (
    SimTrace,
    compile_loop,
    control_update,
    plant_deriv,
    predictor_deriv,
    reference_model_deriv,
    reference_value,
    rk4_step,
)

TRACE_FIELDS = ("r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde")


def rk4_closed_loop(plant, cfg, sig, eng) -> SimTrace:
    """Simulate the closed loop with RK4 steps of ``eng.integrator_step``."""
    model = compile_loop(plant, cfg, eng.substeps_per_sample)
    T = cfg.sample_period
    h = eng.integrator_step(T)
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


def max_deviation(a: SimTrace, b: SimTrace) -> float:
    """Largest absolute difference between two traces over every signal."""
    return max(float(np.abs(getattr(a, f) - getattr(b, f)).max(initial=0.0)) for f in TRACE_FIELDS)
