"""Deterministic fixed-step closed-loop simulation.

At every sample boundary the engine computes the prediction error, updates
the disturbance estimate, updates the adaptive input (held over the interval)
and then integrates plant, reference model and predictor together with
classical RK4.  Identical inputs give bit-identical traces.

Exogenous inputs are held over each integrator step at their value at the
step's start: the command r and the time argument of the disturbances f1/f2
(their state argument still follows each RK4 stage).  So a command or
disturbance onset takes effect from the first integrator step that starts at
or after it, and no sample at or before the onset sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmentation import (
    AugmentationConfig,
    LoopModel,
    compile_loop,
    control_update,
    predictor_deriv,
)
from .errors import ConfigError, SimulationDiverged
from .plant import ReferenceSignal, UncertainPlant, plant_deriv, reference_model_deriv, reference_value
from .statespace import as_scalar


@dataclass(frozen=True)
class EngineConfig:
    """Time horizon and integrator refinement.

    The integrator step is the controller sample period divided by
    ``substeps_per_sample``, so it always divides the sample period exactly.
    """

    t_end: float = 10.0
    substeps_per_sample: int = 1

    def __post_init__(self):
        t_end = as_scalar(self.t_end, "engine.t_end")
        if not t_end > 0.0:
            raise ConfigError(f"engine.t_end must be > 0, got {t_end}")
        object.__setattr__(self, "t_end", t_end)
        subs = self.substeps_per_sample
        try:
            whole = not isinstance(subs, bool) and int(subs) == subs and subs >= 1
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ConfigError(f"engine.substeps_per_sample must be an integer >= 1, got {subs!r}")
        object.__setattr__(self, "substeps_per_sample", int(subs))

    def integrator_step(self, sample_period: float) -> float:
        return sample_period / self.substeps_per_sample


@dataclass
class SimTrace:
    """Time-indexed record of every closed-loop signal, one row per sample boundary."""

    t: np.ndarray
    r: np.ndarray
    y: np.ndarray
    y_m: np.ndarray
    u_a: np.ndarray      # (samples, m)
    sigma1: np.ndarray   # (samples, m)
    sigma2: np.ndarray   # (samples, n - m)
    x: np.ndarray        # (samples, n)
    x_hat: np.ndarray    # (samples, n)
    x_tilde: np.ndarray  # (samples, n)
    label: str = ""

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]


def rk4_step(deriv, t: float, x: np.ndarray, h: float):
    """One classical 4th-order Runge-Kutta step of size h for dx/dt = deriv(t, x)."""
    if not (h > 0.0):
        raise ValueError(f"step size must be > 0, got {h}")
    k1 = deriv(t, x)
    k2 = deriv(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = deriv(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = deriv(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sample_count(t_end: float, sample_period: float) -> int:
    n = round(t_end / sample_period)
    if n < 1 or abs(n * sample_period - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigError(
            f"engine.t_end = {t_end} must be a whole number of controller sample "
            f"periods ({sample_period})"
        )
    return n


def run_closed_loop(
    plant: UncertainPlant,
    cfg: AugmentationConfig,
    sig: ReferenceSignal,
    eng: EngineConfig,
    label: str = "",
    model: LoopModel | None = None,
) -> SimTrace:
    """Simulate the closed loop and record every signal at each sample boundary.

    ``model`` is ``compile_loop(plant, cfg)`` when the caller has already
    compiled it (``Scenario.loop``); otherwise it is compiled here.
    """
    if model is None:
        model = compile_loop(plant, cfg)
    elif model.plant is not plant or model.config is not cfg:
        raise ValueError("model was compiled from a different plant or configuration")
    T = cfg.sample_period
    n_steps = _sample_count(eng.t_end, T)
    h = eng.integrator_step(T)
    n, m, k = plant.n, plant.m, plant.n_unmatched

    rows = n_steps + 1
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
        label=label,
    )

    z = np.concatenate([plant.x0, plant.x0, plant.x0])  # [x, x_m, x_hat]
    xf_m, xf_u = (None if f is None else np.zeros(f.order) for f in (model.matched, model.unmatched))
    # u_a, est, r and t_sub are held over each integrator step; deriv reads them
    u_a, est, r, t_sub = np.zeros(m), None, 0.0, 0.0

    def deriv(_t: float, state: np.ndarray) -> np.ndarray:
        x = state[:n]
        x_m = state[n : 2 * n]
        x_hat = state[2 * n :]
        dx = plant_deriv(plant, x, u_a, r, t_sub)
        dx_m = reference_model_deriv(plant, x_m, r)
        dx_hat = predictor_deriv(model, x_hat, u_a, r, est, x_hat - x)
        return np.concatenate([dx, dx_m, dx_hat])

    for i in range(rows):
        t_i = i * T
        x = z[:n]
        x_m = z[n : 2 * n]
        x_hat = z[2 * n :]
        x_tilde = x_hat - x

        est = model.update(x_tilde)
        u_a, xf_m, xf_u = control_update(model, est, xf_m, xf_u)

        out.r[i] = reference_value(sig, t_i)
        out.y[i] = plant.output(x)
        out.y_m[i] = plant.output(x_m)
        out.u_a[i] = u_a
        out.sigma1[i] = est.matched
        out.sigma2[i] = est.unmatched
        out.x[i] = x
        out.x_hat[i] = x_hat
        out.x_tilde[i] = x_tilde

        if i == n_steps:
            break

        # overflow is detected via the finite check, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(eng.substeps_per_sample):
                t_sub = t_i + j * h
                r = reference_value(sig, t_sub)
                z = rk4_step(deriv, t_sub, z, h)
                if not np.all(np.isfinite(z)):
                    raise SimulationDiverged(t_sub + h, "closed-loop state is non-finite")
    return out
