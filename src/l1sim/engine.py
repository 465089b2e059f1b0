"""Deterministic sampled-data closed-loop simulation.

Between two sample boundaries the whole loop is linear and time invariant:
the disturbance estimate and the adaptive input are held, the command r and
the on/off state of the constant disturbances f1/f2 are held over each
integrator step, and the estimator and both law filters are linear maps of
the boundary state.  So the sampled loop is one exact zero-order-hold
recurrence over the stacked state (``LoopModel``),

    s[k+1] = M s[k] + f[k],

precomputed by ``compile_loop``.  A run builds the forcing f from the hold
grid and does one matrix-vector product per sample; every recorded signal is
a projection of the stacked states.  Identical inputs give bit-identical
traces.

Exogenous inputs are held over each integrator step at their value at the
step's start.  So a command or disturbance onset takes effect from the first
integrator step that starts at or after it, and no sample at or before the
onset sees it.  ``substeps_per_sample`` sets that hold grid; the solution
between its points is exact, not integrated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augmentation import AugmentationConfig, LoopModel, compile_loop, grid_index
from .errors import ConfigError, SimulationDiverged
from .plant import ReferenceSignal, UncertainPlant, reference_value
from .statespace import as_scalar


@dataclass(frozen=True)
class EngineConfig:
    """Time horizon and hold grid.

    The integrator step, over which the command and the disturbance switch
    are held, is the controller sample period divided by
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
    n = grid_index(t_end, sample_period)
    if n is None or n < 1:
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

    ``model`` is ``compile_loop(plant, cfg, eng.substeps_per_sample)`` when
    the caller has already compiled it (``Scenario.loop``); otherwise it is
    compiled here.
    """
    substeps = eng.substeps_per_sample
    if model is None:
        model = compile_loop(plant, cfg, substeps)
    elif model.plant is not plant or model.config is not cfg or model.substeps != substeps:
        raise ValueError("model was compiled from a different plant or configuration")
    T = cfg.sample_period
    n_steps = _sample_count(eng.t_end, T)
    t = np.arange(n_steps + 1) * T
    # integrator step j of sample i starts at i*T + j*h
    t_hold = t[:-1, np.newaxis] + np.arange(substeps) * eng.integrator_step(T)
    blocks = model.blocks

    states = np.empty((n_steps + 1, model.transition.shape[0]))
    states[0] = 0.0
    states[0, blocks["plant"]] = plant.x0
    states[0, blocks["reference model"]] = plant.x0
    states[1:] = reference_value(sig, t_hold) @ model.command_maps
    states[1:] += (t_hold >= plant.onset) @ model.disturbance_maps
    rows = list(states)  # row views: adding to one writes into states
    step = model.transition.dot
    # overflow is detected by the finite check below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for prev, row in zip(rows, rows[1:]):
            row += step(prev)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        block = next(name for name, cols in blocks.items()
                     if not np.isfinite(states[k, cols]).all())
        raise SimulationDiverged(k * T, k, block, float(np.abs(states[k - 1]).max()))

    x = states[:, blocks["plant"]]
    x_hat = x + states[:, blocks["predictor"]]
    sigma = states[:, blocks["predictor"]] @ model.gain.T
    m = plant.m
    return SimTrace(
        t=t,
        r=reference_value(sig, t),
        y=x @ plant.C[0],
        y_m=states[:, blocks["reference model"]] @ plant.C[0],
        u_a=states @ model.input_map.T + 0.0,  # + 0.0 normalizes -0.0
        sigma1=sigma[:, :m],
        sigma2=sigma[:, m:],
        x=x,
        x_hat=x_hat,
        x_tilde=x_hat - x,
        label=label,
    )
