"""Deterministic sampled-data closed-loop simulation.

Between two sample boundaries the whole loop is linear and time invariant:
the disturbance estimate and the adaptive input are held, the command r is
held over each integrator step, the on/off state of the constant
disturbances f1/f2 over the whole sample (their onset is on the sample
grid), and the estimator and both law filters are linear maps of the
boundary state.  So the sampled loop is one exact zero-order-hold
recurrence over the stacked state (``LoopModel``),

    s[k+1] = M s[k] + f[k],

precomputed by ``compile_loop``.  A run builds the forcing f from the hold
grid and solves the recurrence for all N samples at once with a log-depth
scan of ceil(log2(N+1)) whole-trace products (recursive doubling,
``_doubling_scan``); every recorded signal is a projection of the stacked
states.  If a state comes out non-finite, the run steps the recurrence again
one sample at a time, and that sequential pass names the first non-finite
sample and block in ``SimulationDiverged``.  Identical inputs give
bit-identical traces, whatever the number of BLAS threads.

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
        object.__setattr__(self, "t_end", as_scalar(self.t_end, "engine.t_end", "> 0"))
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
    h = as_scalar(h, "step size", "> 0")
    k1 = deriv(t, x)
    k2 = deriv(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = deriv(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = deriv(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sample_count(t_end: float, sample_period: float) -> int:
    n = grid_index(t_end, sample_period, "engine.t_end")
    if n < 1:  # 0 < t_end <= 1e-9, within the grid's tolerance of 0
        raise ConfigError(f"engine.t_end = {t_end} must be at least one sample period")
    return n


def _stacked_forcing(model: LoopModel, sig: ReferenceSignal, t: np.ndarray) -> np.ndarray:
    """Rows [s[0], f[0], ..., f[N-1]]: the initial lifted state, then the
    forcing of each sample (``LoopModel``) for the boundary times t."""
    plant, blocks = model.plant, model.blocks
    # integrator step j of sample i starts at i*T + j*h
    h = model.config.sample_period / model.substeps
    t_hold = t[:-1, np.newaxis] + np.arange(model.substeps) * h
    rows = np.empty((t.shape[0], model.transition.shape[0]))
    rows[0] = 0.0
    rows[0, blocks["plant"]] = plant.x0
    rows[0, blocks["reference model"]] = plant.x0
    rows[1:] = reference_value(sig, t_hold) @ model.command_maps
    rows[1:] += np.outer(t[:-1] >= plant.onset, model.disturbance_map)
    return rows


def _doubling_scan(rows: np.ndarray, transition: np.ndarray) -> None:
    """Turn [s[0], f[0], ..., f[N-1]] into [s[0], ..., s[N]] in place, where
    s[k+1] = M s[k] + f[k] and M is ``transition``.

    Recursive doubling (Kogge and Stone 1973; the Hillis-Steele inclusive
    scan): after the stage of step 2^i, row j holds the sum over the 2^(i+1)
    rows up to j of M^(j-l) rows[l].  Each stage is one product of the whole
    trace with the power P = M^step, so the scan takes ceil(log2(N+1))
    products.  Row j only ever reads rows before it.
    """
    power, step = transition, 1
    while step < rows.shape[0]:
        # the product is formed from the rows as they were before this stage
        rows[step:] += rows[:-step] @ power.T
        step *= 2
        if step < rows.shape[0]:
            power = power @ power


def lifted_states(model: LoopModel, sig: ReferenceSignal, n_samples: int) -> np.ndarray:
    """Lifted state s[k] of ``model`` at sample boundaries k = 0..n_samples.

    Raises ``SimulationDiverged`` at the first boundary whose state is not
    finite.  The powers of the scan can overflow before the states do, and
    its rounding can move an overflow by a sample, so a non-finite scan is
    stepped again one sample at a time, and that recurrence decides where,
    and whether, the loop diverged.
    """
    T = model.config.sample_period
    t = np.arange(n_samples + 1) * T
    states = _stacked_forcing(model, sig, t)
    # overflow is detected by the finite checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _doubling_scan(states, model.transition)
        if np.isfinite(states).all():
            return states
        states = _stacked_forcing(model, sig, t)
        rows = list(states)  # row views: adding to one writes into states
        step = model.transition.dot
        for prev, row in zip(rows, rows[1:]):
            row += step(prev)
    finite = np.isfinite(states).all(axis=1)
    if finite.all():
        return states
    k = int(np.argmin(finite))
    block = next(name for name, cols in model.blocks.items()
                 if not np.isfinite(states[k, cols]).all())
    raise SimulationDiverged(k * T, k, block, float(np.abs(states[k - 1]).max()))


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
    states = lifted_states(model, sig, n_steps)
    blocks = model.blocks

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
