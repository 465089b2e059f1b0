"""Deterministic sampled-data closed-loop simulation.

Between two sample boundaries the whole loop is linear and time invariant:
the disturbance estimate and the adaptive input are held, the command r is
held over each integrator step at its value at the step's start, and the
estimator and both law filters are linear maps of the boundary state.  So
the sampled loop is one exact zero-order-hold recurrence over the stacked
state (``LoopModel``),

    s[k+1] = M s[k] + f[k],

precomputed by ``compile_loop``, which folds the integrator steps of a
sample into two command maps: f[k] is r(kT) through the level map plus a
ramp's gradient through the slope map, from the command's switch sample on,
plus the disturbance map once the disturbances act.  Both onsets (``reference``
and ``uncertainty``) must lie on the sample grid, and each acts over whole
samples from the first boundary k T at or after it, the comparison
``reference_value`` and ``compute_metrics`` make; no sample at or before an
onset sees it.  Step traces are the same as with a per-step hold grid.

A run splits its N samples into segments at the two switch samples.  Within
a segment from sample a, f[k] = alpha + beta (k - a) (beta = 0 for a step
command), so the state [s, 1, k - a] follows one autonomous matrix, and
power doubling solves it: the rows [z, P z, ..., P^(n-1) z] go through P^n
to the next n rows, and P^n is squared for the next stage.  A run costs
about N d^2 multiply-adds and a few d x d squarings per segment, and a
segment with zero state and zero forcing (x0 = 0 before the onsets) is
written as zeros.  Every recorded signal is a projection of the stacked
states.  If a state comes out non-finite, the run builds f for every sample
and steps the recurrence again one sample at a time, and that sequential
pass names the first non-finite sample and block in ``SimulationDiverged``.
Identical inputs give bit-identical traces, whatever the number of BLAS
threads.
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
    """Time horizon and the integrator steps per sample.

    The command is held over each of the ``substeps_per_sample`` integrator
    steps of a sample, at its value at the step's start; ``compile_loop``
    folds them into the loop model, so only a ramp's trace depends on them.
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
        # compile_loop raises the rounded step propagator to the S-th power, which
        # drifts from e^(A T) by about S eps: 2**22 eps is 1e-9, the grid's tolerance
        if subs > 2**22:
            raise ConfigError("engine.substeps_per_sample must be at most 2**22 = 4194304")
        object.__setattr__(self, "substeps_per_sample", int(subs))


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


def _onset_sample(onset: float, sample_period: float, name: str) -> int:
    """First sample k whose start k T is at or after ``onset``, the value of
    key ``name``, which must lie on the sample grid."""
    k = grid_index(onset, sample_period, name)
    return k + (k * sample_period < onset)  # the grid's tolerance can leave k T short


def _forcing(model: LoopModel, sig: ReferenceSignal, start: np.ndarray) -> np.ndarray:
    """Forcing f[k] of ``LoopModel`` for the samples k that start at the times
    ``start`` = k T: the command at the sample's start through the level map,
    a ramp's gradient through the slope map once it is on, and the
    disturbance map once the disturbances act."""
    level, slope = model.command_maps
    rows = np.outer(reference_value(sig, start), level)
    if sig.kind == "ramp":
        rows += np.outer((start >= sig.onset) * sig.gradient, slope)
    rows += (start >= model.plant.onset)[:, np.newaxis] * model.disturbance_map
    return rows


def _stacked_forcing(model: LoopModel, sig: ReferenceSignal, initial: np.ndarray,
                     n_samples: int) -> np.ndarray:
    """Rows [s[0], f[0], ..., f[n_samples - 1]]: the initial lifted state, then
    the forcing of each sample."""
    rows = np.empty((n_samples + 1, initial.shape[0]))
    rows[0] = initial
    rows[1:] = _forcing(model, sig, np.arange(n_samples) * model.config.sample_period)
    return rows


def _segment_starts(model: LoopModel, sig: ReferenceSignal, n_samples: int) -> list[int]:
    """Sample 0 and the switch samples of the command and the disturbances
    before ``n_samples``: between two of them the forcing is affine in k."""
    T = model.config.sample_period
    onsets = (_onset_sample(sig.onset, T, "reference.onset"),
              _onset_sample(model.plant.onset, T, "uncertainty.onset"))
    return sorted({0, *(k for k in onsets if k < n_samples)})


def _power_doubling(rows: np.ndarray, power: np.ndarray) -> None:
    """Fill rows[1:] with rows[j] = rows[0] @ (power^j)^T, where rows[0] and
    ``power`` are the state and the transition of an autonomous recurrence.

    Each stage maps the rows it has, [z, ..., P^(n-1) z], through P^n to the
    next n rows, and squares P^n for the next stage, so L rows cost about L
    row products and ceil(log2 L) squarings.  Row j only ever reads rows
    before it.
    """
    n, length = 1, rows.shape[0]
    step = power.T  # the rows are states, so they go through the transposed powers
    while n < length:
        m = min(n, length - n)
        if m == 1 < n:
            # numpy sends a one-row product to gemv, which rounds differently
            # from gemm; with two rows a state does not depend on where its
            # segment ends
            rows[n] = np.dot(rows[:2], step)[0]
        else:
            np.dot(rows[:m], step, out=rows[n : n + m])
        n *= 2
        if n < length:
            step = np.dot(step, step)


def lifted_states(model: LoopModel, sig: ReferenceSignal, n_samples: int) -> np.ndarray:
    """Lifted state s[k] of ``model`` at sample boundaries k = 0..n_samples.

    The samples split where the command or the disturbances switch on
    (``_segment_starts``; ``ConfigError`` names an onset off the sample
    grid).  Within a segment starting at sample a the forcing is
    alpha + beta (k - a), with both taken from ``_forcing`` at the starts
    and the sample after, so [s, 1, k - a] follows one autonomous matrix
    [[M, alpha, beta], [0, 1, 0], [0, 1, 1]], solved by ``_power_doubling``:
    about N d^2 multiply-adds over the run.  A segment with zero state and
    zero forcing (x0 = 0 before the onsets) is written as zeros.

    Raises ``SimulationDiverged`` at the first boundary whose state is not
    finite.  The powers can overflow before the states do, and their
    rounding can move an overflow by a sample, so a non-finite result is
    stepped again one sample at a time from the per-sample forcing, and that
    recurrence decides where, and whether, the loop diverged.
    """
    T, M = model.config.sample_period, model.transition
    d = M.shape[0]
    starts = _segment_starts(model, sig, n_samples)
    count = len(starts)
    blocks = model.blocks
    # columns d and d + 1 carry the 1 and the k - a of a segment's forcing
    work = np.empty((n_samples + 1, d + 2))
    work[0] = 0.0
    work[0, blocks["plant"]] = work[0, blocks["reference model"]] = model.plant.x0
    power = np.zeros((d + 2, d + 2))
    power[:d, :d] = M
    power[d:, d] = power[d + 1, d + 1] = 1.0
    # overflow is detected by the finite checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = _forcing(model, sig, np.array([a * T for a in starts]
                                                + [(a + 1) * T for a in starts]))
        alpha, beta = forcing[:count], forcing[count:] - forcing[:count]
        live = forcing.any(axis=1).tolist()
        for i, (a, b) in enumerate(zip(starts, starts[1:] + [n_samples])):
            rows = work[a : b + 1]
            rows[0, d], rows[0, d + 1] = 1.0, 0.0
            if live[i] or live[count + i] or rows[0, :d].any():
                power[:d, d], power[:d, d + 1] = alpha[i], beta[i]
                _power_doubling(rows, power)
            else:
                rows[1:] = 0.0
        # every column is written, and the last two are finite when the states are
        if np.isfinite(work).all():
            return work[:, :d]
        states = _stacked_forcing(model, sig, work[0, :d], n_samples)
        rows = list(states)  # row views: adding to one writes into states
        for prev, row in zip(rows, rows[1:]):
            row += M.dot(prev)
    finite = np.isfinite(states).all(axis=1)
    if finite.all():
        return states
    k = int(np.argmin(finite))
    block = next(name for name, cols in blocks.items()
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
