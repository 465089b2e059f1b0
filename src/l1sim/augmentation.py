"""Adaptive augmentation: state predictor, sampled update law and control laws.

The estimator holds the disturbance estimate constant over each sample period
and recomputes it at every boundary from the prediction error.  Two variants
of the unmatched compensation path are provided:

* ``original``  - runs the unmatched estimate through the inverted matched
  dynamics, ``C2(s) H1(s)^-1 H2(s)``.  Requires every transmission zero of the
  matched path to lie in the open left half plane; otherwise the inverse is
  unstable and construction is rejected.
* ``modified``  - replaces the dynamic inverse by the constant inverse DC
  gain, ``C2(s) H1(0)^-1 H2(s)``.  Identical at DC, slightly slower in the
  transient, and usable on non-minimum-phase plants.

Both paths are ``g w num2_j(s) / ((s + w) den(s))`` per unmatched channel j,
the law picking only the gain g and the denominator den, and both are
realized in one observer-canonical form over the shared denominator, so the
path has deg((s + w) den) states whatever the number of channels.
``matched_only`` drops the unmatched path entirely and ``off`` disables the
augmentation.

``compile_loop`` checks a tuning against its plant and precomputes everything
a run needs into one immutable ``LoopModel``, including the exact lifted
recurrence of the whole sampled loop that the engine steps: its
``transition``, the per-substep ``command_maps``, the per-sample
``disturbance_map`` and the ``input_map`` of the adaptive input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plant import UncertainPlant
from .statespace import (
    StateSpaceModel,
    as_matrix,
    as_scalar,
    discretize_zoh,
    filter_step,
    zoh_maps,
)

LAWS = ("off", "matched_only", "original", "modified")

# Default pole location for the prediction-error dynamics when no explicit
# shaping matrix is configured.  A slow error pole keeps the sampled
# estimator's reconstruction bias (proportional to pole speed times sample
# period) negligible against the disturbances it estimates.
DEFAULT_ERROR_POLE = -0.01

DEFAULT_SAMPLE_PERIOD = 1e-3
DEFAULT_BANDWIDTH = 40.0


def _normalize_law(law: str) -> str:
    return law.replace("-", "_").strip().lower()


@dataclass(frozen=True, eq=False)
class AugmentationConfig:
    """Tuning of the augmentation loop.

    ``predictor_gain`` is the error-feedback matrix added to the predictor
    (``None`` places all prediction-error poles at ``DEFAULT_ERROR_POLE``).
    The two bandwidths shape the first-order low-pass filters on the matched
    and unmatched compensation paths.
    """

    law: str
    sample_period: float = DEFAULT_SAMPLE_PERIOD
    bandwidth_matched: float = DEFAULT_BANDWIDTH
    bandwidth_unmatched: float = DEFAULT_BANDWIDTH
    predictor_gain: np.ndarray | None = None

    def __post_init__(self):
        law = _normalize_law(self.law) if isinstance(self.law, str) else self.law
        if law not in LAWS:
            raise ConfigError(f"controller.law must be one of {LAWS}, got {self.law!r}")
        object.__setattr__(self, "law", law)
        for key in ("sample_period", "bandwidth_matched", "bandwidth_unmatched"):
            value = as_scalar(getattr(self, key), f"controller.{key}")
            if not value > 0.0:
                raise ConfigError(f"controller.{key} must be > 0, got {value}")
            object.__setattr__(self, key, value)
        if self.predictor_gain is not None:
            object.__setattr__(
                self, "predictor_gain", as_matrix(self.predictor_gain, "controller.L_p")
            )


@dataclass(frozen=True)
class DisturbanceEstimate:
    """Matched/unmatched disturbance estimate, held for one sample interval."""

    matched: np.ndarray
    unmatched: np.ndarray


def error_dynamics_matrix(plant: UncertainPlant, cfg: AugmentationConfig) -> np.ndarray:
    """Prediction-error system matrix (predictor gain plus plant A), validated Hurwitz."""
    n = plant.n
    if cfg.predictor_gain is None:
        a_err = DEFAULT_ERROR_POLE * np.eye(n)
    else:
        if cfg.predictor_gain.shape != (n, n):
            raise ConfigError(f"controller.L_p must be {n}x{n}, got {cfg.predictor_gain.shape}")
        a_err = cfg.predictor_gain + plant.A
    eigs = np.linalg.eigvals(a_err)
    if np.max(eigs.real) >= 0.0:
        raise ConfigError(
            "controller.L_p makes the prediction-error dynamics unstable "
            f"(eigenvalue real parts {np.sort(eigs.real)}); the error matrix must be Hurwitz"
        )
    return a_err


def adaptation_gain(a_err: np.ndarray, b_full: np.ndarray, sample_period: float) -> np.ndarray:
    """Gain mapping the boundary prediction error to the disturbance estimate.

    Equals ``-B^-1 Phi(T)^-1 e^(A_err T)`` with ``Phi(T)`` the integral of the
    error-dynamics exponential over one sample period.  Precompute once per
    configuration; the estimate is then a single matrix-vector product per
    sample.
    """
    a_err = as_matrix(a_err, "error dynamics matrix")
    b_full = as_matrix(b_full, "input matrix")
    n = a_err.shape[0]
    if b_full.shape != (n, n):
        raise ConfigError(f"[B1 B2] must be {n}x{n}, got {b_full.shape}")
    if np.linalg.matrix_rank(b_full) < n:
        raise ConfigError("[B1 B2] is singular; the update law cannot separate the channels")
    return _estimator_gain(*zoh_maps(a_err, b_full, sample_period))


def _estimator_gain(exp_at: np.ndarray, held_input: np.ndarray) -> np.ndarray:
    """``-(Phi(T) B)^-1 e^(A_err T)`` from the error propagator over one sample
    period and the map ``Phi(T) B`` of an input held over it."""
    if np.linalg.matrix_rank(held_input) < held_input.shape[0]:
        raise ConfigError(
            "the exponential integral over one sample period is singular; "
            "adjust controller.sample_period or controller.L_p"
        )
    return -np.linalg.solve(held_input, exp_at)


def low_pass_model(bandwidth: float, channels: int = 1) -> StateSpaceModel:
    """First-order unit-DC-gain low-pass filter w/(s+w), replicated per channel."""
    eye = np.eye(channels)
    return StateSpaceModel(
        A=-bandwidth * eye, B=bandwidth * eye, C=eye, D=np.zeros((channels, channels))
    )


def _numerator(a: np.ndarray, b_col: np.ndarray, c: np.ndarray, char: np.ndarray) -> np.ndarray:
    """Numerator polynomial of c (sI - A)^-1 b for one input column, trimmed.

    ``char`` is det(sI - A); c (sI - A)^-1 b = (det(sI - A + b c) - char) / char.
    """
    coeffs = np.poly(a - b_col @ c) - char
    mag = np.abs(coeffs)
    nz = np.flatnonzero(mag > max(mag.max(), 1.0) * 1e-9)
    return coeffs[nz[0] :] if nz.size else np.zeros(1)


def _row_realization(nums: list[np.ndarray], den: np.ndarray) -> StateSpaceModel:
    """Observer-canonical realization of the proper 1 x k row [num_j(s) / den(s)].

    The channels share the denominator, so the order is deg den whatever k
    is.  ``den[0]`` must be nonzero and no numerator longer than ``den``.
    """
    q = den.size - 1
    rows = np.zeros((len(nums), q + 1))
    for row, num in zip(rows, nums):
        row[q + 1 - num.size :] = num / den[0]
    den = den / den[0]
    a = np.eye(q, k=1)
    a[:, 0] = -den[1:]
    b = (rows[:, 1:] - np.outer(rows[:, 0], den[1:])).T
    return StateSpaceModel(a, b, np.eye(1, q), rows[np.newaxis, :, 0])


def matched_transmission_zeros(plant: UncertainPlant) -> np.ndarray:
    """Transmission zeros of the matched path (output over the control input)."""
    if plant.m != 1:
        raise ConfigError("transmission-zero analysis supports a single control input")
    num = _numerator(plant.A, plant.B1, plant.C, np.poly(plant.A))
    if num.size < 2:
        return np.zeros(0)
    return np.roots(num)


def unmatched_path_model(plant: UncertainPlant, cfg: AugmentationConfig) -> StateSpaceModel | None:
    """Continuous realization of the unmatched compensation path for the law.

    Maps the unmatched disturbance estimate to its control contribution,
    ``g w num2_j(s) / ((s + w) den(s))`` for channel j, where num2_j/det(sI - A)
    is the plant's unmatched path and (g, den) is (1, num1) under ``original``
    and (k_ff, det(sI - A)) under ``modified``.  Returns None when the law has
    no unmatched path or the plant has no unmatched directions.
    """
    if cfg.law in ("off", "matched_only") or plant.n_unmatched == 0:
        return None
    if plant.m != 1:
        raise ConfigError("the unmatched compensation path supports a single control input")
    w = cfg.bandwidth_unmatched
    char = np.poly(plant.A)
    nums = [_numerator(plant.A, col[:, np.newaxis], plant.C, char) for col in plant.B2.T]

    if cfg.law == "modified":
        # H1(0)^-1 is the feedforward gain; reject |H1(0)| = 1/|k_ff| < 1e-12
        gain, den = plant.k_ff, char
        if abs(1.0 / gain) < 1e-12:
            raise ConfigError(
                "the matched path has zero DC gain; the inverse-DC-gain law is undefined"
            )
    else:
        zeros = matched_transmission_zeros(plant)
        unstable = zeros[zeros.real >= 0.0]
        if unstable.size:
            raise ConfigError(
                "the matched path has transmission zeros not in the open left half plane "
                f"(at {np.round(unstable, 6)}); inverting its dynamics is unstable. "
                "The dynamics-inverting law requires a minimum-phase plant; "
                "use the inverse-DC-gain law instead"
            )
        gain, den = 1.0, _numerator(plant.A, plant.B1, plant.C, char)
        if max(num.size for num in nums) > den.size + 1:
            raise ConfigError(
                "the dynamics-inverting unmatched path is improper even with the "
                "low-pass filter; increase the filter order of the plant model"
            )
    model = _row_realization([gain * w * num for num in nums], np.convolve([1.0, w], den))
    if cfg.law == "original" and np.max(np.linalg.eigvals(model.A).real) >= 0.0:
        raise ConfigError("the realized unmatched compensation path is internally unstable")
    return model


def build_control_law(
    plant: UncertainPlant, cfg: AugmentationConfig
) -> tuple[StateSpaceModel | None, StateSpaceModel | None]:
    """Discretized law filters: the matched low-pass filter (``None`` under
    ``off``) and the unmatched compensation path (``None`` when the law or the
    plant has none)."""
    if cfg.law == "off":
        return None, None
    matched = discretize_zoh(low_pass_model(cfg.bandwidth_matched, plant.m), cfg.sample_period)
    path = unmatched_path_model(plant, cfg)
    return matched, None if path is None else discretize_zoh(path, cfg.sample_period)


@dataclass(frozen=True, eq=False)
class LoopModel:
    """One augmentation tuning compiled against one plant; built by ``compile_loop``.

    Holds the estimator gain, the error feedback applied in the predictor,
    the law filters of ``build_control_law`` and the exact lifted loop.  The
    lifted state at a sample boundary stacks the plant state x, the
    reference-model state x_m, the prediction error x_tilde = x_hat - x and
    the matched and unmatched law-filter states (``blocks`` names the
    slices).  Between boundaries every input is held, so one sample is

        s[k+1] = transition @ s[k] + r[k] @ command_maps + on[k] * disturbance_map

    where r[k, j] is the command held over integrator step j of sample k and
    on[k] is 1 once the disturbances act over sample k (the onset is on the
    sample grid, so the switch is constant within a sample).  The adaptive
    input held over sample k is ``input_map @ s[k]``.
    """

    plant: UncertainPlant
    config: AugmentationConfig
    gain: np.ndarray
    predictor_gain: np.ndarray
    matched: StateSpaceModel | None
    unmatched: StateSpaceModel | None
    substeps: int
    transition: np.ndarray        # (d, d)
    command_maps: np.ndarray      # (substeps, d)
    disturbance_map: np.ndarray   # (d,)
    input_map: np.ndarray         # (m, d)

    @property
    def blocks(self) -> dict[str, slice]:
        """Slices of the lifted state, in state order."""
        n = self.plant.n
        return {
            "plant": slice(0, n),
            "reference model": slice(n, 2 * n),
            "predictor": slice(2 * n, 3 * n),
            "law filter": slice(3 * n, self.transition.shape[0]),
        }

    def update(self, x_tilde: np.ndarray) -> DisturbanceEstimate:
        """Disturbance estimate from the prediction error at a sample boundary."""
        sig = self.gain @ x_tilde
        m = self.plant.m
        return DisturbanceEstimate(matched=sig[:m].copy(), unmatched=sig[m:].copy())


# Alias read by the benchmark (perfbench/): it counts gain builds per run as
# constructions under this name, and its self-test reads ``update`` through it.
PiecewiseConstantLaw = LoopModel


def grid_index(t: float, sample_period: float) -> int | None:
    """Number of sample periods in t, or None when t is off the sample grid
    (relative tolerance 1e-9)."""
    n = round(t / sample_period)
    return n if abs(n * sample_period - t) <= 1e-9 * max(1.0, abs(t)) else None


def _step_maps(a_d: np.ndarray, b_d: np.ndarray, substeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Propagator over ``substeps`` steps of the ZOH maps (a_d, b_d) of one
    step, and for each step j the map of an input held over step j alone."""
    maps = np.empty((substeps, *b_d.shape))
    maps[-1] = b_d
    prop = a_d
    for j in range(substeps - 2, -1, -1):
        maps[j] = a_d @ maps[j + 1]
        prop = prop @ a_d
    return prop, maps


def compile_loop(
    plant: UncertainPlant, cfg: AugmentationConfig, substeps_per_sample: int = 1
) -> LoopModel:
    """Check the tuning against the plant and precompute the loop model.

    The only place a tuning is checked: an onset off the sample grid, Hurwitz
    error dynamics, a singular update gain, the transmission-zero gate of the
    dynamics-inverting law and improper or unstable path realizations all
    raise ``ConfigError`` here.  ``substeps_per_sample`` is the engine's
    ``substeps_per_sample``: the command is held over steps of
    ``sample_period / substeps_per_sample``.
    """
    T = cfg.sample_period
    if grid_index(plant.onset, T) is None:
        raise ConfigError(
            f"uncertainty.onset = {plant.onset} must be a whole number of controller "
            f"sample periods ({T})"
        )
    a_err = error_dynamics_matrix(plant, cfg)
    matched, unmatched = build_control_law(plant, cfg)
    n, m = plant.n, plant.m
    h = T / substeps_per_sample
    b_full = np.hstack([plant.B1, plant.B2])
    # x and x_m move under A and x_tilde under A_err, each driven through
    # [B1 B2]; one exponential of the stacked pair discretizes both
    pair = np.zeros((2 * n, 2 * n))
    pair[:n, :n] = plant.A
    pair[n:, n:] = a_err
    prop, steps = _step_maps(
        *zoh_maps(pair, np.vstack([b_full, b_full]), h), substeps_per_sample
    )
    plant_prop, plant_steps = prop[:n, :n], steps[:, :n]
    err_prop = prop[n:, n:]
    # maps of an input held over the whole sample
    plant_input, err_input = plant_steps.sum(axis=0), steps[:, n:].sum(axis=0)
    gain = _estimator_gain(err_prop, err_input)

    # state layout as in LoopModel.blocks
    filters = [(f, g) for f, g in ((matched, gain[:m]), (unmatched, gain[m:])) if f is not None]
    d = 3 * n + sum(f.order for f, _ in filters)
    x, x_m, x_t = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    transition = np.zeros((d, d))
    input_map = np.zeros((m, d))
    start = 3 * n
    for filt, g in filters:
        block = slice(start, start + filt.order)
        start += filt.order
        # the filter advances on the new estimate, and u_a reads the advanced state
        transition[block, x_t] = filt.B @ g
        transition[block, block] = filt.A
        input_map[:, x_t] -= (filt.C @ filt.B + filt.D) @ g
        input_map[:, block] = -filt.C @ filt.A
    transition[x, x] = plant_prop
    transition[x] += plant_input[:, :m] @ input_map
    transition[x_m, x_m] = plant_prop
    transition[x_t, x_t] = err_prop + err_input @ gain

    # the command enters plant and reference model alike and cancels in x_tilde
    command_maps = np.zeros((substeps_per_sample, d))
    command_maps[:, x] = plant_steps[:, :, :m] @ np.full(m, plant.k_ff)
    command_maps[:, x_m] = command_maps[:, x]
    f = np.concatenate([plant.f1, plant.f2])
    disturbance_map = np.zeros(d)
    disturbance_map[x] = plant_input @ f
    disturbance_map[x_t] = -(err_input @ f)
    return LoopModel(
        plant=plant,
        config=cfg,
        gain=gain,
        predictor_gain=a_err - plant.A,
        matched=matched,
        unmatched=unmatched,
        substeps=substeps_per_sample,
        transition=transition,
        command_maps=command_maps,
        disturbance_map=disturbance_map,
        input_map=input_map,
    )


def predictor_deriv(
    model: LoopModel,
    x_hat: np.ndarray,
    u_a: np.ndarray,
    r: float,
    est: DisturbanceEstimate,
    x_tilde: np.ndarray,
) -> np.ndarray:
    """State derivative of the predictor: plant model driven by the estimates
    plus error feedback."""
    p = model.plant
    return (
        p.A @ x_hat
        + p.B1 @ (u_a + est.matched + p.k_ff * r)
        + p.B2 @ est.unmatched
        + model.predictor_gain @ x_tilde
    )


def control_update(model: LoopModel, est: DisturbanceEstimate, xf_m, xf_u):
    """Advance the law filters one sample from states (xf_m, xf_u).

    Returns the adaptive input to hold until the next boundary and the next
    filter states.
    """
    if model.matched is None:
        return np.zeros(model.plant.m), xf_m, xf_u
    xf_m, y = filter_step(model.matched, xf_m, est.matched)
    u = -y
    if model.unmatched is not None:
        xf_u, y = filter_step(model.unmatched, xf_u, est.unmatched)
        u = u - y
    return u + 0.0, xf_m, xf_u  # + 0.0 normalizes -0.0 so emitted traces read cleanly
