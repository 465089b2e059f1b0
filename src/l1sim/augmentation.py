"""Adaptive augmentation: state predictor, sampled update law and control laws.

The estimator holds the disturbance estimate constant over each sample period
and recomputes it at every boundary from the prediction error.  Two variants
of the unmatched compensation path are provided:

* ``original``  - runs the unmatched estimate through the inverted matched
  dynamics, ``C2(s) H1(s)^-1 H2(s)``: the plant's output-zeroing inverse.
  Requires every transmission zero of the matched path (the path's poles) to
  lie in the open left half plane and a relative degree of at most 2.
* ``modified``  - replaces the dynamic inverse by the constant inverse DC
  gain, ``C2(s) H1(0)^-1 H2(s)``: a copy (A, B2, C) of the plant scaled by
  the feedforward gain k_ff = H1(0)^-1, which every plant that loads has.
  Identical at DC, slightly slower in the transient, and usable on
  non-minimum-phase plants.

Both paths are a core system in series with ``w / (s + w)``, built by one
assembly.  ``matched_only`` drops the unmatched path entirely and ``off``
disables the augmentation.

``compile_loop`` checks a tuning against its plant and precomputes everything
a run needs into one immutable ``LoopModel``, with one matrix exponential:
the exact lifted recurrence of the whole sampled loop that the engine steps,
its ``transition``, the level and slope ``command_maps``, the per-sample
``disturbance_map`` and the ``input_map`` of the adaptive input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plant import UncertainPlant
from .statespace import (
    StateSpaceModel,
    _square,
    as_matrix,
    as_scalar,
    filter_step,
    full_rank,
    zoh_maps,
)

LAWS = ("off", "matched_only", "original", "modified")

# what sets the loop's rates, each taken times the sample period by its one exponential
_RATE_KEYS = ("controller.sample_period, plant.A, controller.L_p, "
              "controller.bandwidth_matched or controller.bandwidth_unmatched")

# Default pole location for the prediction-error dynamics when no explicit
# shaping matrix is configured.  A slow error pole keeps the sampled
# estimator's reconstruction bias (proportional to pole speed times sample
# period) negligible against the disturbances it estimates.
DEFAULT_ERROR_POLE = -0.01


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
    sample_period: float = 1e-3
    bandwidth_matched: float = 40.0
    bandwidth_unmatched: float = 40.0
    predictor_gain: np.ndarray | None = None

    def __post_init__(self):
        law = _normalize_law(self.law) if isinstance(self.law, str) else self.law
        if law not in LAWS:
            raise ConfigError(f"controller.law must be one of {LAWS}, got {self.law!r}")
        object.__setattr__(self, "law", law)
        for key in ("sample_period", "bandwidth_matched", "bandwidth_unmatched"):
            object.__setattr__(self, key, as_scalar(getattr(self, key), f"controller.{key}", "> 0"))
        if self.predictor_gain is not None:
            lp = as_matrix(self.predictor_gain, "controller.L_p")
            object.__setattr__(self, "predictor_gain", lp)


@dataclass(frozen=True)
class DisturbanceEstimate:
    """Matched/unmatched disturbance estimate, held for one sample interval."""

    matched: np.ndarray
    unmatched: np.ndarray


def error_dynamics_matrix(plant: UncertainPlant, cfg: AugmentationConfig) -> np.ndarray:
    """Prediction-error system matrix (predictor gain plus plant A), validated Hurwitz."""
    n = plant.n
    if cfg.predictor_gain is None:
        return DEFAULT_ERROR_POLE * np.eye(n)  # Hurwitz by construction
    if cfg.predictor_gain.shape != (n, n):  # coerced by the config, sized by the plant
        raise ConfigError(f"controller.L_p must be a {n}x{n} matrix to match plant.A, "
                          f"got shape {cfg.predictor_gain.shape}")
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
    a_err = _square(a_err, "error dynamics matrix")
    n = a_err.shape[0]
    b_full = as_matrix(b_full, "[B1 B2]", (n, n))
    if not full_rank(np.linalg.svd(b_full, compute_uv=False), n):
        raise ConfigError("[B1 B2] is singular; the update law cannot separate the channels")
    return _estimator_gain(*zoh_maps(a_err, b_full, sample_period))


def _estimator_gain(exp_at: np.ndarray, held_input: np.ndarray) -> np.ndarray:
    """``-(Phi(T) B)^-1 e^(A_err T)`` from the error propagator over one sample
    period and the map ``Phi(T) B`` of an input held over it."""
    if not full_rank(np.linalg.svd(held_input, compute_uv=False), held_input.shape[0]):
        raise ConfigError(
            f"the exponential integral over one sample period is singular; adjust {_RATE_KEYS}"
        )
    return -np.linalg.solve(held_input, exp_at)


def low_pass_model(bandwidth: float, channels: int = 1) -> StateSpaceModel:
    """First-order unit-DC-gain low-pass filter w/(s+w), replicated per channel."""
    eye = np.eye(channels)
    return StateSpaceModel._of(-bandwidth * eye, bandwidth * eye, eye, 0.0 * eye)


def _zero_dynamics(plant: UncertainPlant):
    """Rows C, CA, ..., C A^r of the matched path (A, B1, C) to its relative
    degree r, gamma = C A^(r-1) B1, an orthonormal basis V of the kernel of
    C ... C A^(r-1), and the zero-dynamics matrix V^T P A V, with
    P = I - B1 C A^(r-1) / gamma.  The input that holds the output at 0 keeps
    x = V xi, moving by that matrix, whose eigenvalues are the transmission
    zeros (Silverman, IEEE TAC 14(3), 1969).  C A^k B1 counts as 0 below
    1e-12 |C A^k| |B1|, which no rescaling of input or output moves."""
    a, b1 = plant.A, plant.B1[:, 0]
    rows = [plant.C[0]]
    while abs(gamma := rows[-1] @ b1) <= 1e-12 * np.linalg.norm(rows[-1]) * np.linalg.norm(b1):
        if len(rows) == plant.n:
            raise ConfigError("the matched path is zero to rounding; it has no inverse")
        rows.append(rows[-1] @ a)
    r = len(rows)
    rows = np.array(rows + [rows[-1] @ a])
    basis = np.linalg.svd(rows[:r])[2][r:].T
    return rows, gamma, basis, basis.T @ (a - np.outer(b1, rows[r] / gamma)) @ basis


def matched_transmission_zeros(plant: UncertainPlant) -> np.ndarray:
    """Transmission zeros of the matched path (output over the control input)."""
    return np.linalg.eigvals(_zero_dynamics(plant)[3])


def _low_pass_path(a, b, c, d, g, w: float) -> StateSpaceModel:
    """The core dxi/dt = a xi + b v, output z = (c xi + d v) / w + g dv/dt, in
    series with w/(s + w): the path output is phi + w g v, where the filter
    state moves by dphi/dt = -w phi + c xi + (d - w^2 g) v."""
    q = a.shape[0]
    path_a = np.zeros((q + 1, q + 1))
    path_a[:q, :q], path_a[q, :q], path_a[q, q] = a, c, -w
    path_b = np.vstack([b, d - w * w * g])
    return StateSpaceModel._of(path_a, path_b, np.eye(1, q + 1, q), w * g[np.newaxis])


def unmatched_path_model(plant: UncertainPlant, cfg: AugmentationConfig) -> StateSpaceModel | None:
    """Continuous realization of the unmatched compensation path for the law.

    Maps the unmatched estimate v to ``w H1^-1 H2(s) v / (s + w)``, H1 and H2
    the plant's matched and unmatched paths, with H1^-1 = k_ff = H1(0)^-1
    under ``modified``: a plant copy (A, B2, C) as the core, n + 1 states.
    Under ``original`` H1^-1 = H1(s)^-1, and the core is the input that holds
    y at 0 against v: x = V xi - B1 g v on the zero dynamics, g = C B2 / gamma
    at relative degree r = 2 and 0 at r = 1; n - r + 1 states with the
    transmission zeros and -w as poles.  It is improper for r > 2, as C B1 =
    C B2 = 0 would make C zero.  None when the law or the plant has no path.
    """
    if cfg.law in ("off", "matched_only") or plant.n_unmatched == 0:
        return None
    w, k = cfg.bandwidth_unmatched, plant.n_unmatched
    if cfg.law == "modified":
        return _low_pass_path(plant.A, plant.B2, w * plant.k_ff * plant.C[0], 0.0, np.zeros(k), w)
    rows, gamma, basis, zero_dynamics = _zero_dynamics(plant)
    zeros = np.linalg.eigvals(zero_dynamics)  # the path's poles but -w
    unstable = zeros[zeros.real >= 0.0]
    if unstable.size:
        raise ConfigError(
            "the matched path has transmission zeros not in the open left half plane "
            f"(at {np.round(unstable, 6)}); inverting its dynamics is unstable. "
            "The dynamics-inverting law requires a minimum-phase plant; "
            "use the inverse-DC-gain law instead"
        )
    r = len(rows) - 1
    if r > 2:
        raise ConfigError(
            f"controller.law 'original' inverts the matched path, whose relative degree {r} "
            "is above 2, so its unmatched path is improper even with the low-pass filter; "
            "the 'modified' law has no such limit"
        )
    b1 = plant.B1[:, 0]
    g = rows[0] @ plant.B2 / gamma if r == 2 else np.zeros(k)
    # x + B1 g v = V xi moves by P (A V xi + shifted v); the input that zeroes y
    # is -(C A^r V xi / gamma + d v + g dv/dt), and P shifted = shifted - B1 d
    shifted = plant.B2 - np.outer(plant.A @ b1, g)
    d = rows[r - 1] @ shifted / gamma
    core_b = basis.T @ (shifted - np.outer(b1, d))
    return _low_pass_path(zero_dynamics, core_b, w / gamma * rows[r] @ basis, w * d, g, w)


def build_control_law(
    plant: UncertainPlant, cfg: AugmentationConfig
) -> tuple[StateSpaceModel | None, StateSpaceModel | None]:
    """Discretized law filters of ``compile_loop``: the matched low-pass
    filter (``None`` under ``off``) and the unmatched compensation path
    (``None`` when the law or the plant has none)."""
    loop = compile_loop(plant, cfg)
    return loop.matched, loop.unmatched


@dataclass(frozen=True, eq=False)
class LoopModel:
    """One augmentation tuning compiled against one plant; built by ``compile_loop``.

    Holds the estimator gain, the error feedback applied in the predictor,
    the law filters, discretized with the whole loop, and the lifted loop.  The
    lifted state at a sample boundary stacks the plant state x, the
    reference-model state x_m, the prediction error x_tilde = x_hat - x and
    the matched and unmatched law-filter states (``blocks`` names the
    slices).  Between boundaries every input is held, so one sample is

        s[k+1] = transition @ s[k] + [r(kT), g] @ command_maps + on[k] * disturbance_map

    where g is a ramp's gradient from the command's switch sample on (0 for a
    step) and on[k] is 1 once the disturbances act over sample k; both onsets
    lie on the sample grid.  The command is held over each of the ``substeps``
    integrator steps at its step-start value, and ``command_maps`` folds them
    into the level map of r(kT) and the slope map of a ramp's rise within the
    sample.  The adaptive input held over sample k is ``input_map @ s[k]``.
    """

    plant: UncertainPlant
    config: AugmentationConfig
    gain: np.ndarray
    predictor_gain: np.ndarray
    matched: StateSpaceModel | None
    unmatched: StateSpaceModel | None
    substeps: int
    transition: np.ndarray        # (d, d)
    command_maps: np.ndarray      # (2, d): level, slope
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


def grid_index(t: float, sample_period: float, name: str) -> int:
    """Number of sample periods in t, the value of key ``name``, which must be a
    whole number of them (relative tolerance 1e-9)."""
    periods = t / sample_period  # inf past the float range: off every grid
    n = round(periods) if math.isfinite(periods) else None
    if n is None or abs(n * sample_period - t) > 1e-9 * max(1.0, abs(t)):
        raise ConfigError(f"{name} = {t} must be a whole number of sample periods "
                          f"(controller.sample_period = {sample_period})")
    return n


def compile_loop(
    plant: UncertainPlant, cfg: AugmentationConfig, substeps_per_sample: int = 1
) -> LoopModel:
    """Check the tuning against the plant and precompute the loop model.

    The only place a tuning is checked: an onset off the sample grid, Hurwitz
    error dynamics, a singular update gain, the transmission-zero gate of the
    dynamics-inverting law (also its path's stability check), an improper path
    and an overflowing loop all raise ``ConfigError`` here.  The command is
    held over S = ``substeps_per_sample`` steps of h = T / S, the engine's,
    and the S steps fold into the sample's maps by one matrix power.
    """
    T = cfg.sample_period
    grid_index(plant.onset, T, "uncertainty.onset")
    a_err = error_dynamics_matrix(plant, cfg)
    n, m = plant.n, plant.m
    # each continuous law filter, the estimate channels it reads and its block
    filters, width = [], 2 * n
    if cfg.law != "off":
        with np.errstate(over="ignore", invalid="ignore"):  # zoh_maps rejects an overflow
            path = unmatched_path_model(plant, cfg)
        for filt, chans in ((low_pass_model(cfg.bandwidth_matched, m), slice(0, m)),
                            (path, slice(m, n))):
            if filt is not None:
                filters.append((filt, chans, slice(width, width + filt.order)))
                width += filt.order
    # One exponential of a block-diagonal generator discretizes the whole loop: x
    # under A and x_tilde under A_err, both driven through [B1 B2] by the held input
    # (input columns n:), and each filter, driven by its channels of the estimate (:n).
    gen, drive = np.zeros((width, width)), np.zeros((width, 2 * n))
    gen[:n, :n], gen[n : 2 * n, n : 2 * n] = plant.A, a_err
    drive[:n, n:] = drive[n : 2 * n, n:] = np.hstack([plant.B1, plant.B2])
    for filt, chans, block in filters:
        gen[block, block], drive[block, chans] = filt.A, filt.B
    # One step of h = T / S advances [z, u, j]: z under the ZOH maps (a_h, b_h), the
    # held input u, and a constant j = 1 that adds one to u's command column (B1's,
    # n) per step.  So the S-th power (the step itself at S = 1, O(log S) products)
    # holds the propagator, the held-input maps and sum_j j a_h^(S-1-j) b_h[:, n].
    h = T / substeps_per_sample
    a_h, b_h = zoh_maps(gen, drive, h, f"one of {_RATE_KEYS}")
    step = np.eye(width + 2 * n + 1)
    step[:width, :width], step[:width, width:-1], step[width + n, -1] = a_h, b_h, 1.0
    power = np.linalg.matrix_power(step, substeps_per_sample)
    prop, held, staircase = power[:width, :width], power[:width, width:-1], power[:n, -1]
    plant_prop, plant_input = prop[:n, :n], held[:n, n:]
    err_prop, err_input = prop[n : 2 * n, n : 2 * n], held[n : 2 * n, n:]
    gain = _estimator_gain(err_prop, err_input)

    # the lifted state is the generator's with x_m after x (LoopModel.blocks)
    d = n + width
    x, x_m, x_t = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    transition, input_map = np.zeros((d, d)), np.zeros((m, d))
    discrete = []
    for filt, chans, block in filters:
        filt = StateSpaceModel._of(prop[block, block], held[block, chans], filt.C, filt.D)
        discrete.append(filt)
        block, g = slice(n + block.start, n + block.stop), gain[chans]
        # the filter advances on the new estimate, and u_a reads the advanced state
        transition[block, x_t] = filt.B @ g
        transition[block, block] = filt.A
        input_map[:, x_t] -= (filt.C @ filt.B + filt.D) @ g
        input_map[:, block] = -filt.C @ filt.A
    matched, unmatched = discrete + [None] * (2 - len(discrete))
    transition[x, x] = plant_prop
    transition[x] += plant_input[:, :m] @ input_map
    transition[x_m, x_m] = plant_prop
    transition[x_t, x_t] = err_prop + err_input @ gain

    # the command enters plant and reference model alike and cancels in x_tilde;
    # a ramp of gradient g is g j h above its value at the sample's start at step j
    command_maps = np.zeros((2, d))
    command_maps[0, x] = held[:n, n : n + m] @ np.full(m, plant.k_ff)
    command_maps[1, x] = staircase * (plant.k_ff * h)
    command_maps[:, x_m] = command_maps[:, x]
    f = np.concatenate([plant.f1, plant.f2])
    disturbance_map = np.zeros(d)
    with np.errstate(over="ignore"):  # an overflow is rejected below, by key
        disturbance_map[x] = plant_input @ f
        disturbance_map[x_t] = -(err_input @ f)
    if not np.isfinite(disturbance_map).all():
        raise ConfigError("uncertainty.matched or uncertainty.unmatched overflows the sampled loop")
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
