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

``matched_only`` drops the unmatched path entirely and ``off`` disables the
augmentation.

``compile_loop`` checks a tuning against its plant and precomputes everything
a run needs into one immutable ``LoopModel``.
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
    dc_gain,
    discretize_zoh,
    filter_step,
    mat_exp,
    mat_exp_integral,
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


@dataclass(frozen=True)
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
    phi = mat_exp_integral(a_err, sample_period)
    if np.linalg.matrix_rank(phi) < n:
        raise ConfigError(
            "the exponential integral over one sample period is singular; "
            "adjust controller.sample_period or controller.L_p"
        )
    exp_at = mat_exp(a_err, sample_period)
    return -np.linalg.solve(b_full, np.linalg.solve(phi, exp_at))


def low_pass_model(bandwidth: float, channels: int = 1) -> StateSpaceModel:
    """First-order unit-DC-gain low-pass filter w/(s+w), replicated per channel."""
    eye = np.eye(channels)
    return StateSpaceModel(
        A=-bandwidth * eye, B=bandwidth * eye, C=eye, D=np.zeros((channels, channels))
    )


def _siso_numerator(a: np.ndarray, b_col: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Numerator polynomial of c (sI - A)^-1 b for one input column, trimmed.

    Uses c (sI - A)^-1 b = (det(sI - A + b c) - det(sI - A)) / det(sI - A).
    """
    coeffs = np.poly(a - b_col @ c) - np.poly(a)
    tol = max(np.abs(coeffs).max(), 1.0) * 1e-9
    nz = np.nonzero(np.abs(coeffs) > tol)[0]
    if nz.size == 0:
        return np.zeros(1)
    return coeffs[nz[0] :]


def _canonical_realization(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, ...]:
    """Controller-canonical (A, B, C, D) of the proper SISO num(s)/den(s).

    ``den[0]`` must be nonzero.  Leading numerator coefficients at or below
    1e-14 after normalisation are dropped, keeping at least one.
    """
    num, den = num / den[0], den / den[0]
    nz = np.nonzero(np.abs(num) > 1e-14)[0]
    num = num[nz[0] :] if nz.size else num[-1:]
    k = den.size
    num = np.concatenate([np.zeros(k - num.size), num])
    a = np.vstack([-den[1:], np.eye(k - 2, k - 1)])
    c = (num[1:] - num[0] * den[1:])[np.newaxis, :]
    return a, np.eye(k - 1, 1), c, np.array([[num[0]]])


def matched_transmission_zeros(plant: UncertainPlant) -> np.ndarray:
    """Transmission zeros of the matched path (output over the control input)."""
    if plant.m != 1:
        raise ConfigError("transmission-zero analysis supports a single control input")
    num = _siso_numerator(plant.A, plant.B1, plant.C)
    if num.size < 2:
        return np.zeros(0)
    return np.roots(num)


def unmatched_path_model(plant: UncertainPlant, cfg: AugmentationConfig) -> StateSpaceModel | None:
    """Continuous realization of the unmatched compensation path for the law.

    Maps the unmatched disturbance estimate to its control contribution.
    Returns None when the law has no unmatched path or the plant has no
    unmatched directions.
    """
    if cfg.law in ("off", "matched_only") or plant.n_unmatched == 0:
        return None
    if plant.m != 1:
        raise ConfigError("the unmatched compensation path supports a single control input")
    n, k = plant.n, plant.n_unmatched
    w = cfg.bandwidth_unmatched

    if cfg.law == "modified":
        g = dc_gain(StateSpaceModel(plant.A, plant.B1, plant.C))
        if abs(float(g[0, 0])) < 1e-12:
            raise ConfigError(
                "the matched path has zero DC gain; the inverse-DC-gain law is undefined"
            )
        g_inv = 1.0 / float(g[0, 0])
        # series: (A, B2, C) feeding the scalar gain, then the low-pass filter
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = plant.A
        a[n, :n] = w * g_inv * plant.C[0]
        a[n, n] = -w
        b = np.vstack([plant.B2, np.zeros((1, k))])
        c = np.zeros((1, n + 1))
        c[0, n] = 1.0
        return StateSpaceModel(a, b, c, np.zeros((1, k)))

    # original law: realize C2(s) H1(s)^-1 H2(s) per unmatched channel
    num1 = _siso_numerator(plant.A, plant.B1, plant.C)
    zeros1 = np.roots(num1) if num1.size >= 2 else np.zeros(0)
    unstable = zeros1[zeros1.real >= 0.0] if zeros1.size else zeros1
    if unstable.size:
        raise ConfigError(
            "the matched path has transmission zeros not in the open left half plane "
            f"(at {np.round(unstable, 6)}); inverting its dynamics is unstable. "
            "The dynamics-inverting law requires a minimum-phase plant; "
            "use the inverse-DC-gain law instead"
        )
    den_total = np.polymul(np.array([1.0, w]), num1)
    blocks = []
    for j in range(k):
        num2 = _siso_numerator(plant.A, plant.B2[:, j : j + 1], plant.C)
        num_total = w * num2
        if num_total.size > den_total.size:
            raise ConfigError(
                "the dynamics-inverting unmatched path is improper even with the "
                "low-pass filter; increase the filter order of the plant model"
            )
        blocks.append(_canonical_realization(num_total, den_total))
    order = sum(b[0].shape[0] for b in blocks)
    a = np.zeros((order, order))
    b = np.zeros((order, k))
    c = np.zeros((1, order))
    d = np.zeros((1, k))
    at = 0
    for j, (aj, bj, cj, dj) in enumerate(blocks):
        nj = aj.shape[0]
        a[at : at + nj, at : at + nj] = aj
        b[at : at + nj, j : j + 1] = bj
        c[0, at : at + nj] = cj[0]
        d[0, j] = dj[0, 0]
        at += nj
    model = StateSpaceModel(a, b, c, d)
    if model.order and np.max(np.linalg.eigvals(model.A).real) >= 0.0:
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


@dataclass(frozen=True)
class LoopModel:
    """One augmentation tuning compiled against one plant; built by ``compile_loop``.

    Holds the estimator gain, the error feedback applied in the predictor and
    the law filters of ``build_control_law``.  The filter states belong to
    the run.
    """

    plant: UncertainPlant
    config: AugmentationConfig
    gain: np.ndarray
    predictor_gain: np.ndarray
    matched: StateSpaceModel | None
    unmatched: StateSpaceModel | None

    def update(self, x_tilde: np.ndarray) -> DisturbanceEstimate:
        """Disturbance estimate from the prediction error at a sample boundary."""
        sig = self.gain @ x_tilde
        m = self.plant.m
        return DisturbanceEstimate(matched=sig[:m].copy(), unmatched=sig[m:].copy())


# Alias read by the benchmark (perfbench/): it counts gain builds per run as
# constructions under this name, and its self-test reads ``update`` through it.
PiecewiseConstantLaw = LoopModel


def compile_loop(plant: UncertainPlant, cfg: AugmentationConfig) -> LoopModel:
    """Check the tuning against the plant and precompute the loop model.

    The only place a tuning is checked: Hurwitz error dynamics, a singular
    update gain, the transmission-zero gate of the dynamics-inverting law and
    improper or unstable path realizations all raise ``ConfigError`` here.
    """
    a_err = error_dynamics_matrix(plant, cfg)
    gain = adaptation_gain(a_err, np.hstack([plant.B1, plant.B2]), cfg.sample_period)
    matched, unmatched = build_control_law(plant, cfg)
    return LoopModel(
        plant=plant,
        config=cfg,
        gain=gain,
        predictor_gain=a_err - plant.A,
        matched=matched,
        unmatched=unmatched,
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
