"""Uncertain closed-loop plant, reference model and command signals.

The plant is the desired closed-loop dynamics (baseline controller already
inside A) disturbed through two channels: a matched term entering with the
control input and an unmatched term entering through the orthogonal
complement of the input directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .statespace import as_matrix, as_scalar, as_vector, feedforward_gain, null_complement

DisturbanceFn = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class ReferenceSignal:
    """Step or ramp command, zero before its onset time."""

    kind: str
    onset: float
    amplitude: float | None = None  # step size (output units)
    gradient: float | None = None   # ramp slope (output units / s)

    def __post_init__(self):
        if self.kind not in ("step", "ramp"):
            raise ConfigError(f"reference.kind must be 'step' or 'ramp', got {self.kind!r}")
        onset = as_scalar(self.onset, "reference.onset")
        if onset < 0.0:
            raise ConfigError(f"reference.onset must be >= 0, got {onset}")
        object.__setattr__(self, "onset", onset)
        needed = "amplitude" if self.kind == "step" else "gradient"
        for key in ("amplitude", "gradient"):
            value = getattr(self, key)
            if value is None and key == needed:
                raise ConfigError(f"{self.kind} reference requires reference.{key}")
            if value is not None:
                object.__setattr__(self, key, as_scalar(value, f"reference.{key}"))


def reference_value(sig: ReferenceSignal, t: float) -> float:
    """Command value at time t (onset included in the active interval)."""
    if t < sig.onset:
        return 0.0
    if sig.kind == "step":
        return float(sig.amplitude)
    return float(sig.gradient) * (t - sig.onset)


@dataclass(frozen=True)
class UncertaintySpec:
    """Constant matched/unmatched disturbances, switched on at an onset time.

    ``None`` leaves that channel undisturbed; its disturbance function is then
    ``None`` too, which ``UncertainPlant`` reads as zero.
    """

    matched: np.ndarray | None = None
    unmatched: np.ndarray | None = None
    onset: float = 0.0

    def __post_init__(self):
        for key in ("matched", "unmatched"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, as_vector(getattr(self, key), f"uncertainty.{key}"))
        onset = as_scalar(self.onset, "uncertainty.onset")
        if onset < 0.0:
            raise ConfigError(f"uncertainty.onset must be >= 0, got {onset}")
        object.__setattr__(self, "onset", onset)

    def matched_fn(self) -> DisturbanceFn | None:
        return None if self.matched is None else constant_disturbance(self.matched, self.onset)

    def unmatched_fn(self) -> DisturbanceFn | None:
        return None if self.unmatched is None else constant_disturbance(self.unmatched, self.onset)


def constant_disturbance(value, onset: float = 0.0) -> DisturbanceFn:
    """Disturbance function that is zero before onset and constant after."""
    value = np.atleast_1d(np.asarray(value, dtype=float))
    zero = np.zeros_like(value)

    def fn(_x: np.ndarray, t: float) -> np.ndarray:
        return value if t >= onset else zero

    return fn


def _zero_disturbance(size: int) -> DisturbanceFn:
    zero = np.zeros(size)

    def fn(_x: np.ndarray, _t: float) -> np.ndarray:
        return zero

    return fn


@dataclass(frozen=True)
class UncertainPlant:
    """Closed-loop plant with matched (f1) and unmatched (f2) disturbance inputs.

    A is the desired closed-loop system matrix, B1 the control input matrix,
    B2 the orthonormal complement of B1, C the (single row) output map and
    k_ff the feedforward gain that gives the reference model unit DC gain.
    f1 and f2 are callables (x, t) -> vector.  ``None`` for B2, k_ff, x0, f1
    or f2 derives the complement, the feedforward gain, a zero initial state
    and zero disturbances.  A flat B1 is read as one column.
    """

    A: np.ndarray
    B1: np.ndarray
    B2: np.ndarray | None
    C: np.ndarray
    k_ff: float | None
    x0: np.ndarray | None
    f1: DisturbanceFn | None
    f2: DisturbanceFn | None

    def __post_init__(self):
        A = as_matrix(self.A, "plant.A")
        if A.shape[0] != A.shape[1]:
            raise ConfigError(f"plant.A must be square, got {A.shape}")
        n = A.shape[0]
        B1 = as_matrix(self.B1, "plant.B1")
        if np.ndim(self.B1) == 1:
            B1 = B1.T
        if B1.shape[0] != n:
            raise ConfigError(f"plant.B1 must have {n} rows, got {B1.shape}")
        m = B1.shape[1]
        if self.B2 is None:
            B2 = null_complement(B1) if m < n else np.zeros((n, 0))
        else:
            try:
                B2 = np.asarray(self.B2, dtype=float).reshape(n, -1)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"plant.B2 must be a matrix with {n} rows: {exc}") from None
            if not np.all(np.isfinite(B2)):
                raise ConfigError("plant.B2 has non-finite entries")
        C = as_matrix(self.C, "plant.C")
        if m + B2.shape[1] != n:
            raise ConfigError(
                f"plant.B2 must have {n - m} columns to complete B1, got {B2.shape}"
            )
        if C.shape != (1, n):
            raise ConfigError(f"plant.C must map the state to one output (1x{n}), got {C.shape}")
        x0 = np.zeros(n) if self.x0 is None else as_vector(self.x0, "plant.x0")
        if x0.shape != (n,):
            raise ConfigError(f"plant.x0 must have length {n}, got {x0.shape}")
        if B2.shape[1] > 0:
            cross = np.abs(B1.T @ B2).max()
            scale = max(1.0, np.abs(B1).max())
            if cross > 1e-9 * scale:
                raise ConfigError(
                    "plant.B2 is not orthogonal to plant.B1 (B1^T B2 != 0); "
                    "drop B2 to derive it automatically"
                )
        if np.linalg.matrix_rank(np.hstack([B1, B2])) < n:
            raise ConfigError("plant input directions [B1 B2] do not span the state space")
        expected = feedforward_gain(A, B1, C)
        if self.k_ff is not None and not np.isclose(self.k_ff, expected, rtol=1e-9, atol=1e-12):
            raise ConfigError(
                f"plant.k_ff = {self.k_ff} does not match the feedforward gain "
                f"{expected} computed from (A, B1, C)"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B1", B1)
        object.__setattr__(self, "B2", B2)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "k_ff", expected if self.k_ff is None else self.k_ff)
        object.__setattr__(self, "x0", x0)
        if self.f1 is None:
            object.__setattr__(self, "f1", _zero_disturbance(m))
        if self.f2 is None:
            object.__setattr__(self, "f2", _zero_disturbance(B2.shape[1]))

    @classmethod
    def from_matrices(
        cls,
        A,
        B1,
        C,
        B2=None,
        x0=None,
        f1: DisturbanceFn | None = None,
        f2: DisturbanceFn | None = None,
    ) -> "UncertainPlant":
        """Build a plant, deriving B2 (orthogonal complement) and k_ff."""
        return cls(A=A, B1=B1, B2=B2, C=C, k_ff=None, x0=x0, f1=f1, f2=f2)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B1.shape[1]

    @property
    def n_unmatched(self) -> int:
        return self.B2.shape[1]

    def output(self, x: np.ndarray) -> float:
        return (self.C @ x).item()


def plant_deriv(p: UncertainPlant, x: np.ndarray, u_a: np.ndarray, r: float, t: float) -> np.ndarray:
    """State derivative of the disturbed plant under adaptive input u_a and command r."""
    return p.A @ x + p.B1 @ (u_a + p.f1(x, t) + p.k_ff * r) + p.B2 @ p.f2(x, t)


def reference_model_deriv(p: UncertainPlant, x_m: np.ndarray, r: float) -> np.ndarray:
    """State derivative of the undisturbed reference model."""
    return p.A @ x_m + p.B1 @ np.full(p.m, p.k_ff * r)
