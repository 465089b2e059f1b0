"""Uncertain closed-loop plant, reference model and command signals.

The plant is the desired closed-loop dynamics (baseline controller already
inside A) disturbed through two channels: a matched term entering with the
control input and an unmatched term entering through the orthogonal
complement of the input directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .statespace import _complement, _feedforward_gain, as_matrix, as_scalar, as_vector, full_rank


@dataclass(frozen=True)
class ReferenceSignal:
    """Step or ramp command, zero before its onset time."""

    kind: str
    onset: float = 0.0
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


def reference_value(sig: ReferenceSignal, t):
    """Command value at time t, a float or an array of times (onset included
    in the active interval)."""
    t = np.asarray(t, dtype=float)
    level = sig.amplitude if sig.kind == "step" else sig.gradient * (t - sig.onset)
    value = np.where(t >= sig.onset, level, 0.0)
    return value if value.ndim else float(value)


@dataclass(frozen=True, eq=False)
class UncertainPlant:
    """Closed-loop plant with matched (f1) and unmatched (f2) disturbance inputs.

    A is the desired closed-loop system matrix, B1 the (single column) control
    input matrix, B2 the orthonormal complement of B1 and C the (single row)
    output map.
    f1 and f2 are constant disturbance vectors that act from ``onset`` on.
    ``None`` for B2, x0, f1 or f2 derives the complement, a zero initial
    state and zero disturbances.  A flat B1 is read as one column.  k_ff =
    H1(0)^-1, the feedforward gain that gives the reference model unit DC
    gain, is derived from (A, B1, C), so a matched path with zero DC gain is
    rejected here, under every law.
    """

    A: np.ndarray
    B1: np.ndarray
    C: np.ndarray
    B2: np.ndarray | None = None
    x0: np.ndarray | None = None
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    onset: float = 0.0
    k_ff: float = field(init=False)

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
        sv = None  # the singular values of [B1 B2], when deriving B2 gives them
        if self.B2 is None:
            B2, sv = _complement(B1) if m < n else (np.zeros((n, 0)), None)
        else:
            try:
                B2 = np.asarray(self.B2, dtype=float).reshape(n, -1)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"plant.B2 must be a matrix with {n} rows: {exc}") from None
            if not np.isfinite(B2).all():
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
        if sv is None:  # B2 given, or B1 square
            if B2.shape[1] > 0 and np.abs(B1.T @ B2).max() > 1e-9 * max(1.0, np.abs(B1).max()):
                raise ConfigError(
                    "plant.B2 is not orthogonal to plant.B1 (B1^T B2 != 0); "
                    "drop B2 to derive it automatically"
                )
            sv = np.linalg.svd(np.hstack([B1, B2]), compute_uv=False)
        if not full_rank(sv, n):
            raise ConfigError("plant input directions [B1 B2] do not span the state space")
        if m != 1:
            raise ConfigError(f"plant.B1 must be one column (one control input), got {B1.shape}")
        for attr, key, size in (("f1", "matched", m), ("f2", "unmatched", B2.shape[1])):
            value = getattr(self, attr)
            f = np.zeros(size) if value is None else as_vector(value, f"uncertainty.{key}")
            if f.shape != (size,):
                raise ConfigError(f"uncertainty.{key} must have {size} entries, got {f.shape}")
            object.__setattr__(self, attr, f)
        onset = as_scalar(self.onset, "uncertainty.onset")
        if onset < 0.0:
            raise ConfigError(f"uncertainty.onset must be >= 0, got {onset}")
        k_ff = _feedforward_gain(A, B1, C)
        vars(self).update(A=A, B1=B1, B2=B2, C=C, x0=x0, onset=onset, k_ff=k_ff)

    @classmethod
    def from_matrices(cls, A, B1, C, **optional) -> "UncertainPlant":
        """Build a plant from (A, B1, C) and any of B2, x0, f1, f2 and onset,
        deriving B2 (orthogonal complement) when not given, and k_ff."""
        return cls(A=A, B1=B1, C=C, **optional)

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
    """State derivative of the disturbed plant under adaptive input u_a and command r.

    The disturbances act from ``p.onset`` on; before it they are exact zeros.
    """
    if t >= p.onset:
        f1, f2 = p.f1, p.f2
    else:
        f1, f2 = np.zeros(p.f1.shape), np.zeros(p.f2.shape)
    return p.A @ x + p.B1 @ (u_a + f1 + p.k_ff * r) + p.B2 @ f2


def reference_model_deriv(p: UncertainPlant, x_m: np.ndarray, r: float) -> np.ndarray:
    """State derivative of the undisturbed reference model."""
    return p.A @ x_m + p.B1 @ np.full(p.m, p.k_ff * r)
