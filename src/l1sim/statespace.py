"""Dense state-space primitives for small LTI systems.

Matrix exponentials and their integrals, orthogonal complements, DC gains,
zero-order-hold discretization and discrete filter stepping.  Everything is
double precision and sized for systems of order ~10 or less.  Invalid
arguments raise ``ConfigError`` naming the quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError


def as_scalar(value, name: str) -> float:
    """Coerce to a finite float."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return out


def as_vector(v, name: str) -> np.ndarray:
    """Coerce a scalar or (nested) list to a flat float array and require finite entries."""
    try:
        out = np.asarray(v, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric vector: {exc}") from None
    if not np.isfinite(out).all():
        raise ConfigError(f"{name} has non-finite entries")
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array and require finite entries."""
    try:
        m = np.atleast_2d(np.asarray(a, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ConfigError(f"{name} must be a non-empty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigError(f"{name} has non-finite entries")
    return m


def _square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ConfigError(f"{name} must be square, got shape {m.shape}")
    return m


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """LTI system (A, B, C, D), continuous or discrete depending on context.

    A is n x n, B is n x m, C is p x n, D is p x m.  D defaults to zeros.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        A = _square(self.A, "A")
        B = as_matrix(self.B, "B")
        C = as_matrix(self.C, "C")
        n = A.shape[0]
        if B.shape[0] != n:
            raise ConfigError(f"B must have {n} rows to match A, got {B.shape}")
        if C.shape[1] != n:
            raise ConfigError(f"C must have {n} columns to match A, got {C.shape}")
        D = as_matrix(np.zeros((C.shape[0], B.shape[1])) if self.D is None else self.D, "D")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ConfigError(f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}")
        vars(self).update(A=A, B=B, C=C, D=D)  # frozen: set past __setattr__

    @classmethod
    def _of(cls, A, B, C, D) -> "StateSpaceModel":
        """Model of float arrays the package has already checked, unvalidated."""
        model = object.__new__(cls)
        vars(model).update(A=A, B=B, C=C, D=D)
        return model

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential e^(A t).

    Uses scaling-and-squaring with a Pade kernel.  t = 0 returns the identity
    exactly.
    """
    a = _square(a, "A")
    if not np.isfinite(t):
        raise ConfigError(f"t must be finite, got {t}")
    if t == 0.0:
        return np.eye(a.shape[0])
    out = scipy.linalg.expm(a * t)
    if not np.isfinite(out).all():
        raise ConfigError("matrix exponential overflowed; A*t is too large")
    return out


def mat_exp_integral(a, t: float) -> np.ndarray:
    """Integral of e^(A tau) over [0, t].

    Computed as the off-diagonal block of exp([[A, I], [0, 0]] t)
    (``zoh_maps`` with B = I), which stays well defined when A is singular
    (where the A^-1 (e^(At) - I) form breaks).
    """
    a = _square(a, "A")
    if not (t > 0.0):
        raise ConfigError(f"t must be > 0, got {t}")
    return zoh_maps(a, np.eye(a.shape[0]), t)[1]


def null_complement(b1) -> np.ndarray:
    """Orthonormal basis B2 of the orthogonal complement of the columns of B1.

    B1 must be n x m with full column rank and m < n.  The result satisfies
    B1^T B2 = 0 and [B1 B2] invertible.  Columns have unit norm and a fixed
    sign convention (first non-negligible entry positive) so the output is
    deterministic.
    """
    return _complement(as_matrix(b1, "B1"))[0]


def _complement(b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``null_complement`` of a float matrix, and the singular values of
    [B1 B2]: those of B1 and, as B2 is orthonormal and orthogonal to B1, ones."""
    n, m = b1.shape
    if m >= n:
        raise ConfigError(f"B1 must be a tall matrix (m < n), got {n}x{m}")
    # one SVD gives the rank and the complement: the right singular vectors past it
    _, sv, vh = np.linalg.svd(b1.T)
    if not full_rank(sv, n):
        raise ConfigError("B1 is rank deficient; its complement is not well defined")
    b2 = vh[m:].T
    lead = b2[(np.abs(b2) > 1e-12).argmax(axis=0), range(n - m)]  # unit columns have one
    return b2 * np.copysign(1.0, lead), np.concatenate([sv, np.ones(n - m)])


def full_rank(sv: np.ndarray, size: int) -> bool:
    """Full rank of singular values ``sv`` of a matrix of largest side ``size``
    at the tolerance of ``np.linalg.matrix_rank``."""
    sv = sv.tolist()  # min and max of a few Python floats cost less than numpy's
    return min(sv) > max(sv) * size * np.finfo(float).eps


def dc_gain(sys: StateSpaceModel) -> np.ndarray:
    """Transfer matrix at s = 0: C (-A)^-1 B + D.

    Requires A invertible (no pole at the origin).
    """
    if not full_rank(np.linalg.svd(sys.A, compute_uv=False), sys.order):
        raise ConfigError("A is singular: pole at the origin, DC gain undefined")
    return sys.C @ np.linalg.solve(-sys.A, sys.B) + sys.D


def dc_gain_discrete(sys: StateSpaceModel) -> np.ndarray:
    """DC gain of a discrete-time system: C (I - A)^-1 B + D."""
    eye_minus = np.eye(sys.order) - sys.A
    if not full_rank(np.linalg.svd(eye_minus, compute_uv=False), sys.order):
        raise ConfigError("discrete system has a pole at z = 1, DC gain undefined")
    return sys.C @ np.linalg.solve(eye_minus, sys.B) + sys.D


def feedforward_gain(a, b1, c) -> float:
    """Reference gain that gives unit DC gain from the command to the output.

    Returns -1 / (c A^-1 b1) for a single-input, single-output channel pair.
    """
    return _feedforward_gain(_square(a, "A"), as_matrix(b1, "B1"), as_matrix(c, "c"))


def _feedforward_gain(a: np.ndarray, b1: np.ndarray, c: np.ndarray) -> float:
    """``feedforward_gain`` of float matrices."""
    if not full_rank(np.linalg.svd(a, compute_uv=False), a.shape[0]):
        raise ConfigError("A is singular; feedforward gain undefined")
    g = c @ np.linalg.solve(a, b1)
    if g.shape != (1, 1):
        raise ConfigError(
            f"feedforward gain is defined per single input/output channel, got {g.shape}"
        )
    val = float(g[0, 0])
    if abs(val) < 1e-14:
        raise ConfigError("zero DC path from input to output; feedforward gain undefined")
    return -1.0 / val


def zoh_maps(a: np.ndarray, b: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold maps of dx/dt = A x + B u over one step h.

    A_d = e^(A h) and B_d = (integral of e^(A tau) over [0, h]) B, obtained
    from one augmented exponential.  A (n x n) and B (n x m) must already be
    float arrays.
    """
    if not (step > 0.0):
        raise ConfigError(f"step must be > 0, got {step}")
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    big = scipy.linalg.expm(aug * step)
    if not np.isfinite(big).all():
        raise ConfigError("discretization overflowed; A*step is too large")
    return big[:n, :n], big[:n, n:]


def discretize_zoh(sys: StateSpaceModel, step: float) -> StateSpaceModel:
    """Zero-order-hold discretization at a fixed step (``zoh_maps``).  C and D
    carry over unchanged."""
    return StateSpaceModel._of(*zoh_maps(sys.A, sys.B, step), sys.C, sys.D)


def filter_step(sys: StateSpaceModel, state: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Advance a discrete filter one sample with held input u.

    Returns the next state and the output computed from it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (sys.n_inputs,):
        raise ConfigError(f"filter input must have length {sys.n_inputs}, got {u.shape}")
    state = sys.A @ state + sys.B @ u
    return state, sys.C @ state + sys.D @ u
