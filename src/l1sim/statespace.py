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
    if not np.all(np.isfinite(out)):
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
    if not np.all(np.isfinite(m)):
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
        D = self.D
        if D is None:
            D = np.zeros((C.shape[0], B.shape[1]))
        D = as_matrix(D, "D")
        if D.shape != (C.shape[0], B.shape[1]):
            raise ConfigError(f"D must be {C.shape[0]}x{B.shape[1]}, got {D.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential e^(A t).

    Uses scaling-and-squaring with a Pade kernel.  t = 0 returns the identity
    exactly.
    """
    a = _square(a, "A")
    if not np.isfinite(t):
        raise ConfigError(f"t must be finite, got {t}")
    n = a.shape[0]
    if t == 0.0:
        return np.eye(n)
    out = scipy.linalg.expm(a * t)
    if not np.all(np.isfinite(out)):
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
    b1 = as_matrix(b1, "B1")
    n, m = b1.shape
    if m >= n:
        raise ConfigError(f"B1 must be a tall matrix (m < n), got {n}x{m}")
    # one SVD gives both the rank, at the tolerance of np.linalg.matrix_rank,
    # and the complement: the right singular vectors past the rank
    _, sv, vh = np.linalg.svd(b1.T)
    if np.count_nonzero(sv > sv.max() * n * np.finfo(float).eps) < m:
        raise ConfigError("B1 is rank deficient; its complement is not well defined")
    b2 = vh[m:].T.copy()
    for j in range(b2.shape[1]):
        col = b2[:, j]
        lead = col[np.abs(col) > 1e-12]
        if lead.size and lead[0] < 0.0:
            b2[:, j] = -col
    return b2


def dc_gain(sys: StateSpaceModel) -> np.ndarray:
    """Transfer matrix at s = 0: C (-A)^-1 B + D.

    Requires A invertible (no pole at the origin).
    """
    n = sys.order
    if np.linalg.matrix_rank(sys.A) < n:
        raise ConfigError("A is singular: pole at the origin, DC gain undefined")
    return sys.C @ np.linalg.solve(-sys.A, sys.B) + sys.D


def dc_gain_discrete(sys: StateSpaceModel) -> np.ndarray:
    """DC gain of a discrete-time system: C (I - A)^-1 B + D."""
    n = sys.order
    eye_minus = np.eye(n) - sys.A
    if np.linalg.matrix_rank(eye_minus) < n:
        raise ConfigError("discrete system has a pole at z = 1, DC gain undefined")
    return sys.C @ np.linalg.solve(eye_minus, sys.B) + sys.D


def feedforward_gain(a, b1, c) -> float:
    """Reference gain that gives unit DC gain from the command to the output.

    Returns -1 / (c A^-1 b1) for a single-input, single-output channel pair.
    """
    a = _square(a, "A")
    b1 = as_matrix(b1, "B1")
    c = as_matrix(c, "c")
    n = a.shape[0]
    if np.linalg.matrix_rank(a) < n:
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
    if not np.all(np.isfinite(big)):
        raise ConfigError("discretization overflowed; A*step is too large")
    return big[:n, :n], big[:n, n:]


def discretize_zoh(sys: StateSpaceModel, step: float) -> StateSpaceModel:
    """Zero-order-hold discretization at a fixed step (``zoh_maps``).  C and D
    carry over unchanged."""
    a_d, b_d = zoh_maps(sys.A, sys.B, step)
    return StateSpaceModel(A=a_d, B=b_d, C=sys.C, D=sys.D)


def filter_step(sys: StateSpaceModel, state: np.ndarray, u) -> tuple[np.ndarray, np.ndarray]:
    """Advance a discrete filter one sample with held input u.

    Returns the next state and the output computed from it.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (sys.n_inputs,):
        raise ConfigError(f"filter input must have length {sys.n_inputs}, got {u.shape}")
    state = sys.A @ state + sys.B @ u
    return state, sys.C @ state + sys.D @ u
