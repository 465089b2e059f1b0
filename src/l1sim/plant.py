"""Uncertain closed-loop plant, reference model and command signals.

The plant is the desired closed-loop dynamics (baseline controller already
inside A) disturbed through two channels: a matched term entering with the
control input and an unmatched term entering through the orthogonal
complement of the input directions.

What a plant derives from its matrices alone, B2 from B1 and k_ff from
(A, B1, C), is kept per distinct value of those matrices in a
``functools.lru_cache`` of the ``FACT_CACHE_SIZE`` plants used last, so
building one plant under several tunings, commands or disturbances derives
them once.  ``augmentation`` keeps the compiled loop the same way, per
distinct (plant matrices, tuning).  Nothing that reads x0, a disturbance or
an onset is kept, nor is a rejection: a rejected plant or tuning is checked
afresh, in the same order, on every build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .statespace import (
    StateSpaceModel, _complement, _square, as_matrix, as_scalar, as_vector, full_rank,
)


@dataclass(frozen=True)
class ReferenceSignal:
    """Step or ramp command, zero before its onset time.  A step takes
    ``amplitude`` and a ramp ``gradient``; the other is rejected, unread."""

    kind: str
    onset: float = 0.0
    amplitude: float | None = None  # step size (output units)
    gradient: float | None = None   # ramp slope (output units / s)

    def __post_init__(self):
        if self.kind not in ("step", "ramp"):
            raise ConfigError(f"reference.kind must be 'step' or 'ramp', got {self.kind!r}")
        object.__setattr__(self, "onset", as_scalar(self.onset, "reference.onset", ">= 0"))
        used, unused = (("amplitude", "gradient") if self.kind == "step"
                        else ("gradient", "amplitude"))
        if getattr(self, unused) is not None:  # it would move the fingerprint, not the trace
            raise ConfigError(f"reference.{unused} is not used by a {self.kind} reference")
        if getattr(self, used) is None:
            raise ConfigError(f"{self.kind} reference requires reference.{used}")
        object.__setattr__(self, used, as_scalar(getattr(self, used), f"reference.{used}"))


def reference_value(sig: ReferenceSignal, t):
    """Command value at time t, a float or an array of times (onset included
    in the active interval)."""
    t = np.asarray(t, dtype=float)
    if sig.kind == "step":
        level = sig.amplitude
    else:
        with np.errstate(over="ignore"):  # steep ramps: masked before onset, diverging after
            level = sig.gradient * (t - sig.onset)
    value = np.where(t >= sig.onset, level, 0.0)
    return value if value.ndim else float(value)


@dataclass(frozen=True, eq=False)
class UncertainPlant:
    """Closed-loop plant with matched (f1) and unmatched (f2) disturbance inputs.

    A is the desired closed-loop system matrix, B1 the (single column) control
    input matrix and C the (single row) output map.
    f1 and f2 are constant disturbance vectors that act from ``onset`` on.
    ``None`` for x0, f1 or f2 gives a zero initial state and zero
    disturbances.  A flat B1 is read as one column, a flat C as one row.
    Two fields are derived, not given.  B2 is the orthonormal complement of B1
    (``null_complement``; n x 0 for a one-state plant): any other unmatched
    basis is B2 Q for an invertible Q, which only changes the coordinates of
    f2 and of the unmatched estimate.  k_ff = H1(0)^-1, the feedforward gain
    that gives the reference model unit DC gain, is derived from (A, B1, C),
    so a matched path with zero DC gain is rejected here, under every law.
    Both are kept per distinct value of B1 and of (A, B1, C)
    (``_fact_cache``); B2 is read-only, shared by the plants that have its B1.
    """

    A: np.ndarray
    B1: np.ndarray
    C: np.ndarray
    x0: np.ndarray | None = None
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    onset: float = 0.0
    B2: np.ndarray = field(init=False)
    k_ff: float = field(init=False)

    def __post_init__(self):
        A = _square(self.A, "plant.A")
        n = A.shape[0]
        B1 = as_matrix(self.B1, "plant.B1", (n, 1), "plant.A and one control input", column=True)
        B2 = _b2_of(B1)
        C = as_matrix(self.C, "plant.C", (1, n), "plant.A")
        x0 = np.zeros(n) if self.x0 is None else as_vector(self.x0, "plant.x0", n, "plant.A")
        f1, f2 = [np.zeros(k) if f is None else as_vector(f, f"uncertainty.{key}", k, match)
                  for f, key, k, match in ((self.f1, "matched", 1, "plant.B1"),
                                           (self.f2, "unmatched", n - 1, "plant.A"))]
        vars(self).update(A=A, B1=B1, B2=B2, C=C, x0=x0, f1=f1, f2=f2,
                          onset=as_scalar(self.onset, "uncertainty.onset", ">= 0"),
                          k_ff=_k_ff_of(A, B1, C))

    @classmethod
    def from_matrices(cls, A, B1, C, **optional) -> "UncertainPlant":
        """Build a plant from (A, B1, C) and any of x0, f1, f2 and onset; B2
        and k_ff are derived."""
        return cls(A=A, B1=B1, C=C, **optional)

    @classmethod
    def _of(cls, A, B1, C) -> "UncertainPlant":
        """Undisturbed plant of matrices a plant has already checked, unvalidated;
        B2 and k_ff are read from their caches.  x0, f1 and f2 are ``None``."""
        plant = object.__new__(cls)
        vars(plant).update(A=A, B1=B1, B2=_b2_of(B1), C=C, k_ff=_k_ff_of(A, B1, C))
        return plant

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_unmatched(self) -> int:
        return self.B2.shape[1]


# Distinct keys (plants, or plant and tuning for a compiled loop) each cache
# keeps.  A seeded sweep visits far more distinct keys than this, so only a key
# built again soon is a hit.
FACT_CACHE_SIZE = 16

_FACT_CACHES = []  # the lru_cache of each fact


def _fact_cache(derive):
    """``derive`` of checked matrices and plain values, kept for the
    ``FACT_CACHE_SIZE`` keys used last.  A matrix's key is its shape and bytes:
    checked matrices are C-ordered, so their values fix every bit of a fact,
    and ``derive`` runs on the matrices rebuilt from the key.  Any other
    argument (a law, a period, ``None``; never a tuple) is its own key.  A
    derivation that raises keeps nothing.  Arrays in a fact, and those of a
    ``StateSpaceModel`` in it, are shared, so they are made read-only."""
    @functools.lru_cache(maxsize=FACT_CACHE_SIZE)
    def keyed(*key):
        fact = derive(*[np.frombuffer(part[1]).reshape(part[0]) if isinstance(part, tuple)
                        else part for part in key])
        for part in fact if isinstance(fact, tuple) else (fact,):
            for array in vars(part).values() if isinstance(part, StateSpaceModel) else (part,):
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
        return fact

    _FACT_CACHES.append(keyed)
    return lambda *args: keyed(*[(a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
                                 for a in args])


def clear_fact_caches() -> None:
    """Forget every kept plant fact and compiled loop, so the next builds
    derive them afresh."""
    for cache in _FACT_CACHES:
        cache.cache_clear()


def _unmatched_basis(B1: np.ndarray) -> np.ndarray:
    """B2 of a checked n x 1 B1, where [B1 B2] spans the state space."""
    B2, sv = _complement(B1)
    if not full_rank(sv, B1.shape[0]):  # |B1| against the unit columns of B2
        raise ConfigError("plant.B1 is zero or out of scale: with its unit-norm "
                          "complement B2, [B1 B2] does not span the state space")
    return B2


def _feedforward_gain(A: np.ndarray, B1: np.ndarray, C: np.ndarray) -> float:
    """k_ff = -1 / (C A^-1 B1) of a checked n x n A, n x 1 B1 and 1 x n C.

    C A^-1 B1 counts as 0 below 1e-12 |C| |A^-1 B1|, a floor that moves with
    the units of input and output, so rescaling either changes nothing else.
    """
    if not full_rank(np.linalg.svd(A, compute_uv=False), A.shape[0]):
        raise ConfigError("plant.A is singular; feedforward gain undefined")
    path = np.linalg.solve(A, B1)
    val = float((C @ path)[0, 0])
    # |C| |A^-1 B1| of a few Python floats costs less than numpy's norms
    if abs(val) <= 1e-12 * math.hypot(*C.ravel().tolist()) * math.hypot(*path.ravel().tolist()):
        raise ConfigError("zero DC path from input to output (plant.B1 to plant.C); "
                          "feedforward gain undefined")
    return -1.0 / val


_b2_of = _fact_cache(_unmatched_basis)
# looked up at each miss, so a wrapped _feedforward_gain is the one run
_k_ff_of = _fact_cache(lambda A, B1, C: _feedforward_gain(A, B1, C))


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
    return p.A @ x_m + p.B1[:, 0] * (p.k_ff * r)
