"""Dense state-space primitives for small LTI systems.

Matrix exponentials and their integrals, orthogonal complements, DC gains,
zero-order-hold discretization and discrete filter stepping.  Everything is
double precision and sized for systems of order ~30 or less, and needs numpy
alone: the exponential is Al-Mohy & Higham's scaling and squaring (``_expm``),
and SciPy is a test dependency only, the reference the tests hold it to.
Invalid arguments raise ``ConfigError`` naming the quantity.  ``as_scalar``,
``as_vector`` and ``as_matrix`` hold every rule that turns a document value
into numbers: each owner calls one once per value, with its bound or shape.
``as_vector`` and ``as_matrix`` return C-ordered arrays, so equal values in
any layout give the same bits downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _converted(convert, value, name: str, failure: str, *args):
    """``convert(value, *args)``; a failure is ``failure`` with ``{name}``, ``{value}``
    and ``{exc}`` filled in."""
    try:
        if isinstance(value, bool):  # an int to Python, but `sample_period: true` is a slip
            raise TypeError("a bool is not a number")
        return convert(value, *args)
    except OverflowError:  # an integer past the float range, such as YAML's 10**400
        raise ConfigError(f"{name} is beyond the float range") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(failure.format(name=name, value=value, exc=exc)) from None


def _finite_array(value, name: str, kind: str) -> np.ndarray:
    """``value`` as a C-ordered float array of finite entries (a copy of another
    layout, so the values alone fix what is computed from it); ``kind`` names
    it in messages."""
    out = _converted(np.asarray, value, name, "{name} is not a numeric " + kind + ": {exc}",
                     float, "C")
    # a finite sum proves every entry finite, for less than numpy's test costs on
    # these small arrays; only a sum that overflows needs numpy's test
    if not (math.isfinite(sum(out.ravel().tolist())) or np.isfinite(out).all()):
        raise ConfigError(f"{name} has non-finite entries")
    return out


def as_scalar(value, name: str, bound: str | None = None) -> float:
    """Coerce to a finite float; ``bound`` is ``"> 0"`` or ``">= 0"``."""
    out = _converted(float, value, name, "{name} must be a number, got {value!r}")
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if bound is not None and not (out > 0.0 if bound == "> 0" else out >= 0.0):
        raise ConfigError(f"{name} must be {bound}, got {out}")
    return out


def as_vector(v, name: str, size: int | None = None, match: str = "") -> np.ndarray:
    """Coerce to a flat float array of finite entries, ``size`` of them if given
    (``match`` as for ``as_matrix``)."""
    out = _finite_array(v, name, "vector").reshape(-1)
    if size is not None and out.shape != (size,):
        match = f" to match {match}" if match else ""
        raise ConfigError(f"{name} must have {size} entries{match}, got {out.size}")
    return out


def as_matrix(a, name: str = "matrix", shape: tuple = (None, None), match: str = "",
              column: bool = False) -> np.ndarray:
    """Coerce to a 2-D float array of finite entries: a flat list is one row, or
    one column when ``column`` (an empty one is no column).  Each dimension of
    ``shape`` is the size required, or ``None`` for any size but 0, and
    ``match`` names, for the message, what sets the sizes."""
    m = _finite_array(a, name, "matrix")
    if m.ndim < 2:
        m = m.reshape((-1, 1) if column and m.size else (1, -1))
    if m.ndim != 2 or any(size != want if want is not None else size < 1
                          for size, want in zip(m.shape, shape)):
        want = "x".join("*" if size is None else str(size) for size in shape)
        match = f" to match {match}" if match else ""
        raise ConfigError(f"{name} must be a {want} matrix{match}, got shape {m.shape}")
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
        B = as_matrix(self.B, "B", (A.shape[0], None), "A")
        C = as_matrix(self.C, "C", (None, A.shape[0]), "A")
        shape = (C.shape[0], B.shape[1])
        D = as_matrix(np.zeros(shape) if self.D is None else self.D, "D", shape, "C and B")
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


# theta_m of Al-Mohy & Higham (2009), Algorithm 5.1: the largest norm bound at
# which the degree-m Pade approximant r_m meets double precision
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 4.25}
# r_m(A) = p_m(-A)^-1 p_m(A) with p_m(x) = sum_j b_j x^j, b_j = (2m - j)! / (j! (m - j)!)
_PADE = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
             for j in range(m + 1)] for m in _THETA}
# log2 of 1/|c_(2m+1)| = (2m)! (2m+1)! / m!^2, c_(2m+1) x^(2m+1) leading e^x - r_m(x)
_LOG2_C = {m: math.log2(math.factorial(2 * m) * math.factorial(2 * m + 1)
                        / math.factorial(m) ** 2) for m in _THETA}
_EPS = float(np.finfo(float).eps)  # machine epsilon, read by ``full_rank``


def _even_powers(a: np.ndarray) -> list[np.ndarray]:
    """A^2, A^4 and A^6."""
    a2 = a.dot(a)
    a4 = a2.dot(a2)
    return [a2, a4, a2.dot(a4)]


def _ell(chain: list[np.ndarray], abs_a: np.ndarray, norm: float, m: int) -> int:
    """Extra squarings that keep the rounding of r_m(A) below the unit
    roundoff: ell(A, m) of Al-Mohy & Higham (2009), Algorithm 5.1, with the exact
    ||abs(A)^(2m+1)||_1 from vector-matrix products.  ``chain`` holds 1^T abs(A)^j
    for j = 1, 2, ... and is extended here to j = 2m + 1, so the degrees tried
    in turn share it."""
    while len(chain) <= 2 * m:
        chain.append(chain[-1].dot(abs_a))
    top = float(chain[2 * m].max())
    if top == 0.0:
        return 0
    # an overflowed norm is bounded by ||A||^(2m+1)
    log2_top = math.log2(top) if top < math.inf else (2 * m + 1) * math.log2(norm)
    return max(0, math.ceil((log2_top - math.log2(norm) - _LOG2_C[m] + 53) / (2 * m)))


def _pade(a: np.ndarray, powers: list[np.ndarray], m: int) -> np.ndarray:
    """r_m(A) from A and its even powers A^2, A^4, ..."""
    b = _PADE[m]
    if m == 13:
        a2, a4, a6 = powers
        u = a6.dot(b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6.dot(b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        u, v = b[3] * powers[0], b[2] * powers[0]
        for k in range(1, m // 2):
            u += b[2 * k + 3] * powers[k]
            v += b[2 * k + 2] * powers[k]
    diagonal = slice(None, None, len(a) + 1)
    u.ravel()[diagonal] += b[1]
    v.ravel()[diagonal] += b[0]
    u = a.dot(u)
    return np.linalg.solve(v - u, v + u)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A of a square float matrix by scaling and squaring: Al-Mohy & Higham,
    *SIAM J. Matrix Anal. Appl.* 31(3), 2009, Algorithm 5.1 with exact 1-norms.

    The Pade degree (3, 5, 7, 9 or 13) and the squarings s follow from the
    norms of A^4 ... A^10.  Returns a non-finite matrix where e^A overflows;
    callers check.

    A known limit: for the nilpotent A = b*[[1, 1], [-1, -1]] (A^2 = 0, so
    e^A = I + A), ``ell`` bounds the 1-norm of |A|^27, about (2b)^27, although
    every power of A past the first vanishes.  It then asks for about log2(2b)
    squarings, which cancel catastrophically.  The result is finite and wrong
    from b ~ 1e5: its (1, 1) entry, 1 + b exactly, is 9.9964e4 at b = 1e5,
    7.92e7 at b = 1e7 and 3.05e-35 at b = 1e9.  Only from about b = 2.5e9 is
    it non-finite, which ``mat_exp`` rejects as overflowed, and not at every
    b above that (b = 4e9 gives 2.2e-152).  ``scipy.linalg.expm`` is wrong
    on the same inputs too.
    """
    ones, abs_a = np.ones(len(a)), np.abs(a)
    col_sums = ones.dot(abs_a)
    norm = float(col_sums.max())
    if not norm < math.inf:
        return np.full(a.shape, np.nan)

    def root_norm(p: np.ndarray, k: int) -> float:
        return float(ones.dot(np.abs(p)).max()) ** (1 / k)  # ||A^k||_1^(1/k) of p = A^k

    chain = [col_sums]  # 1^T abs(A)^j, shared by the degrees tried
    powers = _even_powers(a)
    d6 = root_norm(powers[2], 6)
    eta = max(root_norm(powers[1], 4), d6)
    for m in (3, 5):
        if eta <= _THETA[m] and _ell(chain, abs_a, norm, m) == 0:
            return _pade(a, powers, m)
    powers.append(powers[1].dot(powers[1]))
    d8 = root_norm(powers[3], 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _THETA[m] and _ell(chain, abs_a, norm, m) == 0:
            return _pade(a, powers, m)
    # ||A^k||^(1/k) <= ||A|| also bounds powers that overflowed (min keeps its
    # first argument against a NaN)
    eta = min(norm, eta, max(d8, root_norm(powers[1].dot(powers[2]), 10)))
    s = max(math.ceil(math.log2(eta / _THETA[13])), 0) if eta else 0
    s += _ell([col_sums * 2.0**-s], abs_a * 2.0**-s, norm * 2.0**-s, 13)
    # scaling by 2^-s is exact: these are the powers of A scaled, without their overflow
    scaled = a * 2.0**-s
    x = _pade(scaled, _even_powers(scaled), 13)
    for _ in range(s):
        x = x.dot(x)
    return x


def mat_exp(a, t: float) -> np.ndarray:
    """Matrix exponential e^(A t).

    Uses ``_expm``: Al-Mohy & Higham's (2009) scaling and squaring with a
    Pade approximant of degree 3 to 13, in numpy alone; SciPy's ``expm`` is
    only the tests' reference.  t = 0 returns the identity exactly.
    """
    a, t = _square(a, "A"), as_scalar(t, "t")
    if t == 0.0:
        return np.eye(a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        out = _expm(a * t)
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
    return zoh_maps(a, np.eye(a.shape[0]), as_scalar(t, "t", "> 0"))[1]


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
    b2, sv = _complement(b1)
    if not full_rank(sv[:m], n):
        raise ConfigError("B1 is rank deficient; its complement is not well defined")
    return b2


def _complement(b1: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """``null_complement`` of an n x m float matrix without its checks (n x 0
    when m = n), and the singular values of [B1 B2] as a list: those of B1 and,
    as B2 is orthonormal and orthogonal to B1, ones.  [B1 B2] spans the state
    space where ``full_rank`` holds of them."""
    n, m = b1.shape
    # one SVD gives the rank and the complement: the right singular vectors past it
    _, sv, vh = np.linalg.svd(b1.T)
    b2 = vh[m:].T
    lead = b2[(np.abs(b2) > 1e-12).argmax(axis=0), range(n - m)]  # unit columns have one
    return b2 * np.copysign(1.0, lead), sv.tolist() + [1.0] * (n - m)


def full_rank(sv: np.ndarray | list[float], size: int) -> bool:
    """Full rank of singular values ``sv`` of a matrix of largest side ``size``
    at the tolerance of ``np.linalg.matrix_rank``."""
    if isinstance(sv, np.ndarray):
        sv = sv.tolist()  # min and max of a few Python floats cost less than numpy's
    return min(sv) > max(sv) * size * _EPS


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


def zoh_maps(a: np.ndarray, b: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order-hold maps of dx/dt = A x + B u over one step h.

    A_d = e^(A h) and B_d = (integral of e^(A tau) over [0, h]) B, obtained
    from one augmented exponential.  A (n x n) and B (n x m) must already be
    float arrays.
    """
    step = as_scalar(step, "step", "> 0")
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    with np.errstate(over="ignore", invalid="ignore"):
        big = _expm(aug * step)
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
    u = as_vector(u, "filter input", sys.n_inputs)
    state = sys.A @ state + sys.B @ u
    return state, sys.C @ state + sys.D @ u
