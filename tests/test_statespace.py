import copy
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import seeded_canonical_plants
from l1sim import (
    PRESETS,
    ConfigError,
    StateSpaceModel,
    UncertainPlant,
    build_scenario,
    dc_gain,
    dc_gain_discrete,
    discretize_zoh,
    filter_step,
    mat_exp,
    mat_exp_integral,
    null_complement,
    statespace,
)
from l1sim.augmentation import LAWS


def series_exp_integral(a: np.ndarray, t: float, terms: int = 25) -> np.ndarray:
    """Independent oracle: truncated series sum_k A^k t^(k+1) / (k+1)!."""
    n = a.shape[0]
    out = np.zeros((n, n))
    term = np.eye(n) * t
    for k in range(terms):
        out = out + term
        term = term @ a * (t / (k + 2))
    return out


def gaussian_rank(a: np.ndarray, tol: float = 1e-10) -> int:
    """Independent oracle: rank by Gaussian elimination with partial pivoting."""
    m = np.array(a, dtype=float)
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = rank + int(np.argmax(np.abs(m[rank:, col])))
        if abs(m[pivot, col]) < tol:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] / m[rank, col]
        for r in range(rows):
            if r != rank:
                m[r] = m[r] - m[r, col] * m[rank]
        rank += 1
    return rank


def random_stable(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Random Hurwitz matrix: negative-real eigenvalues plus a skew part."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = -rng.uniform(0.2, 1.0, n) * scale
    skew = rng.standard_normal((n, n))
    skew = 0.1 * scale * (skew - skew.T)
    return q @ np.diag(eigs) @ q.T + skew


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((2, 2)), 1.0), np.eye(2))

    def test_diagonal_closed_form(self):
        out = mat_exp(np.diag([-1.0, -2.0]), 0.5)
        expect = np.diag([math.exp(-0.5), math.exp(-1.0)])
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_nilpotent_closed_form(self):
        out = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 3.0)
        np.testing.assert_allclose(out, [[1.0, 3.0], [0.0, 1.0]], atol=1e-14)

    def test_t_zero_identity_exact(self):
        a = np.array([[-3.0, 1.0], [0.5, -2.0]])
        assert np.array_equal(mat_exp(a, 0.0), np.eye(2))

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_stable(rng, 3)
            s, t = rng.uniform(0.1, 2.0, 2)
            scale = np.linalg.norm(a) * (s + t)
            if scale > 5.0:
                a = a * (5.0 / scale)
            left = mat_exp(a, s) @ mat_exp(a, t)
            np.testing.assert_allclose(left, mat_exp(a, s + t), atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            mat_exp(np.ones((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            mat_exp(np.eye(2), np.inf)

    def test_overflow_rejected_without_warnings(self):
        # the suite turns warnings into errors, so a stray overflow warning fails here
        a = np.array([[800.0, 1.0], [0.0, 700.0]])
        message = "^matrix exponential overflowed; A\\*t is too large$"
        with pytest.raises(ConfigError, match=message):
            mat_exp(a, 1.0)
        with pytest.raises(ConfigError, match="^discretization overflowed; A\\*step is too large$"):
            statespace.zoh_maps(a, np.ones((2, 1)), 1.0)
        # A^2 = 0, but abs(A)^27 overflows in ell, and the squarings ell then
        # asks for overflow as well (scipy.linalg.expm gives NaN here too)
        with pytest.raises(ConfigError, match="^matrix exponential overflowed"):
            mat_exp([[1e50, 1e50], [-1e50, -1e50]], 1.0)
        # A*t itself overflows
        with pytest.raises(ConfigError, match="^matrix exponential overflowed"):
            mat_exp([[-1e200, 0.0], [1.0, -1e200]], 1e200)

    def test_overflowing_powers_of_a_stable_or_nilpotent_matrix(self):
        # A^6 overflows, yet e^A underflows to zero
        assert np.array_equal(mat_exp([[-1e60, 1e60], [0.0, -2e60]], 1.0), np.zeros((2, 2)))
        # A^2 = 0 however large A is
        assert np.array_equal(mat_exp([[0.0, 1e300], [0.0, 0.0]], 1.0), [[1.0, 1e300], [0.0, 1.0]])

    @pytest.mark.xfail(strict=True, reason="known defect (_expm's docstring): ell bounds "
                       "abs(A)^27, not A^27, and asks for squarings that cancel")
    @pytest.mark.parametrize("b", [1e5, 1e7, 1e9])
    def test_nilpotent_exponential_is_first_order(self, b):
        # A^2 = 0, so e^A = I + A exactly; today's (1, 1) entries are 9.9964e4,
        # 7.92e7 and 3.05e-35 for 1 + b, and no overflow is reported
        a = b * np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert mat_exp(a, 1.0) == pytest.approx(np.eye(2) + a, rel=1e-9)


def relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


def exact_expm(a: np.ndarray) -> np.ndarray:
    """Independent oracle: e^A in 50-digit arithmetic, rounded to doubles."""
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


class TestExpmKernel:
    """statespace._expm against scipy.linalg.expm, and a 50-digit mpmath.expm
    wherever the two differ."""

    def test_every_pade_degree_matches_scipy(self, monkeypatch):
        degrees = []
        pade = statespace._pade
        monkeypatch.setattr(
            statespace, "_pade", lambda a, powers, m: degrees.append(m) or pade(a, powers, m)
        )
        rng = np.random.default_rng(3)
        for scale in (1e-3, 0.05, 0.5, 1.5, 20.0, 300.0):
            a = random_stable(rng, 4) * scale
            assert relative_gap(statespace._expm(a), scipy.linalg.expm(a)) <= 1e-13, scale
        assert sorted(set(degrees)) == [3, 5, 7, 9, 13]

    def test_ell_squarings_keep_a_non_normal_matrix_accurate(self):
        # 1-norm 393 but every eigenvalue within 0.2 of zero: ell adds 6
        # squarings to those the norms of A's powers ask for; without them
        # the result is 1.5e-7 off (scipy: 3.2e-11)
        a = np.array([
            [-20.83298475050546, -42.28652696722622, -64.6590737581117, 24.508532683494547],
            [-33.22341561438581, -56.8526707341731, -114.18654598141991, 49.78861657729984],
            [137.80135888208898, 31.238301914373356, -73.76966509127034, 92.52818620461294],
            [201.495685671811, 46.367507234834804, -132.14038152094406, 151.6437162657447],
        ])
        assert relative_gap(statespace._expm(a), exact_expm(a)) <= 1e-10

    def test_every_build_exponential_matches_the_references(self, monkeypatch):
        # every exponential build_scenario makes: the presets under all four
        # laws, and seeded order-2-5 plants across the tuning grid
        seen = {}
        expm = statespace._expm

        def recording_expm(a):
            seen.setdefault(a.tobytes(), a.copy())
            return expm(a)

        monkeypatch.setattr(statespace, "_expm", recording_expm)
        for spec, law in itertools.product(PRESETS.values(), LAWS):
            build_scenario(copy.deepcopy(spec["doc"]), law_override=law)
        grid = itertools.product(LAWS, (1e-3, 2e-3, 5e-3), (10.0, 80.0), (1, 2, 4))
        for p, (law, period, bandwidth, substeps) in itertools.product(
            list(seeded_canonical_plants(6, 2)), grid
        ):
            build_scenario({
                "plant": {"A": p.A.tolist(), "B1": p.B1.tolist(), "C": p.C.tolist()},
                "reference": {"kind": "step", "onset": 0.0, "amplitude": 1.0},
                "controller": {"law": law, "sample_period": period,
                               "bandwidth_matched": bandwidth, "bandwidth_unmatched": bandwidth},
                "engine": {"t_end": 0.1, "substeps_per_sample": substeps},
            })
        assert max(len(a) for a in seen.values()) == 27  # the stack of an order-5 plant
        for a in seen.values():
            got, ref = expm(a), scipy.linalg.expm(a)
            if relative_gap(got, ref) <= 1e-13:
                continue
            # the two differ: the 50-digit exponential settles which is right
            exact = exact_expm(a)
            assert relative_gap(got, exact) <= min(relative_gap(ref, exact), 1e-12)


class TestMatExpIntegral:
    def test_zero_matrix(self):
        np.testing.assert_allclose(
            mat_exp_integral(np.zeros((2, 2)), 0.01), 0.01 * np.eye(2), atol=1e-15
        )

    def test_scalar_closed_form(self):
        out = mat_exp_integral(np.array([[-1.0]]), 0.01)
        np.testing.assert_allclose(out, [[1.0 - math.exp(-0.01)]], rtol=1e-12)

    def test_benchmark_matrix_vs_series(self):
        a = np.array([[-10.0, -50.0], [1.0, 0.0]])
        out = mat_exp_integral(a, 0.001)
        np.testing.assert_allclose(out, series_exp_integral(a, 0.001), rtol=1e-12)
        # leading behavior T*I + T^2/2 * A
        np.testing.assert_allclose(
            out, 0.001 * np.eye(2) + 0.5e-6 * a, atol=1e-7
        )

    def test_singular_matrix_defined(self):
        # nilpotent: integral of [[1, tau], [0, 1]] over [0, t]
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = mat_exp_integral(a, 2.0)
        np.testing.assert_allclose(out, [[2.0, 2.0], [0.0, 2.0]], atol=1e-12)

    def test_random_vs_series(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            a = random_stable(rng, n, scale=3.0)
            t = float(rng.uniform(0.01, 0.5))
            np.testing.assert_allclose(
                mat_exp_integral(a, t), series_exp_integral(a, t), atol=1e-10
            )

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError, match="> 0"):
            mat_exp_integral(np.eye(2), 0.0)


class TestNullComplement:
    def test_axis_column(self):
        b2 = null_complement(np.array([[2000.0], [0.0]]))
        np.testing.assert_allclose(b2, [[0.0], [1.0]], atol=1e-14)

    def test_diagonal_direction(self):
        b2 = null_complement(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        np.testing.assert_allclose(b2, [[1.0 / math.sqrt(2)], [-1.0 / math.sqrt(2)]], atol=1e-12)

    def test_three_state_complement(self):
        b1 = np.array([[1.0], [0.0], [0.0]])
        b2 = null_complement(b1)
        assert b2.shape == (3, 2)
        assert np.abs(b1.T @ b2).max() <= 1e-12
        assert gaussian_rank(np.hstack([b1, b2])) == 3

    def test_random_full_rank_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            b1 = rng.standard_normal((n, m))
            b2 = null_complement(b1)
            assert np.abs(b1.T @ b2).max() <= 1e-9 * max(1.0, np.abs(b1).max())
            full = np.hstack([b1, b2])
            assert gaussian_rank(full) == n
            assert abs(np.linalg.det(full)) > 1e-12
            np.testing.assert_allclose(np.linalg.norm(b2, axis=0), 1.0, atol=1e-12)

    def test_deterministic_sign(self):
        b1 = np.array([[0.3], [-0.8], [0.5]])
        b2a = null_complement(b1)
        b2b = null_complement(b1.copy())
        assert np.array_equal(b2a, b2b)
        for j in range(b2a.shape[1]):
            lead = b2a[np.abs(b2a[:, j]) > 1e-12, j]
            assert lead[0] > 0

    def test_equals_scipy_null_space_after_sign_rule(self):
        rng = np.random.default_rng(8)
        for n in range(2, 6):
            for m in range(1, n):
                b1 = rng.standard_normal((n, m))
                ref = scipy.linalg.null_space(b1.T)
                for j in range(ref.shape[1]):
                    if ref[np.abs(ref[:, j]) > 1e-12, j][0] < 0.0:
                        ref[:, j] = -ref[:, j]
                np.testing.assert_allclose(null_complement(b1), ref, rtol=0.0, atol=1e-15)

    def test_rejects_wide_and_deficient(self):
        with pytest.raises(ValueError, match="m < n"):
            null_complement(np.eye(2))
        with pytest.raises(ValueError, match="rank"):
            null_complement(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))


class TestDcGain:
    def test_benchmark_control_path(self):
        sys = StateSpaceModel(
            A=[[-10.0, -50.0], [1.0, 0.0]], B=[[2000.0], [0.0]], C=[[0.0, 1.0]]
        )
        # hand inversion: A^-1 = [[0, 1], [-0.02, -0.2]]
        np.testing.assert_allclose(dc_gain(sys), [[40.0]], rtol=1e-12)

    def test_identity_system(self):
        sys = StateSpaceModel(A=-np.eye(2), B=np.eye(2), C=np.eye(2))
        np.testing.assert_allclose(dc_gain(sys), np.eye(2), atol=1e-14)

    def test_benchmark_unmatched_path(self):
        sys = StateSpaceModel(
            A=[[-10.0, -50.0], [1.0, 0.0]], B=[[0.0], [1.0]], C=[[0.0, 1.0]]
        )
        np.testing.assert_allclose(dc_gain(sys), [[0.2]], rtol=1e-12)

    def test_pole_at_origin_rejected(self):
        sys = StateSpaceModel(A=[[0.0, 1.0], [0.0, -1.0]], B=[[0.0], [1.0]], C=[[1.0, 0.0]])
        with pytest.raises(ValueError, match="origin"):
            dc_gain(sys)

    def test_discrete_pole_at_one_rejected(self):
        sys = StateSpaceModel(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ConfigError, match=r"^discrete system has a pole at z = 1, DC gain"):
            dc_gain_discrete(sys)


class TestFeedforwardGain:
    """k_ff, derived by ``UncertainPlant`` from (A, B1, C)."""

    def test_benchmark_value(self):
        p = UncertainPlant(A=[[-10.0, -50.0], [1.0, 0.0]], B1=[[2000.0], [0.0]], C=[[0.0, 1.0]])
        assert p.k_ff == pytest.approx(0.025, rel=1e-12)

    def test_unit_dc_system(self):
        p = UncertainPlant(A=-np.eye(2), B1=[[1.0], [0.0]], C=[[1.0, 0.0]])
        assert p.k_ff == pytest.approx(1.0, rel=1e-12)

    def test_forces_unit_dc_gain(self):
        rng = np.random.default_rng(5)
        hits = 0
        while hits < 20:
            n = int(rng.integers(1, 6))
            a = random_stable(rng, n, scale=2.0)
            b = rng.standard_normal((n, 1))
            c = rng.standard_normal((1, n))
            raw = float((c @ np.linalg.solve(a, b))[0, 0])
            if abs(raw) < 1e-3:
                continue
            hits += 1
            k = UncertainPlant(A=a, B1=b, C=c).k_ff
            closed = dc_gain(StateSpaceModel(A=a, B=b * k, C=c))
            assert closed[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_zero_dc_path_rejected(self):
        # output reads the state component the input never reaches at DC
        a = np.diag([-1.0, -2.0])
        with pytest.raises(ValueError, match="zero DC path"):
            UncertainPlant(A=a, B1=[[1.0], [0.0]], C=[[0.0, 1.0]])


class TestDiscretizeZoh:
    def test_pure_integrator(self):
        sys = StateSpaceModel(A=np.zeros((2, 2)), B=np.eye(2), C=np.eye(2))
        d = discretize_zoh(sys, 0.25)
        np.testing.assert_allclose(d.A, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(d.B, 0.25 * np.eye(2), atol=1e-15)

    def test_scalar_closed_form(self):
        a, h = 3.0, 0.01
        d = discretize_zoh(StateSpaceModel(A=[[-a]], B=[[1.0]], C=[[1.0]]), h)
        assert d.A[0, 0] == pytest.approx(math.exp(-a * h), rel=1e-12)
        assert d.B[0, 0] == pytest.approx((1.0 - math.exp(-a * h)) / a, rel=1e-12)

    def test_dc_gain_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            sys = StateSpaceModel(
                A=random_stable(rng, n, scale=4.0),
                B=rng.standard_normal((n, 2)),
                C=rng.standard_normal((2, n)),
            )
            d = discretize_zoh(sys, 0.05)
            np.testing.assert_allclose(dc_gain_discrete(d), dc_gain(sys), atol=1e-9)

    def test_matches_fine_integration(self):
        # independent oracle: RK4 at 100 substeps per hold interval
        rng = np.random.default_rng(17)
        a = random_stable(rng, 3, scale=2.0)
        b = rng.standard_normal((3, 1))
        sys = StateSpaceModel(A=a, B=b, C=np.eye(3))
        h = 0.02
        d = discretize_zoh(sys, h)
        x_d = np.zeros(3)
        x_c = np.zeros(3)
        for k in range(50):
            u = np.array([math.sin(0.3 * k)])  # held over the interval
            x_d = d.A @ x_d + d.B @ u
            sub = h / 100.0
            for _ in range(100):
                k1 = a @ x_c + (b @ u)
                k2 = a @ (x_c + 0.5 * sub * k1) + (b @ u)
                k3 = a @ (x_c + 0.5 * sub * k2) + (b @ u)
                k4 = a @ (x_c + sub * k3) + (b @ u)
                x_c = x_c + sub / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            np.testing.assert_allclose(x_d, x_c, atol=1e-9)


class TestFilterStep:
    def _first_order(self, w: float, h: float) -> StateSpaceModel:
        return discretize_zoh(StateSpaceModel(A=[[-w]], B=[[w]], C=[[1.0]]), h)

    def _run(self, f: StateSpaceModel, u, samples: int) -> float:
        state, out = np.zeros(f.order), None
        for _ in range(samples):
            state, out = filter_step(f, state, u)
        return out[0]

    def test_unit_dc_convergence(self):
        f = self._first_order(5.0, 0.01)
        assert self._run(f, [1.0], 600) == pytest.approx(1.0, abs=1e-6)  # 6 s >> 1/w

    def test_zero_in_zero_out(self):
        f = self._first_order(5.0, 0.01)
        state = np.zeros(1)
        for _ in range(100):
            state, out = filter_step(f, state, [0.0])
            assert out[0] == 0.0

    def test_step_response_closed_form(self):
        f = self._first_order(10.0, 0.001)
        # t = 0.1 s
        assert self._run(f, [1.0], 100) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_dimension_mismatch(self):
        f = self._first_order(5.0, 0.01)
        with pytest.raises(ValueError, match="^filter input must have 1 entries, got 2$"):
            filter_step(f, np.zeros(1), [1.0, 2.0])


class TestCoercers:
    """as_scalar, as_vector and as_matrix hold the number, bound and shape rules."""

    def test_a_bool_is_not_a_number(self):
        for coerce in (statespace.as_scalar, statespace.as_vector, statespace.as_matrix):
            with pytest.raises(ConfigError, match="^key must be a number, got True$|^key is not a"):
                coerce(True, "key")
        assert statespace.as_scalar("2", "key") == 2.0  # a numeric string still reads

    def test_overflow_names_the_key(self):
        for coerce in (statespace.as_scalar, statespace.as_vector, statespace.as_matrix):
            with pytest.raises(ConfigError, match="^key is beyond the float range$"):
                coerce(10**400 if coerce is statespace.as_scalar else [[1.0, -(10**400)]], "key")

    def test_bounds(self):
        assert statespace.as_scalar(0.0, "key", ">= 0") == 0.0
        for value, bound in ((0.0, "> 0"), (-1e-300, ">= 0")):
            with pytest.raises(ConfigError, match=f"^key must be {bound}, got {value}$"):
                statespace.as_scalar(value, "key", bound)

    def test_shapes(self):
        assert statespace.as_matrix([1.0, 2.0], "key", (1, 2)).shape == (1, 2)
        assert statespace.as_matrix([1.0, 2.0], "key", (2, None), column=True).shape == (2, 1)
        assert statespace.as_matrix([], "key", (1, 0), column=True).shape == (1, 0)
        with pytest.raises(ConfigError, match=r"^key must be a \*x\* matrix, got shape \(1, 0\)$"):
            statespace.as_matrix([], "key")
        with pytest.raises(ConfigError, match=r"^key must be a 3x\* matrix to match A, got shape"):
            statespace.as_matrix([[1.0], [2.0]], "key", (3, None), "A")
        with pytest.raises(ConfigError, match="^key must have 3 entries, got 2$"):
            statespace.as_vector([[1.0], [2.0]], "key", 3)
        # large finite entries whose sum overflows are finite
        assert statespace.as_vector([1e308, 1e308], "key").tolist() == [1e308, 1e308]
        with pytest.raises(ConfigError, match="^key has non-finite entries$"):
            statespace.as_vector([1e308, math.nan], "key")

    def test_checked_arrays_are_c_ordered(self):
        """A Fortran-ordered or strided value is copied to C order, so equal
        values give equal bits downstream; a C-ordered float array is kept."""
        a = np.arange(12.0).reshape(3, 4)
        wide = np.zeros((6, 8))
        wide[::2, ::2] = a
        for layout in (np.asfortranarray(a), wide[::2, ::2]):
            m = statespace.as_matrix(layout, "key")
            assert m.flags.c_contiguous and np.array_equal(m, a)
        v = statespace.as_vector(wide[0, ::2], "key")
        assert v.flags.c_contiguous and v.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert statespace.as_matrix(a, "key") is a
        assert statespace.as_scalar(np.float64(2.0), "key") == 2.0


class TestStateSpaceModel:
    def test_dimension_validation(self):
        with pytest.raises(ValueError, match=r"^B must be a 2x\* matrix to match A, got shape \(3, 1\)$"):
            StateSpaceModel(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"^C must be a \*x2 matrix to match A, got shape \(1, 3\)$"):
            StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_default_d_zero(self):
        sys = StateSpaceModel(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 2)))
        assert np.array_equal(sys.D, np.zeros((1, 1)))
