import numpy as np
import pytest

from l1sim import UncertainPlant

# second-order SISO benchmark used across the suite
BENCH_A = np.array([[-10.0, -50.0], [1.0, 0.0]])
BENCH_B1 = np.array([[2000.0], [0.0]])
BENCH_C = np.array([[0.0, 1.0]])
BENCH_F1 = 0.05
BENCH_F2 = 0.001


@pytest.fixture
def bench_plant() -> UncertainPlant:
    """Benchmark plant without disturbances."""
    return UncertainPlant.from_matrices(BENCH_A, BENCH_B1, BENCH_C)


@pytest.fixture
def bench_uncertain_plant() -> UncertainPlant:
    """Benchmark plant with the standard constant disturbances active from t = 0."""
    return UncertainPlant.from_matrices(
        BENCH_A,
        BENCH_B1,
        BENCH_C,
        f1=[BENCH_F1],
        f2=[BENCH_F2],
    )


def make_nmp_plant(f1=None, f2=None) -> UncertainPlant:
    """Third-order plant whose control path has a transmission zero at s = +1.

    Poles at -2, -3, -4; output numerator (s - 1).
    """
    a = np.array([[-9.0, -26.0, -24.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    b1 = np.array([[1.0], [0.0], [0.0]])
    c = np.array([[0.0, 1.0, -1.0]])
    return UncertainPlant.from_matrices(a, b1, c, f1=f1, f2=f2)
