import numpy as np
import pytest
from hypothesis import settings

from l1sim import PRESETS, UncertainPlant, run_preset

# Property tests draw the same examples on every run and stay time-bounded;
# no example database is written.
settings.register_profile(
    "l1sim", derandomize=True, max_examples=25, deadline=None, database=None
)
settings.load_profile("l1sim")


def pytest_report_header(config):
    """Which YAML parser ``load_scenario`` uses in this run."""
    import yaml

    if hasattr(yaml, "CSafeLoader"):
        from yaml._yaml import get_version_string

        parser = f"libyaml {get_version_string()}"
    else:
        parser = "no libyaml: scenario files parse with SafeLoader, the loader parity tests skip"
    return f"PyYAML {yaml.__version__}, {parser}"


# second-order SISO benchmark used across the suite
BENCH_A = np.array([[-10.0, -50.0], [1.0, 0.0]])
BENCH_B1 = np.array([[2000.0], [0.0]])
BENCH_C = np.array([[0.0, 1.0]])
BENCH_F1 = 0.05
BENCH_F2 = 0.001


@pytest.fixture(scope="session")
def preset_results() -> dict:
    """Every built-in preset run once, by name; tests must not modify them."""
    return {name: run_preset(name) for name in sorted(PRESETS)}


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


def canonical_plant(poles, zeros, gain, **disturbances) -> UncertainPlant:
    """Controllable-canonical SISO plant with the given poles and zeros."""
    den = np.real(np.poly(poles))
    num = np.real(np.poly(zeros)) * gain
    n = den.size - 1
    a = np.zeros((n, n))
    a[0] = -den[1:]
    a[1:, :-1] = np.eye(n - 1)
    c = np.zeros((1, n))
    c[0, n - num.size :] = num
    return UncertainPlant.from_matrices(a, np.eye(n, 1), c, **disturbances)


def seeded_canonical_plants(seed: int, per_order: int):
    """Canonical plants of order 2-5 with the pole, zero and gain ranges of the sweep."""
    rng = np.random.default_rng(seed)
    for order in (2, 3, 4, 5):
        for _ in range(per_order):
            poles, zeros = -rng.uniform(1.0, 20.0, order), -rng.uniform(0.5, 15.0, order - 1)
            yield canonical_plant(poles, zeros, rng.uniform(0.5, 5.0))
