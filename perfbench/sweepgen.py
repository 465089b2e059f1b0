"""Seeded grid of distinct scenario documents for the ``sweep`` workload.

The factors that set a run's cost (plant order, law, horizon, integrator
substeps) form a full factorial, so every seed yields the same cost mix and
only the order changes.  The other categorical factors (sample period,
bandwidths, command kind) get balanced level lists that the seed shuffles.
The seed also draws the plant poles and zeros and the disturbance and
command sizes, so no two documents are alike.

Plants are rejection-sampled: the poles are stable, no zero sits near a pole
or at the origin, and every zero is in the open left half plane wherever the
law is ``original`` (the dynamics-inverting law rejects other plants).  So
the program should accept every document it is given.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

LAWS = ("off", "matched_only", "original", "modified")
PLANTS = ("paper-siso", 2, 3, 4, 5)
SAMPLE_PERIODS = (1e-3, 2e-3, 5e-3)
BANDWIDTHS = (10.0, 20.0, 40.0, 80.0)
HORIZONS = (8, 16, 32)  # samples per run
KINDS = ("step", "ramp")
SUBSTEPS = (1, 1, 2, 4)  # half of the runs refine the integrator step

# one document per combination of the cost factors
COST_GRID = tuple(itertools.product(PLANTS, LAWS, HORIZONS, SUBSTEPS))


def _balanced(rng: np.random.Generator, levels, count: int) -> list:
    reps = -(-count // len(levels))
    items = [levels[i % len(levels)] for i in range(reps * len(levels))][:count]
    return [items[i] for i in rng.permutation(count)]


def _roots(rng: np.random.Generator, count: int, lo: float, hi: float, rhp_ok: bool) -> np.ndarray:
    """Random real roots and complex pairs, real parts in [-hi, -lo]."""
    out: list[complex] = []
    while len(out) < count:
        re = -rng.uniform(lo, hi)
        if count - len(out) >= 2 and rng.random() < 0.5:
            im = rng.uniform(1.0, 10.0)
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, 0.0))
    roots = np.array(out)
    if rhp_ok and count and rng.random() < 0.5:
        # one non-minimum-phase zero for laws that accept it
        real = np.nonzero(roots.imag == 0.0)[0]
        if real.size:
            roots[real[0]] = -roots[real[0]]
    return roots


def _acceptable(poles: np.ndarray, zeros: np.ndarray, law: str) -> bool:
    if np.max(poles.real) >= -0.5:
        return False
    if zeros.size:
        if np.min(np.abs(zeros)) < 0.5:  # near-zero DC gain
            return False
        if np.min(np.abs(zeros[:, None] - poles[None, :])) < 0.3:  # near cancellation
            return False
        if law == "original" and np.max(zeros.real) >= -0.5:
            return False
    # high-frequency over DC gain: bounds the initial transient of the command
    return abs(np.prod(poles) / np.prod(zeros)) <= 200.0


def random_plant(rng: np.random.Generator, order: int, law: str) -> dict:
    """Controllable-canonical SISO plant of the given order, relative degree one."""
    while True:
        poles = _roots(rng, order, 1.0, 20.0, rhp_ok=False)
        zeros = _roots(rng, order - 1, 0.5, 15.0, rhp_ok=law != "original")
        if _acceptable(poles, zeros, law):
            break
    den = np.real(np.poly(poles))
    num = np.real(np.poly(zeros)) * rng.uniform(0.5, 5.0)
    a = np.zeros((order, order))
    a[0] = -den[1:]
    a[1:, :-1] = np.eye(order - 1)
    b1 = np.zeros((order, 1))
    b1[0, 0] = 1.0
    return {"A": a.tolist(), "B1": b1.tolist(), "C": [num.tolist()]}


def generate(seed: int, count: int = len(COST_GRID)) -> tuple[list[dict], dict]:
    """``count`` scenario documents and a record of the mix they cover.

    With the default count every cost combination appears once; a smaller
    count takes a seeded subset.
    """
    rng = np.random.default_rng(seed)
    grid = [COST_GRID[i] for i in rng.permutation(len(COST_GRID))[:count]]
    plants, laws, horizons, substeps = (list(col) for col in zip(*grid))
    periods = _balanced(rng, SAMPLE_PERIODS, count)
    bw_matched = _balanced(rng, BANDWIDTHS, count)
    bw_unmatched = _balanced(rng, BANDWIDTHS, count)
    kinds = _balanced(rng, KINDS, count)
    docs = []
    for i in range(count):
        period = periods[i]
        if plants[i] == "paper-siso":
            plant, order = {"preset": "paper-siso"}, 2
        else:
            order = plants[i]
            plant = random_plant(rng, order, laws[i])
        onset = float(rng.choice([0, 5])) * period
        reference = {"kind": kinds[i], "onset": onset}
        size = float(rng.uniform(0.5, 2.0))
        reference["amplitude" if kinds[i] == "step" else "gradient"] = size
        docs.append({
            "name": f"sweep-{i:03d}",
            "plant": plant,
            "uncertainty": {
                "matched": [float(rng.uniform(-0.1, 0.1))],
                "unmatched": rng.uniform(-0.01, 0.01, order - 1).tolist(),
                "onset": onset,
            },
            "reference": reference,
            "controller": {
                "law": laws[i],
                "sample_period": period,
                "bandwidth_matched": bw_matched[i],
                "bandwidth_unmatched": bw_unmatched[i],
            },
            "engine": {"t_end": horizons[i] * period, "substeps_per_sample": substeps[i]},
        })
    mix = {
        "seed": seed,
        "configs": count,
        "plants": dict(sorted(Counter(str(p) for p in plants).items())),
        "laws": dict(sorted(Counter(laws).items())),
        "samples_per_run": dict(sorted(Counter(h + 1 for h in horizons).items())),
        "substeps_per_sample": dict(sorted(Counter(substeps).items())),
        "kinds": dict(sorted(Counter(kinds).items())),
    }
    return docs, mix
