"""Reference implementations the package is checked against.

``rk4_closed_loop`` is the closed loop integrated with classical RK4;
``lifted_forcing`` and ``sequential_states`` step the lifted recurrence of
a ``LoopModel`` one sample at a time, the reference for the engine's
power doubling; ``reference_csv_text`` and ``reference_polylines`` format
trace files one value (or point) per Python call, the way the block
formatters in ``l1sim.traceio`` and ``l1sim.plots`` must reproduce byte for
byte; ``reference_polylines`` also picks each pixel column's M4 points in a
per-point loop.  ``slice_by_slice_loop`` compiles a loop model the way
``compile_loop`` did before it wrote its step matrix in place: generator and
drive copied into ``zoh_maps``' augmented matrix, its blocks copied into an
identity step matrix, then ``np.linalg.matrix_power``; the two must agree
bit for bit.

The engine (``run_closed_loop``) solves the sampled loop exactly between
sample boundaries.  This oracle integrates the same loop numerically, built
only from the package's public pieces: ``rk4_step`` for the continuous
dynamics (``plant_deriv``, ``reference_model_deriv`` and
``predictor_deriv``), and ``LoopModel.update`` and ``control_update`` at
each boundary.  It holds the estimate and the adaptive input over a sample,
and the command and the disturbance switch over an integrator step at their
step-start values, so it converges to the engine at 4th order in the step.
``lifted_forcing`` likewise holds the command over each integrator step
through maps of its own, not through the loop model's folded command maps.
"""

from __future__ import annotations

import math

import numpy as np

from l1sim import (
    SimTrace,
    compile_loop,
    csv_header,
    control_update,
    plant_deriv,
    predictor_deriv,
    reference_model_deriv,
    reference_value,
    rk4_step,
)
from l1sim.augmentation import (
    _RATE_KEYS, LoopModel, _estimator_gain, error_dynamics_matrix, low_pass_model,
    unmatched_path_model,
)
from l1sim.errors import ConfigError
from l1sim.plots import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH
from l1sim.statespace import StateSpaceModel, zoh_maps

TRACE_FIELDS = ("r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde")
# the named signals of a trace, in csv_header column order
SIGNALS = ("t", "r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat")


def trace_of(label: str = "", **signals) -> SimTrace:
    """A trace built from every named signal, each (samples,) or (samples,
    width), stacked as the rows of its ``values`` in ``SIGNALS`` order."""
    return SimTrace(np.vstack([np.asarray(signals[name], float).T for name in SIGNALS]), label)


def rk4_closed_loop(plant, cfg, sig, eng) -> SimTrace:
    """Simulate the closed loop with ``eng.substeps_per_sample`` RK4 steps per sample."""
    model = compile_loop(plant, cfg, eng.substeps_per_sample)
    T = cfg.sample_period
    h = T / eng.substeps_per_sample
    n, k = plant.n, plant.n_unmatched
    rows = round(eng.t_end / T) + 1
    out = trace_of(
        t=np.arange(rows) * T,
        r=np.zeros(rows),
        y=np.zeros(rows),
        y_m=np.zeros(rows),
        u_a=np.zeros((rows, 1)),
        sigma1=np.zeros((rows, 1)),
        sigma2=np.zeros((rows, k)),
        x=np.zeros((rows, n)),
        x_hat=np.zeros((rows, n)),
    )

    z = np.concatenate([plant.x0, plant.x0, plant.x0])  # [x, x_m, x_hat]
    xf_m, xf_u = (
        None if f is None else np.zeros(f.order) for f in (model.matched, model.unmatched)
    )
    # u_a, sigma, r and t_hold are held over each integrator step; deriv reads them
    u_a, sigma, r, t_hold = np.zeros(1), None, 0.0, 0.0

    def deriv(_t: float, state: np.ndarray) -> np.ndarray:
        x, x_m, x_hat = state[:n], state[n : 2 * n], state[2 * n :]
        return np.concatenate([
            plant_deriv(plant, x, u_a, r, t_hold),
            reference_model_deriv(plant, x_m, r),
            predictor_deriv(model, x_hat, u_a, r, sigma, x_hat - x),
        ])

    for i in range(rows):
        x, x_m, x_hat = z[:n], z[n : 2 * n], z[2 * n :]
        sigma = model.update(x_hat - x)
        u_a, xf_m, xf_u = control_update(model, sigma, xf_m, xf_u)
        out.r[i] = reference_value(sig, out.t[i])
        out.y[i] = plant.C[0] @ x
        out.y_m[i] = plant.C[0] @ x_m
        out.u_a[i] = u_a
        out.sigma1[i] = sigma[:1]
        out.sigma2[i] = sigma[1:]
        out.x[i] = x
        out.x_hat[i] = x_hat
        for j in range(eng.substeps_per_sample if i < rows - 1 else 0):
            t_hold = i * T + j * h
            r = reference_value(sig, t_hold)
            z = rk4_step(deriv, t_hold, z, h)
    return out


def lifted_forcing(model, sig, n_samples: int) -> np.ndarray:
    """f[k] of the lifted recurrence for samples k < n_samples: the command
    held over each integrator step j at r(kT + jh), from the first sample
    that starts at or after its onset, through that step's map into the plant
    and the reference model, plus the disturbance map once the disturbances
    act.  The step maps are the plant's own: the ZOH maps (a_h, b_h) of
    (A, B1 k_ff) over one step h, and a_h^(S-1-j) b_h for step j."""
    plant, T, substeps = model.plant, model.config.sample_period, model.substeps
    h = T / substeps
    a_h, b_h = zoh_maps(plant.A, plant.B1 * plant.k_ff, h)
    start = np.arange(n_samples) * T
    forcing = np.outer(start >= plant.onset, model.disturbance_map)
    on = start >= sig.onset
    step_map = b_h[:, 0]
    for j in range(substeps - 1, -1, -1):
        command = np.outer(on * reference_value(sig, start + j * h), step_map)
        forcing[:, model.blocks["plant"]] += command
        forcing[:, model.blocks["reference model"]] += command
        step_map = a_h @ step_map
    return forcing


def sequential_states(model, forcing: np.ndarray) -> np.ndarray:
    """s[0..N] of s[k+1] = transition @ s[k] + forcing[k], one sample at a
    time, from the initial plant and reference-model state x0."""
    blocks = model.blocks
    states = np.zeros((forcing.shape[0] + 1, model.transition.shape[0]))
    states[0, blocks["plant"]] = model.plant.x0
    states[0, blocks["reference model"]] = model.plant.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, f in enumerate(forcing):
            states[k + 1] = model.transition @ states[k] + f
    return states


def slice_by_slice_loop(plant, cfg, substeps_per_sample: int = 1) -> LoopModel:
    """``compile_loop`` assembled block by block from separate arrays."""
    T = cfg.sample_period
    a_err = error_dynamics_matrix(plant, cfg)
    n = plant.n
    filters, width = [], 2 * n
    if cfg.law != "off":
        with np.errstate(over="ignore", invalid="ignore"):
            path = unmatched_path_model(plant, cfg)
        for filt, chans in ((low_pass_model(cfg.bandwidth_matched), slice(0, 1)),
                            (path, slice(1, n))):
            if filt is not None:
                filters.append((filt, chans, slice(width, width + filt.order)))
                width += filt.order
    gen, drive = np.zeros((width, width)), np.zeros((width, 2 * n))
    gen[:n, :n], gen[n : 2 * n, n : 2 * n] = plant.A, a_err
    drive[:n, n:] = drive[n : 2 * n, n:] = np.hstack([plant.B1, plant.B2])
    for filt, chans, block in filters:
        gen[block, block], drive[block, chans] = filt.A, filt.B
    h = T / substeps_per_sample
    try:
        a_h, b_h = zoh_maps(gen, drive, h)
    except ConfigError:
        raise ConfigError(f"discretization overflowed; one of {_RATE_KEYS} is too large") from None
    step = np.eye(width + 2 * n + 1)
    step[:width, :width], step[:width, width:-1], step[width + n, -1] = a_h, b_h, 1.0
    power = np.linalg.matrix_power(step, substeps_per_sample)
    prop, held, staircase = power[:width, :width], power[:width, width:-1], power[:n, -1]
    plant_prop, plant_input = prop[:n, :n], held[:n, n:]
    err_prop, err_input = prop[n : 2 * n, n : 2 * n], held[n : 2 * n, n:]
    gain = _estimator_gain(err_prop, err_input)

    d = n + width
    x, x_m, x_t = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    transition, input_map = np.zeros((d, d)), np.zeros((1, d))
    discrete = []
    for filt, chans, block in filters:
        filt = StateSpaceModel._of(prop[block, block], held[block, chans], filt.C, filt.D)
        discrete.append(filt)
        block, g = slice(n + block.start, n + block.stop), gain[chans]
        transition[block, x_t] = filt.B @ g
        transition[block, block] = filt.A
        input_map[:, x_t] -= (filt.C @ filt.B + filt.D) @ g
        input_map[:, block] = -filt.C @ filt.A
    matched, unmatched = discrete + [None] * (2 - len(discrete))
    transition[x, x] = plant_prop
    transition[x] += plant_input[:, :1] @ input_map
    transition[x_m, x_m] = plant_prop
    transition[x_t, x_t] = err_prop + err_input @ gain

    command_maps = np.zeros((2, d))
    command_maps[0, x] = held[:n, n] * plant.k_ff
    command_maps[1, x] = staircase * (plant.k_ff * h)
    command_maps[:, x_m] = command_maps[:, x]
    f = np.concatenate([plant.f1, plant.f2])
    disturbance_map = np.zeros(d)
    with np.errstate(over="ignore"):
        disturbance_map[x] = plant_input @ f
        disturbance_map[x_t] = -(err_input @ f)
    if not np.isfinite(disturbance_map).all():
        raise ConfigError("uncertainty.matched or uncertainty.unmatched overflows the sampled loop")
    return LoopModel(plant=plant, config=cfg, gain=gain, predictor_gain=a_err - plant.A,
                     matched=matched, unmatched=unmatched, substeps=substeps_per_sample,
                     transition=transition, command_maps=command_maps,
                     disturbance_map=disturbance_map, input_map=input_map)


def max_deviation(a: SimTrace, b: SimTrace) -> float:
    """Largest absolute difference between two traces over every signal."""
    return max(float(np.abs(getattr(a, f) - getattr(b, f)).max(initial=0.0)) for f in TRACE_FIELDS)


def reference_csv_text(trace: SimTrace) -> str:
    """The trace CSV as text, one ``format(v, ".17g")`` call per value."""
    data = np.column_stack([trace.t, trace.r, trace.y, trace.y_m, trace.u_a, trace.sigma1,
                            trace.sigma2, trace.x, trace.x_hat])
    lines = [csv_header(trace.x.shape[1])]
    for row in data:
        lines.append(",".join(format(v, ".17g") for v in row))
    return "\n".join(lines) + "\n"


def reference_polylines(series) -> list[str]:
    """The ``points`` of each series of ``line_chart_svg``, mapped to pixels by
    scalar Python arithmetic and formatted one f-string per point.

    Of each pixel column, ``floor(px - MARGIN_L)`` clipped to the plot, the
    first and last point and the first point of the least and of the greatest
    y are drawn (M4), found by one pass over the points."""
    x_lo = min(float(np.min(sx)) for _, sx, _ in series)
    x_hi = max(float(np.max(sx)) for _, sx, _ in series)
    y_lo = min(float(np.min(sy)) for _, _, sy in series)
    y_hi = max(float(np.max(sy)) for _, _, sy in series)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    polylines = []
    for _, sx, sy in series:
        points = [(px(float(a)), float(b)) for a, b in zip(sx, sy)]
        columns: dict[int, list[int]] = {}  # column -> [first, last, argmin, argmax]
        for i, (gx, y) in enumerate(points):
            col = min(max(math.floor(gx - MARGIN_L), 0), plot_w - 1)
            if col not in columns:
                columns[col] = [i, i, i, i]
                continue
            kept = columns[col]
            kept[1] = i
            if y < points[kept[2]][1]:
                kept[2] = i
            if y > points[kept[3]][1]:
                kept[3] = i
        drawn = sorted({i for kept in columns.values() for i in kept})
        polylines.append(" ".join(f"{points[i][0]:.2f},{py(points[i][1]):.2f}" for i in drawn))
    return polylines
