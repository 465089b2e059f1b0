"""CSV serialization of simulation traces.

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly, so metrics recomputed from a re-parsed file match the
originals bit for bit.  The file is UTF-8 with ``\n`` line ends on every
platform.

The body is formatted in blocks of ``BLOCK_ROWS`` rows: one ``%`` of a
repeated ``%.17g`` row template over the block's values, which is the same
conversion as ``format(v, ".17g")`` per value, done in C.  Only one block's
values and text are held at a time, so memory stays flat in the trace length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .engine import SimTrace

BLOCK_ROWS = 256


def csv_header(n: int, m: int, k: int) -> str:
    """Column header for a trace with n states, m inputs and k unmatched channels."""
    cols = ["t", "r", "y", "y_M"]
    cols += ["u_a"] if m == 1 else [f"u_a_{i + 1}" for i in range(m)]
    cols += [f"sigma1_{i + 1}" for i in range(m)]
    cols += [f"sigma2_{i + 1}" for i in range(k)]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"xhat_{i + 1}" for i in range(n)]
    return ",".join(cols)


def emit_csv(trace: SimTrace, path) -> Path:
    """Write one row per sample; returns the written path."""
    path = Path(path)
    n = trace.x.shape[1]
    m = trace.u_a.shape[1]
    k = trace.sigma2.shape[1]
    columns = [trace.t, trace.r, trace.y, trace.y_m, trace.u_a, trace.sigma1, trace.sigma2,
               trace.x, trace.x_hat]
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_header(n, m, k) + "\n")
        for start in range(0, trace.n_samples, BLOCK_ROWS):
            block = np.column_stack([col[start : start + BLOCK_ROWS] for col in columns])
            row = ",".join(["%.17g"] * block.shape[1]) + "\n"
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
    return path


def load_csv(path, label: str = "") -> SimTrace:
    """Re-read an emitted trace; the prediction error is rebuilt from x and x_hat."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: row width {data.shape[1]} does not match header {len(header)}")

    def block(prefix: str) -> list[int]:
        return [i for i, name in enumerate(header) if name == prefix or name.startswith(prefix + "_")]

    m = len(block("u_a"))
    sig1 = block("sigma1")
    sig2 = block("sigma2")
    xs = block("x")
    xh = block("xhat")
    if not (m and sig1 and xs and xh) or len(xs) != len(xh):
        raise ValueError(f"{path}: header does not match the trace schema: {header}")
    x = data[:, xs]
    x_hat = data[:, xh]
    return SimTrace(
        t=data[:, 0],
        r=data[:, 1],
        y=data[:, 2],
        y_m=data[:, 3],
        u_a=data[:, block("u_a")],
        sigma1=data[:, sig1],
        sigma2=data[:, sig2] if sig2 else np.zeros((data.shape[0], 0)),
        x=x,
        x_hat=x_hat,
        x_tilde=x_hat - x,
        label=label or path.stem,
    )
