"""CSV serialization of simulation traces.

A trace of an n-state plant has one layout, ``csv_header(n)``, of 3 n + 5
columns, the rows of its ``values``.  ``load_csv`` reads only that layout,
and its trace's ``values`` is the parsed array transposed, with no copy.

Values are written with 17 significant digits, which round-trips IEEE
doubles exactly, so metrics recomputed from a re-parsed file match the
originals bit for bit.  The file is UTF-8 with ``\n`` line ends on every
platform.

The body is formatted in blocks of ``BLOCK_ROWS`` rows: one ``%`` of a
repeated ``%.17g`` row template over the block's values, which is the same
conversion as ``format(v, ".17g")`` per value, done in C.  A column whose
values are bit-identical down the block (the command, the piecewise-constant
estimates, the states before the onset) has its text formatted once and
written into the template, which is then applied to the other columns only;
the text of a float never holds a ``%``.  Bits, not ``==``, decide, so a
block of ``0.0`` with one ``-0.0`` is not constant.  Only one block's text
is held at a time, so memory stays flat in the trace length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .engine import SimTrace

BLOCK_ROWS = 256


def csv_header(n: int) -> str:
    """The trace schema for n states: ``t,r,y,y_M,u_a,sigma1_1``, then
    ``sigma2_1..n-1``, ``x_1..n`` and ``xhat_1..n``, 3 n + 5 columns."""
    cols = ["t", "r", "y", "y_M", "u_a", "sigma1_1"]
    cols += [f"sigma2_{i}" for i in range(1, n)]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"xhat_{i + 1}" for i in range(n)]
    return ",".join(cols)


def emit_csv(trace: SimTrace, path) -> Path:
    """Write one row per sample; returns the written path."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_header(trace.x.shape[1]) + "\n")
        for start in range(0, trace.n_samples, BLOCK_ROWS):
            block = trace.values[:, start : start + BLOCK_ROWS].T
            bits = block.view(np.uint64)
            constant = (bits == bits[0]).all(axis=0)
            row = ",".join(["%.17g" % v if c else "%.17g" for v, c in zip(block[0], constant)])
            values = block[:, ~constant].ravel().tolist()
            fh.write(((row + "\n") * block.shape[0]) % tuple(values))
    return path


def load_csv(path, label: str = "") -> SimTrace:
    """Re-read an emitted trace; only the exact ``csv_header`` layout loads."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
        width = header.count(",") + 1
        body = fh.tell()
        empty = not fh.read(1)  # a 0-sample trace is its header alone, which loadtxt warns of
        fh.seek(body)
        data = np.empty((0, width)) if empty else np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != width:
        raise ValueError(f"{path}: row width {data.shape[1]} does not match header {width}")
    n = (width - 5) // 3
    if n < 1 or header != csv_header(n):
        raise ValueError(f"{path}: header does not match the trace schema: {header}")
    return SimTrace(data.T, label or path.stem)
