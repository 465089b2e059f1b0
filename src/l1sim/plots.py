"""Self-contained SVG line charts for trace inspection.

Hand-written vector output keeps the toolchain free of any rendering
dependency; the CSV files remain the data of record.  Files are UTF-8 with
``\n`` line ends on every platform.

A polyline's pixel coordinates are computed for the whole series at once
with the same elementwise float64 expressions as the axis ticks, so each
point is bit-equal to the scalar arithmetic, and all its points are
formatted by one ``%`` of a repeated ``%.2f,%.2f`` template.

Charts are drawn at display resolution by M4 decimation (Jugel, Jerzak,
Hackenbroich & Markl, PVLDB 7(10), 2014): of the points that fall in one
pixel column of the plot, only the first, the last and the first minimum and
first maximum of y are drawn, which rasterizes as the full line does at that
width.  A series with at most one point per column is drawn whole.  The axis
ranges and ticks still come from every point.

Text and attribute values are escaped by ``_escape``, not by ``xml.sax``,
whose import pulls in ``urllib``, ``http``, ``email`` and ``ssl``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import SimTrace, check_series

WIDTH, HEIGHT = 880, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 48, 56
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf"]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        lo, hi = lo - 1.0, hi + 1.0
    raw = (hi - lo) / max(target, 2)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(v) for v in ticks]


def _escape(text: str) -> str:
    """XML-escape text or a double-quoted attribute value: ``&``, ``<`` and
    ``>`` in that order, as ``xml.sax``'s ``escape`` does, plus ``"``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _m4_indices(col: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the first, last, first-minimum and first-maximum point of
    each run of equal non-decreasing ``col``, in index order, each once."""
    n = col.size
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    lengths = np.diff(starts, append=n)
    index = np.arange(n)
    keep = np.zeros(n, bool)
    keep[starts] = keep[starts + lengths - 1] = True
    for reduce in (np.minimum, np.maximum):
        hits = y == np.repeat(reduce.reduceat(y, starts), lengths)
        keep[np.minimum.reduceat(np.where(hits, index, n), starts)] = True
    return np.flatnonzero(keep)  # not np.unique, whose first call imports numpy.ma


def line_chart_svg(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render labeled (x, y) series as one SVG chart with axes and a legend.

    Each series keeps the trace rule (``check_series``), its x as time: the
    M4 decimation takes a pixel column's points to be one run.
    """
    if not series:
        raise ValueError("at least one series is required")
    for label, sx, sy in series:
        check_series(f"series {label!r}", "x", sx, y=sy)
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

    # scalars for the ticks, float64 arrays for the series
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text class="title" x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-size="16">{_escape(title)}</text>',
    ]
    for xt in _nice_ticks(x_lo, x_hi):
        gx = px(xt)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{MARGIN_T}" x2="{gx:.2f}" y2="{MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle">{_fmt(xt)}</text>'
        )
    for yt in _nice_ticks(y_lo, y_hi):
        gy = py(yt)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{gy:.2f}" x2="{MARGIN_L + plot_w}" y2="{gy:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{gy + 4:.2f}" text-anchor="end">{_fmt(yt)}</text>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    parts.append(
        f'<text class="xlabel" x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text class="ylabel" x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
    )
    for idx, (label, sx, sy) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        gx, fy = px(np.asarray(sx, float)), np.asarray(sy, float)
        col = np.clip(np.floor(gx - MARGIN_L), 0, plot_w - 1)
        keep = _m4_indices(col, fy)
        xy = np.column_stack((gx[keep], py(fy[keep])))
        pts = " ".join(["%.2f,%.2f"] * xy.shape[0]) % tuple(xy.ravel().tolist())
        parts.append(
            f'<polyline class="series" data-label="{_escape(str(label))}" points="{pts}" '
            f'fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
    legend_x = MARGIN_L + plot_w - 170
    legend_y = MARGIN_T + 12
    parts.append(
        f'<rect class="legend" x="{legend_x - 10}" y="{legend_y - 14}" width="176" '
        f'height="{18 * len(series) + 10}" fill="white" fill-opacity="0.85" stroke="#999999"/>'
    )
    for idx, (label, _, _) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        ly = legend_y + idx * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text class="legend-label" x="{legend_x + 32}" y="{ly + 4}">{_escape(str(label))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_plots(traces: Sequence[SimTrace], out_dir, stem: str) -> list[Path]:
    """Write the output and adaptive charts; returns the written paths.

    ``output`` overlays the command and every trace's output; ``adaptive``
    overlays every trace's adaptive input.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    output = [("command", traces[0].t, traces[0].r)]
    output += [(tr.label or "output", tr.t, tr.y) for tr in traces]
    adaptive = [(tr.label or "u_a", tr.t, tr.u_a[:, 0]) for tr in traces]
    output_svg = line_chart_svg(output, f"{stem}: output tracking", "time [s]", "output")
    adaptive_svg = line_chart_svg(
        adaptive, f"{stem}: adaptive control signal", "time [s]", "adaptive input"
    )
    written: list[Path] = []
    for group, svg in (("output", output_svg), ("adaptive", adaptive_svg)):
        target = out_dir / f"{stem}__{group}.svg"
        target.write_text(svg, encoding="utf-8", newline="\n")
        written.append(target)
    return written
