import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import l1sim
from l1sim import emit_csv, emit_plots, load_csv
from l1sim.plots import MARGIN_L, MARGIN_R, WIDTH, _escape, _m4_indices, line_chart_svg
from oracle import reference_polylines
from test_metrics import make_trace

SVG = "{http://www.w3.org/2000/svg}"


def make_labeled_trace(label, n=50):
    t = np.linspace(0.0, 5.0, n)
    y = 1.0 - np.exp(-t)
    trace = make_trace(t, y, np.ones_like(t), u_a=-0.1 * y)
    trace.label = label
    return trace


def series_labels(path):
    root = ET.parse(path).getroot()
    return [el.get("data-label") for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]


def polyline_points(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    return [el.get("points") for el in root.iter(f"{SVG}polyline") if el.get("class") == "series"]


def chart_series(traces):
    """The output and adaptive series that ``emit_plots`` draws for the traces."""
    output = [("command", traces[0].t, traces[0].r)] + [(tr.label, tr.t, tr.y) for tr in traces]
    adaptive = [(tr.label, tr.t, tr.u_a[:, 0]) for tr in traces]
    return output, adaptive


def text_contents(path):
    root = ET.parse(path).getroot()
    return [el.text for el in root.iter(f"{SVG}text")]


class TestEmitPlots:
    def test_single_trace_output_chart(self, tmp_path):
        emit_plots([make_labeled_trace("demo")], tmp_path, "case")
        assert series_labels(tmp_path / "case__output.svg") == ["command", "demo"]

    def test_compare_overlay_three_curves(self, tmp_path):
        traces = [make_labeled_trace("original"), make_labeled_trace("modified")]
        emit_plots(traces, tmp_path, "cmp")
        assert series_labels(tmp_path / "cmp__output.svg") == ["command", "original", "modified"]

    def test_axis_labels_and_legend(self, tmp_path):
        emit_plots([make_labeled_trace("demo")], tmp_path, "case")
        texts = text_contents(tmp_path / "case__output.svg")
        assert "time [s]" in texts
        assert "output" in texts
        assert "demo" in texts  # legend entry

    def test_adaptive_chart_with_zero_signal(self, tmp_path):
        t = np.linspace(0.0, 2.0, 30)
        trace = make_trace(t, t, t)  # u_a identically zero
        trace.label = "off"
        emit_plots([trace], tmp_path, "quiet")
        path = tmp_path / "quiet__adaptive.svg"
        assert series_labels(path) == ["off"]
        assert path.read_text().startswith("<svg")

    def test_both_groups_default(self, tmp_path):
        paths = emit_plots([make_labeled_trace("demo")], tmp_path, "case")
        names = sorted(p.name for p in paths)
        assert names == ["case__adaptive.svg", "case__output.svg"]

    def test_empty_traces_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="trace"):
            emit_plots([], tmp_path, "case")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_series_rejected(self, bad, axis):
        values = np.array([bad, 1.0])
        sx, sy = (values, np.arange(2.0)) if axis == "x" else (np.arange(2.0), values)
        series = [("fine", np.arange(2.0), np.arange(2.0)), ("spoiled", sx, sy)]
        with pytest.raises(ValueError, match=f"series 'spoiled' has a non-finite {axis} value"):
            line_chart_svg(series, "t", "x", "y")

    @pytest.mark.parametrize("sx", [
        [1.0, 0.0],
        [0.0, 1.0, 2.0, 2.0, 1.999999],
        [0.0, 0.0, -5e-324],
        np.array([3, 4, 4, 2]),
        np.array([0.0, 1.0, 0.5], dtype=np.float32),
    ], ids=["two points", "after a repeat", "below zero", "int", "float32"])
    def test_decreasing_x_rejected(self, sx):
        sx = np.asarray(sx)
        series = [("fine", np.arange(3.0), np.arange(3.0)), ("spoiled", sx, np.zeros(sx.size))]
        with pytest.raises(ValueError, match="series 'spoiled' has a decreasing x value"):
            line_chart_svg(series, "t", "x", "y")


class TestPolylineBytes:
    """Block-formatted M4 polylines equal the per-point scalar reference."""

    def test_preset_charts_match_reference(self, preset_results):
        for name, result in preset_results.items():
            for series in chart_series([run.trace for run in result.runs]):
                svg = line_chart_svg(series, name, "time [s]", "value")
                assert polyline_points(svg) == reference_polylines(series), name

    def test_random_series_match_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            series = []
            for idx in range(rng.integers(1, 4)):
                n = int(rng.integers(1, 400))
                scale = 10.0 ** rng.uniform(-8.0, 8.0)
                sx = np.sort(rng.uniform(-1.0, 1.0, n)) * 10.0 ** rng.uniform(-8.0, 8.0)
                sy = scale * (rng.standard_normal(n) + rng.uniform(-10.0, 10.0))
                series.append((f"s{idx}", sx, sy))
            svg = line_chart_svg(series, "random", "x", "y")
            assert polyline_points(svg) == reference_polylines(series)

    def test_integer_and_single_precision_series(self):
        # the reference maps every point in float64, whatever the array dtype
        rng = np.random.default_rng(4)
        t = np.arange(4000)
        f32 = rng.standard_normal(4000).astype(np.float32)
        series = [("int", t, t * 3), ("f32", t.astype(np.float32), f32)]
        assert polyline_points(line_chart_svg(series, "d", "x", "y")) == reference_polylines(series)


PLOT_W = WIDTH - MARGIN_L - MARGIN_R


@st.composite
def monotone_series(draw):
    """A series non-decreasing in x with repeated x, flat runs of y and tied
    extremes, of 1 to 5 000 points, scaled by 1e-8 to 1e8, in one dtype."""
    n = draw(st.integers(1, 5000))
    dtype = draw(st.sampled_from([np.int64, np.float32, np.float64]))
    scale = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.cumsum(rng.choice([0.0, 1.0, 3.0, 400.0], n, p=[0.3, 0.5, 0.15, 0.05]))
    runs = np.cumsum(rng.random(n) < 0.1)  # flat runs of y at a few shared levels
    y = rng.integers(-3, 4, runs[-1] + 1)[runs].astype(float)
    noisy = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    y[noisy] += rng.standard_normal(int(noisy.sum()))
    x, y = x * scale, y * scale
    if dtype is np.int64:
        x, y = np.round(x), np.round(y)
    return x.astype(dtype), y.astype(dtype)


class TestM4:
    """Each pixel column keeps its first, last, least and greatest point."""

    @given(monotone_series())
    def test_columns_keep_their_extremes(self, xy):
        x, y = xy
        svg = line_chart_svg([("s", x, y)], "m4", "x", "y")
        assert polyline_points(svg) == reference_polylines([("s", x, y)])
        # any non-decreasing column map: here the columns of x over its own range
        xf, yf = np.asarray(x, float), np.asarray(y, float)
        span = xf[-1] - xf[0] if xf[-1] > xf[0] else 1.0
        col = np.clip(np.floor((xf - xf[0]) / span * PLOT_W), 0, PLOT_W - 1)
        keep = _m4_indices(col, yf)
        assert (np.diff(keep) > 0).all() and keep[0] == 0 and keep[-1] == x.size - 1
        for c in np.unique(col):
            every = np.flatnonzero(col == c)
            drawn = keep[col[keep] == c]
            assert drawn.size <= 4
            assert drawn[0] == every[0] and drawn[-1] == every[-1]
            assert yf[drawn].min() == yf[every].min() and yf[drawn].max() == yf[every].max()
        if np.unique(col).size == x.size:
            assert keep.tolist() == list(range(x.size))

    @pytest.mark.parametrize("n", [1, 2, 201, PLOT_W // 2])
    def test_one_point_per_column_is_drawn_whole(self, n):
        rng = np.random.default_rng(n)
        x, y = np.linspace(0.0, 0.2, n), rng.standard_normal(n)
        points = polyline_points(line_chart_svg([("s", x, y)], "whole", "x", "y"))[0]
        assert len(points.split()) == n

    def test_preset_traces_drawn_at_display_resolution(self, preset_results):
        trace = preset_results["uncertain-step-compare"].runs[0].trace
        for sy in (trace.r, trace.y, trace.u_a[:, 0]):
            points = polyline_points(line_chart_svg([("s", trace.t, sy)], "p", "x", "y"))[0]
            assert len(points.split()) <= 4 * PLOT_W < trace.n_samples


class TestPlatformBytes:
    def test_non_ascii_label_and_stem(self, tmp_path):
        paths = emit_plots([make_labeled_trace("régime β")], tmp_path, "essai-µ")
        for path in paths:
            data = path.read_bytes()
            assert b"\r" not in data
            root = ET.fromstring(data)  # no declaration: XML reads it as UTF-8
            assert "régime β" in [el.text for el in root.iter(f"{SVG}text")]
            assert "essai-µ:" in data.decode("utf-8")

    def test_markup_characters_in_label_and_stem_round_trip(self, tmp_path):
        # a label taken from a CSV file stem can hold a double quote, which
        # ends a data-label attribute unless escaped
        label = 'we"ird&<x>'
        emit_csv(make_labeled_trace("demo"), tmp_path / f"{label}.csv")
        paths = emit_plots([load_csv(tmp_path / f"{label}.csv")], tmp_path, 'st"em')
        for path in paths:
            assert label in series_labels(path)
            texts = text_contents(path)
            assert label in texts  # legend entry
            assert any(text.startswith('st"em: ') for text in texts)

    @pytest.mark.parametrize("text", ["a & b", "x<y>z", "&amp; &lt;", "régime β → ∞", ""])
    def test_escape_matches_saxutils_without_quotes(self, text):
        from xml.sax.saxutils import escape

        assert _escape(text) == escape(text)

    def test_bytes_do_not_follow_the_locale(self, tmp_path):
        # the same chart written under an ASCII locale, without UTF-8 mode
        script = (
            "import sys\n"
            "from l1sim import emit_plots\n"
            "from test_plots import make_labeled_trace\n"
            "emit_plots([make_labeled_trace('r\\u00e9gime \\u03b2')], sys.argv[1], 'case')\n"
        )
        src = str(Path(l1sim.__file__).parents[1])
        tests = str(Path(__file__).parent)
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.pathsep.join([src, tests]))
        env.pop("PYTHONUTF8", None)
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", script, str(tmp_path / "c")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        emit_plots([make_labeled_trace("régime β")], tmp_path / "here", "case")
        for group in ("output", "adaptive"):
            name = f"case__{group}.svg"
            assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
