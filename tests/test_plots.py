import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import l1sim
from l1sim import emit_csv, emit_plots, load_csv
from l1sim.plots import _escape, line_chart_svg
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
    adaptive = [(tr.label, tr.t, tr.u_a[:, ch]) for tr in traces for ch in range(tr.u_a.shape[1])]
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


class TestPolylineBytes:
    """Block-formatted polylines equal the per-point scalar reference."""

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
