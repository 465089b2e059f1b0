import xml.etree.ElementTree as ET

import numpy as np
import pytest

from l1sim import emit_plots
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
