import tracemalloc

import numpy as np
import pytest

from l1sim import (
    AugmentationConfig,
    EngineConfig,
    ReferenceSignal,
    SimTrace,
    build_scenario,
    compute_metrics,
    csv_header,
    emit_csv,
    load_csv,
    run_closed_loop,
    run_scenario,
)
from l1sim.traceio import BLOCK_ROWS
from oracle import SIGNALS, TRACE_FIELDS, reference_csv_text, trace_of
from test_fact_cache import sweep_documents
from test_metrics import make_trace

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, np.inf, -np.inf, 2.0**53, 1.0]


def random_trace(rows: int, n: int, seed: int, edge_share: float = 0.0) -> SimTrace:
    """Seeded trace of normal values over 40 decades, a share of them replaced
    by IEEE edge values."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        edge = rng.random(shape) < edge_share
        values[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
        return values

    x, x_hat = draw(rows, n), draw(rows, n)
    return trace_of(
        t=np.arange(rows) * 1e-3, r=draw(rows), y=draw(rows), y_m=draw(rows), u_a=draw(rows, 1),
        sigma1=draw(rows, 1), sigma2=draw(rows, n - 1), x=x, x_hat=x_hat,
    )


@pytest.fixture
def short_run(bench_uncertain_plant):
    sig = ReferenceSignal(kind="step", onset=0.2, amplitude=1.0)
    trace = run_closed_loop(
        bench_uncertain_plant, AugmentationConfig(law="modified"), sig, EngineConfig(t_end=1.0)
    )
    return trace, sig


class TestSchema:
    def test_header_for_benchmark_dimensions(self):
        assert csv_header(2) == "t,r,y,y_M,u_a,sigma1_1,sigma2_1,x_1,x_2,xhat_1,xhat_2"

    def test_column_count_benchmark(self):
        assert len(csv_header(2).split(",")) == 11

    def test_multi_state_header(self):
        cols = csv_header(3).split(",")
        assert cols == [
            "t", "r", "y", "y_M", "u_a",
            "sigma1_1", "sigma2_1", "sigma2_2",
            "x_1", "x_2", "x_3", "xhat_1", "xhat_2", "xhat_3",
        ]

    def test_three_samples_four_lines(self, tmp_path):
        t = np.array([0.0, 0.1, 0.2])
        trace = make_trace(t, t, t)
        path = emit_csv(trace, tmp_path / "mini.csv")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4

    def test_row_width_matches_header(self, tmp_path, short_run):
        trace, _sig = short_run
        path = emit_csv(trace, tmp_path / "run.csv")
        lines = path.read_text().strip().split("\n")
        width = len(lines[0].split(","))
        assert width == 11
        assert all(len(line.split(",")) == width for line in lines[1:])


class TestRoundTrip:
    def test_arrays_bit_exact(self, tmp_path, short_run):
        trace, _sig = short_run
        path = emit_csv(trace, tmp_path / "run.csv")
        back = load_csv(path)
        for name in ("t", "r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "x_tilde"):
            assert np.array_equal(getattr(trace, name), getattr(back, name)), name

    def test_metrics_preserved(self, tmp_path, short_run):
        trace, sig = short_run
        before = compute_metrics(trace, sig)
        back = load_csv(emit_csv(trace, tmp_path / "run.csv"))
        after = compute_metrics(back, sig)
        for field in (
            "steady_state_error",
            "tracking_error_l2",
            "peak_u_a",
            "overshoot_pct",
            "settling_time_2pct",
            "rise_time_10_90",
            "tracking_lag",
        ):
            a, b = getattr(before, field), getattr(after, field)
            if a is None:
                assert b is None
            else:
                assert abs(a - b) <= 1e-15, field

    def test_17_digit_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        t = np.arange(5) * 1e-3
        y = rng.standard_normal(5) * np.pi
        trace = make_trace(t, y, y)
        back = load_csv(emit_csv(trace, tmp_path / "digits.csv"))
        assert np.array_equal(back.y, y)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="schema"):
            load_csv(path)

    def test_short_rows_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(csv_header(2) + "\n" + ",".join(["1"] * 10) + "\n")
        with pytest.raises(ValueError, match="row width 10 does not match header 11$"):
            load_csv(path)

    def test_rule_breaking_file_loads_and_metrics_refuse_it(self, tmp_path, short_run):
        """load_csv reads a non-finite t; the trace rule is checked where the
        trace is used."""
        trace, sig = short_run
        path = emit_csv(trace, tmp_path / "run.csv")
        lines = path.read_text().split("\n")
        lines[3] = "nan" + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines))
        back = load_csv(path)
        assert np.isnan(back.t[2])
        with pytest.raises(ValueError, match="^trace has a non-finite t value$"):
            compute_metrics(back, sig)

    @pytest.mark.parametrize("header", [
        # the right names, x before sigma2
        "t,r,y,y_M,u_a,sigma1_1,x_1,x_2,sigma2_1,xhat_1,xhat_2",
        # two inputs
        "t,r,y,y_M,u_a_1,u_a_2,sigma1_1,sigma1_2,sigma2_1,x_1,x_2,x_3,xhat_1,xhat_2,xhat_3",
    ])
    def test_other_layouts_rejected(self, tmp_path, header):
        path = tmp_path / "other.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ",".join(["1"] * width) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_csv(path)

    def test_one_state_round_trip(self, tmp_path):
        trace = random_trace(40, n=1, seed=3)
        path = emit_csv(trace, tmp_path / "one.csv")
        assert path.read_text().split("\n", 1)[0] == "t,r,y,y_M,u_a,sigma1_1,x_1,xhat_1"
        back = load_csv(path)
        for name in ("t",) + TRACE_FIELDS:
            got, want = getattr(back, name), getattr(trace, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestTraceArray:
    """A trace is its CSV block: every named signal is a view of ``values``,
    whose rows are the CSV's columns in ``csv_header`` order."""

    @staticmethod
    def check(trace, path):
        for name in SIGNALS:
            assert np.shares_memory(getattr(trace, name), trace.values), name
        emit_csv(trace, path)
        columns = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        assert columns.shape == trace.values.shape
        assert columns.tobytes() == trace.values.tobytes()

    def test_preset_runs(self, tmp_path, preset_results):
        for name, result in preset_results.items():
            for run in result.runs:
                self.check(run.trace, tmp_path / f"{name}__{run.label}.csv")

    def test_sweep_documents(self, tmp_path):
        for doc in sweep_documents()[:10]:
            self.check(run_scenario(build_scenario(doc)).trace, tmp_path / f"{doc['name']}.csv")

    def test_reload_is_a_transposed_view_with_the_same_bytes(self, tmp_path, short_run):
        trace, _sig = short_run
        path = emit_csv(trace, tmp_path / "run.csv")
        back = load_csv(path)
        assert back.values.base is not None and back.values.T.flags.c_contiguous
        assert emit_csv(back, tmp_path / "back.csv").read_bytes() == path.read_bytes()


class TestByteFormat:
    """The block formatter writes the bytes of the per-value reference writer."""

    def test_preset_csvs_match_reference(self, tmp_path, preset_results):
        for name, result in preset_results.items():
            for run in result.runs:
                path = emit_csv(run.trace, tmp_path / f"{name}__{run.label}.csv")
                want = reference_csv_text(run.trace).encode()
                assert path.read_bytes() == want, (name, run.label)

    # no rows, one row, one whole 256-row block, a partial third block; n states
    # give m = 1 input column and k = n - 1 unmatched columns
    @pytest.mark.parametrize("rows, n, m, k", [(0, 4, 1, 3), (1, 4, 1, 3), (256, 4, 1, 3),
                                               (515, 4, 1, 3)])
    def test_edge_values_match_reference(self, tmp_path, rows, n, m, k):
        trace = random_trace(rows, n, seed=rows, edge_share=0.3)
        path = emit_csv(trace, tmp_path / "edge.csv")
        data = path.read_bytes()
        assert data == reference_csv_text(trace).encode()
        header = data.split(b"\n", 1)[0].decode().split(",")
        assert header.count("u_a") == m and sum(c.startswith("sigma2_") for c in header) == k
        if rows > 1:  # every edge value is written
            for token in (b"-0,", b"4.9406564584124654e-324", b"-1.797e+308", b"-inf",
                          b"9007199254740992"):
                assert token in data, token
        back = load_csv(path)  # a 0-row file is the header alone, and loads as 0 samples
        with np.errstate(over="ignore", invalid="ignore"):  # x_tilde of edge values
            for name in ("t",) + TRACE_FIELDS:
                got, want = getattr(back, name), getattr(trace, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_edge_trace_round_trip_bit_exact(self, tmp_path):
        trace = random_trace(515, n=4, seed=7, edge_share=0.3)
        back = load_csv(emit_csv(trace, tmp_path / "edge.csv"))
        with np.errstate(over="ignore", invalid="ignore"):  # x_tilde of edge values
            for name in ("t",) + TRACE_FIELDS:
                got, want = getattr(back, name), getattr(trace, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_no_carriage_returns_and_ascii(self, tmp_path):
        path = emit_csv(random_trace(50, n=2, seed=1), tmp_path / "essai-µ.csv")
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.decode("ascii") == reference_csv_text(load_csv(path))


def _nan_payloads(rows: int) -> np.ndarray:
    return (np.uint64(0x7FF8000000000001) + np.arange(rows, dtype=np.uint64)).view(np.float64)


def _zeros_with_one_negative(rows: int) -> np.ndarray:
    values = np.zeros(rows)
    values[rows // 2] = -0.0
    return values


def _constant_but_each_blocks_last(rows: int) -> np.ndarray:
    values = np.full(rows, 1.5)
    values[BLOCK_ROWS - 1 :: BLOCK_ROWS] = 2.5
    values[-1] = 2.5
    return values


# column values that a block holds; the block formatter must write them as the
# per-value writer does whether or not it takes the column for constant
COLUMNS = {
    "all -0.0": lambda rows: np.full(rows, -0.0),
    "0.0 with one -0.0": _zeros_with_one_negative,
    "-0.0 with one 0.0": lambda rows: -_zeros_with_one_negative(rows),
    "all NaN": lambda rows: np.full(rows, np.nan),
    "NaN of distinct payloads": _nan_payloads,
    "all inf": lambda rows: np.full(rows, np.inf),
    "all -inf": lambda rows: np.full(rows, -np.inf),
    "all subnormal": lambda rows: np.full(rows, 5e-324),
    "constant but each block's last row": _constant_but_each_blocks_last,
}


class TestConstantColumns:
    """A column bit-identical down a block is formatted once, to the same bytes."""

    # one row, a whole block and a 1-row block, two blocks and a partial third
    @pytest.mark.parametrize("rows", [1, 257, 515])
    @pytest.mark.parametrize("column", COLUMNS.values(), ids=COLUMNS.keys())
    def test_column_matches_reference(self, tmp_path, rows, column):
        trace = random_trace(rows, n=2, seed=rows)
        trace.y = column(rows)
        trace.x[:, 1] = column(rows)
        path = emit_csv(trace, tmp_path / "column.csv")
        assert path.read_bytes() == reference_csv_text(trace).encode()

    @pytest.mark.parametrize("rows", [1, 257, 515])
    def test_all_constant_blocks_match_reference(self, tmp_path, rows):
        values = iter(EDGE_VALUES + [np.nan, 0.1, -3.0])
        trace = random_trace(rows, n=2, seed=rows)
        for row in trace.values:
            row[...] = next(values)
        path = emit_csv(trace, tmp_path / "constant.csv")
        assert path.read_bytes() == reference_csv_text(trace).encode()


class TestMemory:
    def test_emit_peak_below_quarter_of_file(self, tmp_path):
        # the preset trace shape: 10 001 samples of 11 columns
        trace = random_trace(10_001, n=2, seed=11)
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            emit_csv(trace, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_000_000
        assert peak < size / 4, f"peak {peak} B for a {size} B file"
