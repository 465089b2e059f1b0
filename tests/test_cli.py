import os
import subprocess
import sys
from pathlib import Path

import yaml

import l1sim
from l1sim.cli import main

SCENARIO = {
    "plant": {"preset": "paper-siso"},
    "uncertainty": {"matched": [0.05], "unmatched": [0.001], "onset": 0.5},
    "reference": {"kind": "step", "onset": 0.5, "amplitude": 1.0},
    "controller": {"law": "modified"},
    "engine": {"t_end": 2.0},
}


def write_scenario(tmp_path, name="case.yaml", body=SCENARIO):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(body))
    return path


class TestRunCommand:
    def test_preset_with_outputs(self, tmp_path, capsys):
        code = main(
            ["run", "--preset", "nominal-step", "--out", str(tmp_path), "--csv", "--plots"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "nominal-step" in captured.out
        assert (tmp_path / "nominal-step__off.csv").exists()
        assert (tmp_path / "nominal-step__output.svg").exists()
        assert (tmp_path / "nominal-step__adaptive.svg").exists()

    def test_scenario_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["run", str(path), "--out", str(tmp_path), "--csv"])
        assert code == 0
        assert (tmp_path / "case__modified.csv").exists()
        assert "law=modified" in capsys.readouterr().out

    def test_law_override_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["run", str(path), "--law", "matched-only", "--out", str(tmp_path)])
        assert code == 0
        assert "law=matched_only" in capsys.readouterr().out

    def test_scenario_output_section_honored(self, tmp_path):
        body = dict(SCENARIO, output={"csv": True})
        path = write_scenario(tmp_path, "withcsv.yaml", body)
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "withcsv__modified.csv").exists()

    def test_compare_preset_writes_both(self, tmp_path):
        code = main(
            ["run", "--preset", "uncertain-step-compare", "--out", str(tmp_path), "--csv"]
        )
        assert code == 0
        assert (tmp_path / "uncertain-step-compare__original.csv").exists()
        assert (tmp_path / "uncertain-step-compare__modified.csv").exists()

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        assert main(["run"]) == 1
        path = write_scenario(tmp_path)
        assert main(["run", str(path), "--preset", "nominal-step"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = dict(SCENARIO, controller={"law": "original"})
        bad["plant"] = {
            "A": [[-9.0, -26.0, -24.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "B1": [[1.0], [0.0], [0.0]],
            "C": [[0.0, 1.0, -1.0]],
        }
        bad["uncertainty"] = {"matched": [0.05], "unmatched": [0.001, 0.001]}
        path = write_scenario(tmp_path, "bad.yaml", bad)
        assert main(["run", str(path)]) == 1
        assert "open left half plane" in capsys.readouterr().err

    def test_missing_file_diagnostic(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "ghost.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        runaway = {
            "plant": {"A": [[500.0]], "B1": [[1.0]], "C": [[1.0]]},
            "reference": {"kind": "step", "onset": 0.0, "amplitude": 1.0},
            "controller": {"law": "off"},
            "engine": {"t_end": 3.0},
        }
        path = write_scenario(tmp_path, "runaway.yaml", runaway)
        assert main(["run", str(path)]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_bad_substeps_exit_code(self, tmp_path, capsys):
        body = dict(SCENARIO, engine={"t_end": 2.0, "substeps_per_sample": "abc"})
        path = write_scenario(tmp_path, "substeps.yaml", body)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: engine.substeps_per_sample must be an integer")
        assert "Traceback" not in err

    def test_step_onset_after_horizon_exit_code(self, tmp_path, capsys):
        body = dict(SCENARIO, reference={"kind": "step", "onset": 5.0, "amplitude": 1.0})
        path = write_scenario(tmp_path, "late.yaml", body)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: reference.onset")


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second of every fresh-interpreter run
    src = str(Path(l1sim.__file__).resolve().parents[1])
    code = "import sys, l1sim.cli; print('scipy.signal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_csv_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # the engine's whole-trace products go through BLAS gemm, which splits
    # long traces between threads; the trace bytes must not depend on that
    src = str(Path(l1sim.__file__).resolve().parents[1])
    names = ["uncertain-step-compare__original.csv", "uncertain-step-compare__modified.csv"]
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-m", "l1sim.cli", "run", "--preset", "uncertain-step-compare",
             "--csv", "--out", str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
