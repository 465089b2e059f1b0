import ast
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


# modules no run needs at import: PyYAML, hashlib and json load on first use,
# and the rest is the network chain that xml.sax.saxutils pulls in
DEFERRED = ("yaml", "hashlib", "json")
NETWORK_AND_XML = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")


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
        code = main(["run", "--preset", "uncertain-step-off", "--law", "matched-only",
                     "--out", str(tmp_path), "--csv"])
        assert code == 0
        assert (tmp_path / "uncertain-step-off__matched_only.csv").exists()

    def test_name_cannot_leave_the_output_directory(self, tmp_path, capsys):
        (tmp_path / "in").mkdir()
        path = write_scenario(tmp_path / "in", body=dict(SCENARIO, name="../escaped"))
        assert main(["run", str(path), "--csv", "--plots", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: name '../escaped' must be a file name")
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("in"), Path("in/case.yaml")
        ]

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

    def test_off_grid_command_onset_exit_code(self, tmp_path, capsys):
        body = dict(SCENARIO, reference={"kind": "step", "onset": 0.0025, "amplitude": 1.0})
        path = write_scenario(tmp_path, "onset.yaml", body)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: reference.onset = 0.0025 must be a whole number")
        assert "Traceback" not in err

    def test_unreadable_scenario_file_exit_code(self, tmp_path, capsys):
        not_utf8 = tmp_path / "latin1.yaml"
        not_utf8.write_bytes(
            "# gr\u00f6\u00dfe\n".encode("latin-1") + yaml.safe_dump(SCENARIO).encode()
        )
        for path, reason in ((tmp_path, "Is a directory"), (not_utf8, "can't decode byte 0xf6")):
            assert main(["run", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read scenario file {path}: ")
            assert reason in err
            assert "Traceback" not in err

    def test_over_deep_scenario_file_exit_code(self, tmp_path, capsys):
        levels = 10_000
        deep = "[" * levels + "1.0" + "]" * levels
        bodies = {
            "name": f"name: {deep}\n",
            "plant.A": f"plant: {{A: {deep}}}\n",
            "controller.law": f"controller: {{law: {deep}}}\n",
            "bogus": f"bogus: {deep}\n",
        }
        for where, body in bodies.items():
            path = tmp_path / "deep.yaml"
            rest = {key: value for key, value in SCENARIO.items() if key != where.split(".")[0]}
            path.write_text(body + yaml.safe_dump(rest))
            assert main(["run", str(path)]) == 1, where
            err = capsys.readouterr().err
            assert err == f"error: {path} nests lists or mappings more than 100 levels deep\n"

    def test_nesting_past_the_c_stack_exit_code(self, tmp_path):
        # libyaml's composer recurses on the C stack with no depth check: at
        # 100 000 levels it would overrun an 8 MB stack, so the depth is
        # counted before anything is composed
        path = tmp_path / "deep.yaml"
        path.write_text("name: " + "[" * 100_000 + "]" * 100_000 + "\n" + yaml.safe_dump(SCENARIO))
        src = str(Path(l1sim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "l1sim.cli", "run", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: {path} nests lists or mappings more than 100 levels deep\n"

    def test_scenario_file_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        path = tmp_path / "utf8.yaml"
        path.write_bytes("# \u03c3 and \u00fc\n".encode() + yaml.safe_dump(SCENARIO).encode())
        src = str(Path(l1sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "l1sim.cli", "run", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "law=modified" in proc.stdout

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        blocked = tmp_path / "blocked"
        (blocked / "nominal-step__off.csv").mkdir(parents=True)
        for out, path in ((taken, taken), (blocked, blocked / "nominal-step__off.csv")):
            code = main(["run", "--preset", "nominal-step", "--csv", "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(f"error: cannot write {path}: ")
            assert "Traceback" not in err

    def test_non_ascii_name_under_an_ascii_stdout(self, tmp_path):
        # the report escapes what stdout cannot encode, as stderr does; an output
        # name that the file system encoding cannot hold is a write error
        path = write_scenario(tmp_path, body=dict(SCENARIO, name="caf\u00e9 \u03c3"))
        src = str(Path(l1sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0")
        cmd = [sys.executable, "-X", "utf8=0", "-m", "l1sim.cli", "run", str(path),
               "--out", str(tmp_path)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("scenario: caf\\xe9 \\u03c3\nlaw=modified ")
        proc = subprocess.run(cmd + ["--csv"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        target = tmp_path / "caf\\xe9 \\u03c3__modified.csv"
        assert proc.stderr.startswith(f"error: cannot write {target}: "), proc.stderr
        assert "Traceback" not in proc.stderr

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


def test_cli_run_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: a whole run with both outputs must not import it
    src = str(Path(l1sim.__file__).resolve().parents[1])
    path = write_scenario(tmp_path)
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
        "                                     if m.split('.')[0] == 'scipy')))\n"
        "runpy.run_module('l1sim.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", str(path), "--csv", "--plots", "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "case__modified.csv").exists()
    assert (tmp_path / "case__output.svg").exists()
    assert proc.stdout.splitlines()[-1] == "[]"


def watched_modules_loaded(script, *args):
    """Which of DEFERRED and NETWORK_AND_XML a child interpreter loads running
    ``script``, beyond what a bare ``import numpy`` loads."""
    src = str(Path(l1sim.__file__).resolve().parents[1])
    code = (
        "import atexit, sys, numpy\n"
        "base = set(sys.modules)\n"
        "atexit.register(lambda: print(sorted(set(sys.modules) - base)))\n" + script
    )
    proc = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout.splitlines()[-1])
    return {name for name in DEFERRED + NETWORK_AND_XML
            if any(m == name or m.startswith(name + ".") for m in added)}


def test_import_loads_no_deferred_or_network_module():
    assert watched_modules_loaded("import l1sim, l1sim.cli\n") == set()


def test_cli_file_run_loads_yaml_but_no_network_module(tmp_path):
    path = write_scenario(tmp_path)
    loaded = watched_modules_loaded(
        "import runpy\nrunpy.run_module('l1sim.cli', run_name='__main__', alter_sys=True)\n",
        "run", str(path), "--csv", "--plots", "--out", str(tmp_path),
    )
    assert (tmp_path / "case__output.svg").exists()
    assert "yaml" in loaded
    assert loaded.isdisjoint(NETWORK_AND_XML)


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
