import copy
import dataclasses
import re
from functools import partial

import numpy as np
import pytest

from l1sim import (
    ConfigError,
    PRESETS,
    PresetResult,
    ReferenceSignal,
    RunResult,
    SimTrace,
    adaptation_gain,
    build_scenario,
    compute_metrics,
    format_report,
    load_scenario,
    preset_names,
    run_preset,
    run_scenario,
    scenario_fingerprint,
)
from l1sim import engine as engine_module
from l1sim import scenario as scenario_module
from l1sim import statespace
from l1sim.metrics import steady_mask

BASE_DOC = {
    "name": "case",
    "plant": {"preset": "paper-siso"},
    "uncertainty": {"matched": [0.05], "unmatched": [0.001], "onset": 2.0},
    "reference": {"kind": "step", "onset": 2.0, "amplitude": 1.0},
    "controller": {"law": "modified"},
    "engine": {"t_end": 2.5},
}

NMP_DOC = {
    "plant": {
        "A": [[-9.0, -26.0, -24.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "B1": [[1.0], [0.0], [0.0]],
        "C": [[0.0, 1.0, -1.0]],
    },
    "uncertainty": {"matched": [0.05], "unmatched": [0.001, 0.001], "onset": 2.0},
    "reference": {"kind": "step", "onset": 2.0, "amplitude": 1.0},
    "controller": {"law": "original"},
    "engine": {"t_end": 10.0},
}


def doc(**overrides):
    d = copy.deepcopy(BASE_DOC)
    for key, val in overrides.items():
        if isinstance(val, dict):
            d[key] = {**d[key], **val}
        else:
            d[key] = val
    return d


class TestBuildScenario:
    def test_preset_plant_expansion(self):
        sc = build_scenario(doc())
        assert sc.plant.k_ff == pytest.approx(0.025, rel=1e-12)
        np.testing.assert_allclose(sc.plant.A, [[-10.0, -50.0], [1.0, 0.0]])
        np.testing.assert_allclose(sc.plant.B2, [[0.0], [1.0]], atol=1e-14)

    def test_nmp_plant_gated_by_law(self):
        with pytest.raises(ConfigError, match="open left half plane"):
            build_scenario(copy.deepcopy(NMP_DOC))
        ok = build_scenario(copy.deepcopy(NMP_DOC), law_override="modified")
        assert ok.augmentation.law == "modified"

    def test_unknown_keys_named(self):
        with pytest.raises(ConfigError, match="plant.bogus"):
            build_scenario(doc(plant={"preset": "paper-siso", "bogus": 1}))
        with pytest.raises(ConfigError, match="scenario.extra"):
            build_scenario({**doc(), "extra": {}})

    def test_dimension_errors_named(self):
        with pytest.raises(ConfigError, match="uncertainty.matched"):
            build_scenario(doc(uncertainty={"matched": [1.0, 2.0]}))
        with pytest.raises(ConfigError, match="unmatched"):
            build_scenario(doc(uncertainty={"unmatched": [1.0, 2.0]}))

    def test_unstable_error_dynamics_rejected(self):
        bad = doc(controller={"law": "modified", "L_p": [[20.0, 50.0], [-1.0, 10.0]]})
        with pytest.raises(ConfigError, match="Hurwitz"):
            build_scenario(bad)

    def test_missing_sections_named(self):
        with pytest.raises(ConfigError, match="reference"):
            build_scenario({k: v for k, v in doc().items() if k != "reference"})
        with pytest.raises(ConfigError, match="controller.law"):
            build_scenario(doc(controller={"law": None}))

    def test_law_override(self):
        sc = build_scenario(doc(), law_override="off")
        assert sc.augmentation.law == "off"

    def test_hyphenated_law_accepted(self):
        sc = build_scenario(doc(controller={"law": "matched-only"}))
        assert sc.augmentation.law == "matched_only"

    def test_output_defaults(self):
        sc = build_scenario(doc())
        assert not sc.write_csv and not sc.write_plots
        sc = build_scenario({**doc(), "output": {"csv": True, "plots": True}})
        assert sc.write_csv and sc.write_plots
        with pytest.raises(ConfigError, match="output.pdf"):
            build_scenario({**doc(), "output": {"pdf": True}})
        for key in ("csv", "plots"):
            with pytest.raises(ConfigError, match=f"output.{key} must be true or false"):
                build_scenario({**doc(), "output": {key: "no"}})

    def test_document_name_wins_over_fallback(self):
        sc = build_scenario(doc(), name="fallback")
        assert sc.name == "case"
        unnamed = {k: v for k, v in doc().items() if k != "name"}
        assert build_scenario(unnamed, name="fallback").name == "fallback"

    def test_substeps_per_sample_not_coerced(self):
        for bad in (1.5, "abc", "2", True):
            with pytest.raises(ConfigError, match="engine.substeps_per_sample"):
                build_scenario(doc(engine={"substeps_per_sample": bad}))
        assert build_scenario(doc(engine={"substeps_per_sample": 2.0})).engine.substeps_per_sample == 2

    def test_rejections_name_the_key_once(self):
        cases = [
            (doc(reference={"onset": "abc"}), "^reference.onset must be a number"),
            (doc(reference={"kind": "impulse"}), "^reference.kind"),
            (doc(uncertainty={"onset": -1.0}), "^uncertainty.onset must be >= 0"),
            (doc(uncertainty={"matched": ["x"]}), "^uncertainty.matched is not a numeric"),
            (doc(plant={"preset": "paper-siso", "A": [[1.0, 2.0, 3.0]]}), "^plant.A must be square"),
            (doc(plant={"preset": "paper-siso", "C": [[0.0, float("nan")]]}), "^plant.C has non-finite"),
            (doc(controller={"law": "modified", "L_p": [["a"]]}), "^controller.L_p is not a numeric"),
            (doc(controller={"law": "modified", "sample_period": "fast"}),
             "^controller.sample_period must be a number"),
            (doc(engine={"t_end": float("inf")}), "^engine.t_end must be finite"),
            (doc(plant={"preset": ["paper-siso"]}), r"^plant.preset \['paper-siso'\] is unknown"),
            (doc(plant={"preset": {"name": "paper-siso"}}), "^plant.preset {'name': 'paper-siso'}"),
            (doc(controller={"law": "modified", "sample_period": True}),
             "^controller.sample_period must be a number, got True$"),
            (doc(uncertainty={"matched": [10**400]}), "^uncertainty.matched is beyond the float range$"),
            (doc(engine={"t_end": 10**400}), "^engine.t_end is beyond the float range$"),
            (doc(plant={"preset": "paper-siso", "A": 10**400}), "^plant.A is beyond the float range$"),
        ]
        for bad, pattern in cases:
            with pytest.raises(ConfigError, match=pattern):
                build_scenario(bad)

    def test_command_onset_off_the_sample_grid_rejected(self):
        # 2.5 T: the command, like the disturbances, acts over whole samples
        with pytest.raises(ConfigError, match=r"^reference\.onset = 0\.0025 must be a whole number "
                                              r"of sample periods \(controller\.sample_period = 0\.001\)"):
            build_scenario(doc(reference={"onset": 0.0025}))
        assert build_scenario(doc(reference={"onset": 0.003})).signal.onset == 0.003

    @pytest.mark.parametrize("section, key",
                             [("uncertainty", "onset"), ("engine", "t_end"), ("reference", "onset")])
    def test_time_past_the_float_range_in_periods_is_off_the_grid(self, section, key):
        # 1e308 / 1e-3 overflows to inf, which no whole number of periods equals
        with pytest.raises(ConfigError, match=rf"^{section}.{key} = 1e\+308 must be a whole number "
                                              r"of sample periods \(controller.sample_period = "):
            build_scenario(doc(**{section: {key: 1e308}}))

    def test_omitted_uncertainty_is_zero(self):
        sc = build_scenario({**doc(), "uncertainty": {}})
        np.testing.assert_array_equal(sc.plant.f1, [0.0])
        np.testing.assert_array_equal(sc.plant.f2, [0.0])
        assert sc.plant.onset == 0.0

    def test_loop_compiled_once_at_build(self, monkeypatch):
        sc = build_scenario(doc(controller={"law": "original"}, reference={"onset": 0.5}))
        assert sc.loop.plant is sc.plant and sc.loop.config is sc.augmentation
        calls = []
        expm = statespace._expm

        def counting_expm(*args, **kwargs):
            calls.append(1)
            return expm(*args, **kwargs)

        monkeypatch.setattr(statespace, "_expm", counting_expm)
        run_scenario(sc)
        assert calls == []
        build_scenario(doc(controller={"law": "original"}))
        assert calls  # the counter sees the exponentials of a build

    def test_run_integrates_nothing(self, monkeypatch):
        sc = build_scenario(
            doc(controller={"law": "original"}, engine={"t_end": 2.0, "substeps_per_sample": 4})
        )
        calls = []
        rk4_step = engine_module.rk4_step

        def counting_rk4_step(*args, **kwargs):
            calls.append(1)
            return rk4_step(*args, **kwargs)

        monkeypatch.setattr(engine_module, "rk4_step", counting_rk4_step)
        run_scenario(sc)
        assert calls == []

    def test_engine_alignment_checked_at_load(self):
        with pytest.raises(ConfigError, match="engine.t_end = 0.0105 must be a whole number"):
            build_scenario(doc(engine={"t_end": 0.0105}))

    def test_step_onset_past_horizon_rejected_at_load(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scenario_module, "compile_loop", lambda *a: calls.append(1))
        message = "^reference.onset must not be after engine.t_end for step metrics$"
        with pytest.raises(ConfigError, match=message):
            build_scenario(doc(reference={"onset": 2.501}))
        assert calls == []  # rejected before any set-up work
        monkeypatch.undo()
        # an onset at the last sample is inside the trace, and a ramp has no step metrics
        run_scenario(build_scenario(doc(reference={"onset": 2.5})))
        run_scenario(build_scenario(doc(reference={"kind": "ramp", "onset": 3.0, "gradient": 1.0})))


PAPER_A = [[-10.0, -50.0], [1.0, 0.0]]
DIAG_A = [[-1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]]
E1 = [[1.0], [0.0], [0.0]]
ONES = [[1.0, 1.0, 1.0]]


def build_short(plant: dict, **controller):
    """A build of a 10-sample step scenario under ``modified``, to call later."""
    document = {
        "plant": plant,
        "reference": {"kind": "step", "onset": 0.0, "amplitude": 1.0},
        "controller": {"law": "modified", **controller},
        "engine": {"t_end": 0.01},
    }
    return partial(build_scenario, document)


def nyquist_error_dynamics() -> list:
    """L_p for DIAG_A that leaves an error mode at the sampling frequency with
    damping 1e-12: Hurwitz, but its integral over one sample nearly vanishes."""
    w = 2.0 * np.pi / 1e-3
    a_err = np.array([[-1.0, 0.0, 0.0], [0.0, -1e-12, w], [0.0, -w, -1e-12]])
    return (a_err - np.array(DIAG_A)).tolist()


B1_OUT_OF_SCALE = ("plant.B1 is zero or out of scale: with its unit-norm complement B2, "
                   "[B1 B2] does not span the state space")
REJECTIONS = {
    "B1 tiny": (
        build_short({"A": PAPER_A, "B1": [[1e-20], [0.0]], "C": [[0.0, 1.0]]}),
        B1_OUT_OF_SCALE,
    ),
    "B1 tiny diagonal": (
        build_short({"A": PAPER_A, "B1": [[1e-17], [1e-17]], "C": [[0.0, 1.0]]}),
        B1_OUT_OF_SCALE,
    ),
    "B1 square singular": (
        build_short({"A": PAPER_A, "B1": [[1.0, 1.0], [1.0, 1.0]], "C": [[0.0, 1.0]]}),
        "plant.B1 must be a 2x1 matrix to match plant.A and one control input, got shape (2, 2)",
    ),
    "B1 rank deficient": (
        build_short({"A": DIAG_A, "B1": [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], "C": ONES}),
        "plant.B1 must be a 3x1 matrix to match plant.A and one control input, got shape (3, 2)",
    ),
    "B1 zero column": (
        build_short({"A": DIAG_A, "B1": [[0.0], [0.0], [0.0]], "C": ONES}),
        B1_OUT_OF_SCALE,
    ),
    "B1 huge": (
        # |B1| = 1e20 against the unit columns of B2 is out of scale from the other side
        build_short({"A": PAPER_A, "B1": [[1e20], [0.0]], "C": [[0.0, 1.0]]}),
        B1_OUT_OF_SCALE,
    ),
    "B1 zero, one state": (
        build_short({"A": [[-1.0]], "B1": [[0.0]], "C": [[1.0]]}),
        B1_OUT_OF_SCALE,
    ),
    "C zero": (
        build_short({"preset": "paper-siso", "C": [[0.0, 0.0]]}),
        "zero DC path from input to output (plant.B1 to plant.C); feedforward gain undefined",
    ),
    "B2 in a document": (
        # B2 is derived from B1, never given
        build_short({"preset": "paper-siso", "B2": [[0.0], [1.0]]}),
        "unknown key plant.B2; expected one of ['A', 'B1', 'C', 'preset', 'x0']",
    ),
    "A singular": (
        build_short({"A": [[0.0, 1.0], [0.0, 0.0]], "B1": [[0.0], [1.0]], "C": [[1.0, 0.0]]}),
        "plant.A is singular; feedforward gain undefined",
    ),
    "DC path zero": (
        build_short({"preset": "paper-siso", "C": [[1.0, 0.0]]}),
        "zero DC path from input to output (plant.B1 to plant.C); feedforward gain undefined",
    ),
    "DC gain below the floor under every law": (
        # C A^-1 B1 = -4e-13 is 1e-14 of |C| |A^-1 B1|, whatever the law
        build_short({"preset": "paper-siso", "C": [[1.0, 1e-14]]}),
        "zero DC path from input to output (plant.B1 to plant.C); feedforward gain undefined",
    ),
    "B1 two columns": (
        build_short({"A": DIAG_A, "B1": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "C": ONES}),
        "plant.B1 must be a 3x1 matrix to match plant.A and one control input, got shape (3, 2)",
    ),
    "non-minimum phase under original": (
        partial(build_scenario, copy.deepcopy(NMP_DOC)),
        "the matched path has transmission zeros not in the open left half plane (at [1.]); "
        "inverting its dynamics is unstable. The dynamics-inverting law requires a "
        "minimum-phase plant; use the inverse-DC-gain law instead",
    ),
    "L_p unstable": (
        build_short({"preset": "paper-siso"}, L_p=[[10.0, 50.0], [-1.0, 1.0]]),
        "controller.L_p makes the prediction-error dynamics unstable "
        "(eigenvalue real parts [0. 1.]); the error matrix must be Hurwitz",
    ),
    "exponential integral singular": (
        build_short({"A": DIAG_A, "B1": E1, "C": ONES}, L_p=nyquist_error_dynamics()),
        "the exponential integral over one sample period is singular; adjust "
        "controller.sample_period, plant.A, controller.L_p, controller.bandwidth_matched "
        "or controller.bandwidth_unmatched",
    ),
    "adaptation_gain input singular": (
        partial(adaptation_gain, -np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), 0.01),
        "[B1 B2] is singular; the update law cannot separate the channels",
    ),
    "relative degree 3 under original": (
        # 2 / ((s + 1)(s + 2)(s + 3)): its inverse needs s^3, the filter gives 1/s
        build_short({"A": [[-6.0, -11.0, -6.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                     "B1": E1, "C": [[0.0, 0.0, 2.0]]}, law="original"),
        "controller.law 'original' inverts the matched path, whose relative degree 3 "
        "is above 2, so its unmatched path is improper even with the low-pass filter; "
        "the 'modified' law has no such limit",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_messages_unchanged(case):
    """Each input is rejected with exactly the message pinned here."""
    reject, message = REJECTIONS[case]
    with pytest.raises(ConfigError) as info:
        reject()
    assert str(info.value) == message


@pytest.mark.parametrize("law", ["original", "modified"])
@pytest.mark.parametrize("scale", [1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1.0, 1e6])
def test_both_laws_independent_of_output_units(scale, law):
    """Scaling C and the command alike scales y alone under either law."""
    document = copy.deepcopy(PRESETS["uncertain-step-compare"]["doc"])
    document["plant"] = {"A": PAPER_A, "B1": [[2000.0], [0.0]], "C": [[0.0, scale]]}
    document["reference"]["amplitude"] = scale
    y = run_scenario(build_scenario(document, law_override=law)).trace.y
    assert y[-1] / scale == pytest.approx(1.0000200019, abs=1e-10)


def test_dc_floor_rejects_under_every_law():
    document = doc(plant={"preset": "paper-siso", "C": [[1.0, 1e-14]]})
    for law in ("off", "matched_only", "original", "modified"):
        with pytest.raises(ConfigError, match="^zero DC path from input to output"):
            build_scenario(document, law_override=law)


# a document with every optional key left out, and those keys by section
OMITTED = {
    "plant": {"A": PAPER_A, "B1": [[2000.0], [0.0]], "C": [[0.0, 1.0]]},
    "reference": {"kind": "step", "amplitude": 1.0},
    "controller": {"law": "modified"},
}
OPTIONAL = {
    "plant": ("preset", "x0"),
    "uncertainty": ("matched", "unmatched", "onset"),
    "reference": ("onset", "gradient"),
    "controller": ("sample_period", "bandwidth_matched", "bandwidth_unmatched", "L_p"),
    "engine": ("t_end", "substeps_per_sample"),
    "output": ("csv", "plots"),
}
PRESET_PLANT = {**OMITTED, "plant": {"preset": "paper-siso"}}
NULLS = (
    [(OMITTED, section, key) for section, keys in OPTIONAL.items() for key in keys]
    + [(OMITTED, section, None) for section in ("uncertainty", "engine", "output")]
    + [(OMITTED, "name", None)]
    + [(PRESET_PLANT, "plant", key) for key in ("A", "B1", "C")]
    + [({**OMITTED, "reference": {"kind": "ramp", "gradient": 1.0}}, "reference", "amplitude")]
)


@pytest.mark.parametrize(
    "base, section, key", NULLS, ids=[f"{s}.{k}" if k else s for _, s, k in NULLS]
)
def test_explicit_null_equals_omitted_key(base, section, key):
    """``key: null`` (or a null section) builds the scenario that omitting it builds."""
    document = copy.deepcopy(base)
    if key is None:
        document[section] = None
    else:
        document.setdefault(section, {})[key] = None
    built = [build_scenario(d, name="case") for d in (document, base)]
    assert len({(scenario_fingerprint(sc), sc.name, sc.augmentation.law,
                 sc.write_csv, sc.write_plots) for sc in built}) == 1


def test_document_left_as_it_was():
    document = {**doc(plant={"preset": "paper-siso", "x0": None}, controller={"law": None}),
                "output": {"csv": None}}
    before = copy.deepcopy(document)
    build_scenario(document, law_override="matched-only")
    assert document == before


@pytest.mark.parametrize("bad", ["", ".", "..", "../escaped", "out/case", "out\\case", "a\0b"])
def test_name_must_be_a_file_name(bad):
    with pytest.raises(ConfigError, match="^name .* must be a file name in the output directory"):
        build_scenario(doc(name=bad))


class TestLoadScenario:
    def test_yaml_round_trip(self, tmp_path):
        import yaml

        path = tmp_path / "case.yaml"
        path.write_text(yaml.safe_dump(doc()))
        sc = load_scenario(path)
        assert sc.name == "case"
        assert sc.plant.k_ff == pytest.approx(0.025)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_file_gone_before_it_is_read(self, tmp_path, monkeypatch):
        # the file is opened once, so a file removed after any earlier check
        # is still reported as not found
        path = tmp_path / "case.yaml"
        path.write_text("{}\n")

        def vanished(self, *args, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", str(self))

        monkeypatch.setattr(type(path), "read_text", vanished)
        with pytest.raises(ConfigError, match=f"^scenario file not found: {re.escape(str(path))}$"):
            load_scenario(path)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("plant: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_scenario(path)


class TestPresets:
    def test_names(self):
        assert preset_names() == sorted(
            [
                "nominal-step",
                "nominal-ramp",
                "uncertain-step-off",
                "uncertain-step-matched-only",
                "uncertain-step-compare",
                "uncertain-ramp-compare",
            ]
        )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            run_preset("wat")

    def test_compare_preset_shares_inputs(self):
        spec = PRESETS["uncertain-step-compare"]
        a = build_scenario(copy.deepcopy(spec["doc"]), law_override="original")
        b = build_scenario(copy.deepcopy(spec["doc"]), law_override="modified")
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_fingerprint_sensitive_to_inputs(self):
        # one valid change per input key; every key but controller.law is an
        # input, and plant.preset only names A, B1 and C
        changes = {
            "plant.A": [[-10.0, -40.0], [1.0, 0.0]],
            "plant.B1": [[1000.0], [0.0]],
            "plant.C": [[0.0, 2.0]],
            "plant.x0": [0.1, 0.0],
            "uncertainty.matched": [0.06],
            "uncertainty.unmatched": [0.002],
            "uncertainty.onset": 1.0,
            "reference.kind": "ramp",
            "reference.onset": 1.0,
            "reference.amplitude": 2.0,
            "reference.gradient": 0.5,
            "controller.sample_period": 2e-3,
            "controller.bandwidth_matched": 30.0,
            "controller.bandwidth_unmatched": 30.0,
            "controller.L_p": [[9.98, 50.0], [-1.0, -0.02]],
            "engine.t_end": 2.0,
            "engine.substeps_per_sample": 2,
        }
        keys = {
            f"{section}.{key}"
            for section in ("plant", "uncertainty", "reference", "controller", "engine")
            for key in getattr(scenario_module, f"_{section.upper()}_KEYS")
        }
        assert set(changes) == keys - {"plant.preset", "controller.law"}
        base_doc = doc(reference={"gradient": 1.0})  # so that the kind can change
        base = scenario_fingerprint(build_scenario(base_doc))
        for dotted, value in changes.items():
            section, key = dotted.split(".")
            changed = copy.deepcopy(base_doc)
            changed[section][key] = value
            assert scenario_fingerprint(build_scenario(changed)) != base, dotted
        for section, value in (("controller", {"law": "original"}), ("name", "other"),
                               ("output", {"csv": True, "plots": True})):
            same = {**copy.deepcopy(base_doc), section: value}
            assert scenario_fingerprint(build_scenario(same)) == base, section

    def test_fingerprint_same_for_omitted_and_zero_disturbance(self):
        omitted = doc()
        del omitted["uncertainty"]["matched"]
        explicit = doc(uncertainty={"matched": [0.0]})
        assert scenario_fingerprint(build_scenario(omitted)) == scenario_fingerprint(
            build_scenario(explicit)
        )

    def test_law_override_runs_single(self):
        res = run_preset("uncertain-step-compare", law_override="off")
        assert [r.label for r in res.runs] == ["off"]

    def test_disturbed_ramp_lag_restored(self):
        # with full augmentation the disturbed ramp recovers the nominal lag
        res = run_preset("uncertain-ramp-compare")
        orig, mod = res.runs
        assert orig.metrics.tracking_lag == pytest.approx(0.2, abs=1e-2)
        assert mod.metrics.tracking_lag == pytest.approx(0.2, abs=1e-2)
        yss = [np.mean(r.trace.y[r.trace.t >= 9.0]) for r in res.runs]
        assert abs(yss[0] - yss[1]) < 1e-6

    def test_report_format(self):
        res = run_preset("nominal-step")
        text = format_report(res)
        assert "nominal-step" in text
        assert "law=off" in text
        assert "ss_err=" in text

    def test_report_rounding_floor(self, preset_results):
        # 1e3 eps for a unit step, 8e3 eps for the ramp that reaches 8
        assert "ss_err=<2.220e-13" in format_report(preset_results["nominal-step"])
        text = format_report(preset_results["uncertain-ramp-compare"])
        assert "|y_ss(original) - y_ss(modified)| = <1.776e-12" in text
        assert "ss_err=2.005e-01" in text

    def test_report_lines_survive_rounding_noise(self, preset_results):
        rng = np.random.default_rng(9)
        for name, result in preset_results.items():
            sig = build_scenario(copy.deepcopy(PRESETS[name]["doc"])).signal
            noisy = []
            for run in result.runs:
                trace = dataclasses.replace(
                    run.trace, y=run.trace.y + rng.choice([-1e-14, 1e-14], run.trace.y.size)
                )
                metrics = compute_metrics(trace, sig)
                noisy.append(dataclasses.replace(run, trace=trace, metrics=metrics))
            perturbed = dataclasses.replace(result, runs=noisy)
            assert format_report(perturbed) == format_report(result), name

    def test_report_compare_uses_metrics_window(self):
        n = 10001
        t = np.arange(n) * 1e-3
        first = int(np.argmax(steady_mask(t)))
        runs = []
        for label, spike in (("a", 0.0), ("b", 1.0e3)):
            y = np.zeros(n)
            y[first] = spike  # inside the metrics window, outside the last 10% of samples
            zeros = np.zeros((n, 1))
            trace = SimTrace(t=t, r=np.zeros(n), y=y, y_m=np.zeros(n), u_a=zeros, sigma1=zeros,
                             sigma2=zeros, x=zeros, x_hat=zeros, label=label)
            sig = ReferenceSignal(kind="step", onset=0.0, amplitude=1.0)
            runs.append(RunResult(label=label, trace=trace, metrics=compute_metrics(trace, sig)))
        text = format_report(PresetResult(name="window", runs=runs, shared_fingerprint=""))
        expect = abs(float(np.mean(runs[1].trace.y[steady_mask(t)])))
        assert n - first == 1001
        assert f"|y_ss(a) - y_ss(b)| = {expect:.3e}" in text
