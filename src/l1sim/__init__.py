"""Simulation library for sampled adaptive control augmentation of LTI plants."""

from .augmentation import (
    AugmentationConfig,
    LoopModel,
    PiecewiseConstantLaw,
    adaptation_gain,
    build_control_law,
    compile_loop,
    control_update,
    low_pass_model,
    predictor_deriv,
    unmatched_path_model,
)
from .engine import EngineConfig, SimTrace, rk4_step, run_closed_loop
from .errors import ConfigError, SimulationDiverged
from .metrics import Metrics, compute_metrics
from .plant import (
    ReferenceSignal,
    UncertainPlant,
    plant_deriv,
    reference_model_deriv,
    reference_value,
)
from .plots import emit_plots, line_chart_svg
from .scenario import (
    PRESETS,
    PresetResult,
    RunResult,
    Scenario,
    build_scenario,
    format_report,
    load_scenario,
    preset_names,
    run_preset,
    run_scenario,
    scenario_fingerprint,
)
from .statespace import (
    StateSpaceModel,
    dc_gain,
    dc_gain_discrete,
    discretize_zoh,
    filter_step,
    mat_exp,
    mat_exp_integral,
    null_complement,
)
from .traceio import csv_header, emit_csv, load_csv

__version__ = "0.1.0"
