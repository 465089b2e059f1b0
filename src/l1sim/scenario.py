"""Scenario files, built-in experiment presets, and batch execution.

A scenario is a nested key-value document (YAML) with ``plant``,
``uncertainty``, ``reference``, ``controller`` and ``engine`` sections;
matrices are written row-major as nested lists.  The built-in presets run
the standard SISO validation campaign: nominal step/ramp, disturbed step
with the augmentation off / matched-only / both full laws, and the
disturbed ramp comparison.

PyYAML loads on the first ``load_scenario`` and ``hashlib``/``json`` on the
first ``scenario_fingerprint``, so ``import l1sim`` pays for neither.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .augmentation import AugmentationConfig, LoopModel, compile_loop
from .engine import EngineConfig, SimTrace, _onset_sample, _sample_count, run_closed_loop
from .errors import ConfigError
from .metrics import Metrics, compute_metrics, steady_mask
from .plant import ReferenceSignal, UncertainPlant

PLANT_PRESETS: dict[str, dict] = {
    # second-order SISO benchmark: poles at -5 +/- 5j, feedforward gain 0.025
    "paper-siso": {
        "A": [[-10.0, -50.0], [1.0, 0.0]],
        "B1": [[2000.0], [0.0]],
        "C": [[0.0, 1.0]],
    },
}

_SECTIONS = ("name", "plant", "uncertainty", "reference", "controller", "engine", "output")
_PLANT_KEYS = ("preset", "A", "B1", "C", "x0")
_UNCERTAINTY_KEYS = ("matched", "unmatched", "onset")
_REFERENCE_KEYS = ("kind", "onset", "amplitude", "gradient")
_CONTROLLER_KEYS = (
    "law",
    "sample_period",
    "bandwidth_matched",
    "bandwidth_unmatched",
    "L_p",
)
_ENGINE_KEYS = ("t_end", "substeps_per_sample")
_OUTPUT_KEYS = ("csv", "plots")


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment: plant, command, tuning and horizon.

    ``loop`` is the tuning compiled against the plant, ready to simulate.
    ``write_csv`` / ``write_plots`` are the file's output defaults; the CLI
    flags add to them.
    """

    name: str
    plant: UncertainPlant
    signal: ReferenceSignal
    augmentation: AugmentationConfig
    loop: LoopModel
    engine: EngineConfig
    write_csv: bool = False
    write_plots: bool = False


@dataclass(frozen=True)
class RunResult:
    label: str
    trace: SimTrace
    metrics: Metrics


@dataclass(frozen=True)
class PresetResult:
    name: str
    runs: list[RunResult]
    shared_fingerprint: str


def _require_keys(section: dict, allowed: tuple, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {where}.{key}; expected one of {sorted(allowed)}")


# document keys whose dataclass field has another name
_FIELDS = {"matched": "f1", "unmatched": "f2", "L_p": "predictor_gain"}


def _section(cfg: dict, name: str, allowed: tuple, required: bool) -> dict:
    """A section of the document, checked to be a mapping of known keys, as
    keyword arguments of its dataclass.  Null entries are dropped, so an
    explicit null and an omitted key both take the dataclass's default."""
    section = cfg.get(name)
    if section is None and not required:
        return {}
    if section is None:
        raise ConfigError(f"scenario is missing the {name} section")
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a mapping")
    _require_keys(section, allowed, name)
    return {_FIELDS.get(key, key): value for key, value in section.items() if value is not None}


def _flag(section: dict, key: str, where: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def build_scenario(cfg: dict, name: str | None = None, law_override: str | None = None) -> Scenario:
    """Validate a scenario document and construct every runtime object.

    Every validation failure is a ``ConfigError`` naming the offending key,
    raised by the object that owns the fact, and each default lives in that
    object alone.  The loop is compiled here, once, so tuning errors (unstable
    predictor dynamics, non-minimum-phase plant under the dynamics-inverting
    law, ...) surface at load time rather than mid-run.  ``cfg`` is left as it
    was.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"scenario document must be a mapping, got {type(cfg).__name__}")
    _require_keys(cfg, _SECTIONS, "scenario")
    stem = (name or "scenario") if cfg.get("name") is None else str(cfg["name"])
    # output files are named after it
    if stem in ("", ".", "..") or any(c in stem for c in "/\\\0"):
        raise ConfigError(
            f"name {stem!r} must be a file name in the output directory: "
            "not empty, '.' or '..', and with no '/', '\\' or NUL"
        )

    plant_cfg = _section(cfg, "plant", _PLANT_KEYS, required=True)
    preset = plant_cfg.pop("preset", None)
    if preset is not None:
        if not isinstance(preset, str) or preset not in PLANT_PRESETS:
            raise ConfigError(
                f"plant.preset {preset!r} is unknown; available: {sorted(PLANT_PRESETS)}"
            )
        plant_cfg = {**PLANT_PRESETS[preset], **plant_cfg}
    for req in ("A", "B1", "C"):
        if req not in plant_cfg:
            raise ConfigError(f"plant.{req} is required (or use plant.preset)")
    unc_cfg = _section(cfg, "uncertainty", _UNCERTAINTY_KEYS, required=False)
    ref_cfg = _section(cfg, "reference", _REFERENCE_KEYS, required=True)
    ctl_cfg = _section(cfg, "controller", _CONTROLLER_KEYS, required=True)
    if law_override is not None:
        ctl_cfg["law"] = law_override
    eng_cfg = _section(cfg, "engine", _ENGINE_KEYS, required=False)
    out_cfg = _section(cfg, "output", _OUTPUT_KEYS, required=False)

    plant = UncertainPlant.from_matrices(**plant_cfg, **unc_cfg)
    signal = ReferenceSignal(kind=ref_cfg.pop("kind", None), **ref_cfg)
    augmentation = AugmentationConfig(law=ctl_cfg.pop("law", None), **ctl_cfg)
    engine = EngineConfig(**eng_cfg)
    # an off-grid horizon or command onset, or a step command after t_end, fails at load
    T = augmentation.sample_period
    _onset_sample(signal.onset, T, "reference.onset")
    if signal.kind == "step" and signal.onset > _sample_count(engine.t_end, T) * T:
        raise ConfigError("reference.onset must not be after engine.t_end for step metrics")
    return Scenario(
        name=stem,
        plant=plant,
        signal=signal,
        augmentation=augmentation,
        loop=compile_loop(plant, augmentation, engine.substeps_per_sample),
        engine=engine,
        write_csv=_flag(out_cfg, "csv", "output"),
        write_plots=_flag(out_cfg, "plots", "output"),
    )


# A scenario nests 4 levels deep (document, section, matrix, row).  Deeper
# documents are rejected before anything recurses over them.
MAX_DEPTH = 100
# libyaml composes recursively on the C stack, about 350 bytes a level, with
# no depth check.  Nesting takes at least one character a level, so text of at
# most this many characters composes within 1 MB of stack; longer text has
# its depth counted first, from the parser's events.
_SHORT_TEXT = 2048


def _events_too_deep(events) -> bool:
    """Whether a YAML event stream opens more than ``MAX_DEPTH`` nested
    lists or mappings."""
    from yaml import CollectionEndEvent, CollectionStartEvent

    depth = 0
    for event in events:
        if isinstance(event, CollectionStartEvent):
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif isinstance(event, CollectionEndEvent):
            depth -= 1
    return False


def _deepest_key(doc) -> str | None:
    """The key (``section`` or ``section.key``) under which ``doc`` holds a
    list or mapping more than ``MAX_DEPTH`` levels deep, or None.

    Iterative, so neither a deep document nor a cyclic one (a YAML alias
    inside its own anchor) can exhaust the stack.  A container shared through
    aliases is walked again only where it is reached at a greater depth.
    """
    deepest: dict[int, int] = {}
    stack = [(doc, 1, "")]
    while stack:
        node, depth, where = stack.pop()
        if isinstance(node, dict):
            children = node.items()
        elif isinstance(node, (list, tuple)):
            children = enumerate(node)
        else:
            continue
        if depth > MAX_DEPTH:
            return where or "the document"
        if deepest.get(id(node), 0) >= depth:
            continue
        deepest[id(node)] = depth
        named = isinstance(node, dict) and depth <= 2
        for key, child in children:
            key_path = (f"{where}.{key}" if where else str(key)) if named else where
            stack.append((child, depth + 1, key_path))
    return None


def load_scenario(path, law_override: str | None = None) -> Scenario:
    """Parse and validate a scenario file.

    YAML is parsed by libyaml (PyYAML's ``CSafeLoader``), or by PyYAML's own
    ``SafeLoader`` where PyYAML was built without it; both construct with
    ``safe_load``'s constructor and resolver.  A document nested more than
    ``MAX_DEPTH`` levels deep is a ``ConfigError``.
    """
    import yaml  # here, not at module level: callers that build from dicts never parse YAML

    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc  # an OSError's message repeats the path
        raise ConfigError(f"cannot read scenario file {path}: {reason}") from exc
    too_deep = f"nests lists or mappings more than {MAX_DEPTH} levels deep"
    try:
        if len(text) > _SHORT_TEXT and _events_too_deep(yaml.parse(text, Loader=loader)):
            raise ConfigError(f"{path} {too_deep}")
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    except RecursionError:  # PyYAML's own composer recurses once or twice a level
        raise ConfigError(f"{path} {too_deep}") from None
    where = _deepest_key(doc)
    if where is not None:
        raise ConfigError(f"{path}: {where} {too_deep}")
    return build_scenario(doc, name=path.stem, law_override=law_override)


def _listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def scenario_fingerprint(scenario: Scenario) -> str:
    """Hash of everything two compared runs must share: every field of the
    plant, command, tuning and engine except the control law."""
    import hashlib  # here, not at module level: a CLI file run never fingerprints
    import json

    payload = {}
    for part in ("plant", "signal", "augmentation", "engine"):
        obj = getattr(scenario, part)
        payload[part] = {f.name: _listed(getattr(obj, f.name)) for f in fields(obj)}
    payload["augmentation"]["law"] = None
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


_STEP = {"kind": "step", "onset": 2.0, "amplitude": 1.0}
_RAMP = {"kind": "ramp", "onset": 2.0, "gradient": 1.0}
# disturbances switch on with the command so the adaptation transient is
# part of the recorded response
_DISTURBED = {"matched": [0.05], "unmatched": [0.001], "onset": 2.0}


def _preset(reference: dict, uncertainty: dict, laws: list[str]) -> dict:
    doc = {
        "plant": {"preset": "paper-siso"},
        "uncertainty": uncertainty,
        "reference": reference,
        "controller": {"law": "off"},
        "engine": {"t_end": 10.0},
    }
    return {"doc": copy.deepcopy(doc), "laws": laws}


PRESETS: dict[str, dict] = {
    "nominal-step": _preset(_STEP, {}, ["off"]),
    "nominal-ramp": _preset(_RAMP, {}, ["off"]),
    "uncertain-step-off": _preset(_STEP, _DISTURBED, ["off"]),
    "uncertain-step-matched-only": _preset(_STEP, _DISTURBED, ["matched_only"]),
    "uncertain-step-compare": _preset(_STEP, _DISTURBED, ["original", "modified"]),
    "uncertain-ramp-compare": _preset(_RAMP, _DISTURBED, ["original", "modified"]),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def run_scenario(scenario: Scenario) -> RunResult:
    """Simulate one scenario and summarize the trace, labelled with its law."""
    law = scenario.augmentation.law
    trace = run_closed_loop(
        scenario.plant,
        scenario.augmentation,
        scenario.signal,
        scenario.engine,
        label=law,
        model=scenario.loop,
    )
    return RunResult(label=law, trace=trace, metrics=compute_metrics(trace, scenario.signal))


def run_preset(name: str, law_override: str | None = None) -> PresetResult:
    """Execute a built-in experiment; compare presets run every listed law
    on identical inputs."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {preset_names()}")
    spec = PRESETS[name]
    laws = [law_override] if law_override is not None else spec["laws"]
    runs: list[RunResult] = []
    fingerprints = set()
    for law in laws:
        scenario = build_scenario(spec["doc"], name=name, law_override=law)
        fingerprints.add(scenario_fingerprint(scenario))
        runs.append(run_scenario(scenario))
    if len(fingerprints) != 1:
        raise AssertionError(f"compared runs of {name} did not share identical inputs")
    return PresetResult(name=name, runs=runs, shared_fingerprint=fingerprints.pop())


def _rounding_floor(*traces: SimTrace) -> float:
    """Level below which a tracking error is arithmetic rounding, not
    behaviour: 1e3 eps times the larger of 1 and the largest |command|."""
    scale = max([1.0] + [float(np.abs(tr.r).max(initial=0.0)) for tr in traces])
    return 1e3 * np.finfo(float).eps * scale


def _above_floor(value: float, floor: float) -> str:
    return f"<{floor:.3e}" if value < floor else f"{value:.3e}"


def format_report(result: PresetResult) -> str:
    """Human-readable metrics summary, with deltas when two laws are compared.

    Tracking errors below ``_rounding_floor`` print as ``<floor``, so a change
    of arithmetic order does not move a report line.
    """
    lines = [f"scenario: {result.name}"]
    for run in result.runs:
        mt = run.metrics
        parts = [
            f"law={run.label:<13}",
            f"y(t_end)={run.trace.y[-1]: .6f}",
            f"ss_err={_above_floor(mt.steady_state_error, _rounding_floor(run.trace))}",
        ]
        if mt.overshoot_pct is not None:
            parts.append(f"overshoot={mt.overshoot_pct:.3f}%")
        if mt.settling_time_2pct is not None:
            parts.append(f"settle={mt.settling_time_2pct:.3f}s")
        elif mt.tracking_lag is None:
            parts.append("settle=not-settled")
        if mt.rise_time_10_90 is not None:
            parts.append(f"rise={mt.rise_time_10_90:.4f}s")
        if mt.tracking_lag is not None:
            parts.append(f"lag={mt.tracking_lag:.4f}")
        parts.append(f"peak_u_a={mt.peak_u_a:.4g}")
        lines.append("  ".join(parts))
    if len(result.runs) == 2:
        a, b = result.runs
        yss_a, yss_b = (float(np.mean(run.trace.y[steady_mask(run.trace.t)])) for run in (a, b))
        delta = _above_floor(abs(yss_a - yss_b), _rounding_floor(a.trace, b.trace))
        lines.append(f"compare: |y_ss({a.label}) - y_ss({b.label})| = {delta}")
        if a.metrics.overshoot_pct is not None and b.metrics.overshoot_pct is not None:
            lines.append(
                f"compare: overshoot {a.label} {a.metrics.overshoot_pct:.3f}% vs "
                f"{b.label} {b.metrics.overshoot_pct:.3f}%"
            )
    return "\n".join(lines)
