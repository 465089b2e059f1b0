"""Scenario files read the same under libyaml and under PyYAML's own parser.

``load_scenario`` parses with ``yaml.CSafeLoader`` (libyaml) and falls back
to ``yaml.SafeLoader`` where PyYAML was built without libyaml.  Both use
``safe_load``'s constructor and resolver, so a document must become the same
Python objects under either, apart from the divergences pinned here.
"""

import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from l1sim import PRESETS, ConfigError, build_scenario, load_scenario, scenario_fingerprint
from l1sim import scenario as scenario_module

LIBYAML = hasattr(yaml, "CSafeLoader")
needs_libyaml = pytest.mark.skipif(
    not LIBYAML, reason="PyYAML was built without libyaml: there is no second parser to compare"
)

LOADERS = [pytest.param(False, id="libyaml", marks=needs_libyaml),
           pytest.param(True, id="fallback")]

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


def preset_texts() -> dict[str, str]:
    return {name: yaml.safe_dump(spec["doc"]) for name, spec in sorted(PRESETS.items())}


def canonical(value):
    """``value`` with every type explicit and floats as ``float.hex``, which
    is exact and keeps the sign of zero; ``==`` alone takes 1 == 1.0 == True
    and 0.0 == -0.0."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, dict):
        return ("dict", [(canonical(k), canonical(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [canonical(v) for v in value])
    return (type(value).__name__, value)


def outcome(text: str, loader):
    """What ``loader`` makes of ``text``: the canonical document, or the
    class of the error it raises."""
    try:
        return canonical(yaml.load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return type(exc).__name__


# -- loader parity on scenario-shaped documents ---------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]
# every float, subnormals, infinities and NaN included
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
INTEGERS = st.one_of(st.integers(), st.integers(min_value=2**63, max_value=2**200),
                     st.integers(min_value=-(2**200), max_value=-(2**63) - 1))
# lone surrogates are a pinned divergence (test_divergences_are_pinned)
STRINGS = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
SCALARS = st.one_of(FLOATS, INTEGERS, STRINGS, st.booleans(), st.none())
VALUES = st.one_of(
    SCALARS,
    st.lists(FLOATS, max_size=4),
    st.lists(st.lists(FLOATS, max_size=4), max_size=4),
)
SECTION_KEYS = sorted({key for name in ("plant", "uncertainty", "reference", "controller",
                                        "engine", "output")
                       for key in getattr(scenario_module, f"_{name.upper()}_KEYS")})
SECTIONS = st.dictionaries(st.one_of(st.sampled_from(SECTION_KEYS), STRINGS), VALUES,
                           max_size=5)
DOCUMENTS = st.dictionaries(st.one_of(st.sampled_from(scenario_module._SECTIONS), STRINGS),
                            st.one_of(SECTIONS, SCALARS), max_size=7)


@needs_libyaml
@settings(max_examples=200)
@given(DOCUMENTS, st.sampled_from([False, True, None]), st.booleans())
def test_loaders_agree_on_scenario_shaped_documents(document, flow_style, allow_unicode):
    # block, flow and default style; non-ASCII written raw or as escapes
    text = yaml.safe_dump(document, default_flow_style=flow_style, allow_unicode=allow_unicode,
                          sort_keys=False)
    assert outcome(text, yaml.SafeLoader) == outcome(text, yaml.CSafeLoader)


EDGE_NUMBERS = EDGE_FLOATS + [2**63, 2**64 + 1, -(2**63) - 1, 10**40]


@pytest.mark.parametrize("flow_style", [False, True, None], ids=["block", "flow", "default"])
@pytest.mark.parametrize("fallback", LOADERS)
def test_edge_numbers_read_back_exactly(flow_style, fallback):
    loader = yaml.SafeLoader if fallback else yaml.CSafeLoader
    document = {"uncertainty": {"matched": EDGE_NUMBERS, "unmatched": [EDGE_NUMBERS] * 2}}
    text = yaml.safe_dump(document, default_flow_style=flow_style)
    assert outcome(text, loader) == canonical(document)


# -- the divergences known so far, each with its exact outcome ------------------------

DIVERGENCES = {
    # a tab as a separator: libyaml reads it as a space, PyYAML's scanner rejects it
    "a:\t1\n": ("ScannerError", canonical({"a": 1})),
    "[1,\t2]\n": ("ScannerError", canonical([1, 2])),
    "a: 1\t# note\n": ("ScannerError", canonical({"a": 1})),
    # a lone-surrogate escape: PyYAML reads it, libyaml rejects it
    '"\\ud800"\n': (canonical("\ud800"), "ScannerError"),
}


@needs_libyaml
@pytest.mark.parametrize("text", DIVERGENCES, ids=["tab after colon", "tab after comma",
                                                   "tab before comment", "lone surrogate"])
def test_divergences_are_pinned(text):
    assert (outcome(text, yaml.SafeLoader), outcome(text, yaml.CSafeLoader)) == DIVERGENCES[text]


@needs_libyaml
def test_deep_nesting_divergence_is_pinned():
    # PyYAML's composer recurses, about two frames a level, past Python's
    # limit of 1000; libyaml's recurses on the C stack
    text = "[" * 500 + "]" * 500 + "\n"
    with pytest.raises(RecursionError):
        yaml.load(text, Loader=yaml.SafeLoader)
    node = yaml.load(text, Loader=yaml.CSafeLoader)
    for _ in range(499):
        assert type(node) is list and len(node) == 1
        node = node[0]
    assert node == []


# -- the documents the project ships --------------------------------------------------

@needs_libyaml
@pytest.mark.parametrize("name", ["README"] + sorted(PRESETS))
def test_shipped_documents_agree(name):
    text = readme_example() if name == "README" else preset_texts()[name]
    pure, lib = yaml.load(text, Loader=yaml.SafeLoader), yaml.load(text, Loader=yaml.CSafeLoader)
    assert canonical(pure) == canonical(lib)
    assert scenario_fingerprint(build_scenario(pure)) == scenario_fingerprint(build_scenario(lib))


# -- the pure-Python fallback ---------------------------------------------------------

@pytest.fixture
def without_libyaml(monkeypatch):
    """PyYAML as it is when built without libyaml."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


def test_fallback_loads_shipped_documents(tmp_path, monkeypatch):
    expected = {}
    for name, text in preset_texts().items():
        (tmp_path / f"{name}.yaml").write_text(text, encoding="utf-8")
        expected[name] = scenario_fingerprint(build_scenario(PRESETS[name]["doc"]))
    (tmp_path / "README.yaml").write_text(readme_example(), encoding="utf-8")
    expected["README"] = scenario_fingerprint(load_scenario(tmp_path / "README.yaml"))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    for name, fingerprint in expected.items():
        assert scenario_fingerprint(load_scenario(tmp_path / f"{name}.yaml")) == fingerprint


def test_fallback_rejects_malformed_yaml(tmp_path, without_libyaml):
    path = tmp_path / "broken.yaml"
    path.write_text("plant: [unclosed\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} is not valid YAML: "):
        load_scenario(path)


def test_fallback_is_the_parser(tmp_path, without_libyaml):
    # a tab after a colon is libyaml's to accept: the fallback's scanner rejects it
    path = tmp_path / "tabbed.yaml"
    path.write_text(yaml.safe_dump(PRESETS["nominal-step"]["doc"]) + "name:\tcase\n")
    with pytest.raises(ConfigError, match=r"(?s)is not valid YAML: .*found character '\\t'"):
        load_scenario(path)


@needs_libyaml
def test_libyaml_is_the_parser(tmp_path):
    path = tmp_path / "tabbed.yaml"
    path.write_text(yaml.safe_dump(PRESETS["nominal-step"]["doc"]) + "name:\tcase\n")
    assert load_scenario(path).name == "case"


# -- over-deep documents --------------------------------------------------------------

REST = ("plant: {preset: paper-siso}\nreference: {kind: step, onset: 0.1, amplitude: 1.0}\n"
        "controller: {law: modified}\nengine: {t_end: 0.2}\n")


def nested_text(where: str, depth: int) -> str:
    """A scenario whose ``section`` or ``section.key`` is a list ``depth``
    levels deep (``depth`` counts from the document)."""
    section, _, key = where.partition(".")
    levels = depth - (2 if key else 1)
    value = "[" * levels + "1.0" + "]" * levels
    lines = [f"{section}: {{{key}: {value}}}" if key else f"{section}: {value}"]
    lines += [line for line in REST.splitlines() if not line.startswith(f"{section}:")]
    return "\n".join(lines) + "\n"


KEYS = ["name", "plant.A", "controller.law", "bogus"]


@pytest.mark.parametrize("fallback", LOADERS)
@pytest.mark.parametrize("where", KEYS)
# 101 and 900 levels are short text, composed first: the fallback's composer
# runs out of frames at 900, libyaml's does not and the document is walked,
# which names the key; 10 000 levels is text long enough to have its events
# counted first
@pytest.mark.parametrize("depth", [scenario_module.MAX_DEPTH + 1, 900, 10_000])
def test_over_deep_document_rejected(tmp_path, monkeypatch, fallback, where, depth):
    if fallback:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "deep.yaml"
    path.write_text(nested_text(where, depth))
    key = re.escape(f": {where}")
    if depth > scenario_module.MAX_DEPTH + 1:
        key = f"({key})?"
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}{key} nests lists or mappings "
                                          f"more than {scenario_module.MAX_DEPTH} levels deep$"):
        load_scenario(path)


@pytest.mark.parametrize("where", KEYS)
def test_deepest_accepted_document_reaches_the_builder(tmp_path, where):
    path = tmp_path / "deep.yaml"
    path.write_text(nested_text(where, scenario_module.MAX_DEPTH))
    if where == "name":  # the builder names the key at fault
        with pytest.raises(ConfigError, match="^name must be a string, got list$"):
            load_scenario(path)
        return
    try:
        load_scenario(path)
    except ConfigError as exc:
        assert "levels deep" not in str(exc)


@pytest.mark.parametrize("text, where", [
    ("plant: &a {A: *a}\n", "plant.A"),  # an alias inside its own anchor
    ("name: &a [*a]\n", "name"),
    # 120 anchors each one level deeper than the last, from text 3 levels deep
    ("".join(f"k{i}: &a{i} [*a{i - 1}]\n" if i else "k0: &a0 [1]\n" for i in range(120)), "k119"),
], ids=["cycle through a mapping", "cycle through a list", "120 chained anchors"])
def test_aliases_cannot_build_depth(tmp_path, text, where):
    path = tmp_path / "aliased.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {where} nests"):
        load_scenario(path)


def test_shared_containers_are_walked_once_per_depth():
    # 30 levels of a list holding its child twice: 2**30 paths, 30 containers
    node = [1.0]
    for _ in range(30):
        node = [node, node]
    assert scenario_module._deepest_key({"plant": {"A": node}}) is None
