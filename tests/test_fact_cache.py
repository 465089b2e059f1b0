"""A plant's law-independent facts (B2, k_ff, the zero dynamics) are kept per
distinct (A, B1, C), and its compiled loop per distinct (A, B1, C, tuning,
substeps): a build that reuses them equals one that derives them."""

import dataclasses
import gc
import importlib.util
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import canonical_plant, make_nmp_plant
from l1sim import PRESETS, AugmentationConfig, ConfigError, build_scenario, compile_loop
from l1sim import augmentation
from l1sim import plant as plant_module
from l1sim.augmentation import LAWS, LoopModel, _zero_dynamics_of
from l1sim.plant import FACT_CACHE_SIZE, UncertainPlant, clear_fact_caches

SWEEPGEN = Path(__file__).resolve().parents[1] / "perfbench" / "sweepgen.py"
PAPER_A = [[-10.0, -50.0], [1.0, 0.0]]
PAPER_B1 = [[2000.0], [0.0]]
PAPER_C = [[0.0, 1.0]]


def sweep_documents() -> list[dict]:
    """The 240 documents of the benchmark's seed-0 sweep."""
    spec = importlib.util.spec_from_file_location("perfbench_sweepgen", SWEEPGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate(0)[0]


@pytest.fixture
def cold():
    """Empty caches before the test and after it, so that no test reads the
    plants of the tests run before it."""
    clear_fact_caches()
    yield
    clear_fact_caches()


@pytest.fixture
def derivations(cold, monkeypatch):
    """Calls of each derivation the caches stand in front of, by name."""
    calls = {"_complement": 0, "_feedforward_gain": 0, "_zero_dynamics": 0}
    for module, name in ((plant_module, "_complement"), (plant_module, "_feedforward_gain"),
                         (augmentation, "_zero_dynamics")):
        def counted(*args, _derive=getattr(module, name), _name=name):
            calls[_name] += 1
            return _derive(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def leaves(value, path: str):
    """(path, value) of every field of a model, nested dataclasses field by field."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from leaves(getattr(value, field.name), f"{path}.{field.name}")
    else:
        yield path, value


def assert_identical(got, want) -> None:
    """Every array equal with equal sign bits, every other value of equal repr."""
    for (path, a), (_, b) in zip(leaves(got, "loop"), leaves(want, "loop"), strict=True):
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, path
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), path
        else:
            assert repr(a) == repr(b), path


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cold_and_warm_preset_builds_identical(cold, name):
    for law in LAWS:
        clear_fact_caches()
        first = build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
        again = build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
        assert again.plant.B2 is first.plant.B2  # the second build reused the facts
        assert_identical(again.loop, first.loop)


def test_cold_and_warm_sweep_builds_identical(cold):
    documents = sweep_documents()
    assert len(documents) == 240
    warm = [build_scenario(doc).loop for doc in documents]  # paper-siso hits across tunings
    for doc, loop in zip(documents, warm):
        clear_fact_caches()
        assert_identical(loop, build_scenario(doc).loop)


def test_shared_arrays_are_read_only(cold):
    p = UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C)
    with pytest.raises(ValueError, match="read-only"):
        p.B2[0, 0] = 1.0
    assert UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C).B2 is p.B2
    for part in _zero_dynamics_of(p.A, p.B1, p.C):
        if isinstance(part, np.ndarray):
            assert not part.flags.writeable


def succeed() -> None:
    """Builds that pass, some with a B1 or a whole plant that a rejection below shares."""
    for law in LAWS:
        compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C),
                     AugmentationConfig(law=law))
    UncertainPlant.from_matrices(-np.eye(2), [[0.0], [1.0]], [[1.0, 1.0]])
    compile_loop(make_nmp_plant(), AugmentationConfig(law="modified"))
    compile_loop(UncertainPlant.from_matrices(np.diag([-1.0, -1e-6]), [[1.0], [1e-13]],
                                              [[0.0, 1.0]]), AugmentationConfig(law="modified"))


NOT_SPANNED = ("plant.B1 is zero or out of scale: with its unit-norm complement B2, "
               "[B1 B2] does not span the state space")
NO_DC_PATH = "zero DC path from input to output (plant.B1 to plant.C); feedforward gain undefined"
REJECTED = {
    "B1 zero": (lambda: UncertainPlant.from_matrices(PAPER_A, [[0.0], [0.0]], PAPER_C),
                NOT_SPANNED),
    "A singular": (
        lambda: UncertainPlant.from_matrices([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]]),
        "plant.A is singular; feedforward gain undefined",
    ),
    "DC path zero": (lambda: UncertainPlant.from_matrices(PAPER_A, PAPER_B1, [[1.0, 0.0]]),
                     NO_DC_PATH),
    "non-minimum phase under original": (
        lambda: compile_loop(make_nmp_plant(), AugmentationConfig(law="original")),
        "the matched path has transmission zeros not in the open left half plane (at [1.]); "
        "inverting its dynamics is unstable. The dynamics-inverting law requires a "
        "minimum-phase plant; use the inverse-DC-gain law instead",
    ),
    "matched path zero to rounding under original": (
        lambda: compile_loop(UncertainPlant.from_matrices(
            np.diag([-1.0, -1e-6]), [[1.0], [1e-13]], [[0.0, 1.0]]),
            AugmentationConfig(law="original")),
        "the matched path is zero to rounding; it has no inverse",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejections_are_never_kept(cold, case):
    """A rejected plant raises its message on every build: twice in a row, and
    again after builds that keep facts of plants sharing its B1 or its (A, B1, C)."""
    reject, message = REJECTED[case]
    for before in (lambda: None, lambda: None, succeed, succeed):
        before()
        with pytest.raises(ConfigError) as info:
            reject()
        assert str(info.value) == message


# one (A, B1, C) under other disturbances, initial states and onsets
PLANT_VARIANTS = [{}, {"x0": [0.5, -0.25]}, {"f1": [0.05], "f2": [-0.001], "onset": 0.25},
                  {"f1": [-0.0], "f2": [0.0], "onset": 0.0}, {"x0": [1e-3, 0.0], "f1": [3.0]}]


TUNINGS = [
    (AugmentationConfig(law=law, sample_period=period, bandwidth_matched=w,
                        bandwidth_unmatched=w, predictor_gain=lp), substeps)
    for law in LAWS
    for period, w, lp, substeps in ((1e-3, 40.0, None, 1), (2e-3, 10.0, None, 4),
                                    (5e-4, 80.0, [[-1.0, 0.0], [0.0, -3.0]], 2))
]


def test_one_plant_under_other_uncertainty_and_tuning_equals_an_uncached_build(cold):
    for optional in PLANT_VARIANTS:
        for cfg, substeps in TUNINGS:
            compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C),
                         AugmentationConfig(law="original"))  # keeps the facts
            warm = compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C,
                                                             **optional), cfg, substeps)
            clear_fact_caches()
            fresh = compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C,
                                                              **optional), cfg, substeps)
            assert_identical(warm, fresh)


def test_layouts_give_the_c_ordered_build(cold):
    """Checked matrices are C-ordered, so a Fortran-ordered or strided A and C,
    warm or cold, and a Fortran-ordered L_p compile to the bits of the
    C-ordered build."""
    builds = 0
    for doc in sweep_documents():
        if "A" not in doc["plant"]:
            continue
        a, b1, c = (np.array(doc["plant"][key], dtype=float) for key in ("A", "B1", "C"))
        cfg = AugmentationConfig(law=doc["controller"]["law"])
        clear_fact_caches()
        want = compile_loop(UncertainPlant.from_matrices(a, b1, c), cfg)
        wide_a, wide_c = np.zeros((2 * a.shape[0], 2 * a.shape[1])), np.zeros((1, 2 * c.shape[1]))
        wide_a[::2, ::2], wide_c[:, ::2] = a, c
        for layout_a, layout_c in ((np.asfortranarray(a), c), (wide_a[::2, ::2], wide_c[:, ::2])):
            for warm in (True, False):
                if not warm:
                    clear_fact_caches()
                got = compile_loop(UncertainPlant.from_matrices(layout_a, b1, layout_c), cfg)
                assert_identical(got, want)
                builds += 1
    assert builds == 768  # 192 plants, two layouts, warm and cold
    lp = np.array([[-1.0, 0.25], [0.5, -3.0]])
    p = UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C, f1=[0.05], f2=[0.001])
    for law in LAWS:
        want = compile_loop(p, AugmentationConfig(law=law, predictor_gain=lp))
        got = compile_loop(p, AugmentationConfig(law=law, predictor_gain=np.asfortranarray(lp)))
        assert_identical(got, want)


def distinct_plant(i: int) -> UncertainPlant:
    """The i-th of plants that differ in B1, so in every fact."""
    return UncertainPlant.from_matrices([[-1.0, 0.0], [0.0, -2.0]], [[1.0], [float(i)]],
                                        [[1.0, 1.0]])


def test_bound_plus_one_plants_derive_the_first_again(derivations):
    assert 1 <= FACT_CACHE_SIZE <= 16
    for i in range(FACT_CACHE_SIZE + 1):
        distinct_plant(i)
    assert derivations["_complement"] == FACT_CACHE_SIZE + 1
    distinct_plant(0)
    assert derivations["_complement"] == FACT_CACHE_SIZE + 2
    assert derivations["_feedforward_gain"] == FACT_CACHE_SIZE + 2


def test_the_plant_used_last_is_kept(derivations):
    """A hit makes a plant the most recently used: the next new plant evicts
    the least recently used one instead."""
    for i in range(FACT_CACHE_SIZE):
        distinct_plant(i)
    distinct_plant(0)
    distinct_plant(FACT_CACHE_SIZE)  # evicts plant 1
    assert derivations["_complement"] == FACT_CACHE_SIZE + 1
    distinct_plant(0)
    assert derivations["_complement"] == FACT_CACHE_SIZE + 1
    distinct_plant(1)
    assert derivations["_complement"] == FACT_CACHE_SIZE + 2


def test_zero_dynamics_derived_only_for_the_original_law(derivations):
    p = UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C)
    for law in ("off", "matched_only", "modified"):
        compile_loop(p, AugmentationConfig(law=law))
    assert derivations["_zero_dynamics"] == 0
    compile_loop(p, AugmentationConfig(law="original"))
    compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C, f2=[0.1]),
                 AugmentationConfig(law="original", bandwidth_unmatched=5.0))
    assert derivations["_zero_dynamics"] == 1
    compile_loop(canonical_plant([-2.0, -3.0, -4.0], [-1.0, -5.0], 2.0),
                 AugmentationConfig(law="original"))
    assert derivations["_zero_dynamics"] == 2


def test_one_campaign_pass_derives_its_plant_once(derivations):
    """The eight preset runs share paper-siso: 7 of 8 builds reuse B2 and k_ff,
    and 1 of the 2 ``original`` builds reuses the zero dynamics."""
    builds = [(name, law) for name in sorted(PRESETS) for law in PRESETS[name]["laws"]]
    assert len(builds) == 8
    for name, law in builds:
        build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
    assert derivations == {"_complement": 1, "_feedforward_gain": 1, "_zero_dynamics": 1}


def test_builds_on_threads_share_the_caches(cold):
    """Four threads build more distinct plants than the caches keep, twenty
    times over, switching often, and compile every fourth under a law of its
    own: no build fails, each plant gets its own facts and loop, and no cache
    outgrows its bound."""
    plants = range(3 * FACT_CACHE_SIZE)
    want, want_loop = {}, {}
    for i in plants:
        clear_fact_caches()
        want[i] = distinct_plant(i).k_ff
        if i % 4 == 0:
            want_loop[i] = compile_loop(distinct_plant(i), AugmentationConfig(law=LAWS[i // 4 % 4]))
    clear_fact_caches()
    failures = []

    def build_all(offset: int) -> None:
        try:
            for i in list(plants) * 20:
                j = (i + offset) % len(plants)
                if distinct_plant(j).k_ff != want[j]:
                    failures.append(("k_ff", j))
                if j in want_loop:
                    loop = compile_loop(distinct_plant(j), AugmentationConfig(law=LAWS[j // 4 % 4]))
                    assert_identical(loop, want_loop[j])
        except Exception as exc:  # reported below, with the others
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build_all, args=(k * 7,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for cache in plant_module._FACT_CACHES:
        assert cache.cache_info().currsize <= FACT_CACHE_SIZE


def other_uncertainty_and_command(document: dict) -> dict:
    """A sweep document with its plant and tuning, and other f1, f2, onsets,
    command size and horizon, all on its sample grid."""
    period = document["controller"]["sample_period"]
    unc, ref = document["uncertainty"], dict(document["reference"])
    size = "amplitude" if ref["kind"] == "step" else "gradient"
    ref.update({"onset": 3 * period, size: -2.5 * ref[size]})
    return {**document, "reference": ref,
            "uncertainty": {"matched": [-3.0 * unc["matched"][0] - 0.25],
                            "unmatched": [2.0 * v + 1e-3 for v in unc["unmatched"]],
                            "onset": 2 * period},
            "engine": {**document["engine"], "t_end": 2 * document["engine"]["t_end"] + period}}


def shared_arrays(loop: LoopModel):
    """(path, array) of every array a loop shares with the loops of its key:
    all but the plant's, the tuning's and the disturbance map."""
    for path, value in leaves(loop, "loop"):
        if isinstance(value, np.ndarray) and not path.startswith(
                ("loop.plant.", "loop.config.", "loop.disturbance_map")):
            yield path, value


@pytest.fixture
def kernels(cold, monkeypatch):
    """The law of each loop compiled, in order: a hit compiles none."""
    laws = []

    def counted(*key, _compile=augmentation._loop_kernel):
        laws.append(key[4])
        return _compile(*key)

    monkeypatch.setattr(augmentation, "_loop_kernel", counted)
    return laws


def test_warm_preset_builds_reuse_the_compiled_loop(kernels):
    for name in sorted(PRESETS):
        for law in LAWS:
            clear_fact_caches()
            first = build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
            again = build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
            assert kernels[-1] == law and len(kernels) == 1
            kernels.clear()
            assert_identical(again.loop, first.loop)
            assert again.loop.transition is first.loop.transition
            assert again.loop.plant is again.plant and again.loop.config is again.augmentation
            assert again.loop.disturbance_map is not first.loop.disturbance_map


def test_sweep_rebuilds_under_other_uncertainty_and_command_identical(kernels):
    """Each sweep document rebuilt with other f1, f2, onsets, command size and
    horizon reuses the loop of the document, and equals that rebuild from cold."""
    for document in sweep_documents():
        other = other_uncertainty_and_command(document)
        clear_fact_caches()
        want = build_scenario(other)
        clear_fact_caches()
        first = build_scenario(document)
        compiled = len(kernels)
        got = build_scenario(other)
        assert len(kernels) == compiled  # a hit
        assert got.loop.transition is first.loop.transition
        assert not np.array_equal(got.loop.disturbance_map, first.loop.disturbance_map)
        assert_identical(got.loop, want.loop)
        assert_identical(got.plant, want.plant)


def test_one_campaign_pass_compiles_four_loops(kernels):
    """The eight preset runs share paper-siso and one tuning, so from cold a
    pass compiles one loop per law, and a second pass compiles none."""
    builds = [(name, law) for name in sorted(PRESETS) for law in PRESETS[name]["laws"]]
    for name, law in builds:
        build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
    assert sorted(kernels) == sorted(LAWS)
    for name, law in builds:
        build_scenario(PRESETS[name]["doc"], name=name, law_override=law)
    assert len(kernels) == 4


UNSTABLE_LP = [[20.0, 0.0], [0.0, 0.0]]  # A + L_p has trace 10
LOOP_REJECTED = {
    "unstable L_p": (
        lambda law: compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C),
                                 AugmentationConfig(law=law, predictor_gain=UNSTABLE_LP)),
        lambda law: compile_loop(UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C),
                                 AugmentationConfig(law=law)),
        "controller.L_p makes the prediction-error dynamics unstable",
    ),
    "non-minimum phase under original": (
        lambda law: compile_loop(make_nmp_plant(), AugmentationConfig(law="original")),
        lambda law: compile_loop(make_nmp_plant(), AugmentationConfig(law=law)),
        "the matched path has transmission zeros not in the open left half plane",
    ),
}


@pytest.mark.parametrize("case", sorted(LOOP_REJECTED))
def test_loop_rejections_are_never_kept(kernels, case):
    """A rejected tuning raises its message on every build: twice in a row, and
    again after builds of its plant under other tunings were kept."""
    reject, succeed, message = LOOP_REJECTED[case]
    messages = []
    for law in ("original", "original") + LAWS:
        with pytest.raises(ConfigError) as info:
            reject(law)
        messages.append(str(info.value))
        if law in ("off", "matched_only", "modified"):
            succeed(law)
    assert messages[0].startswith(message) and set(messages) == {messages[0]}
    assert len(kernels) == len(messages) + 3  # every rejection compiled afresh


def test_overflowing_disturbance_rejected_on_a_warm_loop(cold):
    """The disturbance map is formed per build, so a warm loop checks it too."""
    base = PRESETS["uncertain-step-compare"]["doc"]
    document = {**base, "uncertainty": {"matched": [1e308], "unmatched": [0.0], "onset": 0.0}}
    for law in LAWS:
        for warm in (False, True):
            clear_fact_caches()
            if warm:
                build_scenario(base, law_override=law)
            with pytest.raises(ConfigError) as info:
                build_scenario(document, law_override=law)
            assert str(info.value) == ("uncertainty.matched or uncertainty.unmatched "
                                       "overflows the sampled loop")


def test_shared_loop_arrays_are_read_only(cold):
    p = UncertainPlant.from_matrices(PAPER_A, PAPER_B1, PAPER_C, f1=[0.05], f2=[0.001])
    for law in LAWS:
        loop = compile_loop(p, AugmentationConfig(law=law))
        arrays = dict(shared_arrays(loop))
        assert {"loop.gain", "loop.transition", "loop.command_maps", "loop.input_map"} <= set(arrays)
        if law != "off":
            assert {"loop.matched.A", "loop.matched.D"} <= set(arrays)
        for path, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        loop.disturbance_map[...] = loop.disturbance_map  # this build's own
        again = compile_loop(p, AugmentationConfig(law=law))
        assert_identical(again, loop)


def test_no_plant_or_tuning_outlives_its_builds(kernels):
    """The kept loop holds values, not the first caller's plant, tuning or arrays."""
    def build():
        a, lp = np.array(PAPER_A), np.array([[-1.0, 0.25], [0.5, -3.0]])
        p = UncertainPlant.from_matrices(a, PAPER_B1, PAPER_C, f1=[0.05])
        cfg = AugmentationConfig(law="original", predictor_gain=lp)
        assert p.A is a and cfg.predictor_gain is lp  # the caller's arrays, not copies
        return [weakref.ref(value) for value in (p, cfg, a, lp, compile_loop(p, cfg))]

    for _ in range(2):
        refs = build()
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5
    assert kernels == ["original"]  # the second build read the kept loop
