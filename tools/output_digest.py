"""Print one sha256 per output artifact of an l1sim checkout, and two probes.

    python tools/output_digest.py CHECKOUT > digest.txt

The artifacts, each on a line ``<sha256>  <name>`` (a probe prints its
result in place of the digest):

* for every preset, the CSV files, the SVG charts and the report text of
  ``l1sim run --preset NAME --csv --plots`` (8 CSVs, 12 SVGs, 6 reports),
  the compiled ``LoopModel`` of each of its 8 runs, and the metrics of each
  CSV as ``load_csv`` reads it back (the path of ``l1sim export``);
* for each compare preset, whether its laws' ``scenario_fingerprint`` values
  are all one (the flag, not the hex, which may change between versions);
* for each of the 240 seed-0 sweep documents of ``perfbench/sweepgen.py``,
  its ``LoopModel``, its trace arrays and its metrics;
* the engine's non-finite fallback (the sequential pass after the power
  doubling overflows): the ``SimulationDiverged`` sample, block and
  ``last_norm`` of seven diverging runs, step and ramp commands, and the
  trace arrays of two runs whose powers overflow while their states stay
  finite;
* two traces that break the trace rule, the full-length
  ``uncertain-step-compare``/``modified`` trace with its ``t`` stepped back
  by 30% of the span halfway through, and with ``y[3000]`` NaN: these lines
  print, in place of a digest, what ``compute_metrics`` returns (each float
  by ``float.hex``) or the exception it raises;
* two flags, for every preset under every law and for the 240 sweep
  documents, of whether each build whose plant facts (B2, k_ff, the zero
  dynamics) and compiled loop the package reused digests as the build that
  derived them afresh; a checkout that keeps nothing derives them on every
  build;
* one flag of whether each sweep document, rebuilt with other f1, f2,
  onsets, command size and horizon after a build of the document itself,
  digests as that rebuild from cold;
* eight tallies: for each fact and for the compiled loop (counted by its
  one exponential, ``statespace._expm``), the builds of one campaign pass
  (the eight preset runs) and of one seed-0 sweep pass, from cold, that
  reused it, out of the builds that read it, and the reuse a cache that
  forgot nothing would give (builds less distinct keys);
* a flag of whether the seed-0 sweep plants built from a Fortran-ordered A,
  and from a strided A and C, compile to the bits of their C-ordered builds.

A model or metrics digest covers every field: arrays by dtype, shape and
bytes, nested dataclasses field by field, other values by ``repr``.  A trace
digest covers its named signals and label the same way, whatever fields hold
them, so it reads the same from either trace layout.  So
two checkouts whose digests ``diff`` equal compile and write the same bits.
The checkout's ``src/`` and ``perfbench/`` are imported without writing
bytecode; nothing in the checkout is modified.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


# a trace is digested by its named signals and label, whatever fields hold them
TRACE_SIGNALS = ("t", "r", "y", "y_m", "u_a", "sigma1", "sigma2", "x", "x_hat", "label")


def _feed(h, value) -> None:
    if type(value).__name__ == "SimTrace":
        h.update(b"SimTrace(")
        for name in TRACE_SIGNALS:
            h.update(f"{name}=".encode())
            _feed(h, getattr(value, name))
        h.update(b")")
    elif isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}:".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}(".encode())
        for field in dataclasses.fields(value):
            h.update(f"{field.name}=".encode())
            _feed(h, getattr(value, field.name))
        h.update(b")")
    else:
        h.update(f"{value!r};".encode())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/output_digest.py CHECKOUT", file=sys.stderr)
        return 2
    checkout = Path(argv[0]).resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import l1sim
    import sweepgen
    from l1sim.cli import main as cli_main

    if not Path(l1sim.__file__).is_relative_to(checkout):
        raise SystemExit(f"imported l1sim from {l1sim.__file__}, not from {checkout}")

    lines = []
    for name in l1sim.preset_names():
        spec = l1sim.PRESETS[name]
        fingerprints = set()
        for law in spec["laws"]:
            scenario = l1sim.build_scenario(spec["doc"], name=name, law_override=law)
            fingerprints.add(l1sim.scenario_fingerprint(scenario))
            lines.append((digest(scenario.loop), f"preset {name} {law} loop"))
        if len(spec["laws"]) > 1:
            lines.append((digest(len(fingerprints) == 1), f"preset {name} fingerprint shared"))
        with tempfile.TemporaryDirectory() as out:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli_main(["run", "--preset", name, "--csv", "--plots", "--out", out])
            if status != 0:
                raise SystemExit(f"l1sim run --preset {name} exited with {status}")
            report = [line for line in stdout.getvalue().splitlines()
                      if not line.startswith("wrote: ")]
            lines.append((digest("\n".join(report)), f"preset {name} report"))
            for path in sorted(Path(out).iterdir()):
                lines.append((hashlib.sha256(path.read_bytes()).hexdigest(), f"file {path.name}"))
                if path.suffix == ".csv":
                    reloaded = l1sim.compute_metrics(l1sim.load_csv(path), scenario.signal)
                    lines.append((digest(reloaded), f"reloaded {path.name} metrics"))

    docs, _ = sweepgen.generate(0)
    for doc in docs:
        scenario = l1sim.build_scenario(doc)
        result = l1sim.run_scenario(scenario)
        lines.append((digest(scenario.loop), f"sweep {doc['name']} loop"))
        lines.append((digest(result.trace), f"sweep {doc['name']} trace"))
        lines.append((digest(result.metrics), f"sweep {doc['name']} metrics"))

    lines += _divergence_lines(l1sim)
    lines += _rule_breaking_lines(l1sim)
    lines += _fact_reuse_lines(l1sim, docs)
    lines += _layout_lines(l1sim, docs)

    for sha, name in lines:
        print(f"{sha}  {name}")
    return 0


def _divergence_lines(l1sim) -> list[tuple[str, str]]:
    """Digests of runs that reach the sequential pass of ``lifted_states``."""
    lines = []
    off = l1sim.AugmentationConfig(law="off")
    size_key = {"step": "amplitude", "ramp": "gradient"}  # a command takes its kind's key only
    fast = l1sim.UncertainPlant.from_matrices([[500.0]], [[1.0]], [[1.0]])
    coupled = l1sim.UncertainPlant.from_matrices([[100.0, 50.0], [-40.0, 20.0]],
                                                 [[1.0], [0.5]], [[0.0, 1.0]], f1=[0.1])
    diverging = [
        ("500 off step", fast, off, "step", 3.0),
        ("300 off step", l1sim.UncertainPlant.from_matrices(
            [[300.0, 1.0], [0.0, -2.0]], [[1.0], [0.0]], [[1.0, 0.0]]), off, "step", 3.0),
        *[(f"coupled {law} {kind}", coupled, l1sim.AugmentationConfig(law=law), kind, 30.0)
          for kind, laws in (("step", ("matched_only", "modified")),
                             ("ramp", ("off", "matched_only", "modified")))
          for law in laws],
    ]
    for name, plant, cfg, kind, t_end in diverging:
        sig = l1sim.ReferenceSignal(kind=kind, onset=0.0, **{size_key[kind]: 1.0})
        try:
            l1sim.run_closed_loop(plant, cfg, sig, l1sim.EngineConfig(t_end=t_end))
        except l1sim.SimulationDiverged as exc:
            report = (exc.sample, exc.block, exc.last_norm.hex())
        else:
            report = "finite"
        lines.append((digest(report), f"diverged {name}"))
    for kind in ("step", "ramp"):
        sig = l1sim.ReferenceSignal(kind=kind, onset=0.0, **{size_key[kind]: 1e-300})
        trace = l1sim.run_closed_loop(fast, off, sig, l1sim.EngineConfig(t_end=2.1))
        lines.append((digest(trace), f"finite 500 off {kind} 1e-300 trace"))
    return lines


def _rule_breaking_lines(l1sim) -> list[tuple[str, str]]:
    """What ``compute_metrics`` makes of a full-length trace that breaks the
    trace rule: its metrics, floats as ``float.hex``, or its exception."""
    scenario = l1sim.build_scenario(l1sim.PRESETS["uncertain-step-compare"]["doc"],
                                    law_override="modified")
    trace = l1sim.run_scenario(scenario).trace
    stepped_back, nan_y = copy.deepcopy(trace), copy.deepcopy(trace)
    stepped_back.t[trace.n_samples // 2 :] -= 0.3 * (trace.t[-1] - trace.t[0])
    nan_y.y[3000] = np.nan
    lines = []
    for name, broken in (("t stepped back", stepped_back), ("y[3000] nan", nan_y)):
        try:
            metrics = l1sim.compute_metrics(broken, scenario.signal)
        except Exception as exc:  # the exception is the result
            result = f"{type(exc).__name__}: {exc}"
        else:
            result = " ".join(f"{field.name}={_hex(getattr(metrics, field.name))}"
                              for field in dataclasses.fields(metrics))
        lines.append((result, f"probe {name} metrics"))
    return lines


def _fact_reuse_lines(l1sim, docs: list[dict]) -> list[tuple[str, str]]:
    """Cold and warm builds compared, and the reuse of each plant fact counted
    as the builds that read it less the calls of its derivation."""
    from l1sim import augmentation, plant, statespace

    clear = getattr(plant, "clear_fact_caches", lambda: None)  # absent: nothing is kept
    presets = [(l1sim.PRESETS[name]["doc"], name, law) for name in l1sim.preset_names()
               for law in ("off", "matched_only", "original", "modified")]
    sweep = [(doc, None, None) for doc in docs]

    def build(doc, name, law):
        return l1sim.build_scenario(doc, name=name, law_override=law)

    lines = []
    for group, builds in (("presets", presets), ("sweep", sweep)):
        cold = []
        for args in builds:
            clear()
            cold.append(digest(build(*args).loop))
        clear()
        warm = []
        for args in builds:
            build(*args)  # keeps its facts for the next build, which reads them back
            warm.append(digest(build(*args).loop))
        lines.append((digest(cold == warm), f"{group} cold and warm builds equal"))
    equal = True
    for doc, _, _ in sweep:
        clear()
        want = digest(build(_other_uncertainty_and_command(doc), None, None).loop)
        clear()
        build(doc, None, None)  # keeps the loop the rebuild reads back
        equal &= digest(build(_other_uncertainty_and_command(doc), None, None).loop) == want
    lines.append((digest(equal), "sweep rebuilds under other uncertainty and command equal"))

    derivations = {"B2": (plant, "_complement"), "k_ff": (plant, "_feedforward_gain"),
                   "zero dynamics": (augmentation, "_zero_dynamics"),
                   "loop": (statespace, "_expm")}
    campaign = [(l1sim.PRESETS[name]["doc"], name, law) for name in l1sim.preset_names()
                for law in l1sim.PRESETS[name]["laws"]]
    for group, builds in (("campaign", campaign), ("sweep", sweep)):
        calls = dict.fromkeys(derivations, 0)
        saved = {fact: getattr(module, attr) for fact, (module, attr) in derivations.items()}
        for fact, (module, attr) in derivations.items():
            setattr(module, attr, _counting(calls, fact, saved[fact]))
        clear()
        try:
            built = [build(*args) for args in builds]
        finally:
            for fact, (module, attr) in derivations.items():
                setattr(module, attr, saved[fact])
        clear()
        plants = [(sc.plant, sc.augmentation.law) for sc in built]
        reads = {
            "B2": [p.B1.tobytes() for p, _ in plants],
            "k_ff": [(p.A.tobytes(), p.B1.tobytes(), p.C.tobytes()) for p, _ in plants],
            "zero dynamics": [(p.A.tobytes(), p.B1.tobytes(), p.C.tobytes())
                              for p, law in plants if law == "original" and p.n_unmatched],
            "loop": [(sc.plant.A.tobytes(), sc.plant.B1.tobytes(), sc.plant.C.tobytes(),
                      None if (lp := sc.augmentation.predictor_gain) is None else lp.tobytes(),
                      sc.augmentation.law, sc.augmentation.sample_period,
                      sc.augmentation.bandwidth_matched, sc.augmentation.bandwidth_unmatched,
                      sc.engine.substeps_per_sample) for sc in built],
        }
        for fact, keys in reads.items():
            hits, unbounded = len(keys) - calls[fact], len(keys) - len(set(keys))
            lines.append((f"{hits}/{len(keys)} reused, unbounded {unbounded}",
                          f"tally {group} pass {fact}"))
    return lines


def _other_uncertainty_and_command(doc: dict) -> dict:
    """A sweep document with its plant and tuning, and other f1, f2, onsets,
    command size and horizon, all on its sample grid."""
    period = doc["controller"]["sample_period"]
    unc, ref = doc["uncertainty"], dict(doc["reference"])
    size = "amplitude" if ref["kind"] == "step" else "gradient"
    ref.update({"onset": 3 * period, size: -2.5 * ref[size]})
    return {**doc, "reference": ref,
            "uncertainty": {"matched": [-3.0 * unc["matched"][0] - 0.25],
                            "unmatched": [2.0 * v + 1e-3 for v in unc["unmatched"]],
                            "onset": 2 * period},
            "engine": {**doc["engine"], "t_end": 2 * doc["engine"]["t_end"] + period}}


def _layout_lines(l1sim, docs: list[dict]) -> list[tuple[str, str]]:
    """Whether each sweep plant built from a Fortran-ordered A, and from a
    strided A and C, after a build of its C-ordered matrices and from cold,
    digests as the C-ordered build."""
    clear = getattr(l1sim.plant, "clear_fact_caches", lambda: None)
    equal = True
    for doc in docs:
        if "A" not in doc["plant"]:
            continue
        a, b1, c = (np.array(doc["plant"][key], dtype=float) for key in ("A", "B1", "C"))
        cfg = l1sim.AugmentationConfig(law=doc["controller"]["law"])

        def build(a, c):
            return digest(l1sim.compile_loop(l1sim.UncertainPlant.from_matrices(a, b1, c), cfg))

        clear()
        want = build(a, c)
        wide_a, wide_c = np.zeros((2 * a.shape[0], 2 * a.shape[1])), np.zeros((1, 2 * c.shape[1]))
        wide_a[::2, ::2], wide_c[:, ::2] = a, c
        for layout_a, layout_c in ((np.asfortranarray(a), c), (wide_a[::2, ::2], wide_c[:, ::2])):
            equal &= build(layout_a, layout_c) == want  # warm: after the C-ordered build
            clear()
            equal &= build(layout_a, layout_c) == want
    clear()
    return [(digest(equal), "sweep layouts give the C-ordered build")]


def _counting(calls: dict, fact: str, derive):
    def counted(*args):
        calls[fact] += 1
        return derive(*args)
    return counted


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
