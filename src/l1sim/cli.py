"""Batch command-line front end.

    l1sim run (SCENARIO.yaml | --preset NAME) [--out DIR] [--law LAW] [--csv] [--plots]

Exit code 0 on success; 1 with a diagnostic on any validation or divergence
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .augmentation import LAWS
from .errors import ConfigError, SimulationDiverged
from .plots import emit_plots
from .scenario import (
    PresetResult,
    RunResult,
    format_report,
    load_scenario,
    preset_names,
    run_preset,
    run_scenario,
)
from .traceio import emit_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="l1sim", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file or a built-in preset")
    run.add_argument("scenario", nargs="?", help="path to a scenario YAML file")
    run.add_argument(
        "--preset",
        choices=preset_names(),
        help="run a built-in experiment instead of a scenario file",
    )
    run.add_argument("--out", default=".", help="output directory (default: current directory)")
    run.add_argument(
        "--law",
        choices=[law.replace("_", "-") for law in LAWS],
        help="override the configured control law",
    )
    run.add_argument("--csv", action="store_true", help="write one trace CSV per run")
    run.add_argument("--plots", action="store_true", help="write SVG charts")
    return parser


def _echo(text: str) -> None:
    """Print to stdout, writing what its encoding cannot hold as backslash
    escapes, as stderr does."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _cmd_run(args: argparse.Namespace) -> int:
    if (args.scenario is None) == (args.preset is None):
        print("error: give exactly one of a scenario file or --preset", file=sys.stderr)
        return 1
    want_csv, want_plots = args.csv, args.plots
    if args.preset:
        result = run_preset(args.preset, law_override=args.law)
    else:
        scenario = load_scenario(args.scenario, law_override=args.law)
        want_csv = want_csv or scenario.write_csv
        want_plots = want_plots or scenario.write_plots
        single: RunResult = run_scenario(scenario)
        result = PresetResult(name=scenario.name, runs=[single], shared_fingerprint="")
    _echo(format_report(result))

    out_dir = Path(args.out)
    written: list[Path] = []
    try:
        if want_csv or want_plots:
            out_dir.mkdir(parents=True, exist_ok=True)
        if want_csv:
            for run in result.runs:
                written.append(emit_csv(run.trace, out_dir / f"{result.name}__{run.label}.csv"))
        if want_plots:
            written.extend(emit_plots([run.trace for run in result.runs], out_dir, result.name))
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:  # a file name the file system encoding cannot hold
        print(f"error: cannot write {exc.object}: {exc}", file=sys.stderr)
        return 1
    for path in written:
        _echo(f"wrote: {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ConfigError, SimulationDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
