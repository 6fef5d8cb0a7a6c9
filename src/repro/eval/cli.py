"""``autolearn eval``: enumerate, run, score, and diff scenarios.

Mirrors the :mod:`repro.analysis.cli` split: :func:`add_eval_arguments`
builds the subparser and :func:`run_eval_command` interprets it, so the
top-level :mod:`repro.cli` stays a thin table.

Exit codes: 0 — every scorecard matched its golden (or goldens were
updated / comparison skipped); 1 — at least one scorecard diverged or
has no golden yet; 2 — bad invocation (an unknown scenario raises
:class:`~repro.common.errors.ConfigurationError`, which
:func:`repro.cli.main` prints as one ``error:`` line on stderr).
"""

from __future__ import annotations

import argparse
from pathlib import Path

__all__ = ["add_eval_arguments", "run_eval_command", "default_golden_dir"]


def default_golden_dir() -> Path:
    """The checked-in golden scorecards (tests/eval/golden)."""
    return Path(__file__).resolve().parents[3] / "tests" / "eval" / "golden"


def add_eval_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``eval`` subcommand's arguments to ``parser``."""
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="run one named scenario (repeatable); default "
                             "is the whole library")
    parser.add_argument("--matrix", action="store_true",
                        help="run every generated matrix cell")
    parser.add_argument("--list", action="store_true",
                        help="list known scenarios and exit")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="seed to score (repeatable; default 0)")
    parser.add_argument("--out", default="",
                        help="directory to write scorecard JSON files into")
    parser.add_argument("--golden", default="",
                        help="golden scorecard directory (default: the "
                             "checked-in tests/eval/golden)")
    parser.add_argument("--no-golden", action="store_true",
                        help="skip the golden comparison entirely")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite the golden scorecards from this run")


def _selected_specs(args) -> list:
    from repro.eval.library import BASE_SPECS, matrix_specs, scenario_spec

    specs = []
    if args.scenario:
        specs.extend(scenario_spec(name) for name in args.scenario)
    if args.matrix:
        specs.extend(matrix_specs())
    if not specs:
        specs = list(BASE_SPECS.values())
    return specs


def run_eval_command(args) -> int:
    """Run the selected scenarios and diff against golden scorecards."""
    from repro.eval.library import scenario_names
    from repro.eval.runner import run_scenario
    from repro.eval.scorecard import Evaluator

    if args.list:
        for name in scenario_names(matrix=True):
            print(name)
        return 0
    specs = _selected_specs(args)
    seeds = args.seed if args.seed else [0]
    golden_dir = Path(args.golden) if args.golden else default_golden_dir()
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    if args.update_goldens:
        golden_dir.mkdir(parents=True, exist_ok=True)
    evaluator = Evaluator()
    failures = 0
    for spec in specs:
        for seed in seeds:
            card = evaluator.evaluate(run_scenario(spec, seed=seed))
            text = card.to_json()
            filename = f"{spec.name}-seed{seed}.json"
            if out_dir is not None:
                (out_dir / filename).write_text(text)
            if args.no_golden:
                print(f"ran   {spec.name} seed={seed} "
                      f"digest={card.spec_digest}")
                continue
            golden_path = golden_dir / filename
            if args.update_goldens:
                golden_path.write_text(text)
                print(f"wrote {spec.name} seed={seed} -> {golden_path}")
                continue
            if not golden_path.exists():
                failures += 1
                print(f"NEW   {spec.name} seed={seed} (no golden at "
                      f"{golden_path}; rerun with --update-goldens)")
                continue
            golden = golden_path.read_text()
            if golden == text:
                print(f"ok    {spec.name} seed={seed} "
                      f"digest={card.spec_digest}")
            else:
                failures += 1
                print(f"DIFF  {spec.name} seed={seed}")
                for line in card.diff(golden):
                    print(f"  {line}")
    if failures:
        print(f"{failures} scorecard(s) diverged")
        return 1
    return 0
