"""repro.eval: declarative scenarios, standardized scoring, goldens.

The evaluation harness every behavior-affecting PR is scored by:

* :mod:`repro.eval.spec` — composable :class:`ScenarioSpec` values with
  Hydra-style override/merge semantics;
* :mod:`repro.eval.library` — the canonical named scenarios plus the
  generated fleet ⊗ faults ⊗ net matrix;
* :mod:`repro.eval.runner` — interprets a spec into a full run on the
  simulated clock; :func:`run_scenario` is the one front door every
  scenario (library, CLI, benchmark) takes;
* :mod:`repro.eval.scorecard` — the :class:`Evaluator` producing
  canonical, per-seed byte-identical :class:`ScoreCard` JSON;
* :mod:`repro.eval.metrics` / :mod:`repro.eval.mot` — driving-quality
  and MOT-style tracking metrics;
* :mod:`repro.eval.cli` — the ``autolearn eval`` subcommand.
"""

from repro.eval.library import (
    BASE_SPECS,
    MATRIX_AXES,
    MATRIX_BASE,
    matrix_specs,
    scenario_names,
    scenario_spec,
)
from repro.eval.metrics import cte_stats, percentile, trajectory_cte
from repro.eval.mot import MotReport, evaluate_tracking, trajectory_jitter
from repro.eval.runner import ScenarioRun, run_scenario
from repro.eval.scorecard import Evaluator, ScoreCard
from repro.eval.spec import (
    ScenarioSpec,
    apply_overrides,
    canonical_json,
    merge_overrides,
)

__all__ = [
    "BASE_SPECS",
    "MATRIX_AXES",
    "MATRIX_BASE",
    "matrix_specs",
    "scenario_names",
    "scenario_spec",
    "cte_stats",
    "percentile",
    "trajectory_cte",
    "MotReport",
    "evaluate_tracking",
    "trajectory_jitter",
    "ScenarioRun",
    "run_scenario",
    "Evaluator",
    "ScoreCard",
    "ScenarioSpec",
    "apply_overrides",
    "canonical_json",
    "merge_overrides",
]
