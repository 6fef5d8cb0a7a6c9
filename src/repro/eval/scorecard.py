"""ScoreCards: canonical, diffable metric summaries of scenario runs.

The :class:`Evaluator` turns a finished
:class:`~repro.eval.runner.ScenarioRun` into a :class:`ScoreCard` — a
nested ``group -> metric -> value`` dict of plain JSON scalars scored
entirely on the simulated clock.  Groups are per scenario kind:

* ``slo`` / ``losses`` / ``staleness`` for serve runs, faulted or not,
  including deadline attainment and the stale-command ratio;
* ``fleet`` for continuum-loop runs (promotions, rollbacks, data
  volumes, mean promotion latency);
* ``pipeline`` for pathway runs (per-stage simulated seconds);
* ``driving`` / ``mot`` for drive worlds (lap time, cross-track error
  mean/p95/max, association/ID-switch/jitter tracking metrics).

Serialization is canonical: keys sorted, floats rounded to 9 decimals
with negative zero normalized, two-space indent, trailing newline — so
a scorecard is byte-identical per (spec, seed) and any behavior change
shows up as a one-line JSON diff against the checked-in golden.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Any

from repro.common.errors import ConfigurationError
from repro.eval.mot import evaluate_tracking
from repro.eval.runner import ScenarioRun
from repro.eval.spec import canonical_json

__all__ = ["ScoreCard", "Evaluator", "canonical_value"]

#: Decimal places kept in canonical scorecard floats.  Enough to see
#: any real metric movement; few enough to absorb nothing — float64
#: arithmetic here is deterministic, rounding just fixes the *textual*
#: form (e.g. ``-0.0`` vs ``0.0``).
FLOAT_DECIMALS = 9


def canonical_value(value: Any) -> Any:
    """Normalize a metric value for canonical JSON emission."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        rounded = round(value, FLOAT_DECIMALS)
        return 0.0 if rounded == 0.0 else rounded
    if isinstance(value, dict):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    raise ConfigurationError(
        f"metric value {value!r} is not a JSON scalar/container"
    )


@dataclass(frozen=True)
class ScoreCard:
    """One scored run: scenario identity plus grouped metrics."""

    scenario: str
    kind: str
    seed: int
    spec_digest: str
    metrics: dict[str, dict[str, Any]]

    def to_dict(self) -> dict:
        """JSON-ready view (already canonicalized values)."""
        return {
            "scenario": self.scenario,
            "kind": self.kind,
            "seed": self.seed,
            "spec_digest": self.spec_digest,
            "metrics": canonical_value(self.metrics),
        }

    def to_json(self) -> str:
        """The canonical byte form golden files store and tests pin."""
        return canonical_json(self.to_dict())

    def diff(self, golden: str) -> list[str]:
        """Unified diff from a golden's canonical text to this card's."""
        return list(
            difflib.unified_diff(
                golden.splitlines(),
                self.to_json().splitlines(),
                fromfile="golden",
                tofile="current",
                lineterm="",
            )
        )


def _serve_groups(summary, workload) -> dict[str, dict]:
    """The slo / losses / staleness groups of one serve run."""
    completed = summary.completed
    losses = summary.dropped + summary.shed + summary.rejected + summary.expired
    return {
        "slo": {
            "offered": summary.offered,
            "completed": completed,
            "deadline_met": summary.deadline_met,
            "deadline_attainment": (
                summary.deadline_met / completed if completed else 1.0
            ),
            "deadline_miss_rate": summary.deadline_miss_rate,
            "goodput_hz": summary.goodput_hz,
            "throughput_hz": summary.throughput_hz,
            "p50_ms": summary.p50_ms,
            "p95_ms": summary.p95_ms,
            "p99_ms": summary.p99_ms,
        },
        "losses": {
            "dropped": summary.dropped,
            "shed": summary.shed,
            "rejected": summary.rejected,
            "expired": summary.expired,
            "requeued": summary.requeued,
            "conserved": summary.offered == completed + losses,
        },
        "staleness": {
            "stale_ticks": summary.stale_ticks,
            "stale_ratio": getattr(workload, "stale_ratio", 0.0),
        },
    }


class Evaluator:
    """Score any :class:`~repro.eval.runner.ScenarioRun` on sim time."""

    def evaluate(self, run: ScenarioRun) -> ScoreCard:
        """Produce the canonical scorecard for one finished run."""
        kind = run.spec.kind
        if kind == "serve":
            groups = _serve_groups(
                run.artifacts["summary"], run.artifacts["workload"]
            )
        elif kind == "fleet":
            groups = self._fleet_groups(run.artifacts["summary"])
        elif kind == "pipeline":
            groups = self._pipeline_groups(run.artifacts["report"])
        elif kind == "drive":
            groups = self._drive_groups(run.artifacts["artifacts"])
        else:
            raise ConfigurationError(f"unknown scenario kind {kind!r}")
        return ScoreCard(
            scenario=run.spec.name,
            kind=kind,
            seed=run.seed,
            spec_digest=run.spec.digest(),
            metrics={
                group: canonical_value(values)
                for group, values in groups.items()
            },
        )

    # ------------------------------------------------------- per kind

    def _fleet_groups(self, summary) -> dict[str, dict]:
        return {
            "fleet": {
                "rounds": len(summary.rounds),
                "elapsed_s": summary.elapsed_s,
                "records_flushed": summary.records_flushed,
                "records_ingested": summary.records_ingested,
                "candidates_published": summary.candidates_published,
                "promotions": summary.promotions,
                "rollbacks": summary.rollbacks,
                "final_stable": summary.final_stable,
                "mean_promotion_latency_s": summary.mean_promotion_latency_s,
            },
        }

    def _pipeline_groups(self, report) -> dict[str, dict]:
        stages = {
            stage.stage: {
                "alternative": stage.alternative,
                "sim_seconds": stage.sim_seconds,
            }
            for stage in report.stages
        }
        return {
            "pipeline": {
                "total_sim_seconds": report.total_sim_seconds,
                "stages": stages,
            },
        }

    def _drive_groups(self, artifacts) -> dict[str, dict]:
        mot = evaluate_tracking(
            artifacts.gt_frames,
            artifacts.tracked_frames,
            match_radius_m=artifacts.match_radius_m,
        )
        return {"driving": artifacts.driving, "mot": mot.to_dict()}
