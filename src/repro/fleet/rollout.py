"""Staged rollouts: shadow → canary → stable, with automatic rollback.

The rollout controller takes the freshly published ``candidate`` and
walks it through the promotion lattice:

1. **shadow** — a mixed fleet serves the closed vehicle loop from the
   current stable model while every request is mirrored as a pinned
   clone to candidate replicas.  The candidate is measured on live
   traffic without ever steering a vehicle.
2. **canary** — the traffic-split router sends a configured fraction of
   *real* traffic to the candidate replicas (optionally under an armed
   fault plan — crashed canaries are part of the test).
3. **stable** — both gates passed: the ``stable`` tag moves to the
   candidate and the next round's vehicles drive on it.

Any gate failure rolls the candidate back: its tags are dropped and the
previous stable keeps serving — including when the failure is *induced*
(a canary crash makes the candidate fail its min-completions gate, so a
fleet that kills canaries auto-rolls-back).  Every decision is recorded
with explicit reasons in the stage reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.clock import EventScheduler
from repro.common.errors import RolloutError
from repro.common.rng import seed_from_name
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet.config import FleetConfig
from repro.fleet.gates import GateDecision, evaluate_gate
from repro.fleet.registry import (
    TAG_CANARY,
    TAG_CANDIDATE,
    TAG_STABLE,
    ModelRegistry,
)
from repro.fleet.stage import StageHarness, VersionStats, version_stats
from repro.fleet.world import SyntheticTrackWorld
from repro.obs.metrics import MetricsRegistry, SeriesHandle, ensure_registry
from repro.obs.tracer import NullTracer, Tracer
from repro.serve.replica import BatchLatencyModel
from repro.serve.router import TrafficSplitRouter
from repro.serve.service import InferenceService
from repro.serve.workload import VehicleFleetWorkload

__all__ = [
    "StageReport",
    "RolloutReport",
    "RolloutController",
    "STAGE_SHADOW",
    "STAGE_CANARY",
    "OUTCOME_BOOTSTRAPPED",
    "OUTCOME_PROMOTED",
    "OUTCOME_ROLLED_BACK",
]

STAGE_SHADOW = "shadow"
STAGE_CANARY = "canary"

OUTCOME_BOOTSTRAPPED = "bootstrapped"
OUTCOME_PROMOTED = "promoted"
OUTCOME_ROLLED_BACK = "rolled-back"

#: Serving cost model for rollout stages (GPU-ish: overhead-dominated).
STAGE_LATENCY = BatchLatencyModel(overhead_s=0.004, per_item_s=0.0015, jitter=0.05)


@dataclass(frozen=True)
class StageReport:
    """One rollout stage: measurements + the gate verdict."""

    stage: str
    candidate: VersionStats
    baseline: VersionStats
    stale_ratio: float
    crashes: int
    decision: GateDecision


@dataclass(frozen=True)
class RolloutReport:
    """One candidate's walk through the promotion lattice."""

    round_no: int
    candidate_version: int
    outcome: str
    prior_stable: int
    new_stable: int
    history: tuple[str, ...]
    stages: tuple[StageReport, ...]


class RolloutController:
    """Promotes registry candidates through shadow and canary gates."""

    def __init__(
        self,
        registry: ModelRegistry,
        world: SyntheticTrackWorld,
        scheduler: EventScheduler,
        config: FleetConfig,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.world = world
        self.scheduler = scheduler
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = ensure_registry(metrics)
        self._promotions = SeriesHandle(self.metrics.counter, "fleet.promotions")
        self._rollbacks = SeriesHandle(self.metrics.counter, "fleet.rollbacks")
        # One labelled pool serves every stage of every round, so stage
        # cross-track errors are comparable across the whole run.
        self._frames, labels = world.eval_pool(
            config.eval_records, seed_from_name("fleet-stage-pool", config.seed)
        )
        self._experts = labels[:, 0]

    # ------------------------------------------------------------- rounds

    def run_round(self, round_no: int) -> RolloutReport:
        """Walk the current ``candidate`` through the lattice."""
        candidate = self.registry.resolve(TAG_CANDIDATE)
        if candidate is None:
            raise RolloutError(f"round {round_no}: no candidate to roll out")
        stable = self.registry.resolve(TAG_STABLE)
        if stable is None:
            # Bootstrap: an empty fleet has nothing to gate against — the
            # first checkpoint becomes stable directly, a promotion too.
            self.registry.tag(TAG_STABLE, candidate)
            self.registry.untag(TAG_CANDIDATE)
            self._promotions.inc()
            return RolloutReport(
                round_no=round_no,
                candidate_version=candidate,
                outcome=OUTCOME_BOOTSTRAPPED,
                prior_stable=0,
                new_stable=candidate,
                history=("candidate", "stable"),
                stages=(),
            )
        if candidate == stable:
            raise RolloutError(
                f"round {round_no}: candidate {candidate} is already stable"
            )
        stages: list[StageReport] = []
        history: list[str] = ["candidate"]
        with self.tracer.span(
            "fleet.rollout", round=round_no, candidate=candidate
        ):
            shadow = self._run_stage(
                STAGE_SHADOW, round_no, candidate, stable, fault_plan=None
            )
            stages.append(shadow)
            history.append(STAGE_SHADOW)
            if shadow.decision.passed:
                self.registry.tag(TAG_CANARY, candidate)
                canary = self._run_stage(
                    STAGE_CANARY,
                    round_no,
                    candidate,
                    stable,
                    fault_plan=self.config.canary_plan_for(round_no),
                )
                stages.append(canary)
                history.append(STAGE_CANARY)
                passed = canary.decision.passed
            else:
                passed = False
        if passed:
            self.registry.tag(TAG_STABLE, candidate)
            self.registry.untag(TAG_CANARY)
            self.registry.untag(TAG_CANDIDATE)
            history.append("stable")
            outcome = OUTCOME_PROMOTED
            new_stable = candidate
        else:
            self.registry.untag(TAG_CANARY)
            self.registry.untag(TAG_CANDIDATE)
            history.append(OUTCOME_ROLLED_BACK)
            outcome = OUTCOME_ROLLED_BACK
            new_stable = stable
        (self._promotions if passed else self._rollbacks).inc()
        return RolloutReport(
            round_no=round_no,
            candidate_version=candidate,
            outcome=outcome,
            prior_stable=stable,
            new_stable=new_stable,
            history=tuple(history),
            stages=tuple(stages),
        )

    # ------------------------------------------------------------- stages

    def _run_stage(
        self,
        stage: str,
        round_no: int,
        candidate: int,
        stable: int,
        fault_plan: FaultPlan | None,
    ) -> StageReport:
        """Serve the closed vehicle loop against one mixed fleet."""
        config = self.config
        cand_label = self.registry.version_label(candidate)
        stable_label = self.registry.version_label(stable)
        if stage == STAGE_SHADOW:
            weights = {stable_label: 1.0}
            shadow_version = cand_label
        else:
            weights = {
                stable_label: 1.0 - config.canary_fraction,
                cand_label: config.canary_fraction,
            }
            shadow_version = ""
        injector = None
        if fault_plan is not None:
            start = self.scheduler.clock.now
            shifted = FaultPlan(
                [
                    dataclasses.replace(spec, at_s=start + spec.at_s)
                    for spec in fault_plan
                ]
            )
            injector = FaultInjector(
                shifted,
                seed=seed_from_name(f"fleet-faults-{round_no}", config.seed),
            )
        service = InferenceService(
            STAGE_LATENCY,
            scheduler=self.scheduler,
            # The service compiles the plans of each model it pins.
            model=self.registry.load(stable),
            model_version=stable_label,
            n_replicas=config.stable_replicas,
            router=TrafficSplitRouter(weights),
            # "wait" fires each replica's queue after a short window; the
            # adaptive policy would idle until deadline pressure, which at
            # 20 Hz reads as one full stale tick per request.
            batch_policy="wait",
            max_batch=4,
            max_wait_s=0.004,
            seed=seed_from_name(f"fleet-{stage}-{round_no}", config.seed),
            injector=injector,
            # Per-batch serve spans are deliberately not traced here: the
            # fleet golden locks loop-level structure (rounds, stages,
            # gates); serve-span detail is covered by the serve goldens.
            # A child view: the stage's summary, conservation check,
            # crash count and per-version stats read only its own
            # records, and the run's series still get every record.
            metrics=self.metrics.child(),
        )
        candidate_model = self.registry.load(candidate)
        for _ in range(config.canary_replicas):
            service.add_replica(model=candidate_model, model_version=cand_label)
        harness = StageHarness(
            inner=VehicleFleetWorkload(
                n_vehicles=config.stage_vehicles,
                dt=config.stage_dt,
                deadline_ticks=config.deadline_ticks,
                seed=seed_from_name(f"fleet-loop-{stage}-{round_no}", config.seed),
            ),
            frames=self._frames,
            expert_angles=self._experts,
            shadow_version=shadow_version,
        )
        with self.tracer.span(
            "fleet.stage", stage=stage, round=round_no, candidate=cand_label
        ):
            service.run(harness, config.stage_duration_s)
        candidate_stats = version_stats(
            service.metrics, cand_label, config.cte_gain_m
        )
        baseline_stats = version_stats(
            service.metrics, stable_label, config.cte_gain_m
        )
        decision = evaluate_gate(
            stage,
            candidate_stats,
            baseline_stats,
            harness.stale_ratio,
            config.gates,
        )
        return StageReport(
            stage=stage,
            candidate=candidate_stats,
            baseline=baseline_stats,
            stale_ratio=harness.stale_ratio,
            crashes=service.crashes,
            decision=decision,
        )
