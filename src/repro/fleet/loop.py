"""The continuum loop: collect → ingest → retrain → stage → promote.

:class:`FleetLoop` closes the paper's edge-to-cloud learning cycle on
one shared discrete-event scheduler.  Each round:

1. the vehicle fleet flushes driving shards into the object store
   (edge → cloud data movement);
2. the ingest stage cleans new shards into the training set;
3. the trainer — if enough fresh data accumulated — retrains the
   autopilot from the current stable checkpoint and publishes a
   ``candidate`` to the registry (cloud learning);
4. the rollout controller stages the candidate through shadow and
   canary gates and either promotes it to ``stable`` or rolls it back
   (cloud → edge model movement).

Everything is a pure function of :class:`~repro.fleet.config.FleetConfig`
(including its seed): the end-of-run :class:`FleetSummary` is
byte-identical across same-config runs, which is what the golden-trace
and property suites lock.  Every run ends by checking that each flush
and each flushed record is accounted for, and that each rollout walked
the promotion lattice without skipping a stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.artifacts.trovi import TroviHub
from repro.common.clock import EventScheduler
from repro.common.errors import FleetError
from repro.common.rng import seed_from_name
from repro.faults.injector import FaultInjector
from repro.fleet.config import FleetConfig
from repro.fleet.dataplane import (
    CollectReport,
    FleetDataPlane,
    IngestReport,
    IngestStage,
)
from repro.fleet.registry import TAG_STABLE, ModelRegistry
from repro.fleet.rollout import (
    OUTCOME_BOOTSTRAPPED,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    STAGE_CANARY,
    STAGE_SHADOW,
    RolloutController,
    RolloutReport,
)
from repro.fleet.trainer import IncrementalTrainer, TrainReport
from repro.fleet.world import SyntheticTrackWorld
from repro.objectstore.store import ObjectStore
from repro.obs.metrics import MetricsRegistry, SeriesHandle, ensure_registry
from repro.obs.tracer import NullTracer, Tracer

__all__ = ["RoundReport", "FleetSummary", "FleetLoop"]

#: The four walks through the promotion lattice, and each one's outcome.
_WALKS = {
    ("candidate", "stable"): OUTCOME_BOOTSTRAPPED,
    ("candidate", STAGE_SHADOW, STAGE_CANARY, "stable"): OUTCOME_PROMOTED,
    ("candidate", STAGE_SHADOW, OUTCOME_ROLLED_BACK): OUTCOME_ROLLED_BACK,
    ("candidate", STAGE_SHADOW, STAGE_CANARY, OUTCOME_ROLLED_BACK): (
        OUTCOME_ROLLED_BACK
    ),
}


@dataclass(frozen=True)
class RoundReport:
    """Everything one loop round did."""

    round_no: int
    poisoned: bool
    collect: CollectReport
    ingest: IngestReport
    train: TrainReport | None
    rollout: RolloutReport | None
    stable_version: int
    promotion_latency_s: float


@dataclass(frozen=True)
class FleetSummary:
    """Deterministic end-of-run report for one continuum-loop run.

    The five totals are the run's ``fleet.*`` counters; a promotion is
    any round that moved ``stable`` to its candidate, bootstrap included.
    """

    rounds: tuple[RoundReport, ...]
    elapsed_s: float
    records_flushed: int
    records_ingested: int
    candidates_published: int
    promotions: int
    rollbacks: int
    final_stable: int

    @property
    def mean_promotion_latency_s(self) -> float:
        """Mean collect→promote latency over rounds that promoted."""
        latencies = [
            report.promotion_latency_s
            for report in self.rounds
            if report.promotion_latency_s > 0.0
        ]
        return sum(latencies) / len(latencies) if latencies else 0.0

    def to_dict(self) -> dict:
        """JSON-ready view (golden summaries, benchmarks), reports nested."""
        return asdict(self)

    def to_text(self) -> str:
        """Fixed-format report; byte-identical across same-seed runs."""
        lines = [
            "fleet summary",
            f"  rounds     {len(self.rounds)} over {self.elapsed_s:.3f}s simulated",
            f"  data       flushed={self.records_flushed} "
            f"ingested={self.records_ingested}",
            f"  models     published={self.candidates_published} "
            f"promotions={self.promotions} rollbacks={self.rollbacks}",
            f"  stable     v{self.final_stable:03d}",
        ]
        for report in self.rounds:
            rollout = report.rollout
            outcome = rollout.outcome if rollout else "idle"
            extra = ""
            if report.train is not None:
                extra = (
                    f" candidate=v{report.train.version:03d}"
                    f" cte={report.train.eval_cte_m:.4f}m"
                )
            if rollout is not None and rollout.outcome == OUTCOME_ROLLED_BACK:
                reasons = []
                for stage in rollout.stages:
                    reasons.extend(stage.decision.reasons)
                extra += f" reasons={'; '.join(reasons)}"
            flag = " poisoned" if report.poisoned else ""
            lines.append(
                f"  round {report.round_no:03d}  {outcome}{flag}"
                f" stable=v{report.stable_version:03d}{extra}"
            )
        return "\n".join(lines) + "\n"


class FleetLoop:
    """Wires the data plane, trainer, and rollout stages into rounds."""

    def __init__(
        self,
        config: FleetConfig,
        scheduler: EventScheduler | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = ensure_registry(metrics)
        self._rounds = SeriesHandle(self.metrics.counter, "fleet.rounds")
        self._promotion_latency = SeriesHandle(
            self.metrics.histogram, "fleet.promotion_latency_s"
        )
        self.scheduler = scheduler if scheduler is not None else EventScheduler()
        self.store = ObjectStore()
        if config.store_fault_plan is not None:
            self.store.attach_resilience(
                injector=FaultInjector(
                    config.store_fault_plan,
                    seed=seed_from_name("fleet-store-faults", config.seed),
                ),
                clock=self.scheduler.clock,
                seed=seed_from_name("fleet-store-retry", config.seed),
            )
        self.world = SyntheticTrackWorld(
            frame_hw=config.frame_hw,
            seed=seed_from_name("fleet-world", config.seed),
        )
        self.hub = TroviHub(clock=self.scheduler.clock)
        self.registry = ModelRegistry(self.hub, self.store)
        self.dataplane = FleetDataPlane(
            self.store,
            self.world,
            self.scheduler,
            config,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.ingest = IngestStage(self.store, tracer=self.tracer, metrics=self.metrics)
        self.trainer = IncrementalTrainer(
            self.store,
            self.registry,
            self.world,
            self.scheduler,
            config,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.rollout = RolloutController(
            self.registry,
            self.world,
            self.scheduler,
            config,
            tracer=self.tracer,
            metrics=self.metrics,
        )

    def run(self) -> FleetSummary:
        """Run every configured round and summarise the whole loop."""
        config = self.config
        start = self.scheduler.clock.now
        reports: list[RoundReport] = []
        for round_no in range(1, config.rounds + 1):
            poisoned = round_no in config.poison_rounds
            with self.tracer.span(
                "fleet.round", round=round_no, poisoned=poisoned
            ):
                collect = self.dataplane.collect_round(round_no, poisoned=poisoned)
                ingest = self.ingest.run(round_no)
                train: TrainReport | None = None
                rollout: RolloutReport | None = None
                latency_s = 0.0
                if self.trainer.should_train(ingest.fresh_records):
                    train = self.trainer.train_round(round_no)
                    rollout = self.rollout.run_round(round_no)
                    if rollout.outcome == OUTCOME_PROMOTED:
                        latency_s = (
                            self.scheduler.clock.now - train.published_at_s
                        )
                        self._promotion_latency.observe(latency_s)
            stable = self.registry.resolve(TAG_STABLE)
            reports.append(
                RoundReport(
                    round_no=round_no,
                    poisoned=poisoned,
                    collect=collect,
                    ingest=ingest,
                    train=train,
                    rollout=rollout,
                    stable_version=stable if stable is not None else 0,
                    promotion_latency_s=latency_s,
                )
            )
            self._rounds.inc()
        final_stable = self.registry.resolve(TAG_STABLE)
        count = self.metrics.count
        summary = FleetSummary(
            rounds=tuple(reports),
            elapsed_s=self.scheduler.clock.now - start,
            records_flushed=count("fleet.flushed_records"),
            records_ingested=count("fleet.fresh_records"),
            candidates_published=count("fleet.candidates"),
            promotions=count("fleet.promotions"),
            rollbacks=count("fleet.rollbacks"),
            final_stable=final_stable if final_stable is not None else 0,
        )
        _check_summary(config, summary)
        return summary


def _check_summary(config: FleetConfig, summary: FleetSummary) -> None:
    """Every flush and record is accounted for, and no rollout skips a stage.

    Each round, every vehicle's every flush either stored a shard of
    ``records_per_flush`` records or failed.  Over the run, each flushed
    record is at most once ingested or dropped by cleaning, and exactly
    once unless a round skipped an object or failed a read.  Each
    rollout passes :func:`_check_rollout`.  A violation raises
    :class:`~repro.common.errors.FleetError`.
    """
    flushes = config.n_vehicles * config.flushes_per_round
    for report in summary.rounds:
        if report.rollout is not None:
            _check_rollout(report.round_no, report.rollout, report.stable_version)
        collect = report.collect
        if collect.flushed_shards + collect.failed_flushes != flushes:
            raise FleetError(
                f"round {report.round_no}: {collect.flushed_shards} stored + "
                f"{collect.failed_flushes} failed flushes, expected {flushes}"
            )
        records = collect.flushed_shards * config.records_per_flush
        if collect.flushed_records != records:
            raise FleetError(
                f"round {report.round_no}: {collect.flushed_records} records in "
                f"{collect.flushed_shards} shards of {config.records_per_flush}"
            )
    ingests = [report.ingest for report in summary.rounds]
    accounted = sum(each.fresh_records + each.dropped_records for each in ingests)
    exact = not any(each.skipped_objects or each.failed_reads for each in ingests)
    if accounted > summary.records_flushed or (
        exact and accounted != summary.records_flushed
    ):
        raise FleetError(
            f"{accounted} records ingested or dropped of "
            f"{summary.records_flushed} flushed"
        )


def _check_rollout(round_no: int, rollout: RolloutReport, stable: int) -> None:
    """One round's rollout walked the promotion lattice in order.

    Its history is one of the four :data:`_WALKS` and matches its
    outcome; its stage reports name the history's middle steps; every
    stage but the last passed, and the last passed exactly when the
    round promoted; ``stable`` moved to the candidate exactly on a
    promotion or bootstrap, and the round ended on ``new_stable``.
    """
    outcome = rollout.outcome
    promoted = outcome == OUTCOME_PROMOTED
    moved = promoted or outcome == OUTCOME_BOOTSTRAPPED
    verdicts = [stage.decision.passed for stage in rollout.stages]
    if _WALKS.get(rollout.history) != outcome:
        problem = f"history {' -> '.join(rollout.history)} for outcome {outcome}"
    elif tuple(stage.stage for stage in rollout.stages) != rollout.history[1:-1]:
        problem = "stage reports do not follow the history"
    elif verdicts and (not all(verdicts[:-1]) or verdicts[-1] != promoted):
        problem = f"gate verdicts {verdicts} for outcome {outcome}"
    elif rollout.new_stable != (
        rollout.candidate_version if moved else rollout.prior_stable
    ):
        problem = f"new stable v{rollout.new_stable:03d} after {outcome}"
    elif stable != rollout.new_stable:
        problem = f"stable is v{stable:03d}, rollout says v{rollout.new_stable:03d}"
    else:
        return
    raise FleetError(f"round {round_no}: {problem}")
