"""End-to-end continuum-loop regression locks.

Three behaviours are pinned, each byte-identical per seed:

* a healthy fleet improves and promotes: candidates pass shadow and
  canary gates and the ``stable`` tag advances every round;
* a degraded candidate (training on a poisoned round's inverted
  steering labels) fails its gate and rolls back, leaving the previous
  stable tag in place;
* a canary crash mid-stage starves the candidate of completions, which
  fails the min-completions gate — a fault-*induced* rollback.
"""

import dataclasses
import json

import pytest

from repro.common.errors import FleetError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.fleet import (
    OUTCOME_BOOTSTRAPPED,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    FleetConfig,
    FleetLoop,
)
from repro.fleet.dataplane import FleetDataPlane, IngestStage
from repro.fleet.gates import GateThresholds
from repro.fleet.rollout import RolloutController
from repro.fleet.stage import StageHarness
from repro.obs.metrics import MetricsRegistry

# Small but real: 4 vehicles x 2 flushes x 12 records per round, three
# rollout stages of 0.6 simulated seconds each.
BASE = dict(
    n_vehicles=4,
    records_per_flush=12,
    stage_vehicles=4,
    stage_duration_s=0.6,
    min_fresh_records=48,
    eval_records=48,
    gates=GateThresholds(min_completions=10),
    canary_fraction=0.35,
    rounds=3,
)

CANARY_CRASH = FaultPlan(
    [FaultSpec(FaultKind.REPLICA_CRASH, "replica-0003", at_s=0.1)]
)


def run(seed=0, **overrides):
    config = FleetConfig(seed=seed, **{**BASE, **overrides})
    return FleetLoop(config).run()


class TestPromotionLoop:
    def test_three_rounds_bootstrap_then_promote(self):
        summary = run()
        outcomes = [r.rollout.outcome for r in summary.rounds]
        assert outcomes == [
            OUTCOME_BOOTSTRAPPED, OUTCOME_PROMOTED, OUTCOME_PROMOTED,
        ]
        assert summary.final_stable == 3
        assert [r.stable_version for r in summary.rounds] == [1, 2, 3]
        # Promotion walked the full lattice both times.
        for report in summary.rounds[1:]:
            assert report.rollout.history == (
                "candidate", "shadow", "canary", "stable",
            )
            assert report.promotion_latency_s > 0.0

    def test_retraining_improves_driving(self):
        """The loop actually learns: round-2+ candidates drive better
        than the bootstrap checkpoint on the shared eval pool."""
        summary = run()
        ctes = [r.train.eval_cte_m for r in summary.rounds]
        assert min(ctes[1:]) < ctes[0]

    def test_candidates_warm_start_from_stable(self):
        summary = run()
        warm = [r.train.warm_start for r in summary.rounds]
        assert warm == [0, 1, 2]

    def test_same_seed_byte_identical(self):
        a = json.dumps(run().to_dict(), sort_keys=True)
        b = json.dumps(run().to_dict(), sort_keys=True)
        assert a == b
        assert run(seed=0).to_text() == run(seed=0).to_text()

    def test_seed_changes_the_run(self):
        assert json.dumps(run().to_dict()) != json.dumps(run(seed=5).to_dict())

    def test_metrics_counters(self):
        config = FleetConfig(seed=0, **BASE)
        metrics = MetricsRegistry()
        summary = FleetLoop(config, metrics=metrics).run()
        counters = metrics.snapshot()["counters"]
        assert counters["fleet.rounds"] == 3
        # The bootstrap is a promotion too, as the summary counts it.
        assert counters["fleet.promotions"] == 3 == summary.promotions
        assert counters["fleet.candidates"] == 3
        # Only gated promotions have a latency.
        latency = metrics.find("fleet.promotion_latency_s").hist
        assert latency.count == 2
        assert summary.mean_promotion_latency_s == latency.mean_s


class TestDegradedCandidateRollback:
    def test_poisoned_round_rolls_back(self):
        summary = run(poison_rounds=(3,))
        last = summary.rounds[-1]
        assert last.rollout.outcome == OUTCOME_ROLLED_BACK
        # The previous stable is restored (never left), and the bad
        # candidate's tags are gone.
        assert last.stable_version == last.rollout.prior_stable == 2
        assert summary.final_stable == 2
        assert last.rollout.history[-1] == OUTCOME_ROLLED_BACK
        reasons = [
            reason
            for stage in last.rollout.stages
            for reason in stage.decision.reasons
        ]
        assert any("cte" in reason for reason in reasons)

    def test_rollback_is_byte_identical(self):
        a = run(poison_rounds=(3,))
        b = run(poison_rounds=(3,))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


class TestFaultInducedRollback:
    def test_canary_crash_rolls_back(self):
        summary = run(canary_fault_plans=((3, CANARY_CRASH),))
        last = summary.rounds[-1]
        assert last.rollout.outcome == OUTCOME_ROLLED_BACK
        assert summary.final_stable == 2
        canary = last.rollout.stages[-1]
        assert canary.stage == "canary"
        assert canary.crashes == 1
        assert any(
            "completions" in reason for reason in canary.decision.reasons
        )
        # The shadow stage (pre-crash) was healthy: the rollback is the
        # fault's doing, not the model's.
        assert last.rollout.stages[0].decision.passed

    def test_crash_rollback_is_byte_identical(self):
        plans = ((3, CANARY_CRASH),)
        a = run(canary_fault_plans=plans)
        b = run(canary_fault_plans=plans)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


class TestStageAccounting:
    """Each stage scores an offer under the version that serves it."""

    def test_offers_balance_per_version(self, monkeypatch):
        harnesses = []
        start = StageHarness.start

        def start_recorded(harness, service, until_s):
            harnesses.append(harness)
            start(harness, service, until_s)

        monkeypatch.setattr(StageHarness, "start", start_recorded)
        summary = run(canary_fault_plans=((3, CANARY_CRASH),))
        stages = [
            stage
            for report in summary.rounds[1:]
            for stage in report.rollout.stages
        ]
        assert [stage.crashes for stage in stages] == [0, 0, 0, 1]
        assert len(harnesses) == len(stages)
        for stage, harness in zip(stages, harnesses):
            board = harness.scoreboard
            served = {stage.candidate.version, stage.baseline.version}
            # No offer lands on a version no replica of the stage serves.
            assert set(board.versions()) <= served, stage.stage
            for version in served:
                stats = board.stats(version)
                assert stats.offered > 0, (stage.stage, version)
                assert stats.offered == stats.completed + stats.losses, (
                    stage.stage, version,
                )
            # Every primary and shadow request is offered exactly once,
            # rescued requests of the crash stage included.
            assert sum(board.stats(v).offered for v in served) == (
                harness.submitted + harness.shadows_sent
            ), stage.stage


class TestStoreFaults:
    def test_partitioned_store_degrades_freshness_not_the_loop(self):
        plan = FaultPlan([
            FaultSpec(
                FaultKind.STORE_ERROR,
                "store:fleet-raw",
                at_s=0.0,
                duration_s=2.0,
                error_rate=1.0,
            ),
        ])
        summary = run(store_fault_plan=plan)
        first = summary.rounds[0]
        assert first.collect.failed_flushes > 0
        # The loop still completes every round and ends with a stable.
        assert len(summary.rounds) == 3
        assert summary.final_stable >= 1


#: (stage class, method, report fields shifted by how much, whether the
#: run then fails its post-conditions)
SKEWED_REPORTS = {
    "shard-lost": (FleetDataPlane, "collect_round", {"flushed_shards": -1}, True),
    "failure-extra": (FleetDataPlane, "collect_round", {"failed_flushes": 1}, True),
    "record-lost": (FleetDataPlane, "collect_round", {"flushed_records": -1}, True),
    "ingested-twice": (IngestStage, "run", {"fresh_records": 1}, True),
    "ingest-lost": (IngestStage, "run", {"fresh_records": -1}, True),
    "ingest-lost-to-a-failed-read": (
        IngestStage, "run", {"fresh_records": -1, "failed_reads": 1}, False,
    ),
}

#: A promotion's report, bent so that it skips a lattice step.
SKEWED_PROMOTIONS = {
    "canary-skipped": lambda report: dataclasses.replace(
        report, history=("candidate", "shadow", "stable")
    ),
    "stable-not-moved": lambda report: dataclasses.replace(
        report, new_stable=report.prior_stable
    ),
}


class TestPostConditions:
    """Every flush and record is accounted for, and no rollout skips a stage."""

    @pytest.mark.parametrize("case", sorted(SKEWED_REPORTS))
    def test_skewed_report(self, monkeypatch, case):
        owner, method, shift, fails = SKEWED_REPORTS[case]
        real = getattr(owner, method)

        def skewed(self, *args, **kwargs):
            report = real(self, *args, **kwargs)
            return dataclasses.replace(
                report,
                **{name: getattr(report, name) + by for name, by in shift.items()},
            )

        monkeypatch.setattr(owner, method, skewed)
        if fails:
            with pytest.raises(FleetError, match="flush|records"):
                run(rounds=1)
        else:
            # A failed read is retried next round, so a record may be
            # missing from the run's ingest without a fault.
            assert len(run(rounds=1).rounds) == 1

    @pytest.mark.parametrize("case", sorted(SKEWED_PROMOTIONS))
    def test_promotion_lattice(self, monkeypatch, case):
        real = RolloutController.run_round

        def skewed(self, round_no):
            report = real(self, round_no)
            if report.outcome != OUTCOME_PROMOTED:
                return report
            return SKEWED_PROMOTIONS[case](report)

        monkeypatch.setattr(RolloutController, "run_round", skewed)
        with pytest.raises(FleetError, match="round 2"):
            run(rounds=2)
