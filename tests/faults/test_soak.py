"""Soak: a vehicle fleet rides out a randomized fault plan and recovers.

Bounded by simulated time (12 s) and fleet size, so the whole module
stays in tier-1 wall-clock budget.  The randomized plans put every
fault in the first 65% of the run (``quiet_tail_frac=0.35``), so the
tail is a clean recovery window to measure against the pre-fault level.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.replica import BatchLatencyModel
from repro.serve.service import InferenceService
from repro.serve.workload import VehicleFleetWorkload
from repro.testbed.hardware import GPU_SPECS
from tests.conftest import TickLog

DURATION_S = 12.0
FLEET = 32
REPLICAS = 3

#: Seeds whose first fault lands after t=1 s, so the timeline has at
#: least one clean pre-fault bucket to compare the recovery against.
SOAK_SEEDS = [2, 3, 4]


def soak(seed):
    targets = [f"replica-{i:04d}" for i in range(1, REPLICAS + 1)]
    plan = FaultPlan.randomized(
        targets, duration_s=DURATION_S, rng=seed, n_faults=4
    )
    service = InferenceService(
        BatchLatencyModel.from_gpu(GPU_SPECS["V100"], 1e8),
        n_replicas=REPLICAS,
        seed=seed,
        injector=FaultInjector(plan, seed=seed),
    )
    workload = VehicleFleetWorkload(FLEET, deadline_ticks=4, seed=seed)
    log = TickLog.attach(workload)
    autoscaler = Autoscaler(service, AutoscalePolicy(
        min_replicas=REPLICAS, max_replicas=2 * REPLICAS,
        interval_s=0.5, provision_delay_s=0.5,
    ))
    summary = service.run(workload, DURATION_S, autoscaler=autoscaler)
    return plan, service, log, summary


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_fleet_rides_out_randomized_faults(seed):
    plan, service, log, summary = soak(seed)
    assert service.crashes + service.hangs > 0, "the plan must actually bite"
    assert plan.last_clear_s <= DURATION_S * 0.65 + 1e-9

    # Floor: the fleet keeps answering through the faults.
    assert summary.completed / summary.offered >= 0.9

    # Conservation holds under randomized chaos too.
    slo = service.slo
    assert slo.offered == slo.completed + slo.losses

    # Recovery: once the last fault clears, the per-bucket fresh-tick
    # ratio returns to at least the pre-fault level.
    timeline = log.fresh_ratio_timeline()
    first_fault = min(spec.at_s for spec in plan)
    pre = [
        ratio for start, ratio in timeline
        if start + log.bucket_s <= first_fault
    ]
    assert pre, "seed must leave a clean pre-fault bucket"
    recovered = [
        ratio for start, ratio in timeline
        if start >= plan.last_clear_s + 1.0
        and start + log.bucket_s <= DURATION_S
    ]
    assert recovered, "the quiet tail must span whole buckets"
    assert min(recovered) >= max(pre) - 0.02


def test_soak_is_deterministic_per_seed():
    def fingerprint():
        _, service, log, summary = soak(SOAK_SEEDS[0])
        return (
            service.slo.offered, service.slo.completed, service.crashes,
            service.hangs, log.max_stale_streak, summary.to_text(),
            tuple(log.fresh_ratio_timeline()),
        )

    assert fingerprint() == fingerprint()
