"""Promotion gates, the per-version stage series, and rollout edges."""

import numpy as np
import pytest

from repro.common.clock import EventScheduler
from repro.common.errors import ConfigurationError, RolloutError
from repro.common.rng import seed_from_name
from repro.fleet.config import FleetConfig
from repro.fleet.gates import GateThresholds, evaluate_gate
from repro.fleet.registry import TAG_STABLE
from repro.fleet.rollout import OUTCOME_BOOTSTRAPPED, RolloutController
from repro.fleet.stage import StageHarness, VersionStats, version_stats
from repro.fleet.world import SyntheticTrackWorld
from repro.obs.metrics import MetricsRegistry
from repro.serve.request import Request
from repro.serve.workload import VehicleFleetWorkload

from tests.fleet.test_registry import make_model, make_registry


def stats(**overrides):
    base = dict(
        version="v002",
        offered=40,
        completed=40,
        deadline_met=40,
        losses=0,
        p95_ms=10.0,
        mean_ms=8.0,
        mean_cte_m=0.05,
        max_cte_m=0.1,
    )
    base.update(overrides)
    return VersionStats(**base)


class TestGates:
    def test_clean_pass(self):
        decision = evaluate_gate(
            "shadow", stats(), stats(version="v001"), 0.1, GateThresholds()
        )
        assert decision.passed
        assert decision.reasons == ()

    def test_too_few_completions_fails_outright(self):
        """A crashed canary must not pass a gate by silence."""
        decision = evaluate_gate(
            "canary", stats(completed=3, deadline_met=3), None, 0.0,
            GateThresholds(),
        )
        assert not decision.passed
        assert decision.reasons == ("completions 3 < 20",)

    def test_each_threshold_has_a_reason(self):
        thresholds = GateThresholds()
        cases = {
            "p95": stats(p95_ms=500.0),
            "deadline_miss": stats(deadline_met=10),
            "cte": stats(mean_cte_m=0.9),
        }
        for key, candidate in cases.items():
            decision = evaluate_gate("shadow", candidate, None, 0.0, thresholds)
            assert not decision.passed
            assert any(key in reason for reason in decision.reasons), key

    def test_regression_vs_stable(self):
        decision = evaluate_gate(
            "canary",
            stats(mean_cte_m=0.15),
            stats(version="v001", mean_cte_m=0.02),
            0.0,
            GateThresholds(),
        )
        assert not decision.passed
        assert any("regression" in reason for reason in decision.reasons)
        # The same candidate passes when the baseline has too few samples
        # to be trusted as a comparison point.
        decision = evaluate_gate(
            "canary",
            stats(mean_cte_m=0.15),
            stats(version="v001", mean_cte_m=0.02, completed=2),
            0.0,
            GateThresholds(),
        )
        assert decision.passed

    def test_stale_ratio_is_loop_level(self):
        decision = evaluate_gate(
            "shadow", stats(), None, 0.9, GateThresholds()
        )
        assert not decision.passed
        assert any("stale_ratio" in reason for reason in decision.reasons)

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            GateThresholds(min_completions=0)
        with pytest.raises(ConfigurationError):
            GateThresholds(max_deadline_miss=1.5)

    def test_nan_measurements_fail_closed(self):
        """A NaN fails every bound it meets, as a value above it would."""
        nan = float("nan")
        cases = {
            "p95": (stats(p95_ms=nan), None, 0.0),
            "cte": (stats(mean_cte_m=nan), None, 0.0),
            "regression": (stats(), stats(version="v001", mean_cte_m=nan), 0.0),
            "stale_ratio": (stats(), None, nan),
        }
        for key, (candidate, baseline, stale_ratio) in cases.items():
            decision = evaluate_gate(
                "canary", candidate, baseline, stale_ratio, GateThresholds()
            )
            assert not decision.passed, key
            assert any(key in reason for reason in decision.reasons), key

    def test_a_measurement_at_its_bound_passes(self):
        thresholds = GateThresholds()
        candidate = stats(
            p95_ms=thresholds.max_p95_ms, mean_cte_m=thresholds.max_cte_m
        )
        decision = evaluate_gate(
            "shadow", candidate, None, thresholds.max_stale_ratio, thresholds
        )
        assert decision.passed, decision.reasons

    @pytest.mark.parametrize(
        "field",
        [
            "max_p95_ms",
            "max_deadline_miss",
            "max_stale_ratio",
            "max_cte_m",
            "max_cte_regression_m",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_bounds_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            GateThresholds(**{field: value})


def stage_versions(metrics):
    """The ``version=`` labels of a registry's ``fleet.stage.*`` series."""
    return sorted({
        key.split("{version=")[1].rstrip("}")
        for series in metrics.snapshot().values()
        for key in series
        if key.startswith("fleet.stage.")
    })


class StubService:
    """What a harness reads of its service: scheduler, registry, submit."""

    def __init__(self):
        self.scheduler = EventScheduler()
        self.metrics = MetricsRegistry()

    def submit(self, request):
        return True


class TestVersionSeries:
    def test_versions_sorted_and_stats(self):
        service = StubService()
        harness = StageHarness(
            inner=VehicleFleetWorkload(n_vehicles=1, dt=0.05, seed=0),
            frames=np.zeros((1, 4, 4, 3), dtype=np.uint8),
            expert_angles=np.array([0.1]),
        )
        harness.start(service, until_s=0.0)
        served = Request(
            request_id="r1", source="veh-0000", arrival_s=0.0, deadline_s=1.0,
            pin_version="v001",
        )
        lost = Request(
            request_id="r2", source="veh-0000", arrival_s=0.0, deadline_s=1.0,
            pin_version="v002",
        )
        harness.submit(served)
        harness.submit(lost)
        served.completed_s = 0.01
        served.angle = 0.3
        harness.on_response(served)
        harness.on_loss(lost)
        metrics = service.metrics
        assert stage_versions(metrics) == ["v001", "v002"]
        one = version_stats(metrics, "v001", cte_gain_m=0.5)
        assert one.completed == 1
        assert one.offered == 1
        assert one.mean_cte_m == pytest.approx(0.5 * 0.2)
        assert version_stats(metrics, "v002", 0.5).losses == 1
        assert version_stats(metrics, "v002", 0.5).offered == 1
        assert version_stats(metrics, "ghost", 0.5).completed == 0
        assert version_stats(metrics, "ghost", 0.5).offered == 0


class TestRolloutEdges:
    def make_controller(self, registry):
        config = FleetConfig()
        world = SyntheticTrackWorld(
            frame_hw=config.frame_hw,
            seed=seed_from_name("fleet-world", config.seed),
        )
        return RolloutController(
            registry, world, EventScheduler(), config
        )

    def test_no_candidate_raises(self):
        registry = make_registry()
        controller = self.make_controller(registry)
        with pytest.raises(RolloutError):
            controller.run_round(1)

    def test_bootstrap_tags_stable_directly(self):
        registry = make_registry()
        controller = self.make_controller(registry)
        registry.publish(make_model(0), metrics={})
        report = controller.run_round(1)
        assert report.outcome == OUTCOME_BOOTSTRAPPED
        assert report.history == ("candidate", "stable")
        assert report.stages == ()
        assert registry.resolve(TAG_STABLE) == 1

    def test_candidate_equal_stable_raises(self):
        registry = make_registry()
        controller = self.make_controller(registry)
        registry.publish(make_model(0), metrics={})
        controller.run_round(1)
        registry.tag("candidate", 1)
        with pytest.raises(RolloutError):
            controller.run_round(2)
