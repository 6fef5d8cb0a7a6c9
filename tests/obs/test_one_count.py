"""Each serve outcome is counted once, in a metrics registry.

A serve run records every latency into one histogram series and every
outcome into one counter series; the SLO tracker and the service read
their figures back from those series instead of keeping tallies of
their own.  A fleet run serves each rollout stage from its own service,
so each one records through a child view of the run's registry: it
reads only its own records, while the run's series get them all.  A
stage also scores each response and loss under its model version, in
``fleet.stage.*`` series of that same view.
"""

import pytest

from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario
from repro.fleet import rollout
from repro.obs.metrics import StreamingHistogram
from repro.serve.service import InferenceService

OUTCOMES = ("offered", "completed", "drop", "shed", "reject", "expire")


def test_each_latency_is_recorded_once(monkeypatch):
    records = 0
    record = StreamingHistogram.record

    def counting(self, value):
        nonlocal records
        records += 1
        record(self, value)

    monkeypatch.setattr(StreamingHistogram, "record", counting)
    run = run_scenario(scenario_spec("chaos-crash"), seed=1)
    histograms = run.metrics.snapshot()["histograms"]
    counted = sum(digest["count"] for digest in histograms.values())
    completed = run.artifacts["summary"].completed
    assert histograms["serve.request.latency_s"]["count"] == completed > 0
    assert records == counted


@pytest.fixture(scope="module")
def fleet_stages():
    """A fleet-canary-chaos run and the service of each of its stages."""
    services = []

    class RecordingService(InferenceService):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submits = 0
            services.append(self)

        def submit(self, request):
            self.submits += 1
            return super().submit(request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rollout, "InferenceService", RecordingService)
        run = run_scenario(scenario_spec("fleet-canary-chaos"), seed=0)
    return run, services


def test_each_stage_counts_only_its_own_requests(fleet_stages):
    run, services = fleet_stages
    stages = [
        stage
        for report in run.artifacts["summary"].rounds
        if report.rollout is not None
        for stage in report.rollout.stages
    ]
    assert len(services) == len(stages) > 1
    for service, stage in zip(services, stages):
        slo = service.slo
        assert slo.offered == service.submits > 0
        assert slo.offered == slo.completed + slo.losses
        assert service.crashes == stage.crashes
    assert any(service.crashes for service in services)


def test_stage_counts_sum_to_the_run_series(fleet_stages):
    run, services = fleet_stages
    snapshot = run.metrics.snapshot()
    counters = snapshot["counters"]
    for outcome in OUTCOMES:
        assert sum(
            service.metrics.count("serve.requests", outcome=outcome)
            for service in services
        ) == counters.get(f"serve.requests{{outcome={outcome}}}", 0.0), outcome
    assert sum(service.crashes for service in services) == counters[
        "serve.faults{kind=crash}"
    ]
    assert sum(
        service.slo.histogram.count for service in services
    ) == snapshot["histograms"]["serve.request.latency_s"]["count"]


def _per_version(snapshot, section, name, field=None):
    """Sum of one stage series over its ``version=`` labels."""
    return sum(
        value if field is None else value[field]
        for key, value in snapshot[section].items()
        if key.startswith(f"{name}{{version=")
    )


def test_each_stage_scores_every_request_under_a_version(fleet_stages):
    _run, services = fleet_stages
    for service in services:
        metrics = service.metrics
        snapshot = metrics.snapshot()
        completions = _per_version(
            snapshot, "histograms", "fleet.stage.latency_s", "count"
        )
        losses = _per_version(snapshot, "counters", "fleet.stage.losses")
        latency = snapshot["histograms"]["serve.request.latency_s"]
        assert completions == latency["count"] == metrics.count(
            "serve.requests", outcome="completed"
        )
        assert losses == sum(
            metrics.count("serve.requests", outcome=outcome)
            for outcome in ("drop", "shed", "reject", "expire")
        )
        assert completions + losses == metrics.count(
            "serve.requests", outcome="offered"
        ) > 0


def test_stage_version_series_sum_to_the_run_series(fleet_stages):
    run, services = fleet_stages
    snapshot = run.metrics.snapshot()
    stages = [service.metrics.snapshot() for service in services]
    counters, histograms = (
        [key for key in snapshot[section] if key.startswith("fleet.stage.")]
        for section in ("counters", "histograms")
    )
    assert counters and histograms
    for key in counters:
        total = sum(stage["counters"].get(key, 0.0) for stage in stages)
        if key.startswith("fleet.stage.steering_error_sum"):
            # Summed in another order than the run's series: equal to rounding.
            assert snapshot["counters"][key] == pytest.approx(total), key
        else:
            assert snapshot["counters"][key] == total, key
    for key in histograms:
        assert snapshot["histograms"][key]["count"] == sum(
            stage["histograms"][key]["count"]
            for stage in stages
            if key in stage["histograms"]
        ), key
    # Every stage series reaches the run registry.
    for stage in stages:
        for section in ("counters", "gauges", "histograms"):
            assert {
                key for key in stage[section] if key.startswith("fleet.stage.")
            } <= set(snapshot[section]), section
