"""``run_scenario`` checks every spec key against its kind's table."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario
from repro.faults.plan import FaultPlan
from repro.sim.server import AVAILABLE_TRACKS

#: (library spec, an override that misspells or drops a key)
BAD_KEYS = {
    "serve-top": ("serve-load", {"duration": 1.0}),
    "serve-service": ("serve-load", {"service.replica": 2}),
    "serve-workload": ("serve-load", {"workload.rate": 10.0}),
    "serve-autoscale": ("serve-load", {"autoscale": {"max_replica": 4}}),
    "serve-fault": ("chaos-crash", {
        "faults": [{"kind": "replica-crash", "target": "replica:any", "at": 2}],
    }),
    "drive-top": ("drive-mot", {"n_vehicle": 2}),
    "drive-perception": ("drive-mot", {"perception.noise": 0.1}),
    "pipeline-top": ("pipeline-quickstart", {"n_record": 10}),
    "fleet-top": ("fleet-canary-chaos", {"n_vehicle": 2}),
    "fleet-gates": ("fleet-canary-chaos", {"gates.min_completion": 5}),
    "fleet-canary-plan": ("fleet-canary-chaos", {
        "canary_fault_plans": [{"round": 3, "faults": [], "when": 1}],
    }),
    "fleet-canary-plan-no-round": ("fleet-canary-chaos", {
        "canary_fault_plans": [{"faults": []}],
    }),
}


@pytest.mark.parametrize("case", sorted(BAD_KEYS))
def test_bad_key_raises_configuration_error(case, tmp_path):
    base, override = BAD_KEYS[case]
    spec = scenario_spec(base).with_overrides(override)
    with pytest.raises(ConfigurationError, match="unknown|needs both"):
        run_scenario(spec, work_dir=tmp_path)


def test_error_names_where_the_key_sits():
    spec = scenario_spec("serve-load").with_overrides({"service.replica": 2})
    with pytest.raises(ConfigurationError, match=r"'serve-load' params\.service"):
        run_scenario(spec)


def test_unknown_drive_track_names_the_param_and_the_tracks():
    spec = scenario_spec("drive-mot").with_overrides({"track": "nosuch"})
    with pytest.raises(ConfigurationError) as info:
        run_scenario(spec)
    message = str(info.value)
    assert "'drive-mot' params.track" in message
    assert "'nosuch'" in message
    for known in AVAILABLE_TRACKS:
        assert known in message


def test_nested_group_must_be_a_mapping():
    spec = scenario_spec("serve-load").with_overrides({"workload": 3})
    with pytest.raises(ConfigurationError, match="must be a mapping"):
        run_scenario(spec)


class _Stop(Exception):
    """Raised by a stub once it has seen the built config."""


def test_fleet_store_fault_plan_is_parsed(monkeypatch):
    import repro.fleet as fleet

    seen = {}

    def stop(config, **kwargs):
        seen["plan"] = config.store_fault_plan
        raise _Stop

    monkeypatch.setattr(fleet, "FleetLoop", stop)
    spec = scenario_spec("fleet-canary-chaos").with_overrides({
        "store_fault_plan": [{
            "kind": "store-error", "target": "store:*", "at_s": 1.0,
            "duration_s": 1.0,
        }],
    })
    with pytest.raises(_Stop):
        run_scenario(spec)
    assert isinstance(seen["plan"], FaultPlan)
    assert len(seen["plan"]) == 1
