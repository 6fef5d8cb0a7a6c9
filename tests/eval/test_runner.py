"""``run_scenario`` checks every spec key against its kind's table."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.eval.library import MATRIX_BASE, scenario_spec
from repro.eval.runner import run_scenario
from repro.faults.plan import FaultPlan
from repro.sim.dynamics import BicycleModel
from repro.sim.server import AVAILABLE_TRACKS
from repro.sim.session import FleetSession

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


#: One bad value per numeric drive param: NaN, infinite, negative, or a
#: fraction where a count is due.
BAD_DRIVE_VALUES = {
    "n_vehicles": 2.5,
    "ticks": 2.7,
    "dt": float("inf"),
    "skill": float("nan"),
    "steering_noise": float("nan"),
    "perception.noise_m": float("nan"),
    "perception.dropout": -0.1,
    "perception.gate_m": float("nan"),
    "perception.max_coast": 1.5,
    "perception.match_radius_m": float("nan"),
}


@pytest.mark.parametrize("key", sorted(BAD_DRIVE_VALUES))
def test_bad_drive_number_names_the_param(key):
    spec = scenario_spec("drive-mot").with_overrides({key: BAD_DRIVE_VALUES[key]})
    with pytest.raises(
        ConfigurationError, match=rf"'drive-mot' params\.{re.escape(key)} must be"
    ):
        run_scenario(spec)


#: One bad value per kind of numeric fleet param, top level and gates:
#: NaN, infinite, negative, a fraction where a count is due, out of the
#: setting's range, or no number at all.
BAD_FLEET_VALUES = [
    ("model_scale", float("nan")),
    ("learning_rate", float("nan")),
    ("cte_gain_m", float("nan")),
    ("n_vehicles", 2.5),
    ("data_window_s", float("nan")),
    ("data_window_s", float("inf")),
    ("epochs", -1),
    ("stable_replicas", 0),
    ("stage_dt", 0),
    ("gates.max_cte_m", float("nan")),
    ("gates.max_cte_regression_m", float("nan")),
    ("gates.min_completions", 2.5),
    ("gates.max_deadline_miss", 1.5),
    ("frame_hw", "ab"),
    ("frame_hw", [0, 24]),
]


@pytest.mark.parametrize(("key", "value"), BAD_FLEET_VALUES)
def test_bad_fleet_number_names_the_param(key, value):
    spec = scenario_spec("fleet-canary-chaos").with_overrides({key: value})
    with pytest.raises(
        ConfigurationError,
        match=rf"'fleet-canary-chaos' params\.{re.escape(key)} must be",
    ):
        run_scenario(spec)


#: Round numbers a fleet spec must refuse: a fraction, text, a bool, NaN
#: and infinity, each in a canary fault plan's round and in
#: ``poison_rounds``.
BAD_ROUNDS = [
    ("canary_fault_plans", 2.5),
    ("canary_fault_plans", "3"),
    ("canary_fault_plans", True),
    ("canary_fault_plans", float("nan")),
    ("canary_fault_plans", float("inf")),
    ("poison_rounds", 2.5),
    ("poison_rounds", True),
    ("poison_rounds", "2"),
]


@pytest.mark.parametrize(("key", "value"), BAD_ROUNDS)
def test_bad_fleet_round_names_the_param(key, value):
    spec = scenario_spec("fleet-canary-chaos")
    if key == "poison_rounds":
        rounds = [value]
    else:
        rounds = [{**spec.params["canary_fault_plans"][0], "round": value}]
    with pytest.raises(
        ConfigurationError,
        match=rf"'fleet-canary-chaos' params\.{key}\[0\]",
    ):
        run_scenario(spec.with_overrides({key: rounds}))


#: Serve and pipeline numbers the params table refuses: a fraction where
#: the default is a count, NaN, or no number at all.
BAD_TABLE_VALUES = [
    (MATRIX_BASE, "service.replicas", 2.5),
    (MATRIX_BASE, "workload.n_vehicles", 16.5),
    (MATRIX_BASE, "service.max_wait_s", float("nan")),
    (MATRIX_BASE, "duration_s", "abc"),
    (scenario_spec("pipeline-quickstart"), "n_records", 80.5),
    (scenario_spec("pipeline-quickstart"), "model_scale", float("nan")),
]


@pytest.mark.parametrize(
    ("base", "key", "value"), BAD_TABLE_VALUES,
    ids=[f"{base.name}-{key}" for base, key, _ in BAD_TABLE_VALUES],
)
def test_bad_table_number_names_the_param(base, key, value):
    spec = base.with_overrides({key: value})
    with pytest.raises(
        ConfigurationError,
        match=rf"'{base.name}' params\.{re.escape(key)} must be",
    ):
        run_scenario(spec)


@pytest.mark.parametrize(
    "value",
    ["ab", [24.5, 32], [0, 32], [4, 32], [24, 32, 3]],
    ids=["text", "fraction", "zero", "too-small", "three-sides"],
)
def test_bad_camera_hw_names_the_param(value):
    # Refused before anything runs: a type, a fraction, a side the model
    # backbones cannot take, or a third side that would be dropped.
    spec = scenario_spec("pipeline-quickstart").with_overrides(
        {"camera_hw": value}
    )
    with pytest.raises(
        ConfigurationError,
        match=r"'pipeline-quickstart' params\.camera_hw must be two whole",
    ):
        run_scenario(spec)


@pytest.mark.parametrize(
    ("key", "value"), [("min_replicas", 0), ("interval_s", float("nan"))]
)
def test_bad_autoscale_number_names_the_param(key, value):
    spec = scenario_spec("serve-load").with_overrides({"autoscale": {key: value}})
    with pytest.raises(
        ConfigurationError, match=rf"'serve-load' params\.autoscale\.{key} must be"
    ):
        run_scenario(spec)


def _nan_pose_on_tick_5(monkeypatch):
    real = BicycleModel.advance
    calls = []

    def advance(self, cars, steering, throttle, dt):
        moved = real(self, cars, steering, throttle, dt)
        calls.append(1)
        if len(calls) == 5:
            moved.x[1] = np.nan
        return moved

    monkeypatch.setattr(BicycleModel, "advance", advance)


def _skipped_tick_5(monkeypatch):
    real = FleetSession.step
    calls = []

    def step(self, steering, throttle):
        calls.append(1)
        if len(calls) == 5:
            return self.pose_query()
        return real(self, steering, throttle)

    monkeypatch.setattr(FleetSession, "step", step)


@pytest.mark.parametrize(
    "corrupt", [_nan_pose_on_tick_5, _skipped_tick_5], ids=["nan-pose", "skipped-tick"]
)
def test_drive_post_conditions_catch_a_corrupted_tick(corrupt, monkeypatch):
    corrupt(monkeypatch)
    spec = scenario_spec("drive-mot").with_overrides({"n_vehicles": 3, "ticks": 10})
    with pytest.raises(SimulationError, match="drive"):
        run_scenario(spec)


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
