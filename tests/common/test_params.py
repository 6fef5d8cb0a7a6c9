"""Each config checks its own numbers, however it is built."""

import dataclasses
import math

import pytest

from repro.common.errors import ConfigurationError
from repro.fleet import FleetConfig, GateThresholds
from repro.fleet.config import _POSITIVE
from repro.serve.autoscale import AutoscalePolicy

#: (config, field, whether it is a count) for every number field, so a
#: field added to any of the three is covered without editing this.
NUMBER_FIELDS = [
    (config, field.name, type(field.default) is int)
    for config in (FleetConfig, GateThresholds, AutoscalePolicy)
    for field in dataclasses.fields(config)
    if type(field.default) in (int, float) and field.name != "seed"
]


@pytest.mark.parametrize(
    "config, name, count",
    NUMBER_FIELDS,
    ids=[f"{config.__name__}.{name}" for config, name, _count in NUMBER_FIELDS],
)
def test_built_directly_refuses_a_bad_number(config, name, count):
    bad = [math.nan, math.inf, -math.inf, -1] + ([2.5] if count else [])
    for value in bad:
        with pytest.raises(ConfigurationError, match=rf"^{name} must be"):
            config(**{name: value})


@pytest.mark.parametrize("name", _POSITIVE)
def test_fleet_config_refuses_zero_where_positive(name):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be > 0"):
        FleetConfig(**{name: 0})


def test_the_checked_number_is_stored():
    config = FleetConfig(n_vehicles=4.0, data_window_s=2)
    assert type(config.n_vehicles) is int and config.n_vehicles == 4
    assert type(config.data_window_s) is float and config.data_window_s == 2.0


def test_seed_takes_any_int():
    assert FleetConfig(seed=-7).seed == -7


def test_frame_hw_is_two_whole_numbers_of_at_least_five():
    for value in ("ab", [0, 24], (16,), [16.5, 24], [16, math.nan], [True, 24]):
        with pytest.raises(ConfigurationError, match=r"^frame_hw must be"):
            FleetConfig(frame_hw=value)
    assert FleetConfig(frame_hw=[5, 24.0]).frame_hw == (5, 24)
