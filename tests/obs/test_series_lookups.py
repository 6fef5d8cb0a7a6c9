"""A run looks each metric series up once, not once per record.

Every component binds a series at its first record and holds the handle
after that, so a serve run formats each series key once instead of at
each of its thousands of records.  In a single serve or drive run every
series is recorded by exactly one component (the service, its SLO
tracker, or the drive loop), so each key is looked up exactly once.
Counting the registry's lookups keeps a per-record lookup from coming
back unnoticed.
"""

from collections import Counter

import pytest

from repro.eval.library import scenario_spec
from repro.eval.runner import run_scenario
from repro.obs.metrics import MetricsRegistry, series_key


def run_counting_lookups(name):
    """Run library scenario ``name``; return its run and lookups per key."""
    lookups = Counter()
    real_get = MetricsRegistry._get

    def get(self, series_name, labels, kind, factory):
        lookups[series_key(series_name, labels)] += 1
        return real_get(self, series_name, labels, kind, factory)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsRegistry, "_get", get)
        run = run_scenario(scenario_spec(name), seed=1)
    return run, lookups


@pytest.fixture(scope="module")
def runs():
    return {name: run_counting_lookups(name) for name in ("chaos-crash", "drive-mot")}


@pytest.mark.parametrize("name", ["chaos-crash", "drive-mot"])
def test_each_series_is_looked_up_once(runs, name):
    run, lookups = runs[name]
    snapshot = run.metrics.snapshot()
    assert set(lookups) == {key for group in snapshot.values() for key in group}
    assert all(count == 1 for count in lookups.values()), lookups


def test_lookups_do_not_grow_with_records(runs):
    run, lookups = runs["chaos-crash"]
    counters = run.metrics.snapshot()["counters"]
    # The crash and the hang both land, so the fault series are bound too.
    assert counters["serve.faults{kind=crash}"] == 1
    assert counters["serve.faults{kind=hang}"] == 1
    offered = counters["serve.requests{outcome=offered}"]
    assert sum(lookups.values()) * 10 < offered
