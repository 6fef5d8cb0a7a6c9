"""Fault plans: validation, matching, windows, serialisation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.faults.plan import (
    ACTION_KINDS,
    WINDOW_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)


class TestFaultSpec:
    def test_window_kinds_need_duration(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.REPLICA_HANG, "replica-0001", at_s=1.0)

    def test_crash_needs_no_duration(self):
        spec = FaultSpec(FaultKind.REPLICA_CRASH, "replica-0001", at_s=1.0)
        assert spec.end_s == 1.0
        assert not spec.active_at(1.0)  # crashes are actions, not windows

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.REPLICA_CRASH, "", at_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.REPLICA_CRASH, "x", at_s=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.SLOW_NODE, "x", at_s=0.0, duration_s=1.0,
                      factor=0.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.STORE_ERROR, "x", at_s=0.0, duration_s=1.0,
                      error_rate=1.5)
        # NaN passed every ``<`` check, and a scenario file can hold NaN
        # or Infinity: Python's json parses both literals.
        for field in ("at_s", "duration_s", "factor"):
            for value in (float("nan"), float("inf")):
                numbers = {"at_s": 1.0, "duration_s": 1.0, "factor": 2.0}
                numbers[field] = value
                with pytest.raises(ConfigurationError, match=field):
                    FaultSpec(FaultKind.SLOW_NODE, "x", **numbers)

    def test_exact_and_wildcard_matching(self):
        exact = FaultSpec(FaultKind.REPLICA_CRASH, "replica-0001", at_s=0.0)
        assert exact.matches("replica-0001")
        assert not exact.matches("replica-0002")
        wild = FaultSpec(FaultKind.REPLICA_CRASH, "replica-*", at_s=0.0)
        assert wild.matches("replica-0001") and wild.matches("replica-0999")
        assert not wild.matches("store:models")

    def test_window_is_half_open(self):
        spec = FaultSpec(
            FaultKind.LINK_PARTITION, "a->b", at_s=2.0, duration_s=3.0
        )
        assert not spec.active_at(1.999)
        assert spec.active_at(2.0)
        assert spec.active_at(4.999)
        assert not spec.active_at(5.0)

    def test_dict_round_trip(self):
        spec = FaultSpec(FaultKind.SLOW_NODE, "replica-*", at_s=1.5,
                         duration_s=2.0, factor=3.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"kind": "meteor-strike", "target": "x",
                                 "at_s": 0.0})
        with pytest.raises(ConfigurationError):
            FaultSpec.from_dict({"kind": "replica-crash"})

    def test_kind_partition_covers_every_kind(self):
        assert WINDOW_KINDS | ACTION_KINDS == frozenset(FaultKind)


class TestFaultPlan:
    def test_specs_sorted_by_start_time(self):
        late = FaultSpec(FaultKind.REPLICA_CRASH, "a", at_s=5.0)
        early = FaultSpec(FaultKind.REPLICA_CRASH, "b", at_s=1.0)
        plan = FaultPlan([late, early])
        assert [s.target for s in plan] == ["b", "a"]
        assert len(plan) == 2

    def test_equal_times_keep_insertion_order(self):
        a = FaultSpec(FaultKind.REPLICA_CRASH, "a", at_s=1.0)
        b = FaultSpec(FaultKind.REPLICA_CRASH, "b", at_s=1.0)
        assert [s.target for s in FaultPlan([a, b])] == ["a", "b"]

    def test_last_clear(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.REPLICA_HANG, "a", at_s=1.0, duration_s=4.0),
            FaultSpec(FaultKind.REPLICA_CRASH, "b", at_s=6.0),
        ])
        assert plan.last_clear_s == 6.0
        assert FaultPlan().last_clear_s == 0.0

    def test_dicts_round_trip(self):
        plan = FaultPlan([
            FaultSpec(FaultKind.STORE_ERROR, "store:models", at_s=0.5,
                      duration_s=1.0, error_rate=0.25),
            FaultSpec(FaultKind.REPLICA_CRASH, "replica:any", at_s=2.0),
        ])
        again = FaultPlan.from_dicts(plan.to_dicts())
        assert again.specs == plan.specs


class TestRandomizedPlan:
    def test_deterministic_per_seed(self):
        kw = dict(targets=["replica-0001", "replica-0002"], duration_s=20.0)
        assert (
            FaultPlan.randomized(rng=3, **kw).to_dicts()
            == FaultPlan.randomized(rng=3, **kw).to_dicts()
        )
        assert (
            FaultPlan.randomized(rng=3, **kw).to_dicts()
            != FaultPlan.randomized(rng=4, **kw).to_dicts()
        )

    def test_respects_quiet_tail_and_crash_budget(self):
        for seed in range(10):
            plan = FaultPlan.randomized(
                ["replica-0001"], duration_s=10.0, rng=seed, n_faults=6,
                max_crashes=1, quiet_tail_frac=0.3,
            )
            crashes = [
                s for s in plan if s.kind is FaultKind.REPLICA_CRASH
            ]
            assert len(crashes) <= 1
            assert all(spec.end_s <= 7.0 + 1e-9 for spec in plan)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized([], duration_s=10.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(["a"], duration_s=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(["a"], duration_s=5.0, quiet_tail_frac=1.0)
