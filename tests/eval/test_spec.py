"""Unit tests for the declarative spec layer (merge, apply, round trip)."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.spec import (
    SCENARIO_KINDS,
    ScenarioSpec,
    apply_overrides,
    canonical_json,
    merge_overrides,
)


class TestMergeOverrides:
    def test_union_of_disjoint_maps(self):
        merged = merge_overrides({"a.b": 1}, {"c": "x"})
        assert merged == {"a.b": 1, "c": "x"}

    def test_later_map_wins_on_equal_keys(self):
        assert merge_overrides({"a.b": 1}, {"a.b": 2}) == {"a.b": 2}

    def test_empty_merge_is_empty(self):
        assert merge_overrides() == {}

    @pytest.mark.parametrize("key", ["", ".a", "a.", ".", 7])
    def test_bad_paths_rejected(self, key):
        with pytest.raises(ConfigurationError):
            merge_overrides({key: 1})

    def test_prefix_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="prefix"):
            merge_overrides({"a": 1}, {"a.b": 2})

    def test_shared_parent_is_not_a_conflict(self):
        merged = merge_overrides({"a.b": 1}, {"a.c": 2})
        assert merged == {"a.b": 1, "a.c": 2}

    def test_non_json_value_rejected(self):
        with pytest.raises(ConfigurationError, match="not a JSON type"):
            merge_overrides({"a": object()})

    def test_non_string_dict_key_rejected(self):
        with pytest.raises(ConfigurationError, match="non-string key"):
            merge_overrides({"a": {1: "x"}})


class TestApplyOverrides:
    def test_sets_nested_path(self):
        out = apply_overrides({"a": {"b": 1}}, {"a.b": 2})
        assert out == {"a": {"b": 2}}

    def test_creates_intermediate_dicts(self):
        assert apply_overrides({}, {"a.b.c": 3}) == {"a": {"b": {"c": 3}}}

    def test_does_not_mutate_input(self):
        params = {"a": {"b": 1}}
        apply_overrides(params, {"a.b": 2})
        assert params == {"a": {"b": 1}}

    def test_traversing_scalar_is_an_error(self):
        with pytest.raises(ConfigurationError, match="non-dict"):
            apply_overrides({"a": 1}, {"a.b": 2})

    def test_replacing_dict_with_scalar_is_allowed(self):
        assert apply_overrides({"a": {"b": 1}}, {"a": 5}) == {"a": 5}


class TestScenarioSpec:
    def test_kind_must_be_known(self):
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            ScenarioSpec(name="x", kind="nope")

    def test_name_must_be_non_empty(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ScenarioSpec(name="", kind="serve")

    def test_round_trip(self):
        spec = ScenarioSpec(
            name="x", kind="serve", params={"a": {"b": [1, 2]}}
        )
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown spec keys"):
            ScenarioSpec.from_dict({"name": "x", "kind": "serve", "extra": 1})

    def test_from_dict_requires_name_and_kind(self):
        with pytest.raises(ConfigurationError, match="name and kind"):
            ScenarioSpec.from_dict({"name": "x"})

    def test_with_overrides_returns_new_spec(self):
        base = ScenarioSpec(name="x", kind="serve", params={"a": 1})
        child = base.with_overrides({"a": 2}, name="y")
        assert base.params == {"a": 1}
        assert child.name == "y"
        assert child.kind == "serve"
        assert child.params == {"a": 2}

    def test_digest_tracks_params(self):
        a = ScenarioSpec(name="x", kind="serve", params={"a": 1})
        b = ScenarioSpec(name="x", kind="serve", params={"a": 2})
        assert a.digest() != b.digest()
        assert len(a.digest()) == 12

    def test_kinds_are_stable(self):
        assert SCENARIO_KINDS == ("pipeline", "serve", "fleet", "drive")


def test_canonical_json_sorts_keys_and_ends_with_newline():
    text = canonical_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
