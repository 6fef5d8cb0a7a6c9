"""Property-based invariants for the evaluation harness.

The spec algebra (merge associativity, override-wins), the scorecard
determinism contract (same seed → same bytes; instrumentation on/off
does not move a metric), and the cross-track-error geometry (non-
negative, monotone under added lateral disturbance) must hold for *any*
input — hypothesis drives the space.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.eval.library import MATRIX_BASE
from repro.eval.metrics import trajectory_cte
from repro.eval.runner import run_scenario
from repro.eval.scorecard import Evaluator
from repro.eval.spec import merge_overrides
from repro.sim.tracks import default_tape_oval

SLOW_SETTINGS = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Dot paths over a small alphabet (so maps collide often) in which no
#: path is a strict prefix of another — composition never rejects.
paths = st.sampled_from(
    ["a.b", "a.c", "b.x", "b.y.z", "c", "d.e", "d.f"]
)
#: Strings come from a small explicit alphabet: ``merge_overrides`` never
#: looks inside a value, and drawing from all of unicode makes
#: Hypothesis build its character tables on first use, which trips the
#: too-slow health check on a fresh checkout.
values = st.one_of(
    st.integers(-5, 5), st.booleans(), st.text(alphabet="abc", max_size=3), st.none()
)
override_maps = st.dictionaries(paths, values, max_size=4)


class TestSpecAlgebra:
    @given(a=override_maps, b=override_maps, c=override_maps)
    def test_merge_is_associative(self, a, b, c):
        flat = merge_overrides(a, b, c)
        left = merge_overrides(merge_overrides(a, b), c)
        right = merge_overrides(a, merge_overrides(b, c))
        assert left == right == flat

    @given(a=override_maps, b=override_maps)
    def test_later_override_wins(self, a, b):
        merged = merge_overrides(a, b)
        for key, value in b.items():
            assert merged[key] == value
        for key, value in a.items():
            if key not in b:
                assert merged[key] == value

    @given(a=override_maps)
    def test_merge_is_idempotent(self, a):
        once = merge_overrides(a)
        assert merge_overrides(once, once) == once

    def test_conflicts_reject_in_every_association_order(self):
        """A prefix conflict is rejected however the merge is grouped,
        so error behavior is associativity-preserving too."""
        a, b, c = {"a": 1}, {"a.b": 2}, {"c": 3}
        for grouping in (
            lambda: merge_overrides(a, b, c),
            lambda: merge_overrides(merge_overrides(a, c), b),
            lambda: merge_overrides(a, merge_overrides(b, c)),
        ):
            with pytest.raises(ConfigurationError, match="prefix"):
                grouping()


# One fast serving cell: half a simulated second, 8 closed-loop
# vehicles.  Small enough for hypothesis to run it repeatedly.
FAST_SPEC = MATRIX_BASE.with_overrides(
    {"duration_s": 0.5, "workload.n_vehicles": 8}, name="props-fast"
)


class TestScorecardDeterminism:
    @SLOW_SETTINGS
    @given(seed=st.integers(0, 2**16))
    def test_same_seed_same_scorecard_bytes(self, seed):
        first = Evaluator().evaluate(run_scenario(FAST_SPEC, seed=seed))
        second = Evaluator().evaluate(run_scenario(FAST_SPEC, seed=seed))
        assert first.to_json() == second.to_json()

    @SLOW_SETTINGS
    @given(seed=st.integers(0, 2**16))
    def test_metrics_invariant_under_instrumentation(self, seed):
        traced_run = run_scenario(FAST_SPEC, seed=seed, instrument=True)
        bare_run = run_scenario(FAST_SPEC, seed=seed, instrument=False)
        traced = Evaluator().evaluate(traced_run)
        bare = Evaluator().evaluate(bare_run)
        assert traced.to_json() == bare.to_json()
        # The registry is always on: instrument only picks the tracer.
        assert traced_run.metrics.to_json() == bare_run.metrics.to_json()


TRACK = default_tape_oval()


class TestCrossTrackError:
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 24))
    def test_cte_non_negative_and_bounded_by_offset(self, seed, n):
        rng = ensure_rng(seed)
        s = rng.uniform(0.0, TRACK.length, n)
        offsets = rng.uniform(0.0, TRACK.half_width * 0.9, n)
        points = [
            TRACK.pose_at(float(si), float(di))[:2]
            for si, di in zip(s, offsets)
        ]
        cte = np.abs(trajectory_cte(TRACK, points))
        assert np.all(cte >= 0.0)
        assert np.all(cte <= offsets + 1e-9)

    @given(seed=st.integers(0, 2**16))
    def test_mean_cte_monotone_under_added_disturbance(self, seed):
        """Scaling the same lateral disturbance up never shrinks the
        mean unsigned cross-track error."""
        rng = ensure_rng(seed)
        n = 32
        s = rng.uniform(0.0, TRACK.length, n)
        base = rng.uniform(0.0, TRACK.half_width * 0.9, n)
        means = []
        for scale in (0.25, 0.5, 1.0):
            points = [
                TRACK.pose_at(float(si), float(scale * di))[:2]
                for si, di in zip(s, base)
            ]
            means.append(float(np.mean(np.abs(trajectory_cte(TRACK, points)))))
        assert means[0] <= means[1] + 1e-6
        assert means[1] <= means[2] + 1e-6

    def test_points_shape_is_validated(self):
        with pytest.raises(ConfigurationError, match="N x 2"):
            trajectory_cte(TRACK, np.zeros((3, 3)))
