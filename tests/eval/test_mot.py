"""Unit tests for the MOT metrics and the greedy perception tracker."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.drive import GreedyTracker
from repro.eval.mot import evaluate_tracking, trajectory_jitter


def frames(*per_frame):
    """Shorthand: each arg is one frame dict."""
    return list(per_frame)


class TestEvaluateTracking:
    def test_perfect_tracking(self):
        gt = frames({"a": (0.0, 0.0)}, {"a": (1.0, 0.0)})
        tracked = frames({"t1": (0.0, 0.0)}, {"t1": (1.0, 0.0)})
        report = evaluate_tracking(gt, tracked)
        assert report.mota == 1.0
        assert report.matches == 2
        assert report.misses == 0
        assert report.false_positives == 0
        assert report.id_switches == 0
        assert report.association_accuracy == 1.0
        assert report.mean_match_error_m == 0.0

    def test_miss_and_false_positive(self):
        gt = frames({"a": (0.0, 0.0)})
        tracked = frames({"t1": (9.0, 9.0)})  # out of gate
        report = evaluate_tracking(gt, tracked)
        assert report.misses == 1
        assert report.false_positives == 1
        assert report.matches == 0
        assert report.mota == 1.0 - 2.0 / 1.0

    def test_id_switch_counted_once(self):
        gt = frames({"a": (0.0, 0.0)}, {"a": (0.0, 0.0)}, {"a": (0.0, 0.0)})
        tracked = frames(
            {"t1": (0.0, 0.0)}, {"t2": (0.0, 0.0)}, {"t2": (0.0, 0.0)}
        )
        report = evaluate_tracking(gt, tracked)
        assert report.id_switches == 1
        assert report.matches == 3
        # switches + consistent matches partition all matches
        assert report.association_accuracy == pytest.approx(2.0 / 3.0)

    def test_continuity_beats_distance(self):
        """An established pairing survives even when another track is
        momentarily closer, so tracker crossings do not flap ids."""
        gt = frames(
            {"a": (0.0, 0.0), "b": (1.0, 0.0)},
            {"a": (0.0, 0.0), "b": (1.0, 0.0)},
        )
        tracked = frames(
            {"t1": (0.0, 0.0), "t2": (1.0, 0.0)},
            # t2 drifted right next to a; continuity keeps a<->t1.
            {"t1": (0.1, 0.0), "t2": (0.05, 0.0)},
        )
        report = evaluate_tracking(gt, tracked, match_radius_m=2.0)
        assert report.id_switches == 0

    def test_gating_radius_is_enforced(self):
        gt = frames({"a": (0.0, 0.0)})
        tracked = frames({"t1": (0.0, 0.6)})
        near = evaluate_tracking(gt, tracked, match_radius_m=1.0)
        far = evaluate_tracking(gt, tracked, match_radius_m=0.5)
        assert near.matches == 1
        assert far.matches == 0

    def test_empty_frames_score_perfect(self):
        report = evaluate_tracking(frames({}, {}), frames({}, {}))
        assert report.mota == 1.0
        assert report.gt_total == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="differ in length"):
            evaluate_tracking(frames({}), frames({}, {}))

    def test_bad_radius_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            evaluate_tracking(frames({}), frames({}), match_radius_m=0.0)

    def test_deterministic_tie_breaking(self):
        """Two equidistant candidates resolve by sorted ids, always."""
        gt = frames({"a": (0.0, 0.0), "b": (0.0, 0.0)})
        tracked = frames({"t1": (0.0, 0.0), "t2": (0.0, 0.0)})
        first = evaluate_tracking(gt, tracked)
        second = evaluate_tracking(gt, tracked)
        assert first == second
        assert first.matches == 2


class TestTrajectoryJitter:
    def test_uniform_motion_has_zero_jitter(self):
        track = [{"t": (float(i), 2.0 * i)} for i in range(5)]
        assert trajectory_jitter(track) == 0.0

    def test_oscillation_is_positive(self):
        track = [{"t": (0.0, (-1.0) ** i)} for i in range(5)]
        assert trajectory_jitter(track) == pytest.approx(4.0)

    def test_short_or_gappy_tracks_are_skipped(self):
        assert trajectory_jitter([{"t": (0.0, 0.0)}]) == 0.0
        gappy = [{"t": (0.0, 0.0)}, {}, {"t": (2.0, 0.0)}]
        assert trajectory_jitter(gappy) == 0.0


class TestGreedyTracker:
    def test_noise_free_tracking_is_perfect(self):
        tracker = GreedyTracker(noise_m=0.0, dropout=0.0, seed=0)
        gt = [{"a": (0.0, 0.0), "b": (3.0, 0.0)} for _ in range(4)]
        tracked = [tracker.observe(frame) for frame in gt]
        report = evaluate_tracking(gt, tracked)
        assert report.mota == 1.0
        assert tracker.spawned == 2

    def test_track_retired_after_coast_budget(self):
        tracker = GreedyTracker(noise_m=0.0, dropout=0.0, max_coast=0, seed=0)
        tracker.observe({"a": (0.0, 0.0)})
        tracker.observe({})  # miss: coast budget exhausted, track dies
        out = tracker.observe({"a": (0.0, 0.0)})
        assert list(out) == ["trk-0002"]  # re-acquired under a new id

    def test_detection_outside_gate_spawns_new_track(self):
        tracker = GreedyTracker(noise_m=0.0, dropout=0.0, gate_m=0.5, seed=0)
        tracker.observe({"a": (0.0, 0.0)})
        out = tracker.observe({"a": (5.0, 0.0)})
        assert list(out) == ["trk-0002"]

    @pytest.mark.parametrize(
        "kwargs", [dict(noise_m=-1.0), dict(dropout=1.0), dict(max_coast=-1),
                   dict(gate_m=0.0), dict(noise_m=float("nan")),
                   dict(noise_m=float("inf")), dict(gate_m=float("nan")),
                   dict(gate_m=float("inf"))]
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GreedyTracker(**kwargs)
