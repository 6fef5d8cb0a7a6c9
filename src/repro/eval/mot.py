"""MOT-style tracking metrics over vehicle trajectories.

The multi-vehicle drive scenarios produce two aligned frame sequences:
ground-truth vehicle positions and the estimates of a (deliberately
imperfect) perception tracker.  :func:`evaluate_tracking` scores the
estimates with the classic multi-object-tracking accounting — per-frame
association within a gating radius, misses, false positives, identity
switches, a MOTA-style aggregate — plus a jitter (trajectory smoothness)
metric, mirroring the association/ID-stability/jitter trio of the
SceneScape tracking-evaluation ADR.

Association is deterministic: a ground-truth object first tries to keep
its previously matched track (standard MOTA continuity), then remaining
pairs match greedily by ``(distance, gt_id, track_id)``, so equal
distances break ties stably and the same inputs always yield the same
report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError

__all__ = ["MotReport", "evaluate_tracking", "trajectory_jitter"]

#: One frame of observations: ``{object_id: (x, y)}``.
Frame = Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class MotReport:
    """Aggregate association / identity / smoothness metrics."""

    frames: int
    gt_total: int          # ground-truth object instances over all frames
    matches: int           # gt instances matched to a track
    misses: int            # gt instances with no track within the gate
    false_positives: int   # track instances matching no gt
    id_switches: int       # gt matched to a different track than before
    mota: float            # 1 - (misses + fp + idsw) / gt_total
    association_accuracy: float  # matches keeping their established id
    mean_match_error_m: float    # mean matched gt<->track distance
    jitter_m: float        # mean second-difference magnitude of tracks

    def to_dict(self) -> dict:
        """JSON-ready view (scorecards)."""
        return asdict(self)


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def trajectory_jitter(frames: Sequence[Frame]) -> float:
    """Mean second-difference magnitude over every track (metres).

    For each track id present in three consecutive frames the local
    jitter is ``|p[t+1] - 2 p[t] + p[t-1]|`` — zero for uniform motion,
    growing with measurement noise and identity flapping.
    """
    total = 0.0
    count = 0
    for prev, here, after in zip(frames, frames[1:], frames[2:]):
        for track_id, p1 in here.items():
            p0 = prev.get(track_id)
            p2 = after.get(track_id)
            if p0 is None or p2 is None:
                continue
            total += math.hypot(
                p2[0] - 2.0 * p1[0] + p0[0], p2[1] - 2.0 * p1[1] + p0[1]
            )
            count += 1
    return total / count if count else 0.0


def evaluate_tracking(
    gt_frames: Sequence[Frame],
    tracked_frames: Sequence[Frame],
    match_radius_m: float = 0.5,
) -> MotReport:
    """Score tracker output against aligned ground-truth frames."""
    if len(gt_frames) != len(tracked_frames):
        raise ConfigurationError(
            f"frame sequences differ in length: {len(gt_frames)} vs "
            f"{len(tracked_frames)}"
        )
    if match_radius_m <= 0:
        raise ConfigurationError(
            f"match_radius_m must be positive, got {match_radius_m}"
        )
    gt_total = matches = misses = false_positives = id_switches = 0
    consistent = 0
    error_sum = 0.0
    last_track_of: dict[str, str] = {}
    for gt, tracked in zip(gt_frames, tracked_frames):
        gt_total += len(gt)
        unmatched_gt = dict(gt)
        unmatched_tracks = dict(tracked)
        assigned: dict[str, str] = {}
        # Continuity pass: keep last frame's pairing when still gated.
        for gt_id in sorted(unmatched_gt):
            track_id = last_track_of.get(gt_id)
            if track_id is None or track_id not in unmatched_tracks:
                continue
            distance = _distance(unmatched_gt[gt_id], unmatched_tracks[track_id])
            if distance <= match_radius_m:
                assigned[gt_id] = track_id
                error_sum += distance
                del unmatched_gt[gt_id]
                del unmatched_tracks[track_id]
        # Greedy pass over the remaining pairs, stable tie-breaking.
        candidates = sorted(
            (
                (_distance(gt_pos, track_pos), gt_id, track_id)
                for gt_id, gt_pos in unmatched_gt.items()
                for track_id, track_pos in unmatched_tracks.items()
            ),
        )
        for distance, gt_id, track_id in candidates:
            if distance > match_radius_m:
                break
            if gt_id not in unmatched_gt or track_id not in unmatched_tracks:
                continue
            assigned[gt_id] = track_id
            error_sum += distance
            del unmatched_gt[gt_id]
            del unmatched_tracks[track_id]
        matches += len(assigned)
        misses += len(unmatched_gt)
        false_positives += len(unmatched_tracks)
        for gt_id, track_id in assigned.items():
            previous = last_track_of.get(gt_id)
            if previous is not None and previous != track_id:
                id_switches += 1
            else:
                consistent += 1
            last_track_of[gt_id] = track_id
    mota = (
        1.0 - (misses + false_positives + id_switches) / gt_total
        if gt_total
        else 1.0
    )
    return MotReport(
        frames=len(gt_frames),
        gt_total=gt_total,
        matches=matches,
        misses=misses,
        false_positives=false_positives,
        id_switches=id_switches,
        mota=mota,
        association_accuracy=consistent / matches if matches else 1.0,
        mean_match_error_m=error_sum / matches if matches else 0.0,
        jitter_m=trajectory_jitter(tracked_frames),
    )
