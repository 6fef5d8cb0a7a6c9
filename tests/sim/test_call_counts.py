"""Geometry calls per vehicle-tick of a closed-loop drive stay at one.

A tick projects each car's new pose once (the observation) and looks
up one centreline point (the pure-pursuit target); the driver reads the
session's memoised projection, and the curvature speed limit goes
through the track's batched differences, not ``point_at``.  Counting
the calls the program makes keeps a second projection per pose from
coming back unnoticed.  The calls a run makes before its first tick
(track construction, session resets) are the same for any tick count,
so the difference between a short and a longer run is the per-tick
cost alone.
"""

from collections import Counter

import pytest

from repro.eval.library import BASE_SPECS
from repro.eval.runner import run_scenario
from repro.sim import tracks

N_VEHICLES = 2


def drive(monkeypatch, ticks):
    """Run a small drive-mot; return geometry call counts and run stats."""
    calls = Counter()
    real_project = tracks.project_points
    real_point_at = tracks.Track.point_at

    def project_points(*args, **kwargs):
        calls["project"] += 1
        return real_project(*args, **kwargs)

    def point_at(self, s):
        calls["point_at"] += 1
        return real_point_at(self, s)

    with monkeypatch.context() as patch:
        patch.setattr(tracks, "project_points", project_points)
        patch.setattr(tracks.Track, "point_at", point_at)
        spec = BASE_SPECS["drive-mot"].with_overrides(
            {"n_vehicles": N_VEHICLES, "ticks": ticks}
        )
        lap_stats = run_scenario(spec, seed=0).artifacts["artifacts"].lap_stats
    calls["steps"] = sum(stats.steps for stats in lap_stats)
    calls["crashes"] = sum(stats.crashes for stats in lap_stats)
    return calls


@pytest.fixture(scope="module")
def per_tick():
    with pytest.MonkeyPatch.context() as monkeypatch:
        short = drive(monkeypatch, ticks=20)
        longer = drive(monkeypatch, ticks=40)
    return longer - short


def test_extra_ticks_are_vehicle_ticks(per_tick):
    assert per_tick["steps"] == N_VEHICLES * 20


def test_at_most_one_projection_per_vehicle_tick(per_tick):
    assert 0 < per_tick["project"] <= per_tick["steps"]


def test_at_most_one_point_lookup_per_vehicle_tick(per_tick):
    # A crash respawns the car at the next tick through pose_at, which
    # looks up the respawn point once.
    assert 0 < per_tick["point_at"] <= per_tick["steps"] + per_tick["crashes"]
