"""Geometry calls per tick of a closed-loop drive: one for the whole fleet.

A tick projects every car's new pose in one call (the observations)
and looks up every car's pure-pursuit target in one ``point_at`` call;
the driver reads the fleet's memoised projection, and the curvature
speed limit goes through the track's batched differences, not
``point_at``.  A tick that puts crashed cars back on the track looks
all their respawn points up in one more ``point_at`` call.  Counting
the calls the program makes keeps a per-car call from coming back
unnoticed: with eight cars, a per-car count is eight times the
per-tick one.  The calls a run makes before its first tick (track
construction, the fleet's reset) are the same for any tick count, so
the difference between a short and a longer run is the per-tick cost
alone.  Sloppy, noisy students make the crashes that exercise the
respawn.
"""

from collections import Counter

import pytest

from repro.eval.library import BASE_SPECS
from repro.eval.runner import run_scenario
from repro.sim import session, tracks

N_VEHICLES = 8
SHORT_TICKS = 20
EXTRA_TICKS = 20


def drive(monkeypatch, ticks):
    """Run a small drive-mot; return geometry call counts and run stats."""
    calls = Counter()
    crashed = []  # per tick: whether a car ended it off the track
    real_project = tracks.project_points
    real_point_at = tracks.Track.point_at
    real_step = session.FleetSession.step

    def project_points(*args, **kwargs):
        calls["project"] += 1
        return real_project(*args, **kwargs)

    def point_at(self, s):
        calls["point_at"] += 1
        return real_point_at(self, s)

    def step(self, steering, throttle):
        query = real_step(self, steering, throttle)
        crashed.append(not query.on_track.all())
        return query

    with monkeypatch.context() as patch:
        patch.setattr(tracks, "project_points", project_points)
        patch.setattr(tracks.Track, "point_at", point_at)
        patch.setattr(session.FleetSession, "step", step)
        spec = BASE_SPECS["drive-mot"].with_overrides(
            {
                "n_vehicles": N_VEHICLES,
                "ticks": ticks,
                "skill": 0.1,
                "steering_noise": 0.8,
            }
        )
        lap_stats = run_scenario(spec, seed=0).artifacts["artifacts"].lap_stats
    calls["steps"] = sum(stats.steps for stats in lap_stats)
    # A crash tick respawns its cars at the start of the next tick.
    calls["respawn_ticks"] = sum(crashed[:-1])
    return calls


@pytest.fixture(scope="module")
def per_tick():
    with pytest.MonkeyPatch.context() as monkeypatch:
        short = drive(monkeypatch, ticks=SHORT_TICKS)
        longer = drive(monkeypatch, ticks=SHORT_TICKS + EXTRA_TICKS)
    return longer - short


def test_extra_ticks_are_vehicle_ticks(per_tick):
    assert per_tick["steps"] == N_VEHICLES * EXTRA_TICKS


def test_at_most_one_projection_per_vehicle_tick(per_tick):
    # One projection per tick for the whole fleet, not one per car.
    assert per_tick["project"] == EXTRA_TICKS


def test_at_most_one_point_lookup_per_vehicle_tick(per_tick):
    # One pursuit-target lookup per tick for the whole fleet, plus at
    # most one respawn lookup per tick that puts cars back.
    assert per_tick["respawn_ticks"] > 0
    assert (
        EXTRA_TICKS
        <= per_tick["point_at"]
        <= EXTRA_TICKS + per_tick["respawn_ticks"]
    )
