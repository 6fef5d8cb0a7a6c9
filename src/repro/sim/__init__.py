"""Driving simulator: tracks, car dynamics, synthetic camera, sessions.

This package replaces the Unity DonkeyCar simulator and the physical
car/track plant (see DESIGN.md §2 for the substitution argument).
"""

from repro.sim.plot import save_svg, track_svg, trajectory_svg
from repro.sim.dynamics import (
    PIRACER_PARAMS,
    BicycleModel,
    CarArrays,
    CarParams,
    CarState,
)
from repro.sim.renderer import (
    PALETTES,
    CameraParams,
    CameraRenderer,
    Palette,
    TrackField,
)
from repro.sim.server import AVAILABLE_TRACKS, SimulatorServer, make_track
from repro.sim.session import DrivingSession, FleetSession, LapStats, Observation
from repro.sim.tracks import (
    PAPER_OVAL_INNER_IN,
    PAPER_OVAL_OUTER_IN,
    PAPER_OVAL_WIDTH_IN,
    Track,
    TrackQuery,
    default_tape_oval,
    track_from_waypoints,
    waveshare_track,
)

__all__ = [
    "track_svg",
    "trajectory_svg",
    "save_svg",
    "BicycleModel",
    "CarArrays",
    "CarParams",
    "CarState",
    "PIRACER_PARAMS",
    "CameraParams",
    "CameraRenderer",
    "Palette",
    "PALETTES",
    "TrackField",
    "SimulatorServer",
    "AVAILABLE_TRACKS",
    "make_track",
    "DrivingSession",
    "FleetSession",
    "LapStats",
    "Observation",
    "Track",
    "TrackQuery",
    "default_tape_oval",
    "waveshare_track",
    "track_from_waypoints",
    "PAPER_OVAL_INNER_IN",
    "PAPER_OVAL_OUTER_IN",
    "PAPER_OVAL_WIDTH_IN",
]
