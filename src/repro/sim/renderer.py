"""Synthetic camera: the Unity DonkeyCar simulator substitute.

The paper's simulator path collects ``(image, steering, throttle)``
tuples from a Unity game-engine render.  We reproduce the part that
matters to the ML pipeline — a 120x160x3 forward camera whose image
content is determined by the car's pose relative to the track lines —
with a vectorised perspective ground-plane renderer:

1. At construction, the per-pixel ray directions of the pinhole camera
   (pitched down at the track, like the Pi camera on the real car) are
   intersected with the ground plane *once*, yielding a fixed grid of
   ground points in the car frame.
2. Per frame, those points are rotated/translated into world
   coordinates (two matmuls) and classified against the track: lane
   surface, boundary tape, off-track floor, or sky/far.
3. Classification uses :class:`TrackField` — a dense resampling of the
   centreline indexed by a :class:`scipy.spatial.cKDTree` — so the cost
   per frame is one KD-tree query instead of a dense point x segment
   distance matrix.

A top-down orthographic mode (``mode="topdown"``) is retained as a
fidelity ablation (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from repro.common.errors import SimulationError
from repro.common.rng import ensure_rng
from repro.common.units import (
    DONKEYCAR_IMAGE_CHANNELS,
    DONKEYCAR_IMAGE_HEIGHT,
    DONKEYCAR_IMAGE_WIDTH,
)
from repro.sim.tracks import Track

__all__ = [
    "CameraParams",
    "Palette",
    "TrackField",
    "CameraRenderer",
    "PALETTES",
    "RENDERER_MODES",
]

#: Projections :class:`CameraRenderer` can draw.
RENDERER_MODES = ("perspective", "topdown")


@dataclass(frozen=True)
class CameraParams:
    """Intrinsics and mounting of the synthetic camera."""

    height: int = DONKEYCAR_IMAGE_HEIGHT
    width: int = DONKEYCAR_IMAGE_WIDTH
    channels: int = DONKEYCAR_IMAGE_CHANNELS
    mount_height: float = 0.125  # camera height above ground (m)
    pitch_deg: float = 15.0  # downward pitch
    hfov_deg: float = 120.0  # wide-angle Pi camera
    max_distance: float = 4.0  # ground visibility range (m)
    noise_sigma: float = 4.0  # per-pixel Gaussian noise (uint8 units)

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0 or self.channels != 3:
            raise SimulationError("camera must produce HxWx3 frames")
        if not 0 < self.pitch_deg < 90:
            raise SimulationError("pitch must be in (0, 90) degrees")
        if not 10 <= self.hfov_deg < 180:
            raise SimulationError("hfov must be in [10, 180) degrees")
        if self.mount_height <= 0 or self.max_distance <= 0:
            raise SimulationError("mount_height and max_distance must be positive")


@dataclass(frozen=True)
class Palette:
    """RGB colours for the four pixel classes."""

    lane: tuple[int, int, int]
    tape: tuple[int, int, int]
    floor: tuple[int, int, int]
    sky: tuple[int, int, int]
    tape_width: float = 0.048  # 2-inch gaffer tape


#: Palettes keyed by the track's ``tape_color`` metadata.
PALETTES: dict[str, Palette] = {
    # Orange tape on concrete (the default oval, Fig. 3a).
    "orange": Palette(
        lane=(108, 104, 99),
        tape=(232, 119, 34),
        floor=(96, 92, 88),
        sky=(166, 170, 178),
    ),
    # White lines on a dark printed mat (Waveshare, Fig. 3b).
    "white": Palette(
        lane=(44, 46, 52),
        tape=(236, 236, 236),
        floor=(120, 118, 114),
        sky=(166, 170, 178),
        tape_width=0.04,
    ),
}


class TrackField:
    """Nearest-centreline lookup accelerated with a KD-tree.

    The centreline is resampled to ``spacing`` metres between vertices;
    nearest-vertex distance then approximates distance-to-curve with
    error at most ``spacing / 2`` (sub-millimetre in the normal
    direction for the default spacing), which is far below the tape
    width the classifier needs to resolve.
    """

    def __init__(self, track: Track, spacing: float = 0.004) -> None:
        if spacing <= 0:
            raise SimulationError(f"spacing must be positive, got {spacing}")
        n = max(int(np.ceil(track.length / spacing)), 64)
        s = np.linspace(0.0, track.length, n, endpoint=False)
        self.track = track
        self.points = track.point_at(s)
        self.arclengths = s
        # Left normals from forward differences of the dense samples.
        tangent = np.roll(self.points, -1, axis=0) - np.roll(self.points, 1, axis=0)
        tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
        self.normals = np.column_stack([-tangent[:, 1], tangent[:, 0]])
        self._tree = cKDTree(self.points)

    def query(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (distance, arclength, signed side) for world points."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        distance, idx = self._tree.query(pts, k=1)
        delta = pts - self.points[idx]
        side = np.sign(np.einsum("ij,ij->i", delta, self.normals[idx]))
        return distance, self.arclengths[idx], side

    def signed_cte(self, points: np.ndarray) -> np.ndarray:
        """Signed cross-track error (positive = left of centreline)."""
        distance, _, side = self.query(points)
        return distance * side


class CameraRenderer:
    """Renders the forward camera view for a car pose on a track."""

    def __init__(
        self,
        track: Track,
        params: CameraParams | None = None,
        palette: Palette | None = None,
        mode: str = "perspective",
        field_spacing: float = 0.004,
    ) -> None:
        if mode not in RENDERER_MODES:
            raise SimulationError(f"unknown renderer mode: {mode!r}")
        self.track = track
        self.params = params or CameraParams()
        self.palette = palette or PALETTES.get(
            track.metadata.get("tape_color", "orange"), PALETTES["orange"]
        )
        self.mode = mode
        self.field = TrackField(track, spacing=field_spacing)
        if mode == "perspective":
            self._ground_car, self._ground_mask = self._precompute_ground_grid()

    # ------------------------------------------------- precomputation

    def _precompute_ground_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Fixed car-frame ground intersection per pixel.

        Returns ``(ground_xy, mask)`` where ``ground_xy`` has shape
        ``(H, W, 2)`` (car-frame forward/left coordinates; garbage where
        the mask is False) and ``mask`` marks pixels whose ray hits the
        ground within ``max_distance``.
        """
        p = self.params
        h, w = p.height, p.width
        alpha = np.deg2rad(p.pitch_deg)
        fx = (w / 2.0) / np.tan(np.deg2rad(p.hfov_deg) / 2.0)
        fy = fx  # square pixels

        u = np.arange(w) + 0.5
        v = np.arange(h) + 0.5
        xn = (u - w / 2.0) / fx  # right in image
        yn = (v - h / 2.0) / fy  # down in image
        xn_grid, yn_grid = np.meshgrid(xn, yn)

        # Car frame: X forward, Y left, Z up.  Camera basis vectors:
        forward = np.array([np.cos(alpha), 0.0, -np.sin(alpha)])
        right = np.array([0.0, -1.0, 0.0])
        down = np.array([-np.sin(alpha), 0.0, -np.cos(alpha)])

        dirs = (
            xn_grid[..., None] * right
            + yn_grid[..., None] * down
            + forward
        )  # (H, W, 3), unnormalised is fine for plane intersection
        dz = dirs[..., 2]
        hits = dz < -1e-9
        t = np.where(hits, -p.mount_height / np.where(hits, dz, -1.0), np.inf)
        ground = dirs[..., :2] * t[..., None]  # (H, W, 2) forward/left
        dist = np.linalg.norm(ground, axis=-1)
        mask = hits & (dist <= p.max_distance) & (ground[..., 0] > 0.0)
        return ground, mask

    # ---------------------------------------------------------- render

    def render(
        self,
        x: float,
        y: float,
        heading: float,
        rng: int | np.random.Generator | None = None,
        brightness: float = 1.0,
    ) -> np.ndarray:
        """Render the camera frame at a world pose; returns uint8 HxWx3.

        ``rng`` seeds per-pixel sensor noise (pass ``None`` via an
        explicit generator upstream for reproducible sequences);
        ``brightness`` models ambient lighting variation.
        """
        if self.mode == "perspective":
            frame = self._render_perspective(x, y, heading)
        else:
            frame = self._render_topdown(x, y, heading)
        if brightness != 1.0:
            frame = np.clip(frame.astype(np.float32) * brightness, 0, 255)
        if self.params.noise_sigma > 0:
            gen = ensure_rng(rng)
            noise = gen.normal(0.0, self.params.noise_sigma, frame.shape)
            frame = np.clip(frame.astype(np.float32) + noise, 0, 255)
        return frame.astype(np.uint8)

    def _classify(self, world_points: np.ndarray) -> np.ndarray:
        """Map world ground points to RGB rows (N, 3) uint8."""
        pal = self.palette
        distance, _, _ = self.field.query(world_points)
        half = self.track.half_width
        colors = np.empty((len(world_points), 3), dtype=np.uint8)
        colors[:] = pal.floor
        lane = distance < half
        colors[lane] = pal.lane
        tape = np.abs(distance - half) <= pal.tape_width / 2.0
        colors[tape] = pal.tape
        return colors

    def _render_perspective(self, x: float, y: float, heading: float) -> np.ndarray:
        p = self.params
        frame = np.empty((p.height, p.width, 3), dtype=np.uint8)
        frame[:] = self.palette.sky

        mask = self._ground_mask
        ground = self._ground_car[mask]  # (N, 2) forward/left in car frame
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]])
        world = ground @ rot.T + np.array([x, y])
        frame[mask] = self._classify(world)

        # Pixels whose ray hits ground beyond max_distance read as floor
        # fading to sky; paint them floor for a simple horizon band.
        far = (~mask) & (self._ground_car[..., 0] > 0) & np.isfinite(
            self._ground_car[..., 0]
        )
        frame[far] = self.palette.floor
        return frame

    def _render_topdown(self, x: float, y: float, heading: float) -> np.ndarray:
        """Orthographic crop centred ahead of the car (fidelity ablation)."""
        p = self.params
        extent = p.max_distance
        fwd = np.linspace(0.0, extent, p.height)[::-1]  # top of image = far
        lat = np.linspace(extent / 2.0, -extent / 2.0, p.width) * -1.0
        fwd_grid, lat_grid = np.meshgrid(fwd, lat, indexing="ij")
        ground = np.stack([fwd_grid, lat_grid], axis=-1).reshape(-1, 2)
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        rot = np.array([[cos_h, -sin_h], [sin_h, cos_h]])
        world = ground @ rot.T + np.array([x, y])
        return self._classify(world).reshape(p.height, p.width, 3)
