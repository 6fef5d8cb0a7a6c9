"""Vectorised 2-D polyline geometry used by the track simulator.

All functions operate on numpy arrays of shape ``(N, 2)`` and avoid
Python-level loops over points (per the HPC guides: broadcastable
segment math, views over copies).  These primitives back
:mod:`repro.sim.tracks`: track construction, and the centreline
projection behind every :meth:`~repro.sim.tracks.Track.query`.  A
caller that projects onto one polyline many times builds its
:class:`SegmentTable` once.  The renderer classifies pixels with
:class:`~repro.sim.renderer.TrackField`'s KD-tree instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "polyline_lengths",
    "cumulative_arclength",
    "polyline_length",
    "resample_closed",
    "normals_closed",
    "offset_closed",
    "SegmentTable",
    "segment_table",
    "read_only",
    "project_points",
    "point_in_closed_polyline",
]


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) point array, got shape {pts.shape}")
    if pts.shape[0] < 3:
        raise ValueError(f"need at least 3 points for a closed polyline, got {pts.shape[0]}")
    return pts


def polyline_lengths(points: np.ndarray, closed: bool = True) -> np.ndarray:
    """Per-segment lengths; for closed polylines includes the wrap segment."""
    pts = _as_points(points)
    nxt = np.roll(pts, -1, axis=0) if closed else pts[1:]
    base = pts if closed else pts[:-1]
    return np.linalg.norm(nxt - base, axis=1)


def cumulative_arclength(points: np.ndarray, closed: bool = True) -> np.ndarray:
    """Arclength s_i of each vertex from vertex 0 (s_0 = 0)."""
    seg = polyline_lengths(points, closed=closed)
    out = np.zeros(len(seg) + (0 if closed else 1))
    np.cumsum(seg[: len(out) - 1], out=out[1:])
    return out


def polyline_length(points: np.ndarray, closed: bool = True) -> float:
    """Total length of the polyline."""
    return float(polyline_lengths(points, closed=closed).sum())


def resample_closed(points: np.ndarray, n: int) -> np.ndarray:
    """Resample a closed polyline to ``n`` uniformly spaced vertices.

    Uniform in arclength, starting at the original vertex 0.  This keeps
    downstream per-segment math well conditioned (near-equal segment
    lengths) and lets the renderer cull segments by index windows.
    """
    pts = _as_points(points)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    seg = polyline_lengths(pts, closed=True)
    total = float(seg.sum())
    if total <= 0:
        raise ValueError("degenerate polyline with zero length")
    # Vertex arclengths, including the closing vertex at s = total.
    s_vertices = np.concatenate([[0.0], np.cumsum(seg)])
    ring = np.vstack([pts, pts[:1]])
    s_targets = np.linspace(0.0, total, n, endpoint=False)
    x = np.interp(s_targets, s_vertices, ring[:, 0])
    y = np.interp(s_targets, s_vertices, ring[:, 1])
    return np.column_stack([x, y])


def normals_closed(points: np.ndarray) -> np.ndarray:
    """Unit normals at each vertex of a closed polyline.

    The normal points to the *left* of the direction of travel, so for a
    counter-clockwise loop the normals point inward toward the centroid
    — callers that want outward offsets negate the distance.
    """
    pts = _as_points(points)
    tangent = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
    norm = np.linalg.norm(tangent, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    tangent /= norm
    # Rotate tangent by +90 degrees: (x, y) -> (-y, x).
    return np.column_stack([-tangent[:, 1], tangent[:, 0]])


def offset_closed(points: np.ndarray, distance: float) -> np.ndarray:
    """Offset a closed polyline along its left normals by ``distance``.

    Positive distances move toward the left of travel (inward for CCW
    loops).  This is the tape-line construction: the track's inner and
    outer lines are offsets of the centreline by ±half-width.
    """
    pts = _as_points(points)
    return pts + distance * normals_closed(pts)


@dataclass(frozen=True)
class SegmentTable:
    """Per-segment geometry of a closed polyline, computed once.

    Row ``i`` describes the segment from vertex ``i`` to vertex
    ``i + 1`` (the last one wraps to vertex 0).  Every array is a
    read-only copy, so no later edit, of the table or of the polyline it
    was built from, can put its rows out of step with each other.
    """

    starts: np.ndarray  # (S, 2) start vertices
    vectors: np.ndarray  # (S, 2) end - start
    length2: np.ndarray  # (S,) squared lengths, 1.0 for zero-length segments
    s_vertices: np.ndarray  # (S,) arclength of each start vertex
    lengths: np.ndarray  # (S,) segment lengths

    def __len__(self) -> int:
        return len(self.starts)


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it."""
    array.setflags(write=False)
    return array


def segment_table(polyline: np.ndarray) -> SegmentTable:
    """The :class:`SegmentTable` of an ``(S, 2)`` closed polyline."""
    poly = _as_points(polyline)
    vectors = np.roll(poly, -1, axis=0) - poly
    length2 = np.einsum("ij,ij->i", vectors, vectors)
    length2[length2 == 0] = 1.0
    return SegmentTable(
        starts=read_only(poly.copy()),
        vectors=read_only(vectors),
        length2=read_only(length2),
        s_vertices=read_only(cumulative_arclength(poly, closed=True)),
        lengths=read_only(polyline_lengths(poly, closed=True)),
    )


def project_points(
    query: np.ndarray, polyline: np.ndarray | SegmentTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project query points onto a closed polyline.

    Parameters
    ----------
    query:
        ``(P, 2)`` points to project.
    polyline:
        ``(S, 2)`` closed polyline vertices, or their
        :class:`SegmentTable` (a raw polyline is converted to one first).

    Returns
    -------
    distances:
        ``(P,)`` unsigned distance from each query point to the closest
        polyline point.
    arclengths:
        ``(P,)`` arclength coordinate of the closest point (in ``[0,
        L)``).
    signs:
        ``(P,)`` +1 if the point lies to the left of travel at its
        projection, -1 to the right (0 exactly on the line).  Combined
        with the distance this gives a signed cross-track error.
    """
    pts = np.atleast_2d(np.asarray(query, dtype=np.float64))
    table = polyline if isinstance(polyline, SegmentTable) else segment_table(polyline)
    # Every (P, S) array below is one axis of a (P, S, 2) pair array:
    # numpy's per-call overhead is paid per row, not per pair.
    px, py = pts[:, :1], pts[:, 1:]                          # (P, 1)
    sx, sy = table.starts.T                                  # (S,)
    vx, vy = table.vectors.T

    # Position of each point along each segment.  The dot product
    # starts from +0.0, as a reduction does, so a zero is never -0.0.
    t = (0.0 + (px - sx) * vx + (py - sy) * vy) / table.length2
    np.clip(t, 0.0, 1.0, out=t)
    # Displacement from each segment's closest point to each point.
    ex = px - (sx + t * vx)
    ey = py - (sy + t * vy)
    dist2 = ex * ex + ey * ey                                # (P, S)

    best = np.argmin(dist2, axis=1)                          # (P,)
    rows = np.arange(len(pts))
    distances = np.sqrt(dist2[rows, best])
    arclengths = table.s_vertices[best] + t[rows, best] * table.lengths[best]

    # Cross product of segment direction with point displacement gives
    # the side: positive = left of travel.
    cross = vx[best] * ey[rows, best] - vy[best] * ex[rows, best]
    signs = np.sign(cross)
    return distances, arclengths, signs


def point_in_closed_polyline(query: np.ndarray, polyline: np.ndarray) -> np.ndarray:
    """Vectorised even-odd point-in-polygon test.

    Returns a boolean array of shape ``(P,)``.
    """
    pts = np.atleast_2d(np.asarray(query, dtype=np.float64))
    poly = _as_points(polyline)
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)

    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    crosses = (y0[None, :] > py) != (y1[None, :] > py)
    denom = y1 - y0
    denom = np.where(denom == 0, 1e-300, denom)
    x_at = x0[None, :] + (py - y0[None, :]) * (x1 - x0)[None, :] / denom[None, :]
    hits = crosses & (px < x_at)
    return (hits.sum(axis=1) % 2).astype(bool)
