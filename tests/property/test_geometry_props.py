"""Property-based tests for the geometry core."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim.geometry import (
    offset_closed,
    point_in_closed_polyline,
    polyline_length,
    project_points,
    resample_closed,
    segment_table,
)


@st.composite
def convex_loops(draw):
    """Random convex closed polylines (ellipses with noise-free radii)."""
    n = draw(st.integers(min_value=16, max_value=96))
    a = draw(st.floats(min_value=0.5, max_value=5.0))
    b = draw(st.floats(min_value=0.5, max_value=5.0))
    phase = draw(st.floats(min_value=0.0, max_value=np.pi))
    t = np.linspace(0, 2 * np.pi, n, endpoint=False) + phase
    return np.column_stack([a * np.cos(t), b * np.sin(t)])


@st.composite
def query_points(draw):
    xs = draw(st.lists(st.floats(-8, 8), min_size=1, max_size=8))
    ys = draw(st.lists(st.floats(-8, 8), min_size=len(xs), max_size=len(xs)))
    return np.column_stack([xs, ys[: len(xs)]])


class TestResample:
    @given(loop=convex_loops(), n=st.integers(16, 200))
    @settings(max_examples=40, deadline=None)
    def test_length_preserved(self, loop, n):
        resampled = resample_closed(loop, n)
        assert len(resampled) == n
        # Resampling a convex loop cannot grow its length.  Uniform
        # arclength spacing cuts the tight corners of an eccentric
        # loop, losing up to ~8% at n == len(loop) (10:1 ellipse,
        # measured worst 0.919), so the floor is 0.88, not 0.95.
        original = polyline_length(loop)
        assert polyline_length(resampled) <= original + 1e-9
        if n >= len(loop):
            assert polyline_length(resampled) > 0.88 * original

    @given(loop=convex_loops())
    @settings(max_examples=30, deadline=None)
    def test_spacing_uniform(self, loop):
        resampled = resample_closed(loop, 64)
        seg = np.linalg.norm(np.roll(resampled, -1, axis=0) - resampled, axis=1)
        assert seg.std() <= 0.2 * seg.mean()


def assert_same_projection(a, b):
    for got, want in zip(a, b):
        assert np.array_equal(got, want)


def pair_array_projection(pts, table):
    """``project_points`` over ``(P, S, 2)`` pair arrays and ``einsum``."""
    starts, seg_vec = table.starts, table.vectors
    disp = pts[:, None, :] - starts[None, :, :]
    t = np.einsum("psi,si->ps", disp, seg_vec) / table.length2
    np.clip(t, 0.0, 1.0, out=t)
    closest = starts[None, :, :] + t[..., None] * seg_vec[None, :, :]
    delta = pts[:, None, :] - closest
    dist2 = np.einsum("psi,psi->ps", delta, delta)
    best = np.argmin(dist2, axis=1)
    rows = np.arange(len(pts))
    distances = np.sqrt(dist2[rows, best])
    arclengths = table.s_vertices[best] + t[rows, best] * table.lengths[best]
    d = delta[rows, best]
    v = seg_vec[best]
    signs = np.sign(v[:, 0] * d[:, 1] - v[:, 1] * d[:, 0])
    return distances, arclengths, signs


class TestProjection:
    @given(loop=convex_loops(), pts=query_points(), on_vertices=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_per_axis_equals_pair_arrays_bit_for_bit(self, loop, pts, on_vertices):
        # Sign bits included: compare bytes, not values.  Points on the
        # vertices give the exact zeros where a sign could differ.
        if on_vertices:
            pts = np.vstack([pts, loop[:: max(1, len(loop) // 5)]])
        table = segment_table(loop)
        got = project_points(pts, table)
        want = pair_array_projection(pts, table)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(loop=convex_loops(), pts=query_points())
    @settings(max_examples=40, deadline=None)
    def test_table_equals_raw_polyline_bit_for_bit(self, loop, pts):
        table = segment_table(loop)
        assert_same_projection(project_points(pts, table), project_points(pts, loop))

    @given(loop=convex_loops(), pts=query_points())
    @settings(max_examples=40, deadline=None)
    def test_distance_nonnegative_and_arclength_in_range(self, loop, pts):
        dist, s, side = project_points(pts, loop)
        assert (dist >= 0).all()
        total = polyline_length(loop)
        assert (s >= 0).all() and (s <= total + 1e-9).all()
        assert np.isin(side, (-1.0, 0.0, 1.0)).all()

    @given(loop=convex_loops())
    @settings(max_examples=30, deadline=None)
    def test_vertices_project_to_zero_distance(self, loop):
        dist, _, _ = project_points(loop[::5], loop)
        assert dist.max() < 1e-9

    @given(loop=convex_loops(), pts=query_points())
    @settings(max_examples=30, deadline=None)
    def test_projection_is_idempotent_on_distance(self, loop, pts):
        # Projecting the closest points back must give ~zero distance.
        dist, s, _ = project_points(pts, loop)
        # Reconstruct closest points by walking the arclength coordinate.
        from repro.sim.geometry import cumulative_arclength

        s_vertices = cumulative_arclength(loop)
        ring = np.vstack([loop, loop[:1]])
        s_ring = np.concatenate([s_vertices, [polyline_length(loop)]])
        cx = np.interp(s, s_ring, ring[:, 0])
        cy = np.interp(s, s_ring, ring[:, 1])
        dist2, _, _ = project_points(np.column_stack([cx, cy]), loop)
        assert dist2.max() < 1e-6


def _min_curvature_radius(loop: np.ndarray) -> float:
    """Smallest circumradius over consecutive vertex triples.

    A vertex-normal offset is only well-defined up to the loop's
    minimum radius of curvature — past it the offset self-intersects
    (an eccentric 10:1 ellipse has min radius b**2/a ~ 0.05, far below
    the 0.3 the strategy can draw).  The offset properties therefore
    quantify only over distances the geometry can support.
    """
    p0 = loop
    p1 = np.roll(loop, -1, axis=0)
    p2 = np.roll(loop, -2, axis=0)
    a = np.linalg.norm(p1 - p0, axis=1)
    b = np.linalg.norm(p2 - p1, axis=1)
    c = np.linalg.norm(p2 - p0, axis=1)
    cross = np.abs(
        (p1 - p0)[:, 0] * (p2 - p0)[:, 1]
        - (p1 - p0)[:, 1] * (p2 - p0)[:, 0]
    )
    return float(np.min(a * b * c / (2.0 * cross + 1e-12)))


class TestOffsets:
    @given(loop=convex_loops(), distance=st.floats(0.01, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_inward_offset_shrinks_convex_loops(self, loop, distance):
        assume(distance < 0.9 * _min_curvature_radius(loop))
        inner = offset_closed(loop, distance)  # left of CCW = inward
        assert polyline_length(inner) < polyline_length(loop)

    @given(loop=convex_loops(), distance=st.floats(0.01, 0.3))
    @settings(max_examples=30, deadline=None)
    def test_offset_points_inside_original(self, loop, distance):
        assume(distance < 0.9 * _min_curvature_radius(loop))
        inner = offset_closed(loop, distance)
        inside = point_in_closed_polyline(inner[::4], loop)
        assert inside.all()


class TestPointInPolygon:
    @given(loop=convex_loops())
    @settings(max_examples=30, deadline=None)
    def test_centroid_inside_far_point_outside(self, loop):
        centroid = loop.mean(axis=0, keepdims=True)
        far = centroid + np.array([[100.0, 0.0]])
        assert point_in_closed_polyline(centroid, loop)[0]
        assert not point_in_closed_polyline(far, loop)[0]
