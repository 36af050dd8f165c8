"""Tests for crossing-pair normalisation and the named region systems."""

from __future__ import annotations

import math

import numpy as np
import pytest

from knnlab.geom import Point, Segment, distance, membership, point_segment_distance
from knnlab.regions import (
    CrossingFrame,
    build_named_regions,
    normalize_crossing_pair,
    normalize_crossing_pair_with_map,
    s1_polygon,
    s2_triangle,
)


def test_frame_rejects_a_points_outside_unit_strip():
    with pytest.raises(ValueError):
        CrossingFrame(Point(1.2, 0.1), Point(0.5, -0.2))
    with pytest.raises(ValueError):
        CrossingFrame(Point(-0.1, 0.1), Point(0.5, -0.2))


def test_frame_rejects_wrong_vertical_order():
    with pytest.raises(ValueError):
        CrossingFrame(Point(0.5, -0.1), Point(0.5, -0.2))


def test_frame_rejects_oversized_radius():
    with pytest.raises(ValueError):
        CrossingFrame(Point(0.5, 0.1), Point(0.5, -0.2), rho1=10.0)


def test_frame_default_radii_reach_nearer_b_point():
    f = CrossingFrame(Point(0.4, 0.1), Point(0.5, -0.2))
    assert f.r1 == distance(Point(0.4, 0.1), Point(0.0, 0.0))
    assert f.rho1 == f.r1
    assert f.rho2 == f.r2


def test_normalize_identity_configuration():
    f = normalize_crossing_pair(Point(0.45, 0.2), Point(0.5, -0.3),
                                Point(0.0, 0.0), Point(1.0, 0.0))
    assert f.a1.x == pytest.approx(0.45, abs=1e-15)
    assert f.a1.y == pytest.approx(0.2, abs=1e-15)
    assert f.a2.y == pytest.approx(-0.3, abs=1e-15)


def test_normalize_undoes_similarity_transformations():
    # The same configuration translated, rotated and scaled must produce
    # the same frame coordinates.
    base = normalize_crossing_pair(Point(0.45, 0.2), Point(0.5, -0.3),
                                   Point(0.0, 0.0), Point(1.0, 0.0))
    theta, s, tx, ty = 0.83, 3.7, -12.0, 5.5
    ct, st = math.cos(theta), math.sin(theta)

    def move(p: Point) -> Point:
        return Point(s * (ct * p.x - st * p.y) + tx,
                     s * (st * p.x + ct * p.y) + ty)

    f = normalize_crossing_pair(move(Point(0.45, 0.2)), move(Point(0.5, -0.3)),
                                move(Point(0.0, 0.0)), move(Point(1.0, 0.0)))
    assert f.a1.x == pytest.approx(base.a1.x, abs=1e-12)
    assert f.a1.y == pytest.approx(base.a1.y, abs=1e-12)
    assert f.a2.x == pytest.approx(base.a2.x, abs=1e-12)
    assert f.a2.y == pytest.approx(base.a2.y, abs=1e-12)


def test_normalize_reflects_when_a1_below_axis():
    f, nmap = normalize_crossing_pair_with_map(
        Point(0.45, -0.2), Point(0.5, 0.3), Point(0.0, 0.0), Point(1.0, 0.0))
    assert nmap.reflected
    assert f.a1.y >= 0.0 >= f.a2.y


def test_normalize_requires_intersecting_segments():
    with pytest.raises(ValueError):
        normalize_crossing_pair(Point(0.0, 1.0), Point(1.0, 1.0),
                                Point(0.0, 0.0), Point(1.0, 0.0))


def test_normalize_roles_and_similarity_roundtrip():
    rng = np.random.default_rng(123)
    built = 0
    while built < 100:
        b1 = Point(*rng.uniform(-5.0, 5.0, size=2))
        b2 = Point(*rng.uniform(-5.0, 5.0, size=2))
        if distance(b1, b2) < 0.1:
            continue
        # Cross the b segment strictly between its endpoints.
        t = rng.uniform(0.25, 0.75)
        cross = Point(b1.x + t * (b2.x - b1.x), b1.y + t * (b2.y - b1.y))
        direction = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(direction), math.sin(direction))
        la, lb = rng.uniform(0.05, 0.45, size=2)
        a1 = Point(cross.x + la * u[0], cross.y + la * u[1])
        a2 = Point(cross.x - lb * u[0], cross.y - lb * u[1])
        inputs = [a1, a2, b1, b2]
        try:
            frame, nmap = normalize_crossing_pair_with_map(*inputs)
        except ValueError:
            # Extreme configurations may fall outside the frame's domain.
            continue
        built += 1
        roles = nmap.roles
        assert sorted(roles.values()) == [0, 1, 2, 3]
        pa1, pa2 = inputs[roles["a1"]], inputs[roles["a2"]]
        pb1, pb2 = inputs[roles["b1"]], inputs[roles["b2"]]
        # Role conventions in the original coordinates.
        assert distance(pa1, pa2) <= distance(pb1, pb2) * (1.0 + 1e-12)
        bseg = Segment(pb1, pb2)
        assert (point_segment_distance(pa1, bseg)
                <= point_segment_distance(pa2, bseg) + 1e-12)
        assert distance(pa1, pb1) <= distance(pa1, pb2) + 1e-12
        assert nmap.scale == pytest.approx(distance(pb1, pb2), rel=1e-15)
        # Reapply the similarity by hand and compare with the frame.
        ex = (pb2.x - pb1.x) / nmap.scale
        ey = (pb2.y - pb1.y) / nmap.scale

        def forward(p: Point) -> Point:
            dx, dy = p.x - pb1.x, p.y - pb1.y
            x = (dx * ex + dy * ey) / nmap.scale
            y = (-dx * ey + dy * ex) / nmap.scale
            return Point(x, -y) if nmap.reflected else Point(x, y)

        fa1 = forward(pa1)
        fa2 = forward(pa2)
        assert fa1.x == pytest.approx(frame.a1.x, abs=1e-12)
        assert fa1.y == pytest.approx(frame.a1.y, abs=1e-12)
        assert fa2.x == pytest.approx(frame.a2.x, abs=1e-12)
        assert fa2.y == pytest.approx(frame.a2.y, abs=1e-12)
        assert frame.a1.y >= 0.0 >= frame.a2.y


def test_admissible_placement_polygons():
    assert membership(s1_polygon(), Point(0.4995, 0.1885))
    assert membership(s2_triangle(), Point(0.4995, -0.3825))
    assert not membership(s1_polygon(), Point(0.1, 0.4))
    assert not membership(s2_triangle(), Point(0.5, -0.6))


def test_named_regions_families_present():
    f = CrossingFrame(Point(0.45, 0.15), Point(0.5, -0.3))
    rs = build_named_regions(f)
    names = set(rs.names())
    for expected in ("T", "T2", "S1", "S2", "M", "L", "H"):
        assert expected in names
    assert {"L1", "L2", "L3", "L4", "L5", "L6"} <= names
    assert {"H1", "H2", "H3", "H4", "H5"} <= names


def test_named_regions_half_split():
    f = CrossingFrame(Point(0.45, 0.15), Point(0.5, -0.3))
    rs = build_named_regions(f)
    upper = rs.half("M", "+")
    lower = rs.half("M", "-")
    below_axis = Point(0.475, -0.05)
    assert not membership(upper, below_axis)
    assert membership(lower, below_axis) == membership(rs["M"], below_axis)
    with pytest.raises(ValueError):
        rs.half("M", "x")
