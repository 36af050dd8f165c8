"""Tests for crossing-pair normalisation and the named region systems."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from knnlab.geom import (Point, Segment, Union, distance, grid_area_bounds,
                         membership, point_segment_distance)
from knnlab.regions import (
    KITE,
    SQRT3,
    WEDGE_B1,
    WEDGE_B2,
    Z_MINUS,
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
    names = set(rs)
    for expected in ("T", "T2", "S1", "S2", "M", "L", "H"):
        assert expected in names
    assert {"L1", "L2", "L3", "L4", "L5", "L6"} <= names
    assert {"H1", "H2", "H3", "H4", "H5"} <= names


def test_wedges_and_kite_split_t2_by_the_base_angles():
    # Uniform points of T2 = (b1, b2, Z_MINUS), kept at least 1e-9 from
    # the pi/6 rays at b1 and b2 and from T2's own edges, so that rounding
    # cannot move a point across a boundary.
    rng = np.random.default_rng(5)
    u, v = rng.random((2, 4000))
    fold = u + v > 1.0
    u[fold], v[fold] = 1.0 - u[fold], 1.0 - v[fold]
    x, y = u + Z_MINUS.x * v, Z_MINUS.y * v
    lines = (0.5 * x + SQRT3 / 2.0 * y, 0.5 * (1.0 - x) + SQRT3 / 2.0 * y,
             y, SQRT3 / 2.0 * x + 0.5 * y, SQRT3 / 2.0 * (1.0 - x) + 0.5 * y)
    far = np.all(np.abs(lines) >= 1e-9, axis=0)
    x, y = x[far], y[far]
    in_b1, in_b2, in_kite = (poly._contains(x, y)
                             for poly in (WEDGE_B1, WEDGE_B2, KITE))
    np.testing.assert_array_equal(in_b1, np.arctan2(-y, x) <= math.pi / 6.0)
    np.testing.assert_array_equal(in_b2,
                                  np.arctan2(-y, 1.0 - x) <= math.pi / 6.0)
    np.testing.assert_array_equal(in_kite, ~(in_b1 | in_b2))
    assert in_b1.any() and in_b2.any() and in_kite.any()


_HPLUS = (Path(__file__).resolve().parent.parent / "certificates"
          / "hplus_0.001.json")


def test_committed_hplus_lies_below_h1_h2():
    # The committed hplus certificate takes the ``either`` reading, while
    # H1 and H2 here take the ``intersection`` reading.  Its count holds
    # for every a1 in its witness square, the centre included, yet there
    # the certified lower bound on the area of H1 | H2 (0.130296 at grid
    # 0.002) exceeds it, so under these regions the certificate is not an
    # upper bound.  H1 and H2 depend on a2 only through the lens M, and
    # any admissible a2 shows the gap.
    cert = json.loads(_HPLUS.read_text(encoding="utf-8"))
    a1, a2 = Point(*cert["witness"]), Point(0.5, -0.4)
    assert membership(s2_triangle(), a2)
    rs = build_named_regions(CrossingFrame(a1, a2))
    bound = grid_area_bounds(Union((rs["H1"], rs["H2"])), 0.002)
    assert cert["computed"] == 0.126008
    assert cert["computed"] < bound.lower
