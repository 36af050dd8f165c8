"""Tests for the exact planar primitives in :mod:`knnlab.geom`."""

from __future__ import annotations

import math

import numpy as np
import pytest

from knnlab.geom import (
    EMPTY,
    ConvexPolygon,
    Difference,
    Disk,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    Segment,
    disk_lens_area,
    disks_intersection_area,
    distance,
    grid_area_bounds,
    point_segment_distance,
    segments_intersect,
    Union,
    _circle_cuts,
)


def test_distance_matches_hypot():
    assert distance(Point(0.0, 0.0), Point(3.0, 4.0)) == 5.0


def test_point_segment_distance_interior_projection():
    seg = Segment(Point(0.0, 0.0), Point(10.0, 0.0))
    assert point_segment_distance(Point(5.0, 2.0), seg) == 2.0


def test_point_segment_distance_clamps_to_endpoints():
    seg = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
    assert point_segment_distance(Point(-3.0, 4.0), seg) == 5.0
    assert point_segment_distance(Point(4.0, 4.0), seg) == 5.0


def test_segments_intersect_proper_crossing():
    s1 = Segment(Point(0.0, -1.0), Point(0.0, 1.0))
    s2 = Segment(Point(-1.0, 0.0), Point(1.0, 0.0))
    assert segments_intersect(s1, s2)


def test_segments_intersect_shared_endpoint_counts():
    s1 = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
    s2 = Segment(Point(1.0, 0.0), Point(2.0, 5.0))
    assert segments_intersect(s1, s2)


def test_segments_intersect_collinear_overlap_counts():
    s1 = Segment(Point(0.0, 0.0), Point(2.0, 0.0))
    s2 = Segment(Point(1.0, 0.0), Point(3.0, 0.0))
    assert segments_intersect(s1, s2)


def test_segments_intersect_collinear_disjoint_is_false():
    s1 = Segment(Point(0.0, 0.0), Point(1.0, 0.0))
    s2 = Segment(Point(1.5, 0.0), Point(3.0, 0.0))
    assert not segments_intersect(s1, s2)


def test_touching_endpoint_on_interior_counts():
    s1 = Segment(Point(0.0, 0.0), Point(2.0, 0.0))
    s2 = Segment(Point(1.0, 0.0), Point(1.0, 5.0))
    assert segments_intersect(s1, s2)


def test_segments_intersect_tiny_offset_exact():
    # A 1e-14 vertical offset keeps the endpoint strictly above the other
    # segment; the exact predicate must not round it onto the segment.
    s1 = Segment(Point(0.0, 0.0), Point(2.0, 0.0))
    above = Segment(Point(1.0, 1e-14), Point(1.0, 5.0))
    through = Segment(Point(1.0, -1e-14), Point(1.0, 5.0))
    assert not segments_intersect(s1, above)
    assert segments_intersect(s1, through)


def test_disk_requires_positive_radius():
    with pytest.raises(ValueError):
        Disk(Point(0.0, 0.0), 0.0)


def test_circle_intersections_symmetric():
    pts = _circle_cuts(0.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    ys = sorted(y for _, y in pts)
    assert len(pts) == 2
    assert ys[0] == pytest.approx(-math.sqrt(3.0) / 2.0, rel=1e-12)
    assert ys[1] == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert all(x == pytest.approx(0.5, abs=1e-12) for x, _ in pts)


def test_lens_area_disjoint_and_contained():
    assert disk_lens_area(3.0, 1.0, 1.0) == 0.0
    assert disk_lens_area(0.1, 1.0, 5.0) == pytest.approx(math.pi, rel=1e-12)


def test_lens_area_symmetric_unit_disks():
    # Two unit disks with centres one apart: 2 pi / 3 - sqrt(3) / 2.
    expected = 2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0
    assert disk_lens_area(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_triple_intersection_symmetric_case():
    # Three unit disks centred on an equilateral triangle of side 1:
    # core area (pi - sqrt(3)) / 2.
    h = math.sqrt(3.0) / 2.0
    disks = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, h, 1.0)]
    expected = (math.pi - math.sqrt(3.0)) / 2.0
    assert disks_intersection_area(disks) == pytest.approx(expected, rel=1e-12)


def test_triple_intersection_monte_carlo_cross_check():
    disks = [(0.0, 0.0, 1.0), (0.9, 0.2, 0.8), (0.3, -0.5, 1.1)]
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.2, 1.2, size=(400_000, 2))
    inside = np.ones(len(pts), dtype=bool)
    for (cx, cy, r) in disks:
        inside &= (pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2 <= r * r
    estimate = inside.mean() * 2.4 * 2.4
    assert disks_intersection_area(disks) == pytest.approx(estimate, abs=5e-3)


def test_triple_intersection_with_containing_disk():
    # The huge third disk is irrelevant: area reduces to the two-disk lens.
    disks = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, 0.0, 50.0)]
    assert disks_intersection_area(disks) == pytest.approx(
        disk_lens_area(1.0, 1.0, 1.0), rel=1e-12)


@pytest.mark.parametrize("disks, radius", [
    ([(0.3, -0.2, 0.7)], 0.7),
    ([(0.0, 0.0, 2.0), (0.2, 0.1, 0.5), (-0.1, 0.0, 1.5)], 0.5),
    ([(0.0, 0.0, 1.0), (0.5, 0.0, 0.5)], 0.5),
    ([(0.0, 0.0, 1.0), (0.5, 0.0, 0.5), (0.25, 0.0, 0.75)], 0.5),
], ids=["single", "nested", "internally-tangent", "tangent-twice"])
def test_a_disk_inside_every_other_gives_its_own_area(disks, radius):
    # The disk of radius ``radius`` lies in every other disk (touching
    # some from inside), so it is the intersection, cut or not.
    assert disks_intersection_area(disks) == pytest.approx(
        math.pi * radius * radius, rel=1e-12)


def test_triple_intersection_empty():
    disks = [(0.0, 0.0, 1.0), (5.0, 0.0, 1.0), (2.5, 4.0, 1.0)]
    assert disks_intersection_area(disks) == 0.0


@pytest.mark.parametrize("bad", [
    (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, math.nan),
    (0.0, 0.0, math.inf), (math.nan, 0.0, 1.0), (0.0, -math.inf, 1.0),
], ids=["zero-radius", "negative-radius", "nan-radius", "inf-radius",
        "nan-centre", "inf-centre"])
def test_intersection_area_rejects_degenerate_disks(bad):
    for disks in ([bad], [(0.0, 0.0, 1.0), bad], [bad, (5.0, 0.0, 1.0)]):
        with pytest.raises(ValueError):
            disks_intersection_area(disks)


def test_intersection_areas_near_tangency_are_never_negative():
    # The first two disks miss each other by about 1e-11: the area is 0.
    example = [(16.30132890114051, 85.54415445556461, 1.2327970118789355),
               (21.357901749785693, 86.54888390897044, 3.922628309863649),
               (17.54740451156534, 85.79173052152056, 1.0339553495887688)]
    assert disks_intersection_area(example) == 0.0
    rng = np.random.default_rng(23)
    for _ in range(4000):
        x0, y0 = rng.uniform(0.0, 100.0, 2)
        r0, r1, r2 = rng.uniform(0.5, 5.0, 3)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        gap = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -6)
        d = r0 + r1 + gap
        x1, y1 = x0 + d * math.cos(theta), y0 + d * math.sin(theta)
        tx, ty = x0 + r0 * math.cos(theta), y0 + r0 * math.sin(theta)
        x2, y2 = tx + rng.uniform(-r2, r2), ty + rng.uniform(-r2, r2)
        dist = math.hypot(x1 - x0, y1 - y0)
        lens = disk_lens_area(dist, r0, r1)
        triple = disks_intersection_area([(x0, y0, r0), (x1, y1, r1),
                                          (x2, y2, r2)])
        inner = disk_lens_area(abs(r0 - r1) + abs(gap), r0, r1)
        assert lens >= 0.0 and triple >= 0.0 and inner >= 0.0
        if dist >= r0 + r1:
            assert lens == 0.0 and triple == 0.0


def test_grid_area_bounds_bracket_disk_area():
    bound = grid_area_bounds(Disk(Point(0.0, 0.0), 1.0), 0.02)
    assert bound.lower <= math.pi <= bound.upper
    assert bound.width < 0.3


def test_grid_area_bounds_tighten_with_refinement():
    disk = Disk(Point(0.0, 0.0), 1.0)
    coarse = grid_area_bounds(disk, 0.1)
    fine = grid_area_bounds(disk, 0.02)
    assert coarse.lower <= fine.lower
    assert fine.upper <= coarse.upper


def _ellipse():
    f1, f2, total = Point(-0.3, 0.1), Point(0.5, 0.4), 2.0
    a = total / 2.0
    c = distance(f1, f2) / 2.0
    return Ellipse(f1, f2, total), math.pi * a * math.sqrt(a * a - c * c)


def _polygon():
    verts = [(0.0, 0.0), (1.2, -0.1), (1.5, 0.8), (0.6, 1.3), (-0.2, 0.7)]
    xs, ys = np.array(verts).T
    shoelace = 0.5 * abs(np.dot(xs, np.roll(ys, -1)) - np.dot(np.roll(xs, -1), ys))
    return ConvexPolygon([Point(x, y) for x, y in verts]), shoelace


def _half_disk():
    c, r = Point(0.3, -0.2), 0.7
    return (Intersection((Disk(c, r), HalfPlane(c, Point(1.0, 2.0)))),
            math.pi * r * r / 2.0)


_LEFT, _RIGHT = Disk(Point(0.0, 0.0), 1.0), Disk(Point(0.8, 0.3), 0.7)
_LENS = disk_lens_area(math.hypot(0.8, 0.3), 1.0, 0.7)

_EXACT_AREAS = {
    "ellipse": _ellipse,
    "convex-polygon": _polygon,
    "half-disk": _half_disk,
    "lens": lambda: (Intersection((_LEFT, _RIGHT)), _LENS),
    "crescent": lambda: (Difference(_LEFT, _RIGHT), math.pi - _LENS),
    "two-disjoint-disks": lambda: (
        Union((Disk(Point(0.0, 0.0), 0.5), Disk(Point(1.5, 0.2), 0.3))),
        math.pi * (0.5 ** 2 + 0.3 ** 2)),
}


@pytest.mark.parametrize("step", [0.05, 0.01])
@pytest.mark.parametrize("case", sorted(_EXACT_AREAS))
def test_grid_area_bounds_bracket_exact_areas(case, step):
    region, area = _EXACT_AREAS[case]()
    bound = grid_area_bounds(region, step)
    assert 0.0 < bound.lower <= area <= bound.upper


def test_grid_area_bounds_drop_a_hole_the_erosion_eliminates():
    # The hole's radius is below the half-diagonal 0.0354 of a 0.05 square,
    # so the inflated region subtracts nothing and its upper bound is the
    # disk's own.
    disk = Disk(Point(0.0, 0.0), 1.0)
    holed = Difference(disk, Disk(Point(0.3, 0.2), 0.02))
    bound = grid_area_bounds(holed, 0.05)
    assert bound.upper == grid_area_bounds(disk, 0.05).upper
    assert bound.lower <= math.pi * (1.0 - 0.02 ** 2) <= bound.upper


def test_grid_area_bounds_of_the_empty_region_are_zero():
    bound = grid_area_bounds(EMPTY, 0.05)
    assert (bound.lower, bound.upper) == (0.0, 0.0)


def test_grid_area_bounds_reject_unbounded_regions():
    with pytest.raises(ValueError):
        grid_area_bounds(HalfPlane(Point(0.0, 0.0), Point(1.0, 1.0)), 0.05)
