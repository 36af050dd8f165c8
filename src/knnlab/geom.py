"""Exact and conservative planar geometry primitives.

This module provides the geometric substrate for the rest of the package:
points and segments, a small closed algebra of planar regions (disks,
ellipses, half-planes, angular sectors and convex polygons, combined by
union, intersection and difference), and certified area bounds obtained by
counting grid squares.

Design notes
------------
All shapes denote *closed* point sets.  Membership tests are exact up to
floating-point rounding of the defining arithmetic; no tolerances are
hidden inside the predicates.  Conservativeness is provided explicitly:
``grid_area_bounds`` brackets the true area between a certified lower
bound (squares proven inside) and a certified upper bound (squares that
could meet the region), through private inflate/deflate offsets of the
region tree.

Areas of disk intersections are also available in closed form
(``disk_lens_area``) and by an exact arc-decomposition
(``disks_intersection_area``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union as _TUnion

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "Disk",
    "Ellipse",
    "HalfPlane",
    "AngularSector",
    "ConvexPolygon",
    "PrimitiveShape",
    "Region",
    "Primitive",
    "Union",
    "Intersection",
    "Difference",
    "EMPTY",
    "GridSpec",
    "AreaBound",
    "as_point",
    "as_region",
    "distance",
    "point_segment_distance",
    "segments_intersect",
    "circle_intersections",
    "membership",
    "contains_xy",
    "is_bounded",
    "bounding_box",
    "grid_area_bounds",
    "disk_lens_area",
    "disks_intersection_area",
]

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# points and segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A point in the plane.

    Parameters
    ----------
    x, y : float
        Cartesian coordinates.  Both must be finite.
    """

    x: float
    y: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __sub__(self, other: "Point") -> "Point":
        other = as_point(other)
        return Point(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point") -> "Point":
        other = as_point(other)
        return Point(self.x + other.x, self.y + other.y)


PointLike = _TUnion[Point, Sequence[float]]


def as_point(p: PointLike) -> Point:
    """Coerce a ``Point`` or length-2 coordinate sequence to a ``Point``."""
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(float(x), float(y))


@dataclass(frozen=True)
class Segment:
    """A closed line segment with distinct endpoints ``a`` and ``b``."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_point(self.a))
        object.__setattr__(self, "b", as_point(self.b))
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise ValueError("segment endpoints must be distinct")

    @property
    def length(self) -> float:
        return distance(self.a, self.b)


def distance(p: PointLike, q: PointLike) -> float:
    """Euclidean distance between two points."""
    p, q = as_point(p), as_point(q)
    return math.hypot(p.x - q.x, p.y - q.y)


def point_segment_distance(p: PointLike, seg: Segment) -> float:
    """Euclidean distance from point ``p`` to the closed segment ``seg``."""
    p = as_point(p)
    ax, ay = seg.a.x, seg.a.y
    bx, by = seg.b.x, seg.b.y
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    t = ((p.x - ax) * dx + (p.y - ay) * dy) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(p.x - (ax + t * dx), p.y - (ay + t * dy))


def _orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle ``abc`` (+1 CCW, -1 CW, 0 collinear).

    A floating-point filter handles the generic case; near-degenerate
    configurations are resolved exactly with rational arithmetic, so the
    result is never wrong due to rounding.
    """
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    # Conservative error bound for the double-precision evaluation above.
    mags = (abs(b.x - a.x) + abs(b.y - a.y)) * (abs(c.x - a.x) + abs(c.y - a.y))
    if abs(det) > 1e-12 * max(mags, 1e-300):
        return 1 if det > 0 else -1
    det_exact = (Fraction(b.x) - Fraction(a.x)) * (Fraction(c.y) - Fraction(a.y)) - (
        Fraction(b.y) - Fraction(a.y)
    ) * (Fraction(c.x) - Fraction(a.x))
    if det_exact > 0:
        return 1
    if det_exact < 0:
        return -1
    return 0


def _on_segment_collinear(a: Point, b: Point, p: Point) -> bool:
    """Whether collinear point ``p`` lies on the closed segment ``ab``."""
    return min(a.x, b.x) <= p.x <= max(a.x, b.x) and min(a.y, b.y) <= p.y <= max(
        a.y, b.y
    )


def segments_intersect(s1: Segment, s2: Segment) -> bool:
    """Whether two closed segments share at least one point.

    The predicate is exact: endpoint touchings and collinear overlaps
    count as intersections, and near-degenerate cases are decided with
    rational arithmetic rather than rounded floats.
    """
    a, b = s1.a, s1.b
    c, d = s2.a, s2.b
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment_collinear(a, b, c):
        return True
    if o2 == 0 and _on_segment_collinear(a, b, d):
        return True
    if o3 == 0 and _on_segment_collinear(c, d, a):
        return True
    if o4 == 0 and _on_segment_collinear(c, d, b):
        return True
    return False


# ---------------------------------------------------------------------------
# primitive shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    """Closed disk with the given ``center`` and positive ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("disk radius must be positive and finite")


@dataclass(frozen=True)
class Ellipse:
    """Closed ellipse given by two foci and the focal-distance sum.

    The region is ``{p : |p - focus1| + |p - focus2| <= distance_sum}``.
    ``distance_sum`` must exceed the distance between the foci.
    """

    focus1: Point
    focus2: Point
    distance_sum: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "focus1", as_point(self.focus1))
        object.__setattr__(self, "focus2", as_point(self.focus2))
        object.__setattr__(self, "distance_sum", float(self.distance_sum))
        if not math.isfinite(self.distance_sum):
            raise ValueError("ellipse distance sum must be finite")
        if self.distance_sum <= distance(self.focus1, self.focus2):
            raise ValueError(
                "ellipse distance sum must exceed the distance between the foci"
            )


@dataclass(frozen=True)
class HalfPlane:
    """Closed half-plane ``{p : (p - anchor) . normal <= 0}``.

    ``normal`` is the outward normal (pointing away from the region) and
    need not be normalised.
    """

    anchor: Point
    normal: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor", as_point(self.anchor))
        object.__setattr__(self, "normal", as_point(self.normal))
        if self.normal.x == 0.0 and self.normal.y == 0.0:
            raise ValueError("half-plane normal must be nonzero")


@dataclass(frozen=True)
class AngularSector:
    """Closed angular sector swept counter-clockwise from ``ray1`` to ``ray2``.

    The region is the set of points ``p`` such that the direction of
    ``p - apex`` lies in the counter-clockwise angular interval from
    ``ray1`` to ``ray2`` (the apex itself is included).  The directions
    need not be normalised but must be distinct and nonzero; the swept
    angle is therefore in ``(0, 2*pi)``.
    """

    apex: Point
    ray1: Point
    ray2: Point

    def __post_init__(self) -> None:
        object.__setattr__(self, "apex", as_point(self.apex))
        object.__setattr__(self, "ray1", as_point(self.ray1))
        object.__setattr__(self, "ray2", as_point(self.ray2))
        for ray in (self.ray1, self.ray2):
            if ray.x == 0.0 and ray.y == 0.0:
                raise ValueError("sector rays must be nonzero direction vectors")
        if self.span <= 0.0:
            raise ValueError("sector rays must have distinct directions")

    @property
    def span(self) -> float:
        """Swept angle in radians, in ``(0, 2*pi)``."""
        a1 = math.atan2(self.ray1.y, self.ray1.x)
        a2 = math.atan2(self.ray2.y, self.ray2.x)
        span = (a2 - a1) % (2.0 * math.pi)
        return span


PrimitiveShape = _TUnion[
    Disk, Ellipse, HalfPlane, AngularSector, "ConvexPolygon"
]


@dataclass(frozen=True)
class ConvexPolygon:
    """Closed strictly convex polygon.

    Vertices may be given in either orientation; they are normalised to
    counter-clockwise order.  Construction fails if the vertices are not
    strictly convex (collinear triples or repeats included).
    """

    vertices: tuple

    def __init__(self, vertices: Iterable[PointLike]):
        verts = tuple(as_point(v) for v in vertices)
        if len(verts) < 3:
            raise ValueError("a convex polygon needs at least three vertices")
        if _signed_area(verts) < 0.0:
            verts = tuple(reversed(verts))
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            if _orientation(a, b, c) <= 0:
                raise ValueError("polygon vertices must be strictly convex")
        object.__setattr__(self, "vertices", verts)

    @property
    def area(self) -> float:
        return _signed_area(self.vertices)


def _signed_area(verts: Sequence[Point]) -> float:
    total = 0.0
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return 0.5 * total


# ---------------------------------------------------------------------------
# region algebra
# ---------------------------------------------------------------------------


class Region:
    """Base class for the region algebra (see the node classes below)."""


RegionLike = _TUnion[Region, Disk, Ellipse, HalfPlane, AngularSector,
                     ConvexPolygon]


def as_region(r: RegionLike) -> Region:
    """Coerce a primitive shape to a ``Primitive`` node; pass regions through."""
    if isinstance(r, Region):
        return r
    if isinstance(r, (Disk, Ellipse, HalfPlane, AngularSector, ConvexPolygon)):
        return Primitive(r)
    raise TypeError(f"cannot interpret {type(r).__name__} as a region")


@dataclass(frozen=True)
class Primitive(Region):
    """Leaf node wrapping a single primitive shape."""

    shape: PrimitiveShape


@dataclass(frozen=True)
class Union(Region):
    """Union of one or more child regions."""

    children: tuple

    def __init__(self, children: Iterable[RegionLike]):
        kids = tuple(as_region(c) for c in children)
        if not kids:
            raise ValueError("union needs at least one child region")
        object.__setattr__(self, "children", kids)


@dataclass(frozen=True)
class Intersection(Region):
    """Intersection of one or more child regions."""

    children: tuple

    def __init__(self, children: Iterable[RegionLike]):
        kids = tuple(as_region(c) for c in children)
        if not kids:
            raise ValueError("intersection needs at least one child region")
        object.__setattr__(self, "children", kids)


@dataclass(frozen=True)
class Difference(Region):
    """Set difference ``left`` minus ``right``."""

    left: Region
    right: Region

    def __init__(self, left: RegionLike, right: RegionLike):
        object.__setattr__(self, "left", as_region(left))
        object.__setattr__(self, "right", as_region(right))


class _Empty(Region):
    """The canonical empty region (exact under inflate and deflate)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = _Empty()


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _shape_contains(shape: PrimitiveShape, xs: np.ndarray, ys: np.ndarray):
    if isinstance(shape, Disk):
        c, r = shape.center, shape.radius
        return (xs - c.x) ** 2 + (ys - c.y) ** 2 <= r * r
    if isinstance(shape, Ellipse):
        f1, f2 = shape.focus1, shape.focus2
        d = np.hypot(xs - f1.x, ys - f1.y) + np.hypot(xs - f2.x, ys - f2.y)
        return d <= shape.distance_sum
    if isinstance(shape, HalfPlane):
        a, n = shape.anchor, shape.normal
        return (xs - a.x) * n.x + (ys - a.y) * n.y <= 0.0
    if isinstance(shape, AngularSector):
        vx = xs - shape.apex.x
        vy = ys - shape.apex.y
        r1 = shape.ray1
        cross = r1.x * vy - r1.y * vx
        dot = r1.x * vx + r1.y * vy
        theta = np.mod(np.arctan2(cross, dot), 2.0 * math.pi)
        at_apex = (vx == 0.0) & (vy == 0.0)
        return at_apex | (theta <= shape.span)
    if isinstance(shape, ConvexPolygon):
        verts = shape.vertices
        out = np.ones_like(xs, dtype=bool)
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            out &= (b.x - a.x) * (ys - a.y) - (b.y - a.y) * (xs - a.x) >= 0.0
        return out
    raise TypeError(f"unknown primitive shape {type(shape).__name__}")


def contains_xy(r: RegionLike, xs, ys) -> np.ndarray:
    """Vectorised membership test.

    Parameters
    ----------
    r : Region or primitive shape
    xs, ys : array_like
        Coordinates of query points (broadcast together).

    Returns
    -------
    numpy.ndarray of bool
        Elementwise membership of ``(xs, ys)`` in ``r``.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return _contains(as_region(r), xs, ys)


def _contains(r: Region, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    if isinstance(r, Primitive):
        return _shape_contains(r.shape, xs, ys)
    if isinstance(r, Union):
        out = _contains(r.children[0], xs, ys)
        for c in r.children[1:]:
            out = out | _contains(c, xs, ys)
        return out
    if isinstance(r, Intersection):
        out = _contains(r.children[0], xs, ys)
        for c in r.children[1:]:
            out = out & _contains(c, xs, ys)
        return out
    if isinstance(r, Difference):
        return _contains(r.left, xs, ys) & ~_contains(r.right, xs, ys)
    if isinstance(r, _Empty):
        return np.zeros(np.broadcast(xs, ys).shape, dtype=bool)
    raise TypeError(f"unknown region node {type(r).__name__}")


def membership(r: RegionLike, p: PointLike) -> bool:
    """Whether point ``p`` belongs to region ``r`` (closed-set semantics)."""
    p = as_point(p)
    return bool(contains_xy(r, np.array([p.x]), np.array([p.y]))[0])


# ---------------------------------------------------------------------------
# boundedness and bounding boxes
# ---------------------------------------------------------------------------


def is_bounded(r: RegionLike) -> bool:
    """Conservative boundedness check.

    ``True`` guarantees the region is bounded.  ``False`` means the check
    could not certify boundedness (an intersection with only unbounded
    children reports ``False`` even if it happens to be bounded).
    """
    r = as_region(r)
    if isinstance(r, Primitive):
        return isinstance(r.shape, (Disk, Ellipse, ConvexPolygon))
    if isinstance(r, Union):
        return all(is_bounded(c) for c in r.children)
    if isinstance(r, Intersection):
        return any(is_bounded(c) for c in r.children)
    if isinstance(r, Difference):
        return is_bounded(r.left)
    if isinstance(r, _Empty):
        return True
    raise TypeError(f"unknown region node {type(r).__name__}")


_INF = math.inf
_EMPTY_BOX = (_INF, _INF, -_INF, -_INF)


def _shape_bbox(shape: PrimitiveShape):
    if isinstance(shape, Disk):
        c, r = shape.center, shape.radius
        return (c.x - r, c.y - r, c.x + r, c.y + r)
    if isinstance(shape, Ellipse):
        f1, f2 = shape.focus1, shape.focus2
        cx, cy = 0.5 * (f1.x + f2.x), 0.5 * (f1.y + f2.y)
        fd = distance(f1, f2)
        a = 0.5 * shape.distance_sum
        b2 = a * a - 0.25 * fd * fd
        b = math.sqrt(max(b2, 0.0))
        if fd == 0.0:
            ux, uy = 1.0, 0.0
        else:
            ux, uy = (f2.x - f1.x) / fd, (f2.y - f1.y) / fd
        ex = math.hypot(a * ux, b * uy)
        ey = math.hypot(a * uy, b * ux)
        return (cx - ex, cy - ey, cx + ex, cy + ey)
    if isinstance(shape, HalfPlane):
        a, n = shape.anchor, shape.normal
        if n.y == 0.0:
            if n.x > 0.0:
                return (-_INF, -_INF, a.x, _INF)
            return (a.x, -_INF, _INF, _INF)
        if n.x == 0.0:
            if n.y > 0.0:
                return (-_INF, -_INF, _INF, a.y)
            return (-_INF, a.y, _INF, _INF)
        return (-_INF, -_INF, _INF, _INF)
    if isinstance(shape, AngularSector):
        return (-_INF, -_INF, _INF, _INF)
    if isinstance(shape, ConvexPolygon):
        xs = [v.x for v in shape.vertices]
        ys = [v.y for v in shape.vertices]
        return (min(xs), min(ys), max(xs), max(ys))
    raise TypeError(f"unknown primitive shape {type(shape).__name__}")


def bounding_box(r: RegionLike):
    """Conservative axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``.

    The box contains the region; it need not be tight.  Unbounded
    directions are reported as ``+-inf``; the empty region yields an
    inverted box ``(inf, inf, -inf, -inf)``.
    """
    r = as_region(r)
    if isinstance(r, Primitive):
        return _shape_bbox(r.shape)
    if isinstance(r, Union):
        boxes = [bounding_box(c) for c in r.children]
        return (
            min(b[0] for b in boxes),
            min(b[1] for b in boxes),
            max(b[2] for b in boxes),
            max(b[3] for b in boxes),
        )
    if isinstance(r, Intersection):
        boxes = [bounding_box(c) for c in r.children]
        return (
            max(b[0] for b in boxes),
            max(b[1] for b in boxes),
            min(b[2] for b in boxes),
            min(b[3] for b in boxes),
        )
    if isinstance(r, Difference):
        return bounding_box(r.left)
    if isinstance(r, _Empty):
        return _EMPTY_BOX
    raise TypeError(f"unknown region node {type(r).__name__}")


# ---------------------------------------------------------------------------
# inflate / deflate
# ---------------------------------------------------------------------------


def _offset_polygon(poly: ConvexPolygon, delta: float):
    """Miter offset of a strictly convex CCW polygon (positive = outward).

    Returns the offset vertex list, or ``None`` if the inward offset
    collapses the polygon.
    """
    verts = poly.vertices
    n = len(verts)
    lines = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        dx, dy = b.x - a.x, b.y - a.y
        ln = math.hypot(dx, dy)
        # Outward normal of a CCW edge points to its right.
        nx, ny = dy / ln, -dx / ln
        lines.append((a.x + delta * nx, a.y + delta * ny, dx, dy))
    new_verts = []
    for i in range(n):
        px, py, dx1, dy1 = lines[i - 1]
        qx, qy, dx2, dy2 = lines[i]
        denom = dx1 * dy2 - dy1 * dx2
        if denom == 0.0:
            return None
        t = ((qx - px) * dy2 - (qy - py) * dx2) / denom
        new_verts.append(Point(px + t * dx1, py + t * dy1))
    for i in range(n):
        a, b, c = new_verts[i], new_verts[(i + 1) % n], new_verts[(i + 2) % n]
        det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        if det <= 0.0:
            return None
    return new_verts


def _inflate_shape(shape: PrimitiveShape, delta: float) -> Region:
    if isinstance(shape, Disk):
        return Primitive(Disk(shape.center, shape.radius + delta))
    if isinstance(shape, Ellipse):
        return Primitive(
            Ellipse(shape.focus1, shape.focus2, shape.distance_sum + 2.0 * delta)
        )
    if isinstance(shape, HalfPlane):
        a, n = shape.anchor, shape.normal
        ln = math.hypot(n.x, n.y)
        return Primitive(
            HalfPlane(Point(a.x + delta * n.x / ln, a.y + delta * n.y / ln), n)
        )
    if isinstance(shape, AngularSector):
        span = shape.span
        if span > math.pi:
            raise ValueError("cannot offset a reflex angular sector")
        # Retreating the apex along the interior bisector by
        # delta / sin(span / 2) covers the Minkowski sum of the sector.
        r1, r2 = shape.ray1, shape.ray2
        l1 = math.hypot(r1.x, r1.y)
        l2 = math.hypot(r2.x, r2.y)
        bx = r1.x / l1 + r2.x / l2
        by = r1.y / l1 + r2.y / l2
        lb = math.hypot(bx, by)
        if lb == 0.0:
            # Sector is exactly a half-plane; retreat perpendicular to rays.
            bx, by = -r1.y / l1, r1.x / l1
            lb = 1.0
        shift = delta / math.sin(0.5 * span)
        apex = Point(shape.apex.x - shift * bx / lb, shape.apex.y - shift * by / lb)
        return Primitive(AngularSector(apex, r1, r2))
    if isinstance(shape, ConvexPolygon):
        verts = _offset_polygon(shape, delta)
        if verts is None:  # outward miter cannot collapse; defensive only
            raise ValueError("polygon offset failed")
        return Primitive(ConvexPolygon(verts))
    raise TypeError(f"unknown primitive shape {type(shape).__name__}")


def _deflate_shape(shape: PrimitiveShape, delta: float) -> Region:
    if isinstance(shape, Disk):
        if delta >= shape.radius:
            return EMPTY
        return Primitive(Disk(shape.center, shape.radius - delta))
    if isinstance(shape, Ellipse):
        new_sum = shape.distance_sum - 2.0 * delta
        if new_sum <= distance(shape.focus1, shape.focus2):
            return EMPTY
        return Primitive(Ellipse(shape.focus1, shape.focus2, new_sum))
    if isinstance(shape, HalfPlane):
        a, n = shape.anchor, shape.normal
        ln = math.hypot(n.x, n.y)
        return Primitive(
            HalfPlane(Point(a.x - delta * n.x / ln, a.y - delta * n.y / ln), n)
        )
    if isinstance(shape, AngularSector):
        span = shape.span
        if span > math.pi:
            raise ValueError("cannot offset a reflex angular sector")
        r1, r2 = shape.ray1, shape.ray2
        l1 = math.hypot(r1.x, r1.y)
        l2 = math.hypot(r2.x, r2.y)
        bx = r1.x / l1 + r2.x / l2
        by = r1.y / l1 + r2.y / l2
        lb = math.hypot(bx, by)
        if lb == 0.0:
            bx, by = -r1.y / l1, r1.x / l1
            lb = 1.0
        shift = delta / math.sin(0.5 * span)
        apex = Point(shape.apex.x + shift * bx / lb, shape.apex.y + shift * by / lb)
        return Primitive(AngularSector(apex, r1, r2))
    if isinstance(shape, ConvexPolygon):
        verts = _offset_polygon(shape, -delta)
        if verts is None:
            return EMPTY
        return Primitive(ConvexPolygon(verts))
    raise TypeError(f"unknown primitive shape {type(shape).__name__}")


def _inflate(r: Region, delta: float) -> Region:
    """A superset of the Minkowski sum of ``r`` and the closed disk of
    radius ``delta > 0`` (differences and polygon miters over-cover)."""
    if isinstance(r, Primitive):
        return _inflate_shape(r.shape, delta)
    if isinstance(r, Union):
        return Union(tuple(_inflate(c, delta) for c in r.children))
    if isinstance(r, Intersection):
        # Points near the intersection are near every child.
        return Intersection(tuple(_inflate(c, delta) for c in r.children))
    if isinstance(r, Difference):
        # Points near L \ R are near L and outside the erosion of R.
        return Difference(_inflate(r.left, delta), _deflate(r.right, delta))
    if isinstance(r, _Empty):
        return EMPTY
    raise TypeError(f"unknown region node {type(r).__name__}")


def _deflate(r: Region, delta: float) -> Region:
    """A subset of the erosion of ``r`` by the closed disk of radius
    ``delta > 0``; a shape that the erosion eliminates becomes ``EMPTY``."""
    if isinstance(r, Primitive):
        return _deflate_shape(r.shape, delta)
    if isinstance(r, Union):
        return Union(tuple(_deflate(c, delta) for c in r.children))
    if isinstance(r, Intersection):
        return Intersection(tuple(_deflate(c, delta) for c in r.children))
    if isinstance(r, Difference):
        # Keeping a delta-disk inside L \ R needs the disk inside L and
        # outside R entirely, so the subtrahend grows.
        return Difference(_deflate(r.left, delta), _inflate(r.right, delta))
    if isinstance(r, _Empty):
        return EMPTY
    raise TypeError(f"unknown region node {type(r).__name__}")


# ---------------------------------------------------------------------------
# certified grid area bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned square grid with side ``step`` anchored at ``origin``.

    Grid square ``(i, j)`` is ``[origin.x + i*step, origin.x + (i+1)*step]
    x [origin.y + j*step, origin.y + (j+1)*step]``.
    """

    step: float
    origin: Point = Point(0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "origin", as_point(self.origin))
        if not (self.step > 0.0 and math.isfinite(self.step)):
            raise ValueError("grid step must be positive and finite")


@dataclass(frozen=True)
class AreaBound:
    """Certified area bracket ``lower <= true area <= upper``."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError("area bounds must satisfy 0 <= lower <= upper")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _certified_inside(r: Region, cx: np.ndarray, cy: np.ndarray, half: float,
                      delta: float) -> np.ndarray:
    """Certify that the squares centred at ``(cx, cy)`` lie inside ``r``.

    A square passes when either all four corners and the centre lie in a
    convex primitive (exact for convex shapes, composed structurally for
    unions, intersections and differences), or its centre lies in the
    conservative deflation of ``r`` by ``delta``; only ``True`` answers
    carry a guarantee.
    """
    if isinstance(r, Primitive):
        shape = r.shape
        if isinstance(shape, AngularSector) and shape.span > math.pi:
            return np.zeros_like(cx, dtype=bool)
        out = _shape_contains(shape, cx, cy)
        for sx in (-half, half):
            for sy in (-half, half):
                out &= _shape_contains(shape, cx + sx, cy + sy)
        return out
    if isinstance(r, Union):
        out = _certified_inside(r.children[0], cx, cy, half, delta)
        for c in r.children[1:]:
            out = out | _certified_inside(c, cx, cy, half, delta)
        return out
    if isinstance(r, Intersection):
        out = _certified_inside(r.children[0], cx, cy, half, delta)
        for c in r.children[1:]:
            out = out & _certified_inside(c, cx, cy, half, delta)
        return out
    if isinstance(r, Difference):
        inside_left = _certified_inside(r.left, cx, cy, half, delta)
        outside_right = ~_contains(_inflate(r.right, delta), cx, cy)
        return inside_left & outside_right
    if isinstance(r, _Empty):
        return np.zeros_like(cx, dtype=bool)
    raise TypeError(f"unknown region node {type(r).__name__}")


def grid_area_bounds(r: RegionLike, g: GridSpec,
                     window: RegionLike | None = None) -> AreaBound:
    """Certified lower and upper bounds on the area of ``r``.

    The plane is tiled by the squares of ``g``.  A square counts towards
    the *lower* bound only when it is proven to lie entirely inside ``r``
    (via corner-and-centre certificates for convex primitives composed
    through the algebra, or via the conservative deflation of ``r``).  A
    square counts towards the *upper* bound whenever its centre lies in
    the inflation of ``r`` by half the square diagonal, which covers
    every square meeting ``r``.  Counts are accumulated as integers and
    scaled once, so results are exactly reproducible.

    Parameters
    ----------
    r : Region or primitive shape
        The region to measure.  Must be (certifiably) bounded, unless a
        bounded ``window`` is supplied.
    g : GridSpec
        Grid step and anchor.
    window : Region, optional
        If given, the bounds are computed for ``r`` intersected with
        ``window``.

    Returns
    -------
    AreaBound
        ``lower <= area <= upper``.

    Raises
    ------
    ValueError
        If neither ``r`` nor ``window`` can be certified bounded.
    """
    r = as_region(r)
    if window is not None:
        r = Intersection((r, as_region(window)))
    if not is_bounded(r):
        raise ValueError(
            "grid_area_bounds requires a bounded region (or a bounded window)"
        )
    s = g.step
    half = 0.5 * s
    delta = half * _SQRT2

    xmin, ymin, xmax, ymax = bounding_box(r)
    if not (xmin <= xmax and ymin <= ymax):
        return AreaBound(0.0, 0.0)
    # Squares beyond the inflated bounding box can never be counted.
    i0 = math.floor((xmin - delta - g.origin.x) / s) - 1
    i1 = math.floor((xmax + delta - g.origin.x) / s) + 1
    j0 = math.floor((ymin - delta - g.origin.y) / s) - 1
    j1 = math.floor((ymax + delta - g.origin.y) / s) + 1
    ni = i1 - i0 + 1
    nj = j1 - j0 + 1
    if ni * nj > 500_000_000:
        raise ValueError("grid too fine for the extent of the region")

    inflated = _inflate(r, delta)
    deflated = _deflate(r, delta)
    cx = g.origin.x + (np.arange(i0, i1 + 1) + 0.5) * s
    lower_count = 0
    upper_count = 0
    for j in range(j0, j1 + 1):
        cy = np.full_like(cx, g.origin.y + (j + 0.5) * s)
        upper_count += int(np.count_nonzero(_contains(inflated, cx, cy)))
        low = _certified_inside(r, cx, cy, half, delta)
        low |= _contains(deflated, cx, cy)
        lower_count += int(np.count_nonzero(low))
    return AreaBound(lower_count * s * s, upper_count * s * s)


# ---------------------------------------------------------------------------
# disk areas
# ---------------------------------------------------------------------------


def disk_lens_area(d: float, r1: float, r2: float) -> float:
    """Area of the intersection of two disks in closed form.

    Parameters
    ----------
    d : float
        Distance between the centres (non-negative).
    r1, r2 : float
        Disk radii (positive).

    Returns
    -------
    float
        ``0`` for separated disks; the area of the smaller disk when one
        contains the other; otherwise the classical lens formula, clamped
        at ``0``.

    Examples
    --------
    >>> disk_lens_area(3.0, 1.0, 1.0)
    0.0
    >>> round(disk_lens_area(1.0, 1.0, 1.0), 10)  # 2 pi / 3 - sqrt(3) / 2
    1.2283696986
    """
    if d < 0.0 or r1 <= 0.0 or r2 <= 0.0:
        raise ValueError("need d >= 0 and positive radii")
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rmin = min(r1, r2)
        return math.pi * rmin * rmin
    x1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1)
    x2 = (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2)
    x1 = min(1.0, max(-1.0, x1))
    x2 = min(1.0, max(-1.0, x2))
    term = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    # Near tangency ``acos`` cancels and the sum can dip below zero.
    return max(0.0, (
        r1 * r1 * math.acos(x1)
        + r2 * r2 * math.acos(x2)
        - 0.5 * math.sqrt(max(term, 0.0))
    ))


def circle_intersections(c1: Disk, c2: Disk) -> tuple:
    """Intersection points of the two boundary circles.

    Returns a tuple of 0 or 2 ``Point`` objects (tangency is reported as
    a coincident pair).  Concentric circles yield an empty tuple.
    """
    return tuple(Point(px, py) for px, py in _circle_cuts(
        c1.center.x, c1.center.y, c1.radius,
        c2.center.x, c2.center.y, c2.radius))


def _circle_cuts(x1: float, y1: float, r1: float,
                 x2: float, y2: float, r2: float) -> tuple:
    """:func:`circle_intersections` on plain floats: 0 or 2 ``(x, y)`` pairs."""
    dx, dy = x2 - x1, y2 - y1
    d2 = dx * dx + dy * dy
    d = math.sqrt(d2)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return ()
    a = (d2 + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(max(h2, 0.0))
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    ox, oy = -dy / d, dx / d
    return ((mx + h * ox, my + h * oy), (mx - h * ox, my - h * oy))


def disks_intersection_area(disks: Sequence) -> float:
    """Exact area of the common intersection of a family of disks.

    The boundary of the intersection is decomposed into circular arcs and
    the area follows from the divergence theorem.  Exact up to rounding;
    no sampling or discretisation is involved.

    Parameters
    ----------
    disks : sequence of Disk or (x, y, radius) triples
        At least one disk.  Exact duplicates are ignored.

    Returns
    -------
    float
        Area of the intersection, never negative (``0.0`` when it is empty
        or degenerate, in particular when two of the disks are disjoint or
        externally tangent).

    Examples
    --------
    >>> h = math.sqrt(3.0) / 2.0
    >>> round(disks_intersection_area(  # (pi - sqrt(3)) / 2
    ...     [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (0.5, h, 1.0)]), 10)
    0.704770923
    >>> disks_intersection_area([(0.0, 0.0, 1.0), (2.0, 0.0, 1.0),
    ...                          (1.0, 0.0, 0.5)])
    0.0
    """
    norm = []
    for d in disks:
        if not isinstance(d, Disk):
            x, y, r = d
            d = Disk(Point(float(x), float(y)), float(r))
        key = (d.center.x, d.center.y, d.radius)
        if key not in norm:
            norm.append(key)
    if not norm:
        raise ValueError("need at least one disk")
    if len(norm) == 1:
        r = norm[0][2]
        return math.pi * r * r
    # Two disjoint or tangent disks meet in at most a point.  Left to the
    # arc loop, the 1e-9 slack of ``inside_all`` can count arcs of such a
    # pair and give a negative area.
    for i, (cx, cy, cr) in enumerate(norm):
        for ox, oy, orr in norm[i + 1:]:
            if math.hypot(cx - ox, cy - oy) >= cr + orr:
                return 0.0

    eps = 1e-12

    def inside_all(px: float, py: float, skip: int) -> bool:
        for idx, (cx, cy, cr) in enumerate(norm):
            if idx == skip:
                continue
            if math.hypot(px - cx, py - cy) > cr + 1e-9:
                return False
        return True

    total = 0.0
    boundary_found = False
    for i, (cx, cy, cr) in enumerate(norm):
        cuts = []
        for j, (ox, oy, orr) in enumerate(norm):
            if j == i:
                continue
            for px, py in _circle_cuts(cx, cy, cr, ox, oy, orr):
                cuts.append(math.atan2(py - cy, px - cx) % (2.0 * math.pi))
        if not cuts:
            # Circle i is either entirely inside every other disk (it
            # bounds the intersection alone) or entirely outside some disk.
            if inside_all(cx + cr, cy, i):
                if all(
                    math.hypot(cx - ox, cy - oy) + cr <= orr + 1e-9
                    for j, (ox, oy, orr) in enumerate(norm)
                    if j != i
                ):
                    return math.pi * cr * cr
            continue
        cuts = sorted(set(cuts))
        m = len(cuts)
        for a_idx in range(m):
            t1 = cuts[a_idx]
            t2 = cuts[(a_idx + 1) % m]
            if a_idx == m - 1:
                t2 += 2.0 * math.pi
            if t2 - t1 < eps:
                continue
            tm = 0.5 * (t1 + t2)
            px = cx + cr * math.cos(tm)
            py = cy + cr * math.sin(tm)
            if inside_all(px, py, i):
                boundary_found = True
                total += 0.5 * (
                    cr * cx * (math.sin(t2) - math.sin(t1))
                    - cr * cy * (math.cos(t2) - math.cos(t1))
                    + cr * cr * (t2 - t1)
                )
    if not boundary_found:
        # No arc of any circle bounds the intersection: either one disk
        # lies inside all others (handled above) or the intersection is
        # empty or a single point.
        smallest = min(range(len(norm)), key=lambda t: norm[t][2])
        cx, cy, cr = norm[smallest]
        if inside_all(cx, cy, smallest) and all(
            math.hypot(cx - ox, cy - oy) + cr <= orr + 1e-9
            for j, (ox, oy, orr) in enumerate(norm)
            if j != smallest
        ):
            return math.pi * cr * cr
        return 0.0
    return max(total, 0.0)
