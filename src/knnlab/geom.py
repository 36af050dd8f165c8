"""Exact and conservative planar geometry primitives.

This module provides the geometric substrate for the rest of the package:
points and segments, a small closed algebra of planar regions (disks,
ellipses, half-planes and convex polygons, combined by union,
intersection and difference), and certified area bounds obtained by
counting grid squares.

Design notes
------------
All regions denote *closed* point sets.  Membership tests are exact up to
floating-point rounding of the defining arithmetic; no tolerances are
hidden inside the predicates.  Every shape and every node of the algebra
is a :class:`Region` subclass that answers membership, a bounding box, a
signed offset (outward for a positive distance, inward for a negative
one) and a certified-inside test for grid squares.  Conservativeness is
explicit: ``grid_area_bounds`` brackets the true area between a certified
lower bound (squares whose corners are certified inside) and a certified
upper bound (squares that could meet the region, found through the
outward offset of the region by half a square's diagonal).

Areas of disk intersections are also available in closed form
(``disk_lens_area``) and by an exact arc-decomposition
(``disks_intersection_area``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence, Union as _TUnion

import numpy as np

__all__ = [
    "Point",
    "Segment",
    "Disk",
    "Ellipse",
    "HalfPlane",
    "ConvexPolygon",
    "Region",
    "Union",
    "Intersection",
    "Difference",
    "EMPTY",
    "AreaBound",
    "as_point",
    "distance",
    "point_segment_distance",
    "segments_intersect",
    "membership",
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
# the region algebra
# ---------------------------------------------------------------------------

_INF = math.inf


class Region:
    """A closed planar point set: a shape, or a node combining regions.

    Every kind of region implements four private operations, on float
    arrays of query points or square centres:

    ``_contains(xs, ys)``
        Elementwise membership.
    ``_bbox()``
        A box ``(xmin, ymin, xmax, ymax)`` containing the region, with
        ``+-inf`` in directions the box cannot bound; an empty region
        gives an inverted box.
    ``_offset(delta)``
        For ``delta > 0`` a superset of the Minkowski sum with the closed
        disk of radius ``delta``; for ``delta < 0`` a subset of the erosion
        by the disk of radius ``-delta``, with ``EMPTY`` for a shape that
        the erosion eliminates.
    ``_certified_inside(cx, cy, half, delta)``
        ``True`` only where the square of half-side ``half`` centred at
        ``(cx, cy)`` lies inside the region; ``delta`` is its
        half-diagonal.

    The ``_certified_inside`` given here suits a convex region, which
    holds a square when it holds the square's four corners.
    """

    def _certified_inside(self, cx, cy, half, delta):
        return reduce(operator.and_, [self._contains(cx + sx, cy + sy)
                                      for sx in (-half, half)
                                      for sy in (-half, half)])


def _check_region(r) -> Region:
    if not isinstance(r, Region):
        raise TypeError(f"cannot interpret {type(r).__name__} as a region")
    return r


@dataclass(frozen=True)
class Disk(Region):
    """Closed disk with the given ``center`` and positive ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError("disk radius must be positive and finite")

    def _contains(self, xs, ys):
        c, r = self.center, self.radius
        return (xs - c.x) ** 2 + (ys - c.y) ** 2 <= r * r

    def _bbox(self):
        c, r = self.center, self.radius
        return (c.x - r, c.y - r, c.x + r, c.y + r)

    def _offset(self, delta: float) -> Region:
        radius = self.radius + delta
        return Disk(self.center, radius) if radius > 0.0 else EMPTY


@dataclass(frozen=True)
class Ellipse(Region):
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

    def _contains(self, xs, ys):
        f1, f2 = self.focus1, self.focus2
        d = np.hypot(xs - f1.x, ys - f1.y) + np.hypot(xs - f2.x, ys - f2.y)
        return d <= self.distance_sum

    def _bbox(self):
        f1, f2 = self.focus1, self.focus2
        cx, cy = 0.5 * (f1.x + f2.x), 0.5 * (f1.y + f2.y)
        fd = distance(f1, f2)
        a = 0.5 * self.distance_sum
        b2 = a * a - 0.25 * fd * fd
        b = math.sqrt(max(b2, 0.0))
        if fd == 0.0:
            ux, uy = 1.0, 0.0
        else:
            ux, uy = (f2.x - f1.x) / fd, (f2.y - f1.y) / fd
        ex = math.hypot(a * ux, b * uy)
        ey = math.hypot(a * uy, b * ux)
        return (cx - ex, cy - ey, cx + ex, cy + ey)

    def _offset(self, delta: float) -> Region:
        total = self.distance_sum + 2.0 * delta
        if total <= distance(self.focus1, self.focus2):
            return EMPTY
        return Ellipse(self.focus1, self.focus2, total)


@dataclass(frozen=True)
class HalfPlane(Region):
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

    def _contains(self, xs, ys):
        a, n = self.anchor, self.normal
        return (xs - a.x) * n.x + (ys - a.y) * n.y <= 0.0

    def _bbox(self):
        a, n = self.anchor, self.normal
        if n.y == 0.0:
            if n.x > 0.0:
                return (-_INF, -_INF, a.x, _INF)
            return (a.x, -_INF, _INF, _INF)
        if n.x == 0.0:
            if n.y > 0.0:
                return (-_INF, -_INF, _INF, a.y)
            return (-_INF, a.y, _INF, _INF)
        return (-_INF, -_INF, _INF, _INF)

    def _offset(self, delta: float) -> Region:
        a, n = self.anchor, self.normal
        ln = math.hypot(n.x, n.y)
        return HalfPlane(Point(a.x + delta * n.x / ln, a.y + delta * n.y / ln), n)


@dataclass(frozen=True)
class ConvexPolygon(Region):
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

    def _contains(self, xs, ys):
        verts = self.vertices
        out = np.ones_like(xs, dtype=bool)
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            out &= (b.x - a.x) * (ys - a.y) - (b.y - a.y) * (xs - a.x) >= 0.0
        return out

    def _bbox(self):
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def _offset(self, delta: float) -> Region:
        verts = _miter_offset(self.vertices, delta)
        if verts is not None:
            return ConvexPolygon(verts)
        if delta > 0.0:  # an outward miter cannot collapse; defensive only
            raise ValueError("polygon offset failed")
        return EMPTY


def _signed_area(verts: Sequence[Point]) -> float:
    total = 0.0
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return 0.5 * total


def _miter_offset(verts: Sequence[Point], delta: float):
    """Miter offset of strictly convex CCW vertices (positive = outward).

    Returns the offset vertex list, or ``None`` if the offset collapses
    the polygon.
    """
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


@dataclass(frozen=True, init=False)
class _Combination(Region):
    """Shared body of ``Union`` and ``Intersection``: ``children`` are
    joined elementwise by the subclass's ``_join``."""

    children: tuple

    def __init__(self, children: Iterable[Region]):
        kids = tuple(_check_region(c) for c in children)
        if not kids:
            raise ValueError(
                f"{type(self).__name__.lower()} needs at least one child region")
        object.__setattr__(self, "children", kids)

    def _contains(self, xs, ys):
        return reduce(self._join, [c._contains(xs, ys) for c in self.children])

    def _offset(self, delta: float) -> Region:
        # A point near a union (an intersection) is near some (every)
        # child, and the children's erosions lie inside the erosion of
        # their union (are the erosion of their intersection).
        return type(self)(c._offset(delta) for c in self.children)

    def _certified_inside(self, cx, cy, half, delta):
        return reduce(self._join, [c._certified_inside(cx, cy, half, delta)
                                   for c in self.children])


class Union(_Combination):
    """Union of one or more child regions."""

    _join = operator.or_

    def _bbox(self):
        x0, y0, x1, y1 = zip(*(c._bbox() for c in self.children))
        return (min(x0), min(y0), max(x1), max(y1))


class Intersection(_Combination):
    """Intersection of one or more child regions."""

    _join = operator.and_

    def _bbox(self):
        x0, y0, x1, y1 = zip(*(c._bbox() for c in self.children))
        return (max(x0), max(y0), min(x1), min(y1))


@dataclass(frozen=True)
class Difference(Region):
    """Set difference ``left`` minus ``right``."""

    left: Region
    right: Region

    def __post_init__(self) -> None:
        _check_region(self.left)
        _check_region(self.right)

    def _contains(self, xs, ys):
        return self.left._contains(xs, ys) & ~self.right._contains(xs, ys)

    def _bbox(self):
        return self.left._bbox()

    def _offset(self, delta: float) -> Region:
        # Points near L \ R are near L and outside the erosion of R;
        # keeping a disk inside L \ R needs it outside R entirely, so the
        # subtrahend grows.  Either way R moves the opposite way to L.
        return Difference(self.left._offset(delta), self.right._offset(-delta))

    def _certified_inside(self, cx, cy, half, delta):
        inside_left = self.left._certified_inside(cx, cy, half, delta)
        return inside_left & ~self.right._offset(delta)._contains(cx, cy)


class _Empty(Region):
    """The canonical empty region (every offset of it is itself)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"

    def _contains(self, xs, ys):
        return np.zeros(np.broadcast(xs, ys).shape, dtype=bool)

    def _bbox(self):
        return (_INF, _INF, -_INF, -_INF)

    def _offset(self, delta: float) -> Region:
        return self


EMPTY = _Empty()


def membership(r: Region, p: PointLike) -> bool:
    """Whether point ``p`` belongs to region ``r`` (closed-set semantics)."""
    p = as_point(p)
    return bool(r._contains(np.array([p.x]), np.array([p.y]))[0])


# ---------------------------------------------------------------------------
# certified grid area bounds
# ---------------------------------------------------------------------------


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


def grid_area_bounds(region: Region, step: float) -> AreaBound:
    """Certified lower and upper bounds on the area of ``region``.

    The plane is tiled by squares of side ``step`` with corners on the
    multiples of ``step``.  A square counts towards the *lower* bound only
    when its corners are certified inside ``region``: a convex shape holds
    the square when it holds the four corners, and the algebra composes
    those tests (a :class:`Difference` also needs the square's centre
    outside the subtracted region grown by half the square diagonal).  A
    square counts towards the *upper* bound whenever its centre lies in
    the offset of ``region`` by half the square diagonal, which covers
    every square meeting ``region``.  Counts are accumulated as integers
    and scaled once, so results are exactly reproducible.

    Returns
    -------
    AreaBound
        ``lower <= area <= upper``; ``(0, 0)`` when the bounding box of
        ``region`` is empty.

    Raises
    ------
    ValueError
        If ``step`` is not positive and finite, or the bounding box of
        ``region`` is not finite.
    """
    s = float(step)
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError("grid step must be positive and finite")
    half = 0.5 * s
    delta = half * _SQRT2

    xmin, ymin, xmax, ymax = region._bbox()
    if not (xmin <= xmax and ymin <= ymax):
        return AreaBound(0.0, 0.0)
    if not all(map(math.isfinite, (xmin, ymin, xmax, ymax))):
        raise ValueError("grid_area_bounds requires a bounded region")
    # Squares beyond the inflated bounding box can never be counted.
    i0 = math.floor((xmin - delta) / s) - 1
    i1 = math.floor((xmax + delta) / s) + 1
    j0 = math.floor((ymin - delta) / s) - 1
    j1 = math.floor((ymax + delta) / s) + 1
    ni = i1 - i0 + 1
    nj = j1 - j0 + 1
    if ni * nj > 500_000_000:
        raise ValueError("grid too fine for the extent of the region")

    inflated = region._offset(delta)
    cx = (np.arange(i0, i1 + 1) + 0.5) * s
    lower_count = 0
    upper_count = 0
    for j in range(j0, j1 + 1):
        cy = np.full_like(cx, (j + 0.5) * s)
        upper_count += int(np.count_nonzero(inflated._contains(cx, cy)))
        lower_count += int(np.count_nonzero(
            region._certified_inside(cx, cy, half, delta)))
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


def _circle_cuts(x1: float, y1: float, r1: float,
                 x2: float, y2: float, r2: float) -> tuple:
    """Intersection points of the two boundary circles: 0 or 2 ``(x, y)``
    pairs (tangency gives a coincident pair, concentric circles none)."""
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

    One pass over the circles decides every case.  A circle that no other
    circle cuts bounds the intersection alone exactly when its disk lies
    in every other disk (within ``1e-9``), and then the area is its own
    ``pi r^2``; a single disk is the case with no other disk to test.  A
    circle with cuts contributes each arc whose midpoint lies in every
    other disk.  No arc qualifies only when the intersection is empty or
    a single point: if the smallest disk lay inside all the others it
    would either have no cuts, and be returned whole, or at most
    ``2 (m - 1)`` cuts among ``m`` disks, so that its longest arc, far
    longer than the ``1e-12`` skipped as degenerate, has its midpoint
    inside every other disk within the same ``1e-9``.  The empty sum is
    then returned as ``0.0``.

    Parameters
    ----------
    disks : sequence of (x, y, radius) triples
        At least one disk, with a finite centre and a positive, finite
        radius (``ValueError`` otherwise).  Exact duplicates are ignored.

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
    for x, y, r in disks:
        key = (float(x), float(y), float(r))
        if not (math.isfinite(key[0]) and math.isfinite(key[1])
                and 0.0 < key[2] < math.inf):
            raise ValueError("disks need finite centres and positive, "
                             "finite radii")
        if key not in norm:
            norm.append(key)
    if not norm:
        raise ValueError("need at least one disk")
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
                total += 0.5 * (
                    cr * cx * (math.sin(t2) - math.sin(t1))
                    - cr * cy * (math.cos(t2) - math.cos(t1))
                    + cr * cr * (t2 - t1)
                )
    return max(total, 0.0)
