"""Normalised crossing-pair frames and their derived region systems.

A *crossing configuration* consists of two graph edges ``a1 a2`` and
``b1 b2`` that intersect while their endpoint pairs lie in different graph
components.  Any such configuration can be brought, by relabelling and a
similarity transformation, into a canonical frame in which

* ``b1 = (0, 0)`` and ``b2 = (1, 0)``,
* the ``a`` edge is no longer than the ``b`` edge,
* ``a1`` is the ``a`` endpoint closer to the segment ``b1 b2``, placed on
  or above the axis (``a1.y >= 0 >= a2.y``), and
* ``b1`` is the ``b`` endpoint closer to ``a1`` (hence ``a1.x <= 1/2``).

This module builds that frame (:func:`normalize_crossing_pair`) and the
named families of regions attached to it (:func:`build_named_regions`).
It is the one home of the frame's fixed polygons, the pi/6 wedges
``WEDGE_B1``, ``WEDGE_B2`` and the ``KITE``, which the region system and
the censuses of :mod:`knnlab._census` both read.

Region names follow a fixed vocabulary.  ``H``-regions must collectively
hold many points (the disk around ``a1`` or ``a2`` is forced to capture
them) while ``L``-regions must be empty of points; the certified area
censuses in :mod:`knnlab.bounds` turn this dichotomy into a bound on the
probability that a crossing configuration occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .geom import (
    ConvexPolygon,
    Difference,
    Disk,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    PointLike,
    Region,
    Segment,
    Union,
    as_point,
    distance,
    point_segment_distance,
    segments_intersect,
)

__all__ = [
    "SQRT3",
    "W_PLUS",
    "W_MINUS",
    "Z_MINUS",
    "U_MINUS",
    "V_MINUS",
    "A1_LOWEST",
    "WEDGE_B1",
    "WEDGE_B2",
    "KITE",
    "CrossingFrame",
    "NormalizationMap",
    "normalize_crossing_pair",
    "normalize_crossing_pair_with_map",
    "build_named_regions",
    "s1_polygon",
    "s2_triangle",
]

SQRT3 = math.sqrt(3.0)

#: Apex of the upper triangle ``T`` (circumradius-1 corner above the axis).
W_PLUS = Point(0.5, 1.0 / (2.0 * SQRT3))
#: Mirror image of ``W_PLUS`` below the axis.
W_MINUS = Point(0.5, -1.0 / (2.0 * SQRT3))
#: Apex of the lower triangle ``T2`` (equilateral corner below the axis).
Z_MINUS = Point(0.5, -SQRT3 / 2.0)
#: Left corner of the bounding triangle for ``a2`` placements.
U_MINUS = Point(0.25, -SQRT3 / 4.0)
#: Right corner of the bounding triangle for ``a2`` placements.
V_MINUS = Point(0.75, -SQRT3 / 4.0)
#: Lowest admissible location of ``a1`` (height ``1/(4*sqrt(6))``).
A1_LOWEST = Point(0.5, 1.0 / (4.0 * math.sqrt(6.0)))

_B1 = Point(0.0, 0.0)
_B2 = Point(1.0, 0.0)

#: The pi/6 wedge of the lower triangle ``T2`` at ``b1``: its ray at
#: angle -pi/6 meets the edge ``b2 Z_MINUS`` at its midpoint ``V_MINUS``.
WEDGE_B1 = ConvexPolygon([_B1, _B2, V_MINUS])
#: The pi/6 wedge of ``T2`` at ``b2``, mirror image of ``WEDGE_B1``.
WEDGE_B2 = ConvexPolygon([_B1, _B2, U_MINUS])
#: The below-axis kite where both base angles are at least pi/6: ``T2``
#: minus both wedges, up to its two upper edges.
KITE = ConvexPolygon([W_MINUS, V_MINUS, Z_MINUS, U_MINUS])

#: Closed upper / lower half-planes about the ``b1 b2`` axis.
_UPPER = HalfPlane(Point(0.0, 0.0), Point(0.0, -1.0))
_LOWER = HalfPlane(Point(0.0, 0.0), Point(0.0, 1.0))

_RHO_SLACK = 1e-12


# ---------------------------------------------------------------------------
# the canonical frame
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingFrame:
    """A normalised crossing configuration.

    Coordinates are expressed in the frame where ``b1 = (0, 0)`` and
    ``b2 = (1, 0)``.  ``rho1`` and ``rho2`` are the radii of the smallest
    disks about ``a1`` and ``a2`` containing their outgoing
    neighbourhoods; they default to the largest admissible values
    ``r1`` and ``r2`` (the distance from each ``a`` point to the nearer
    ``b`` point).

    Raises
    ------
    ValueError
        If the coordinates violate the frame invariants:
        ``0 < a1.x < 1`` and ``0 < a2.x < 1``, ``a1.y >= 0 >= a2.y``, or
        ``rho_i`` outside ``(0, r_i]`` (up to a relative slack of 1e-12).
    """

    a1: Point
    a2: Point
    rho1: Optional[float] = None
    rho2: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", as_point(self.a1))
        object.__setattr__(self, "a2", as_point(self.a2))
        if not (0.0 < self.a1.x < 1.0 and 0.0 < self.a2.x < 1.0):
            raise ValueError(
                "frame invariant violated: both a points need x strictly in (0, 1)"
            )
        if not (self.a1.y >= 0.0 >= self.a2.y):
            raise ValueError(
                "frame invariant violated: need a1.y >= 0 >= a2.y"
            )
        r1, r2 = self.r1, self.r2
        rho1 = r1 if self.rho1 is None else float(self.rho1)
        rho2 = r2 if self.rho2 is None else float(self.rho2)
        if not (0.0 < rho1 <= r1 + _RHO_SLACK and 0.0 < rho2 <= r2 + _RHO_SLACK):
            raise ValueError(
                "frame invariant violated: rho_i must lie in (0, r_i] "
                f"(got rho1={rho1}, r1={r1}, rho2={rho2}, r2={r2})"
            )
        object.__setattr__(self, "rho1", min(rho1, r1))
        object.__setattr__(self, "rho2", min(rho2, r2))

    @property
    def b1(self) -> Point:
        return _B1

    @property
    def b2(self) -> Point:
        return _B2

    @property
    def r1(self) -> float:
        """Distance from ``a1`` to the nearer of ``b1`` and ``b2``."""
        return min(distance(self.a1, _B1), distance(self.a1, _B2))

    @property
    def r2(self) -> float:
        """Distance from ``a2`` to the nearer of ``b1`` and ``b2``."""
        return min(distance(self.a2, _B1), distance(self.a2, _B2))


@dataclass(frozen=True)
class NormalizationMap:
    """Bookkeeping for :func:`normalize_crossing_pair_with_map`.

    ``roles`` maps each role name (``"a1"``, ``"a2"``, ``"b1"``, ``"b2"``)
    to the position (0-3) of the input point that took that role, in the
    argument order ``(a1, a2, b1, b2)``.  ``scale`` is the length of the
    original ``b`` edge after relabelling (the similarity divisor), and
    ``reflected`` records whether the frame was mirrored about the axis.
    """

    roles: Dict[str, int]
    scale: float
    reflected: bool


def _similarity(p: Point, origin: Point, ex: float, ey: float, scale: float) -> Point:
    dx, dy = p.x - origin.x, p.y - origin.y
    return Point((dx * ex + dy * ey) / scale, (-dx * ey + dy * ex) / scale)


def normalize_crossing_pair_with_map(
    a1: PointLike, a2: PointLike, b1: PointLike, b2: PointLike
) -> Tuple[CrossingFrame, NormalizationMap]:
    """Normalise a crossing configuration and report the relabelling used.

    See :func:`normalize_crossing_pair` for the geometric conventions.
    """
    pts = [as_point(a1), as_point(a2), as_point(b1), as_point(b2)]
    if not segments_intersect(Segment(pts[0], pts[1]), Segment(pts[2], pts[3])):
        raise ValueError("the two edges do not intersect")

    idx = [0, 1, 2, 3]  # positions of current (a1, a2, b1, b2) in the input
    # The a edge must be the shorter of the two (ties keep the labelling).
    if distance(pts[idx[0]], pts[idx[1]]) > distance(pts[idx[2]], pts[idx[3]]):
        idx = [idx[2], idx[3], idx[0], idx[1]]
    # a1 is the a endpoint closer to the segment b1 b2.
    bseg = Segment(pts[idx[2]], pts[idx[3]])
    if point_segment_distance(pts[idx[0]], bseg) > point_segment_distance(
        pts[idx[1]], bseg
    ):
        idx = [idx[1], idx[0], idx[2], idx[3]]
    # b1 is the b endpoint closer to a1.
    if distance(pts[idx[0]], pts[idx[3]]) < distance(pts[idx[0]], pts[idx[2]]):
        idx = [idx[0], idx[1], idx[3], idx[2]]

    o = pts[idx[2]]
    t = pts[idx[3]]
    scale = distance(o, t)
    ex, ey = (t.x - o.x) / scale, (t.y - o.y) / scale
    na1 = _similarity(pts[idx[0]], o, ex, ey, scale)
    na2 = _similarity(pts[idx[1]], o, ex, ey, scale)
    reflected = na1.y < 0.0 or na2.y > 0.0
    if reflected:
        na1 = Point(na1.x, -na1.y)
        na2 = Point(na2.x, -na2.y)
    frame = CrossingFrame(na1, na2)
    roles = {"a1": idx[0], "a2": idx[1], "b1": idx[2], "b2": idx[3]}
    return frame, NormalizationMap(roles=roles, scale=scale, reflected=reflected)


def normalize_crossing_pair(
    a1: PointLike, a2: PointLike, b1: PointLike, b2: PointLike
) -> CrossingFrame:
    """Bring a crossing configuration into the canonical frame.

    The two closed segments must intersect.  Endpoint pairs are
    relabelled so that the ``a`` edge is the shorter one, ``a1`` is the
    ``a`` endpoint nearer the ``b`` segment and ``b1`` the ``b`` endpoint
    nearer ``a1``; a similarity transformation then places ``b1`` at the
    origin and ``b2`` at ``(1, 0)``, and a final reflection (if needed)
    puts ``a1`` on or above the axis.  All ties keep the input labelling.

    Returns
    -------
    CrossingFrame
        The normalised frame with default radii ``rho_i = r_i``.

    Raises
    ------
    ValueError
        If the segments do not intersect, or the normalised coordinates
        violate the frame invariants (which cannot happen for a genuine
        crossing pair of a mutual nearest-neighbour graph).
    """
    frame, _ = normalize_crossing_pair_with_map(a1, a2, b1, b2)
    return frame


# ---------------------------------------------------------------------------
# named regions of a frame
# ---------------------------------------------------------------------------


def s1_polygon() -> ConvexPolygon:
    """Convex quadrilateral certified to contain every admissible ``a1``."""
    return ConvexPolygon(
        [Point(0.5, 0.0), Point(SQRT3 / 4.0, 0.25), W_PLUS,
         Point(1.0 - SQRT3 / 4.0, 0.25)]
    )


def s2_triangle() -> ConvexPolygon:
    """Triangle certified to contain every admissible ``a2``."""
    return ConvexPolygon([U_MINUS, V_MINUS, W_MINUS])


def build_named_regions(f: CrossingFrame) -> Dict[str, Region]:
    """Construct the named region system of a crossing frame.

    The system contains the bounding triangles ``T`` and ``T2``, the
    admissible placement regions ``S1`` and ``S2``, the joining ellipses
    ``E1``/``E2`` (foci ``a1`` and a ``b`` point, string length 1) and
    ``F1``/``F2`` (foci ``a2`` and a ``b`` point), the lens ``M`` of the
    two neighbourhood disks, the crescents ``R1``/``R2``, the
    point-free regions ``L1``..``L6`` with their union ``L``, and the
    point-forcing regions ``H1``..``H5`` with their union ``H``
    (``H5`` coincides with ``S2`` by construction).  ``S2`` is the part
    of ``A1`` in ``KITE``, and ``L4`` the part of ``Dk2`` in ``WEDGE_B1``
    or ``WEDGE_B2``: the polygons the censuses test tiles against.
    ``S1``, ``L1``, ``L2``, ``L5``, ``L6`` and ``H3`` are clamped to a
    half-plane, and ``L3`` is the part of ``M_plus`` in either
    half-radius disk.

    ``H1`` and ``H2`` follow the ``intersection`` reading of
    :func:`knnlab.bounds.verify_H_plus`: they drop a crescent point only
    when it lies in both the joining ellipse and the half-radius disk
    (``L1``, ``L2``).  The committed ``hplus`` certificate takes the
    ``either`` reading, which drops it when it lies in one of them, so
    that certificate is not an upper bound on the area of ``H1 | H2``;
    ``tests/test_regions.py::test_committed_hplus_lies_below_h1_h2``
    pins the gap at the certificate's witness.

    Parameters
    ----------
    f : CrossingFrame

    Raises
    ------
    ValueError
        When an ellipse degenerates because an ``a`` point is at distance 1
        or more from a ``b`` focus (cannot happen for admissible frames).
    """
    a1, a2 = f.a1, f.a2
    r1, r2 = f.r1, f.r2
    for p, tag in ((a1, "a1"), (a2, "a2")):
        for b in (_B1, _B2):
            if distance(p, b) >= 1.0:
                raise ValueError(
                    f"{tag} is at distance >= 1 from a b point; the joining "
                    "ellipses degenerate and the region system is undefined"
                )

    A1 = Disk(a1, r1)
    A2 = Disk(a2, r2)
    B1 = Disk(_B1, 1.0)
    B2 = Disk(_B2, 1.0)
    Dk1 = Disk(a1, f.rho1)
    Dk2 = Disk(a2, f.rho2)
    Dh1 = Disk(_B1, 0.5)
    Dh2 = Disk(_B2, 0.5)
    E1 = Ellipse(a1, _B1, 1.0)
    E2 = Ellipse(a1, _B2, 1.0)
    F1 = Ellipse(a2, _B1, 1.0)
    F2 = Ellipse(a2, _B2, 1.0)

    T = ConvexPolygon([_B1, _B2, W_PLUS])
    T2 = ConvexPolygon([_B1, _B2, Z_MINUS])

    S1 = Difference(
        Intersection((T, HalfPlane(Point(0.5, 0.0), Point(1.0, 0.0)))), Dh1)

    S2 = Intersection((KITE, A1))

    M = Intersection((Dk1, Dk2))
    M_plus = Intersection((M, _UPPER))
    R1 = Intersection((Dk1, Difference(B1, B2)))
    R2 = Intersection((Dk1, Difference(B2, B1)))

    L1 = Difference(Intersection((Dk1, _UPPER, E1, Dh1)), M)
    L2 = Difference(Intersection((Dk1, _UPPER, E2, Dh2)), M)
    L3 = Intersection((M_plus, Union((Dh1, Dh2))))
    L5 = Difference(Intersection((Dk2, _LOWER, F1, Dh1)), T2)
    L6 = Difference(Intersection((Dk2, _LOWER, F2, Dh2)), T2)
    H3 = Difference(Intersection((A2, _LOWER)), Union((B1, B2)))

    L4 = Intersection((Dk2, Union((WEDGE_B1, WEDGE_B2))))
    H1 = Difference(R1, L1)
    H2 = Difference(R2, L2)
    H4 = Difference(M_plus, L3)
    H5 = S2
    H = Union((S2, H1, H2, H3, H4))
    L = Union((L1, L2, L3, L4, L5, L6))

    return {
        "T": T,
        "T2": T2,
        "S1": S1,
        "S2": S2,
        "A1": A1,
        "A2": A2,
        "B1": B1,
        "B2": B2,
        "Dk1": Dk1,
        "Dk2": Dk2,
        "Db1_half": Dh1,
        "Db2_half": Dh2,
        "E1": E1,
        "E2": E2,
        "F1": F1,
        "F2": F2,
        "M": M,
        "M_plus": M_plus,
        "R1": R1,
        "R2": R2,
        "L1": L1,
        "L2": L2,
        "L3": L3,
        "L4": L4,
        "L5": L5,
        "L6": L6,
        "H1": H1,
        "H2": H2,
        "H3": H3,
        "H4": H4,
        "H5": H5,
        "H": H,
        "L": L,
    }

