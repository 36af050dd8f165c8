"""Grid-census engines for the crossing-frame area certificates.

Internal module.  Each census scans every grid square that could contain
one of the two free points of a normalised crossing frame (``a1`` over a
quadrilateral hull, ``a2`` over a triangular hull) and, for each such
candidate square ``X``, counts universe squares that are *certified* to
lie in the relevant region family no matter where inside ``X`` the free
point actually is:

* ``L+`` / ``L-``: a certified **lower** bound on the area that must be
  empty of points (minimised over candidates);
* ``H+`` / ``H-``: a certified **upper** bound on the area allowed to
  hold points (maximised over candidates).

All tests are conservative tile-level certificates: corner distances,
separating-axis tests against convex hulls, and a sum-of-distances test
for the joining ellipses with margin ``1 - 3*(sqrt(2)/2)*s``.  Counts
are integers; areas are ``count * s**2``; ties between candidates keep
the first square in (column, row) scan order, so results are exactly
reproducible.

The four families run through one scan, :func:`_scan`.  Each family is a
spec: its candidate hull, the universe rows, the reach of every
candidate, a static per-tile array and a per-tile ``keep`` test on it
(``d2 <= lens**2`` for ``L+``; ``d2 <= bound`` with ``+inf`` on the
pi/6 wedges for ``L-``; ``d2 >= min(crescent bounds)`` with ``-inf`` on
the kite for ``H+``; a bool mask for ``H-``), and whether the count is
minimised or maximised.

The public wrappers that turn these censuses into certificates live in
:mod:`knnlab.bounds`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "CensusOutcome",
    "census_L_plus",
    "census_L_minus",
    "census_H_plus",
    "census_H_minus",
    "validate_step",
    "A1_QUAD",
    "A2_TRI",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

_B1 = (0.0, 0.0)
_B2 = (1.0, 0.0)
_W_MINUS = (0.5, -0.5 / _SQRT3)
_Z = (0.5, -_SQRT3 / 2.0)
_U_MINUS = (0.25, -_SQRT3 / 4.0)
_V_MINUS = (0.75, -_SQRT3 / 4.0)
_A1_LOWEST = (0.5, 1.0 / (4.0 * math.sqrt(6.0)))

#: Convex hull of the admissible ``a1`` positions.
A1_QUAD = [(0.5, 0.0), (_SQRT3 / 4.0, 0.25), (0.5, 0.5 / _SQRT3),
           (1.0 - _SQRT3 / 4.0, 0.25)]
#: Convex hull of the admissible ``a2`` positions.
A2_TRI = [_V_MINUS, _U_MINUS, _W_MINUS]
#: Below-axis region with both base angles at least pi/6.
_KITE = [_W_MINUS, _V_MINUS, _Z, _U_MINUS]
#: Wedge of angle pi/6 at b1 (resp. b2) within the lower triangle.
_TRI_B1 = [_B1, _B2, _V_MINUS]
_TRI_B2 = [_B1, _B2, _U_MINUS]

ProgressFn = Optional[Callable[[int, int], None]]


@dataclass(frozen=True)
class CensusOutcome:
    """Result of one census run.

    Attributes
    ----------
    area : float
        The certified extremal area (``count * s**2``).
    witness : tuple of float
        Centre of the extremal candidate square (first in scan order
        among ties).
    count : int
        Number of universe squares counted at the witness.
    candidates : int
        Number of candidate squares scanned.
    step : float
        The grid side used.
    """

    area: float
    witness: Tuple[float, float]
    count: int
    candidates: int
    step: float


def validate_step(s: float) -> int:
    """Check the census grid side and return ``N = 1/s``.

    ``1/s`` must be an integer (within 1e-9) so that ``b1`` and ``b2``
    land on square corners, and ``s`` must be at most 0.02 for the
    tile-level certificates to have sane margins.
    """
    s = float(s)
    if not (0.0 < s <= 0.02):
        raise ValueError("census step must satisfy 0 < s <= 0.02")
    n = round(1.0 / s)
    if abs(n - 1.0 / s) > 1e-9:
        raise ValueError(
            "census step must evenly divide the unit edge (1/s integral)"
        )
    return int(n)


# ---------------------------------------------------------------------------
# tile-level certificates
# ---------------------------------------------------------------------------


def _edges_of(poly):
    """Outward half-plane form of a convex polygon: ``{p : n.p <= c}``."""
    n = len(poly)
    area2 = sum(
        poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
        for i in range(n)
    )
    pts = poly if area2 > 0 else poly[::-1]
    out = []
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        nx, ny = (y2 - y1), -(x2 - x1)
        out.append((nx, ny, nx * x1 + ny * y1))
    return out


def _tiles_overlapping(poly, cx, cy, s):
    """Exact separating-axis test: closed tile meets closed convex polygon."""
    half = s / 2.0
    ok = np.ones(np.broadcast(cx, cy).shape, dtype=bool)
    for nx, ny, c in _edges_of(poly):
        m = nx * cx + ny * cy - (abs(nx) + abs(ny)) * half
        ok &= m <= c
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    ok &= (cx + half >= min(xs)) & (cx - half <= max(xs))
    ok &= (cy + half >= min(ys)) & (cy - half <= max(ys))
    return ok


def _tiles_inside(poly, cx, cy, s):
    """Exact test: closed tile entirely inside closed convex polygon."""
    half = s / 2.0
    ok = np.ones(np.broadcast(cx, cy).shape, dtype=bool)
    for nx, ny, c in _edges_of(poly):
        m = nx * cx + ny * cy + (abs(nx) + abs(ny)) * half
        ok &= m <= c
    return ok


def _maxcorner_dist2(cx, cy, px, py, s):
    """Squared distance from ``(px, py)`` to the farthest tile corner."""
    half = s / 2.0
    return (np.abs(cx - px) + half) ** 2 + (np.abs(cy - py) + half) ** 2


def _mincorner_dist2(cx, cy, px, py, s):
    """Squared distance from ``(px, py)`` to the nearest tile point."""
    half = s / 2.0
    dx = np.maximum(np.abs(cx - px) - half, 0.0)
    dy = np.maximum(np.abs(cy - py) - half, 0.0)
    return dx * dx + dy * dy


def _candidate_centers(s, poly):
    """Centres of all tiles meeting ``poly``, in (column, row) scan order."""
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    i0 = math.floor(min(xs) / s) - 1
    i1 = math.ceil(max(xs) / s) + 1
    j0 = math.floor(min(ys) / s) - 1
    j1 = math.ceil(max(ys) / s) + 1
    ii = np.arange(i0, i1)
    jj = np.arange(j0, j1)
    I, J = np.meshgrid(ii, jj, indexing="ij")
    I = I.ravel()
    J = J.ravel()
    cx = (I + 0.5) * s
    cy = (J + 0.5) * s
    m = _tiles_overlapping(poly, cx, cy, s)
    if not np.any(m):
        raise ValueError("census step too coarse: no candidate squares")
    order = np.lexsort((J[m], I[m]))
    return cx[m][order], cy[m][order]


def _h_points(xs, ys, eps1):
    """Certified distances from candidate centres to the two forced
    boundary locations of the upper empty-census (one on each unit
    circle), found by bisection on the sum-of-distances equations."""
    target = 1.0 - eps1
    # On the circle about b2: q(phi) = (1 + cos phi, sin phi).
    lo = np.full_like(xs, math.pi / 2)
    hi = np.full_like(xs, math.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        qx = 1.0 + np.cos(mid)
        qy = np.sin(mid)
        g = 2.0 * np.cos(mid / 2.0) + np.hypot(qx - xs, qy - ys) - target
        sel = g > 0.0
        lo = np.where(sel, mid, lo)
        hi = np.where(sel, hi, mid)
    phi1 = np.maximum(0.5 * (lo + hi), math.acos(-7.0 / 8.0))
    d1 = np.hypot(1.0 + np.cos(phi1) - xs, np.sin(phi1) - ys)
    # On the circle about b1: q(phi) = (cos phi, sin phi).
    lo = np.zeros_like(xs)
    hi = np.full_like(xs, math.pi / 2)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        qx = np.cos(mid)
        qy = np.sin(mid)
        g = 2.0 * np.sin(mid / 2.0) + np.hypot(qx - xs, qy - ys) - target
        sel = g > 0.0
        hi = np.where(sel, mid, hi)
        lo = np.where(sel, lo, mid)
    phi2 = np.minimum(0.5 * (lo + hi), math.acos(7.0 / 8.0))
    d2 = np.hypot(np.cos(phi2) - xs, np.sin(phi2) - ys)
    return d1, d2


# ---------------------------------------------------------------------------
# the shared scan
# ---------------------------------------------------------------------------

#: Candidates per unit of work handed to the thread pool.
_BLOCK = 64


def _scan(s, hull, rows, reach_of, tiles, keep, minimise, progress, threads):
    """Run one census family and return its :class:`CensusOutcome`.

    A family is given by its spec:

    ``hull``
        Convex polygon whose meeting tiles are the candidate squares.
    ``rows``
        ``(j0, j1)``: the universe holds tile rows ``j0 <= j < j1`` over
        columns ``floor(-0.35/s) <= i < ceil(1.35/s)``.
    ``reach_of(xs, ys, s)``
        Counting radius of every candidate centre at once; a tile counts
        only if its centre lies within it.  A radius ``<= 0`` counts
        nothing.
    ``tiles(CX, CY, s)``
        Static per-tile array over the universe, built once from column
        centres ``CX`` (shape ``(ni, 1)``) and row centres ``CY`` (shape
        ``(1, nj)``).
    ``keep(d2, static)``
        Per-tile test on a candidate's window: ``d2`` holds squared
        distances from the candidate centre to the window's tile centres
        and ``static`` the matching slice of the ``tiles`` array.
    ``minimise``
        Take the minimum (empty families) or maximum (occupied families)
        count over candidates.

    Every candidate's window is found at once by binary search on the
    tile centres; blocks of ``_BLOCK`` candidates run on a pool of
    ``threads`` threads (one when ``None``) and write disjoint slices of
    one ``counts`` array, so the counts do not depend on the thread count.
    The witness is the first extremal candidate in (column, row) scan
    order, the tie rule of ``argmin``/``argmax``.  ``progress(done,
    total)`` is called in scan order after each block.
    """
    xs, ys = _candidate_centers(s, hull)
    ci = (np.arange(math.floor(-0.35 / s), math.ceil(1.35 / s)) + 0.5) * s
    cj = (np.arange(*rows) + 0.5) * s
    static = tiles(ci[:, None], cj[None, :], s)
    reach = reach_of(xs, ys, s)
    r2 = reach * reach
    ia = np.searchsorted(ci, xs - reach, side="left")
    ib = np.where(reach > 0.0, np.searchsorted(ci, xs + reach, side="right"),
                  ia)
    ja = np.searchsorted(cj, ys - reach, side="left")
    jb = np.searchsorted(cj, ys + reach, side="right")
    total = xs.size
    counts = np.zeros(total, dtype=np.int64)

    def count_block(t0):
        t1 = min(t0 + _BLOCK, total)
        for t in range(t0, t1):
            cols = slice(ia[t], ib[t])
            rws = slice(ja[t], jb[t])
            dx = ci[cols, None] - xs[t]
            dy = cj[None, rws] - ys[t]
            d2 = dx * dx + dy * dy
            counts[t] = np.count_nonzero((d2 <= r2[t])
                                         & keep(d2, static[cols, rws]))
        return t1

    with ThreadPoolExecutor(max(1, int(threads or 1))) as pool:
        for done in pool.map(count_block, range(0, total, _BLOCK)):
            if progress is not None:
                progress(done, total)
    t = int(np.argmin(counts) if minimise else np.argmax(counts))
    cnt = int(counts[t])
    return CensusOutcome(cnt * s * s, (float(xs[t]), float(ys[t])), cnt,
                         total, s)


def _lens2(CX, CY, s):
    """Per-tile squared lens radius of the empty families: a tile is
    certified inside the worst-case joining ellipse of every candidate
    within ``C - |tile - b|`` of it, for a ``b`` point whose half-radius
    disk holds the tile (``-1`` where neither disk does)."""
    C = 1.0 - 3.0 * ((_SQRT2 / 2.0) * s)
    t1, t2 = (np.where(_maxcorner_dist2(CX, CY, bx, by, s) <= 0.25,
                       C - np.hypot(CX - bx, CY - by), -1.0)
              for bx, by in (_B1, _B2))
    tl = np.maximum(t1, t2)
    return np.where(tl > 0.0, tl * tl, -1.0)


def _max_reach(xs, ys, s):
    """Reach of the occupied families: the certified maximal radius (distance
    to the nearer ``b`` point plus the half-diagonal) plus a diagonal."""
    tau = np.minimum(np.hypot(xs - _B1[0], ys - _B1[1]),
                     np.hypot(xs - _B2[0], ys - _B2[1])) + (_SQRT2 / 2.0) * s
    return tau + s * _SQRT2


def _keep_mask(d2, mask):
    return mask


# ---------------------------------------------------------------------------
# the four censuses
# ---------------------------------------------------------------------------


def census_L_plus(s: float, progress: ProgressFn = None,
                  threads: Optional[int] = None) -> CensusOutcome:
    """Certified minimum area of the upper empty region family.

    For every candidate square of ``a1``, counts tiles above the axis
    whose centre lies within ``sigma - s*sqrt(2)`` of the candidate
    centre and which are certified inside a half-radius disk about a
    ``b`` point and inside the matching worst-case joining ellipse.
    The minimum over candidates (times ``s**2``) lower-bounds the area
    that must be empty, uniformly over the square.
    """
    validate_step(s)

    def reach_of(xs, ys, s):
        eps1 = (_SQRT2 / 2.0) * s
        dh1, dh2 = _h_points(xs, ys, eps1)
        dw = np.hypot(xs - _W_MINUS[0], ys - _W_MINUS[1])
        sigma = np.maximum(np.maximum(dh1, dh2), dw) - eps1
        return sigma - s * _SQRT2

    return _scan(s, A1_QUAD, (0, math.ceil(0.95 / s)), reach_of, _lens2,
                 np.less_equal, True, progress, threads)


def census_L_minus(s: float, progress: ProgressFn = None,
                   threads: Optional[int] = None) -> CensusOutcome:
    """Certified minimum area of the lower empty region family.

    Counts tiles below the axis within the certified radius of an ``a2``
    candidate that are certified inside a half-radius disk and its
    worst-case joining ellipse, or inside one of the two pi/6 wedges of
    the lower triangle.
    """
    validate_step(s)

    def reach_of(xs, ys, s):
        da1 = np.hypot(xs - _A1_LOWEST[0], ys - _A1_LOWEST[1])
        dz = np.hypot(xs - _Z[0], ys - _Z[1])
        return np.maximum(da1, dz) - (_SQRT2 / 2.0) * s - s * _SQRT2

    def tiles(CX, CY, s):
        wedge = (_tiles_inside(_TRI_B1, CX, CY, s)
                 | _tiles_inside(_TRI_B2, CX, CY, s))
        return np.where(wedge, np.inf, _lens2(CX, CY, s))

    return _scan(s, A2_TRI, (-math.ceil(1.1 / s), 0), reach_of, tiles,
                 np.less_equal, True, progress, threads)


def census_H_plus(s: float, exclusion: str = "either",
                  progress: ProgressFn = None,
                  threads: Optional[int] = None) -> CensusOutcome:
    """Certified maximum area of the upper point-holding region family.

    Counts tiles that could meet the two unit-circle crescents above the
    axis (excluding tiles certified inside the protecting sets) or the
    below-axis kite, within the certified maximal radius of an ``a1``
    candidate.

    Parameters
    ----------
    exclusion : {"either", "intersection"}
        ``"either"`` (default) drops a crescent tile when it is certified
        inside the worst-case joining ellipse *or* inside the half-radius
        disk; ``"intersection"`` drops it only when certified inside
        both.  ``"either"`` matches the reference census; the stricter
        variant yields a larger (still valid under the alternative
        reading, but weaker) bound.
    """
    validate_step(s)
    if exclusion not in ("either", "intersection"):
        raise ValueError("exclusion must be 'either' or 'intersection'")

    def tiles(CX, CY, s):
        C = 1.0 - 3.0 * ((_SQRT2 / 2.0) * s)
        # A crescent tile counts when the candidate lies at least the
        # exclusion radius away; the bound is +inf off the crescents and
        # -inf on the kite, which always counts.
        minc1 = _mincorner_dist2(CX, CY, *_B1, s)
        maxc1 = _maxcorner_dist2(CX, CY, *_B1, s)
        minc2 = _mincorner_dist2(CX, CY, *_B2, s)
        maxc2 = _maxcorner_dist2(CX, CY, *_B2, s)
        above = CY > 0.0
        cres1 = above & (minc1 <= 1.0) & (maxc2 >= 1.0)
        cres2 = above & (minc2 <= 1.0) & (maxc1 >= 1.0)
        a1 = np.maximum(C - np.hypot(CX - _B1[0], CY - _B1[1]), 0.0)
        a2 = np.maximum(C - np.hypot(CX - _B2[0], CY - _B2[1]), 0.0)
        if exclusion == "either":
            cres1 &= maxc1 >= 0.25
            cres2 &= maxc2 >= 0.25
        else:
            a1 = np.where(maxc1 >= 0.25, 0.0, a1)
            a2 = np.where(maxc2 >= 0.25, 0.0, a2)
        bound = np.minimum(np.where(cres1, a1 * a1, np.inf),
                           np.where(cres2, a2 * a2, np.inf))
        return np.where(_tiles_overlapping(_KITE, CX, CY, s), -np.inf, bound)

    return _scan(s, A1_QUAD, (-math.ceil(0.95 / s), math.ceil(0.95 / s)),
                 _max_reach, tiles, np.greater_equal, False, progress, threads)


def census_H_minus(s: float, semantics: str = "universal",
                   progress: ProgressFn = None,
                   threads: Optional[int] = None) -> CensusOutcome:
    """Certified maximum area of the lower point-holding region family.

    Counts tiles holding a point outside both unit disks, or an
    above-axis point outside both half-radius disks, within the
    certified maximal radius of an ``a2`` candidate.

    The two exclusion filters are applied per the ``semantics`` flag:

    ``"universal"`` (default)
        A square qualifies only when *every* point of it lies outside
        the excluded disks (nearest-corner tests).  This mirrors the
        certainty filters of the lower censuses and is the reading used
        by the reference counts; the result is a resolution-``s``
        census whose reach slack (three half-diagonals) dominates the
        boundary slivers it omits.
    ``"cover"``
        A square qualifies when *some* point of it could lie outside
        the excluded disks (farthest-corner tests).  Every square
        meeting the region is then counted, so ``area`` is a strict
        upper bound, at the cost of roughly one boundary band
        (about +0.001 at ``s = 0.001``).
    """
    validate_step(s)
    if semantics not in ("universal", "cover"):
        raise ValueError("semantics must be 'universal' or 'cover'")

    def tiles(CX, CY, s):
        # A bool mask: the same test as a +-inf float bound ran about 1.6x
        # slower.
        above = CY > 0.0
        if semantics == "universal":
            dist1 = _mincorner_dist2(CX, CY, *_B1, s)
            dist2 = _mincorner_dist2(CX, CY, *_B2, s)
            below = True
        else:
            dist1 = _maxcorner_dist2(CX, CY, *_B1, s)
            dist2 = _maxcorner_dist2(CX, CY, *_B2, s)
            below = CY < 0.0
        h3 = below & (dist1 >= 1.0) & (dist2 >= 1.0)
        h4 = above & (dist1 >= 0.25) & (dist2 >= 0.25)
        return h3 | h4

    return _scan(s, A2_TRI, (-math.ceil(1.15 / s), math.ceil(0.4 / s)),
                 _max_reach, tiles, _keep_mask, False, progress, threads)
