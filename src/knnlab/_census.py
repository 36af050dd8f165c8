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
spec (:class:`_Family`): its candidate hull, the universe rows, the reach
of every candidate, its tile tests, and the per-tile data built from
them: a static array with a per-tile ``keep`` test on it (``d2 <=
lens**2`` for ``L+``; ``d2 <= bound`` with ``+inf`` on the pi/6 wedges
for ``L-``; ``d2 >= min(crescent bounds)`` with ``-inf`` on the kite for
``H+``; a bool mask for ``H-``), and the same test written as signed
terms.  A term is a tile mask counted inside the candidate's disk, cut by
the joining ellipse about ``b1`` or ``b2`` if it names one: ``L+`` is the
lens tiles of each ``b`` inside that ``b``'s ellipse; ``L-`` adds the
wedges; ``H+`` is the kite and crescent tiles minus the crescent tiles
inside their crescent's exclusion ellipse (no tile lies in both
crescents' exclusion sets).

No array spans the universe.  Every mask is a Boolean function of the
family's tile tests, and each test turns at most once on each piece of a
row between the columns of ``b1`` and ``b2``.  So each mask is a few
column intervals per row, whose ends a bisection with the tests
themselves finds (:func:`_universe`); memory is O(1/s).  The kernel,
:func:`_counts`, counts each term one row at a time as the overlap of the
row's intervals with its disk and ellipse chords, so a point costs
O(1/s).  A chord is used only when the float excess at its ends clears a
stated rounding margin, and the row is otherwise counted tile by tile,
so the counts are those of the per-tile ``keep`` test, bit for bit.

Few candidates come near the extremum, so the scan counts few of them.
It bounds nested square blocks of candidates, 27, 9 and 3 tiles on a
side, each with one kernel call at the block's middle tile with the disk
and ellipses moved by the block's radius, so that the count is certified
not to beat any member's.  It first dives: it splits only the best of
the blocks it has just bounded, one kernel call per level, and counts
the members of the 3 x 3 block it reaches exactly, which gives the best
count so far.  From then on, best bound first, it splits only the blocks
whose bound can still reach the best count so far, and counts exactly
only the members of such 3 x 3 blocks (0.02% to 1% of the candidates at
step 0.001).  The extremum and witness are those of the full scan.  The
scan runs in the calling thread, and its steps are fixed by the bounds
and counts alone, so the outcome, ``counted`` included, is reproducible.

The public wrappers that turn these censuses into certificates live in
:mod:`knnlab.bounds`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .regions import (A1_LOWEST, KITE, W_MINUS, WEDGE_B1, WEDGE_B2,
                      Z_MINUS, s1_polygon, s2_triangle)

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

_B1 = (0.0, 0.0)
_B2 = (1.0, 0.0)
_W_MINUS, _Z, _A1_LOWEST = (tuple(p) for p in (W_MINUS, Z_MINUS, A1_LOWEST))

#: Convex hull of the admissible ``a1`` positions.
A1_QUAD = [tuple(p) for p in s1_polygon().vertices]
#: Convex hull of the admissible ``a2`` positions.
A2_TRI = [tuple(p) for p in s2_triangle().vertices]
#: Below-axis region with both base angles at least pi/6.
_KITE = [tuple(p) for p in KITE.vertices]
#: Wedge of angle pi/6 at b1 (resp. b2) within the lower triangle.
_TRI_B1 = [tuple(p) for p in WEDGE_B1.vertices]
_TRI_B2 = [tuple(p) for p in WEDGE_B2.vertices]

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
        Number of candidate squares in the census.
    step : float
        The grid side used.
    counted : int
        Number of candidate squares counted exactly; each of the others
        lies in a block, at some level of :func:`_scan`'s hierarchy, whose
        bound is strictly worse than the extremum.
    """

    area: float
    witness: Tuple[float, float]
    count: int
    candidates: int
    step: float
    counted: int


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
# tile tests
# ---------------------------------------------------------------------------
#
# A tile test is a callable ``test(CX, CY, s)`` that takes tile centres
# (broadcast like numpy) and the tile side and returns a bool array.  Each
# one compares a float quantity that, along a row, is monotone in the
# column on each side of the columns of b1 and b2 (see :func:`_scan`).


def _edges_of(poly):
    """Outward half-plane form of a convex polygon: ``{p : n.p <= c}``.

    ``poly`` must list its vertices counter-clockwise, as every polygon
    here does: each comes from :attr:`geom.ConvexPolygon.vertices`.
    """
    n = len(poly)
    out = []
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        nx, ny = (y2 - y1), -(x2 - x1)
        out.append((nx, ny, nx * x1 + ny * y1))
    return out


def _half_plane(nx, ny, c, inside):
    """Test: the closed tile lies inside (``inside``) or meets the closed
    half-plane ``{p : nx*x + ny*y <= c}``."""
    k = abs(nx) + abs(ny)
    if inside:
        return lambda CX, CY, s: nx * CX + ny * CY + k * (s / 2.0) <= c
    return lambda CX, CY, s: nx * CX + ny * CY - k * (s / 2.0) <= c


def _inside_tests(poly):
    """Tests whose conjunction is exact: the closed tile lies inside the
    closed convex polygon ``poly``."""
    return [_half_plane(nx, ny, c, True) for nx, ny, c in _edges_of(poly)]


def _overlap_tests(poly):
    """Tests whose conjunction is the exact separating-axis test: the
    closed tile meets the closed convex polygon ``poly``."""
    x0, x1 = min(p[0] for p in poly), max(p[0] for p in poly)
    y0, y1 = min(p[1] for p in poly), max(p[1] for p in poly)
    return ([_half_plane(nx, ny, c, False) for nx, ny, c in _edges_of(poly)]
            + [lambda CX, CY, s: CX + s / 2.0 >= x0,
               lambda CX, CY, s: CX - s / 2.0 <= x1,
               lambda CX, CY, s: CY + s / 2.0 >= y0,
               lambda CX, CY, s: CY - s / 2.0 <= y1])


def _all(tests, CX, CY, s):
    """Conjunction of ``tests`` at the tile centres ``(CX, CY)``."""
    ok = np.ones(np.broadcast(CX, CY).shape, dtype=bool)
    for test in tests:
        ok &= test(CX, CY, s)
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


def _corner(p, farthest, r2, within):
    """Test: the farthest corner (``farthest``) or the nearest point of the
    tile lies within (``within``) or at least ``sqrt(r2)`` from ``p``."""
    dist2 = _maxcorner_dist2 if farthest else _mincorner_dist2
    if within:
        return lambda CX, CY, s: dist2(CX, CY, p[0], p[1], s) <= r2
    return lambda CX, CY, s: dist2(CX, CY, p[0], p[1], s) >= r2


def _short_of(b):
    """Test: the tile centre lies nearer to ``b`` than the focal sum."""
    return lambda CX, CY, s: np.hypot(CX - b[0], CY - b[1]) < _lens_sum(s)


def _nearer_b1(CX, CY, s):
    """Test: ``C - |p - b1| >= C - |p - b2|`` in floats at the centre
    ``p``, with ``C`` the focal sum: the lens radius about ``b1`` is the
    larger."""
    C = _lens_sum(s)
    return (C - np.hypot(CX - _B1[0], CY - _B1[1])
            >= C - np.hypot(CX - _B2[0], CY - _B2[1]))


#: Tests of the lens: the tile lies in the half-radius disk about b1, about
#: b2, and its lens radius about b1 is the larger.
_LENS_TESTS = (_corner(_B1, True, 0.25, True), _corner(_B2, True, 0.25, True),
               _nearer_b1)
#: Tests of the two pi/6 wedges of the lower triangle.
_WEDGE_TESTS = (_inside_tests(_TRI_B1), _inside_tests(_TRI_B2))
#: Tests of the ``H+`` crescents: the tile meets the unit disk about b1 and
#: b2, lies outside the unit disk about b1 and b2 in part, and outside the
#: half-radius disk about b1 and b2 in part; its centre lies short of the
#: focal sum from b1 and b2.
_CRESCENT_TESTS = (_corner(_B1, False, 1.0, True),
                   _corner(_B2, False, 1.0, True),
                   _corner(_B1, True, 1.0, False),
                   _corner(_B2, True, 1.0, False),
                   _corner(_B1, True, 0.25, False),
                   _corner(_B2, True, 0.25, False),
                   _short_of(_B1), _short_of(_B2))
#: Tests of ``H+``'s kite: the tile meets it.
_KITE_TESTS = _overlap_tests(_KITE)


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
    m = _all(_overlap_tests(poly), cx, cy, s)
    if not np.any(m):
        raise ValueError("census step too coarse: no candidate squares")
    order = np.lexsort((J[m], I[m]))
    return cx[m][order], cy[m][order]


def _h_points(xs, ys, eps1):
    """Certified distances from candidate centres to the two forced
    boundary locations of the upper empty-census (one on each unit
    circle), found by bisection on the sum-of-distances equations.

    Each circle takes 60 bisection steps of ``[lo, hi]``, and its angle is
    the last midpoint clamped to at least ``acos(-7/8)`` on the circle
    about ``b2`` and at most ``acos(7/8)`` on the one about ``b1``.  The
    bisection only lowers ``hi`` and raises ``lo``, and the float midpoint
    of ``lo <= hi`` lies in ``[lo, hi]``.  So a candidate whose ``hi`` has
    reached ``acos(-7/8)`` (whose ``lo`` has reached ``acos(7/8)``) gets
    the clamp whatever its remaining steps do, and one whose ``(lo, hi)``
    does not change in a step repeats that step to the end; such
    candidates take no more steps (:func:`_bisect`).  The angles, and so
    the distances, are those of all 60 steps, bit for bit.
    """
    target = 1.0 - eps1

    def g2(phi, idx):
        # On the circle about b2: q(phi) = (1 + cos phi, sin phi).
        qx = 1.0 + np.cos(phi)
        qy = np.sin(phi)
        return (2.0 * np.cos(phi / 2.0) + np.hypot(qx - xs[idx], qy - ys[idx])
                - target)

    def g1(phi, idx):
        # On the circle about b1: q(phi) = (cos phi, sin phi).
        qx = np.cos(phi)
        qy = np.sin(phi)
        return (2.0 * np.sin(phi / 2.0) + np.hypot(qx - xs[idx], qy - ys[idx])
                - target)

    phi1 = _bisect(g2, np.full_like(xs, math.pi / 2),
                   np.full_like(xs, math.pi), True, math.acos(-7.0 / 8.0),
                   math.inf)
    d1 = np.hypot(1.0 + np.cos(phi1) - xs, np.sin(phi1) - ys)
    phi2 = _bisect(g1, np.zeros_like(xs), np.full_like(xs, math.pi / 2),
                   False, -math.inf, math.acos(7.0 / 8.0))
    d2 = np.hypot(np.cos(phi2) - xs, np.sin(phi2) - ys)
    return d1, d2


def _bisect(g, lo, hi, falling, floor, ceil):
    """Sign change of ``g(phi, idx)`` (the function of the entries ``idx``
    at the angles ``phi``) in each ``[lo, hi]``, after 60 bisection steps,
    clipped to ``[floor, ceil]``.  ``lo`` and ``hi`` are updated in place.

    A step keeps ``mid`` as ``lo`` where ``g(mid) > 0`` is ``falling`` and
    as ``hi`` elsewhere.  The bracket must hold when it starts: ``g > 0``
    at ``lo`` and ``g <= 0`` at ``hi`` if ``falling``, the other way round
    otherwise; a ``ValueError`` is raised if any entry misses it.  An entry
    stops once ``hi <= floor`` or ``lo >= ceil``, or once a step leaves
    ``(lo, hi)`` unchanged (see :func:`_h_points`).
    """
    if not (((g(lo, slice(None)) > 0.0) == falling)
            & ((g(hi, slice(None)) > 0.0) != falling)).all():
        raise ValueError("a candidate lies outside the bisection bracket")
    active = np.flatnonzero((hi > floor) & (lo < ceil))
    for _ in range(60):
        if not active.size:
            break
        a, b = lo[active], hi[active]
        mid = 0.5 * (a + b)
        up = (g(mid, active) > 0.0) == falling
        a2 = np.where(up, mid, a)
        b2 = np.where(up, b, mid)
        lo[active], hi[active] = a2, b2
        active = active[((a2 != a) | (b2 != b)) & (b2 > floor) & (a2 < ceil)]
    return np.clip(0.5 * (lo + hi), floor, ceil)


# ---------------------------------------------------------------------------
# the shared scan
# ---------------------------------------------------------------------------

#: Most points per part of a kernel call, which bounds its per-row arrays,
#: and about the number of points the scan bounds or counts between
#: incumbent updates.
_BLOCK = 64

#: Sides, in tiles, of the nested square blocks of candidates that
#: :func:`_scan` bounds, coarsest first; each side divides the one before.
_SIDES = (27, 9, 3)

#: Margin added to a block's radius (see :func:`_scan`).
_PRUNE_MARGIN = 1e-9

#: Margin on the float ellipse excess beyond which a chord end is trusted
#: (see :func:`_scan`).
_ROUND = 1e-12

#: Foci of the joining ellipses, indexed by a term's ``focus``.
_FOCI = (_B1, _B2)


class _Family(NamedTuple):
    """The spec of one census family; see :func:`_scan`."""

    hull: list
    rows: Tuple[int, int]
    reach_of: Callable
    tests: tuple
    tiles: Callable
    keep: Callable
    minimise: bool


class _Universe(NamedTuple):
    """The tiles one family counts at one step: the column and row centres
    (``cp`` pads the columns by two on each side), the columns ``[first,
    last)`` of each row that hold any term tile, each term as ``(starts,
    ends, sign, focus)`` with the tiles of row ``j`` in the column
    intervals ``[starts[k, j], ends[k, j])``, the family's ``tiles`` and
    ``keep`` for the rows counted tile by tile, and its focal sum ``C``."""

    s: float
    i0: int
    ci: np.ndarray
    cj: np.ndarray
    cp: np.ndarray
    first: np.ndarray
    last: np.ndarray
    terms: list
    tiles: Callable
    keep: Callable
    C: float


def _turns(test, ci, cj, a, b, s):
    """Column of every row at which ``test`` turns within each piece of
    columns ``[a[p], b[p])``, or ``b[p]`` where it does not.

    ``test`` must be monotone in the column on each piece, so that it
    turns at most once there; the bisection keeps ``lo`` on the value of
    the piece's first column and ``hi`` on that of its last.
    """
    y = cj[:, None]
    lo = np.broadcast_to(a, (cj.size, a.size))
    hi = np.broadcast_to(b - 1, lo.shape)
    head = np.broadcast_to(test(ci[lo], y, s), lo.shape)
    turns = head != test(ci[hi], y, s)
    if not turns.any():
        return np.broadcast_to(b, lo.shape)
    for _ in range(int(np.max(b - 1 - a)).bit_length()):
        mid = (lo + hi) // 2
        same = test(ci[mid], y, s) == head
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return np.where(turns, hi, b)


def _universe(s, family):
    """Build the :class:`_Universe` of ``family`` at step ``s``.

    The columns of a row are split at those of ``b1`` and ``b2``, which lie
    on tile corners.  Each test is monotone in the column on each piece
    (see :func:`_scan`), so :func:`_turns` finds where it turns, and every
    test, hence every mask, is constant between the sorted turns.  The
    masks come from ``family.tiles`` at the first column of each such
    segment, and each term keeps the runs of segments that hold it.
    """
    i0 = math.floor(-0.35 / s)
    ci = (np.arange(i0, math.ceil(1.35 / s)) + 0.5) * s
    cj = (np.arange(*family.rows) + 0.5) * s
    n, m = ci.size, cj.size
    cuts = np.concatenate(([0], np.searchsorted(ci, [b[0] for b in _FOCI]),
                           [n]))
    turns = [np.zeros((m, 1), dtype=np.int64), np.full((m, 1), n)]
    turns += [_turns(test, ci, cj, cuts[:-1], cuts[1:], s)
              for test in family.tests]
    turns = np.sort(np.concatenate(turns, axis=1), axis=1)
    # The segments [lo, hi) between consecutive turns, in row-major order;
    # those of a row are consecutive and cover it.
    row, k = np.nonzero(turns[:, 1:] > turns[:, :-1])
    lo, hi = turns[row, k], turns[row, k + 1]
    _, masks = family.tiles(ci[lo], cj[row], s)
    head = np.concatenate(([True], row[1:] != row[:-1]))
    tail = np.concatenate((head[1:], [True]))
    first = np.full(m, n)
    last = np.zeros(m, dtype=np.int64)
    terms = []
    for mask, sign, focus in masks:
        on = np.broadcast_to(mask, lo.shape)
        # A run of segments that hold the term starts at a row's first
        # segment or after one without it, and ends at a row's last
        # segment or before one without it.
        start = on & (head | ~np.concatenate(([False], on[:-1])))
        end = on & (tail | ~np.concatenate((on[1:], [False])))
        runs = np.bincount(row[start], minlength=m)
        starts = np.zeros((max(1, int(runs.max())), m), dtype=np.int64)
        ends = np.zeros_like(starts)
        _, rank = _ragged(runs)
        starts[rank, row[start]] = lo[start]
        ends[rank, row[end]] = hi[end]
        first = np.minimum(first, np.where(runs > 0, starts[0], n))
        last = np.maximum(last, ends.max(axis=0))
        terms.append((starts, ends, sign, focus))
    return _Universe(s, i0, ci, cj, np.pad(ci, 2, mode="edge"), first, last,
                     terms, family.tiles, family.keep, _lens_sum(s))


def _lens_sum(s):
    """Focal-distance sum of the worst-case joining ellipses."""
    return 1.0 - 3.0 * ((_SQRT2 / 2.0) * s)


def _ragged(n):
    """Owner ``i`` and position ``0 <= p < n[i]`` of every item when each
    ``i`` owns ``n[i]`` consecutive items."""
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)


def _overlap(starts, ends, lo, hi):
    """Number of columns of ``[lo, hi)`` in the intervals ``[starts[k],
    ends[k])`` over ``k``, one column of intervals per item."""
    total = 0
    for a, b in zip(starts, ends):
        total = total + np.maximum(np.minimum(b, hi) - np.maximum(a, lo), 0)
    return total


def _disk_chord(ci, x, dy2, r2, k, a, b, s, i0):
    """Column range ``[lo, hi)`` of one row inside a candidate's disk.

    The range holds the columns ``a <= i < b`` whose centre passes the
    float test ``dx*dx + dy2 <= r2`` with ``dx = ci[i] - x``.  Column
    ``k`` is the one of ``[a, b)`` nearest to the candidate's own column
    (where ``ci == x``).  Moving away from the own column ``|dx|`` never
    shrinks and every rounding step is monotone, so within ``[a, b)`` the
    test holds on one interval about ``k``, or nowhere.  An analytic guess
    is moved to that interval's ends by the test itself.
    """
    def inside(idx, q):
        dx = ci[q] - x[idx]
        return dx * dx + dy2[idx] <= r2[idx]

    w = np.sqrt(np.maximum(r2 - dy2, 0.0))
    off = i0 + 0.5
    live = inside(slice(None), k)
    lo = np.where(live, np.clip(np.ceil((x - w) / s - off), a, k), k)
    hi = np.where(live, np.clip(np.floor((x + w) / s - off) + 1, k + 1, b), k)
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    idx = np.flatnonzero(live & (lo > a))
    while idx.size:
        idx = idx[inside(idx, lo[idx] - 1)]
        lo[idx] -= 1
        idx = idx[lo[idx] > a[idx]]
    idx = np.flatnonzero(live)
    while idx.size:
        idx = idx[~inside(idx, lo[idx])]
        lo[idx] += 1
    idx = np.flatnonzero(live & (hi < b))
    while idx.size:
        idx = idx[inside(idx, hi[idx])]
        hi[idx] += 1
        idx = idx[hi[idx] < b[idx]]
    idx = np.flatnonzero(live)
    while idx.size:
        idx = idx[~inside(idx, hi[idx] - 1)]
        hi[idx] -= 1
    return lo, hi


def _ellipse_chord(cp, x, y, dy, bx, C, lo, hi, s, i0):
    """Columns of one row inside a joining ellipse, and whether to trust
    them.

    The ellipse has foci the candidate centre ``(x, y - dy)`` and ``(bx,
    0)`` and focal-distance sum ``C``; the row lies at height ``y``.
    ``cp`` holds the column centres padded by two on each side.  Returns
    ``[cA, cB)`` within the disk range ``[lo, hi)`` and ``ok``; see
    :func:`_scan` for the check behind ``ok``.
    """
    off = i0 + 0.5
    y2 = y * y
    dy2 = dy * dy

    def excess(q):
        cx = cp[q + 2]
        dx = cx - x
        dxb = cx - bx
        return np.sqrt(dx * dx + dy2) + np.sqrt(dxb * dxb + y2) - C

    # With u the column centre minus bx and delta = x - bx, the chord
    # ends solve (C^2 - delta^2) u^2 - delta g u + C^2 y^2 - g^2 / 4 = 0.
    delta = x - bx
    g = C * C + y2 - delta * delta - dy2
    qa = C * C - delta * delta
    disc = g * g - 4.0 * qa * y2
    full = disc >= 0.0
    root = C * np.sqrt(np.maximum(disc, 0.0))
    u1 = (delta * g - root) / (2.0 * qa)
    u2 = (delta * g + root) / (2.0 * qa)
    q1 = np.maximum(np.ceil((bx + u1) / s - off), lo).astype(np.int64)
    q2 = np.minimum(np.floor((bx + u2) / s - off), hi - 1).astype(np.int64)
    full &= q1 <= q2
    # With no chord column, take the two columns about the row's least
    # excess, at the crossing of the path from a to b reflected into one
    # half-plane.
    idx = np.flatnonzero(~full)
    ay = np.abs(dy[idx])
    x0 = x[idx] + (bx - x[idx]) * (ay / (ay + np.abs(y[idx])))
    q1[idx] = np.clip(np.floor(x0 / s - off), lo[idx] - 1, hi[idx] - 1)
    q2[idx] = q1[idx] + 1

    def trusted(q, step):
        # q is a chord end column, or on an empty row an anchor column;
        # q + step is the next column outwards.  Columns outside [lo, hi)
        # need no check.
        h, out = excess(q), excess(q + step)
        has = (q >= lo) & (q < hi)
        has_out = (q + step >= lo) & (q + step < hi)
        return np.where(full,
                        (h < -_ROUND) & (~has_out | (out > _ROUND)),
                        ~has | ((h > _ROUND)
                                & (~has_out | (out > h + _ROUND))))

    ok = trusted(q1, -1) & trusted(q2, 1)
    return np.where(full, q1, lo), np.where(full, q2 + 1, lo), ok


def _counts(u, xs, ys, reach, C):
    """Census count of every point ``(xs, ys)`` of the universe ``u``,
    with counting radius ``reach`` and joining-ellipse focal sum ``C``
    (arrays, one entry per point), and whether each point had every row's
    chord trusted.

    A row whose chord is not trusted is counted tile by tile with the
    family's ``keep`` test, on ``tiles`` built for that row's disk columns
    alone, when the point's focal sum is the family's own ``u.C``, the one
    ``keep`` encodes.  Any other point (the virtual point of a block, see
    :func:`_scan`) keeps the chord count; its flag says the count is not
    to be used.  Points are counted in parts of at most ``_BLOCK``, which
    bounds the per-row arrays; each part writes a disjoint slice of the
    result, so the counts do not depend on the split.
    """
    s, ci, cj = u.s, u.ci, u.cj
    for focus in {focus for *_, focus in u.terms} - {None}:
        bx, by = _FOCI[focus]
        if not np.all(C - np.hypot(xs - bx, ys - by) >= 0.07):
            raise ValueError("the rounding bound of the census needs "
                             "C - |a - b| >= 0.07 at every point")
    kx = np.searchsorted(ci, xs)
    if not np.array_equal(ci[np.minimum(kx, ci.size - 1)], xs):
        raise ValueError("every census point must lie on a column centre")
    exact = C == u.C
    r2 = reach * reach
    ia = np.searchsorted(ci, xs - reach, side="left")
    ib = np.where(reach > 0.0, np.searchsorted(ci, xs + reach, side="right"),
                  ia)
    ja = np.searchsorted(cj, ys - reach, side="left")
    jb = np.searchsorted(cj, ys + reach, side="right")
    total = xs.size
    counts = np.zeros(total, dtype=np.int64)
    trusted = np.ones(total, dtype=bool)
    parts = max(1, -(-total // _BLOCK))
    cuts = [total * k // parts for k in range(parts + 1)]
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        t, pos = _ragged(np.maximum(jb[t0:t1] - ja[t0:t1], 0))
        t += t0
        j = ja[t] + pos
        a = np.maximum(ia[t], u.first[j])
        b = np.minimum(ib[t], u.last[j])
        sel = np.flatnonzero(a < b)
        t, j, a, b = t[sel], j[sel], a[sel], b[sel]
        x, y = xs[t], cj[j]
        dy = y - ys[t]
        dy2 = dy * dy
        lo, hi = _disk_chord(ci, x, dy2, r2[t], np.clip(kx[t], a, b - 1),
                             a, b, s, u.i0)
        del a, b
        row = np.zeros(t.size, dtype=np.int64)
        ok = np.ones(t.size, dtype=bool)
        for starts, ends, sign, focus in u.terms:
            starts, ends = starts[:, j], ends[:, j]
            in_disk = _overlap(starts, ends, lo, hi)
            if focus is None:
                row += sign * in_disk
                continue
            # The chord is needed only on rows where the term has tiles.
            idx = np.flatnonzero(in_disk)
            ca, cb, good = _ellipse_chord(u.cp, x[idx], y[idx], dy[idx],
                                          _FOCI[focus][0], C[t[idx]],
                                          lo[idx], hi[idx], s, u.i0)
            ok[idx] &= good
            row[idx] += sign * _overlap(starts[:, idx], ends[:, idx], ca, cb)
        trusted[t0:t1] = np.bincount(t[~ok] - t0, minlength=t1 - t0) == 0
        # Rows whose chords fail the rounding check are counted tile by tile.
        bad = np.flatnonzero(~ok & exact[t])
        if bad.size:
            r, pos = _ragged(hi[bad] - lo[bad])
            q = lo[bad][r] + pos
            dx = ci[q] - x[bad][r]
            d2 = dx * dx + dy2[bad][r]
            static, _ = u.tiles(ci[q], cj[j[bad][r]], s)
            hits = u.keep(d2, static)
            row[bad] = np.bincount(r[hits], minlength=bad.size)
        counts[t0:t1] = np.bincount(t - t0, weights=row, minlength=t1 - t0)
    return counts, trusted


def _scan(s, family, progress):
    """Run one census family and return its :class:`CensusOutcome`.

    A family is given by its spec, a :class:`_Family`:

    ``hull``
        Convex polygon whose meeting tiles are the candidate squares.
    ``rows``
        ``(j0, j1)``: the universe holds tile rows ``j0 <= j < j1`` over
        columns ``floor(-0.35/s) <= i < ceil(1.35/s)``.
    ``reach_of(xs, ys, s)``
        Counting radius of every candidate centre at once; a tile counts
        only if its centre lies within it.  A radius ``<= 0`` counts
        nothing.
    ``tests``
        Tile tests ``test(CX, CY, s)``, each a float comparison that along
        a row is monotone in the column on each side of the columns of
        ``b1`` and ``b2``.
    ``tiles(CX, CY, s)``
        Per-tile data at tile centres ``CX``, ``CY`` (broadcast): an array
        ``static`` for the ``keep`` test and the family's terms, a list of
        ``(mask, sign, focus)`` with ``focus`` ``None``, or 0 or 1 for the
        joining ellipse about ``b1`` or ``b2``.  Every mask is a Boolean
        function of the ``tests`` and of the row.
    ``keep(d2, static)``
        Per-tile test: ``d2`` holds squared distances from a candidate
        centre to tile centres and ``static`` the matching entries.
    ``minimise``
        Take the minimum (empty families) or maximum (occupied families)
        count over candidates.

    The count of a candidate is the number of tiles whose centre passes
    ``dx*dx + dy*dy <= reach**2`` (``dx``, ``dy`` the centre's offsets from
    the candidate centre) and whose ``keep`` test holds, within the window
    of columns and rows that a binary search on the tile centres finds for
    ``reach``.  It is taken row by row (:func:`_counts`).  On each row the
    disk is one column interval (:func:`_disk_chord`), and the count is
    the signed sum, over the terms, of the term's ``mask`` tiles in that
    interval, cut by the row's chord of the term's joining ellipse if it
    has one (foci the candidate centre and ``b1`` or ``b2``, focal sum
    ``C = 1 - 3*(sqrt(2)/2)*s``).  The terms are chosen so that on every
    tile the signed sum equals ``keep`` whenever each ellipse's float test
    on the tile agrees with the row chord, and every tile ``keep`` can
    accept lies in a mask (so columns outside all masks are skipped).

    *Intervals.*  Each mask is stored as a few column intervals per row
    (:func:`_universe`), and a row's piece of a term is their overlap with
    the disk interval or the ellipse chord.  The memory is O(1/s), against
    O(s**-2) for per-row prefix sums of the masks.  The columns of ``b1``
    and ``b2`` lie on tile corners and split a row into three pieces, and
    on each piece every test is monotone in the column, so it turns at
    most once there and a bisection with the test itself finds where.  A
    corner-distance test compares ``(|cx - px| +- s/2)**2 + ...`` with a
    constant and a half-plane test ``nx*cx + ny*cy +- k*s/2`` with one; every
    float step is monotone, and ``px`` is ``b1``'s or ``b2``'s abscissa.  The
    remaining tests compare ``hypot(cx - bx, y)`` with ``C`` or ``C - hypot``
    about ``b1`` with the same about ``b2``.  Within a piece neighbouring
    centres' exact distances to ``b`` differ by at least ``s**2 / 2.5``
    (``|cx - bx| >= s/2`` and distances are below 2.5), far more than the
    error of a faithful ``hypot``; so the float distances are monotone too.
    ``C - hypot`` about ``b1`` falls and about ``b2`` rises on ``0 < x < 1``;
    off it the two differ by more than 0.3 and the comparison is constant.
    Between two consecutive turns every test, and so every mask, is constant,
    and ``tiles`` at one column gives the segment's masks.

    *Rounding.*  Let ``h(p) = |p - a| + |p - b| - C`` be the excess of a
    tile centre ``p`` over an ellipse with foci ``a`` and ``b``; ``h`` is
    convex along a row.  Its float value ``sqrt(dx*dx + dy*dy) +
    sqrt(dxb*dxb + y*y) - C`` is within ``20u < 3e-15`` of it (``u =
    2**-53``; every distance is below 2.5).  A term's float ellipse test
    compares ``d2`` with the static ``(C - |p - b|)**2``: the two are
    within ``16u`` of their exact values, whose difference is ``h * (|p -
    a| + C - |p - b|)``, and the second factor is at least ``C - |a - b|
    >= 0.07`` (triangle inequality; :func:`_counts` raises for a point
    that misses it).  So the float test follows the sign of ``h`` once
    ``|h| > 32u / 0.07 < 6e-14``.  A row's chord is trusted only when the
    float excess is below ``-_ROUND`` (``1e-12``) at its end tiles and
    above ``+_ROUND`` at the next tile outwards on each side (when that
    tile is in the disk interval).  By convexity every tile between the
    ends then has ``h < -_ROUND + 3e-15`` and every tile beyond them ``h >
    _ROUND - 3e-15``, so the chord is exactly the float test's set.  A row
    with no chord tile is trusted when the float excess at the two tiles
    about the row's least excess is above ``+_ROUND`` and grows by more
    than ``_ROUND`` to the next tile outwards on each side; by convexity
    every tile is then outside.  Any other row (none at the steps tried,
    0.02 to 0.00025) is counted tile by tile with ``keep``.  Either way
    the count equals the 2-D window count.

    *Blocks.*  The candidates are split into squares of ``side`` tile
    columns by rows, anchored at the candidates' least column and row, for
    each ``side`` of ``_SIDES`` (:func:`_blocks`); the sides nest, so each
    block splits into the blocks of the next side, and the last into its
    candidates.  A block's virtual point ``a0`` is the centre of its
    middle tile (``side`` is odd), a column centre, and its radius ``rho``
    is the largest float distance from ``a0`` to a member plus
    ``_PRUNE_MARGIN`` (``1e-9``), so ``rho >= |a - a0| + 1e-9 - 1e-15``
    for every member ``a``.  The kernel counts ``a0`` with reach ``min(member
    reach) - rho`` in a min family and ``max(member reach) + rho`` in a
    max family, and focal sum ``C - rho`` in both (:func:`_bound`).  On
    every tile the signed sum of the terms is ``keep``, 0 or 1, so a count
    is the size of a tile set: the tiles of the positive terms in the
    disk, less the tiles of the negative terms in the disk, each term cut
    by its ellipse if it has one.  Every term with a focus is positive in
    a min family and negative in a max family (checked when the scan
    starts).

    Take a tile ``p``, a member ``a`` with reach ``R`` and the block's
    ``a0``.  The float disk test is within ``1e-15`` of the exact one
    (distances are below 2.5), a float ellipse test follows the sign of
    ``h`` once ``|h| > 6e-14``, and a trusted chord about ``a0`` follows
    the exact sign of ``h0``, the excess about ``a0`` with ``C - rho``.
    By the triangle inequality ``| |p - a0| - |p - a| | <= |a - a0| <= rho
    - 1e-9 + 1e-15``.  In a min family, ``p`` in ``a0``'s disk has ``|p -
    a| <= R - 1e-9 + 2e-15``, and ``p`` inside ``a0``'s ellipse (``h0 <
    0``) has ``h(p) <= h0 + |a - a0| - rho < -1e-9 + 1e-15``; so ``p`` is
    in ``a``'s window, disk and ellipse, term by term, and the bound's
    set lies in every member's.  In a max family, ``p`` in ``a``'s disk
    is in ``a0``'s by the same margin, and ``p`` outside ``a``'s ellipse
    (``h(p) >= -6e-14``) has ``h0 >= h(p) - |a - a0| + rho > 0``: it is
    outside ``a0``'s ellipse too, so the tile ``a`` keeps, ``a0`` keeps,
    and the bound's set holds every member's.  The argument holds for any
    ``rho``, so at every level.  The ellipse shrinks in the max family
    because ``H+`` subtracts its ellipse term: a grown ellipse would remove
    tiles that a member keeps.  The kernel takes only points with ``C -
    |a - b| >= 0.07``; a block whose ``a0`` misses that (some large
    blocks, and edge blocks at coarse steps), or whose bound has any
    untrusted row, gets the bound ``-inf`` (min) or ``+inf`` (max).  So
    every member's count is at least the bound in a min family, and at
    most it in a max family.  A block's members are members of its parent
    too, so its key (below) is the better of its own and its parent's.

    *Search.*  Work with the key to minimise: the count, or minus it.  The
    blocks of the largest side are bounded first.  Until there is an
    incumbent (the best count so far), the scan dives: each step takes
    only the best-keyed of the blocks bounded by the step before, the
    lower index among ties, and pushes the others on a heap by key.  So it
    makes one kernel call per level of ``_SIDES`` and then counts at most
    ``3 * 3`` candidates exactly, which sets the incumbent.  From then on
    each step takes, best key first, blocks from the heap whose key is at
    most the incumbent, until they hold about ``_BLOCK`` items of the next
    level; it bounds the child blocks and pushes them, and counts the
    candidates of last-level blocks exactly and updates the incumbent.
    The scan stops when the best key left is strictly worse than the
    incumbent: every candidate not counted then lies in a block whose key
    is, so its count is strictly worse than the extremum.  A candidate
    whose count is the extremum has every enclosing key at most it, so it
    is counted, in whatever order the blocks were taken.  The witness is
    the first candidate in (column, row) scan order, among those counted,
    whose count is the extremum, the tie rule of ``argmin``/``argmax`` over
    all candidates.  ``CensusOutcome.counted`` records how many were
    counted; the order of the steps can change it, but not the extremum or
    the witness.

    ``progress(done, total)`` is called after each step with the number
    of settled candidates: counted, or in a block whose key is strictly
    worse than the incumbent.  It stays at 0 during the dive, never falls
    and ends at ``(total, total)``.
    """
    u = _universe(s, family)
    sign = 1 if family.minimise else -1
    if any(sg != sign for _, _, sg, focus in u.terms if focus is not None):
        raise ValueError("every ellipse term must be positive in a min "
                         "family and negative in a max family")
    xs, ys = _candidate_centers(s, family.hull)
    reach = family.reach_of(xs, ys, s)
    total = xs.size
    levels = [_blocks(u, family, xs, ys, reach, side) for side in _SIDES]
    # children[l]: the items of level l + 1 (blocks, then candidates) that
    # each block of level l holds, as (order, start); size[l]: candidates
    # per item of level l.
    firsts = [first for _, first, _ in levels[1:]] + [np.arange(total)]
    children, size = [], []
    for (owner, _, _), first in zip(levels, firsts):
        parent = owner[first]
        start = np.concatenate(([0], np.cumsum(np.bincount(parent))))
        children.append((np.argsort(parent, kind="stable"), start))
        size.append(np.bincount(owner))
    size.append(np.ones(total, dtype=np.int64))

    def bound(parts):
        """Bound the blocks of every ``(level, blocks, parent key)`` of
        ``parts`` in one kernel call, and return their heap entries
        ``(key, -level, block)``: deeper blocks first among ties."""
        level = np.concatenate([np.full(b.size, -lv) for lv, b, _ in parts])
        block = np.concatenate([b for _, b, _ in parts])
        parent = np.concatenate([np.full(b.size, key) for _, b, key in parts])
        x0, y0, reach0, c0 = (np.concatenate([levels[lv][2][k][b]
                                              for lv, b, _ in parts])
                              for k in range(4))
        key = np.maximum(sign * _bound(u, family, x0, y0, reach0, c0),
                         parent)
        return list(zip(key.tolist(), level.tolist(), block.tolist()))

    def take(entry):
        """The level and items of a heap entry's children, and its key."""
        key, level, b = entry
        order, start = children[-level]
        return 1 - level, order[start[b]:start[b + 1]], key

    heap = []
    dive = bound([(0, np.arange(size[0].size), -math.inf)])
    best = math.inf
    batches, counts = [], []
    done = 0
    while True:
        if dive:
            # Until the first exact count, expand only the best of the
            # blocks just bounded (the lower index among ties), and push
            # the rest.
            dive.sort()
            taken = [take(dive[0])]
            for entry in dive[1:]:
                heapq.heappush(heap, entry)
        else:
            taken, work = [], 0
            while heap and heap[0][0] <= best and work < _BLOCK:
                taken.append(take(heapq.heappop(heap)))
                work += taken[-1][1].size
            if not taken:
                break
        blocks = [part for part in taken if part[0] < len(_SIDES)]
        entries = bound(blocks) if blocks else []
        members = [items for level, items, _ in taken
                   if level == len(_SIDES)]
        if members:
            idx = np.concatenate(members)
            cnt, _ = _counts(u, xs[idx], ys[idx], reach[idx],
                             np.full(idx.size, u.C))
            batches.append(idx)
            counts.append(sign * cnt)
            best = min(best, counts[-1].min())
            done += idx.size
        if best == math.inf:
            dive = entries
        else:
            dive = []
            for entry in entries:
                heapq.heappush(heap, entry)
        if progress is not None:
            pruned = sum(size[-level][b] for key, level, b in heap
                         if key > best)
            progress(done + int(pruned), total)
    idx = np.concatenate(batches)
    counts = np.concatenate(counts)
    t = int(idx[counts == best].min())
    cnt = sign * int(best)
    return CensusOutcome(cnt * s * s, (float(xs[t]), float(ys[t])), cnt,
                         total, s, done)


def _blocks(u, family, xs, ys, reach, side):
    """Split the candidates into blocks of ``side`` by ``side`` tiles.

    The blocks are anchored at the candidates' least column and row.
    Returns ``owner``, the block of every candidate; ``first``, the first
    member of every block in (column, row) order; and ``(x0, y0, reach0,
    c0)``, for every block in (column, row) order, the centre of its
    middle tile and the reach and focal sum it is counted with (see
    :func:`_scan`).
    """
    s = u.s
    col = np.rint(xs / s - 0.5).astype(np.int64)
    row = np.rint(ys / s - 0.5).astype(np.int64)
    bcol = (col - col.min()) // side
    brow = (row - row.min()) // side
    nrow = int(brow.max()) + 1
    keys, first, owner = np.unique(bcol * nrow + brow, return_index=True,
                                   return_inverse=True)
    mid = side // 2
    x0 = (col.min() + (keys // nrow) * side + mid + 0.5) * s
    y0 = (row.min() + (keys % nrow) * side + mid + 0.5) * s
    rho = np.zeros(keys.size)
    np.maximum.at(rho, owner, np.hypot(xs - x0[owner], ys - y0[owner]))
    rho += _PRUNE_MARGIN
    if family.minimise:
        reach0 = np.full(keys.size, np.inf)
        np.minimum.at(reach0, owner, reach)
        reach0 -= rho
    else:
        reach0 = np.full(keys.size, -np.inf)
        np.maximum.at(reach0, owner, reach)
        reach0 += rho
    return owner, first, (x0, y0, reach0, u.C - rho)


def _bound(u, family, x0, y0, reach0, c0):
    """The count of each virtual point ``(x0, y0)`` with reach ``reach0``
    and focal sum ``c0``, or ``-inf`` (min family) or ``+inf`` (max
    family) where the kernel gives none (see :func:`_scan`)."""
    # The kernel takes only points with C - |a - b| >= 0.07.
    fit = np.ones(x0.size, dtype=bool)
    for focus in {focus for *_, focus in u.terms} - {None}:
        bx, by = _FOCI[focus]
        fit &= c0 - np.hypot(x0 - bx, y0 - by) >= 0.07
    fit = np.flatnonzero(fit)
    count, trusted = _counts(u, x0[fit], y0[fit], reach0[fit], c0[fit])
    bound = np.full(x0.size, -np.inf if family.minimise else np.inf)
    bound[fit[trusted]] = count[trusted]
    return bound


def _lens(CX, CY, s):
    """Per-tile squared lens radius of the empty families and its terms.

    A tile is certified inside the worst-case joining ellipse of every
    candidate within ``C - |tile - b|`` of it, for a ``b`` point whose
    half-radius disk holds the tile; the squared radius is ``-1`` where
    neither disk does.  Returns it with the masks of the tiles that take
    their radius from ``b1`` and from ``b2``.  A tile in a half-radius
    disk has its centre within 1/2 of that ``b``, so its radius about it
    is positive.
    """
    near1, near2, nearer1 = (test(CX, CY, s) for test in _LENS_TESTS)
    C = _lens_sum(s)
    t1 = np.where(near1, C - np.hypot(CX - _B1[0], CY - _B1[1]), -1.0)
    t2 = np.where(near2, C - np.hypot(CX - _B2[0], CY - _B2[1]), -1.0)
    tl = np.maximum(t1, t2)
    return (np.where(tl > 0.0, tl * tl, -1.0), near1 & (nearer1 | ~near2),
            near2 & ~(nearer1 & near1))


def _max_reach(xs, ys, s):
    """Reach of the occupied families: the certified maximal radius (distance
    to the nearer ``b`` point plus the half-diagonal) plus a diagonal."""
    tau = np.minimum(np.hypot(xs - _B1[0], ys - _B1[1]),
                     np.hypot(xs - _B2[0], ys - _B2[1])) + (_SQRT2 / 2.0) * s
    return tau + s * _SQRT2


def _keep_mask(d2, mask):
    return mask


# ---------------------------------------------------------------------------
# the four families
# ---------------------------------------------------------------------------


def _L_plus(s):
    def reach_of(xs, ys, s):
        eps1 = (_SQRT2 / 2.0) * s
        dh1, dh2 = _h_points(xs, ys, eps1)
        dw = np.hypot(xs - _W_MINUS[0], ys - _W_MINUS[1])
        sigma = np.maximum(np.maximum(dh1, dh2), dw) - eps1
        return sigma - s * _SQRT2

    def tiles(CX, CY, s):
        lens2, on1, on2 = _lens(CX, CY, s)
        return lens2, [(on1, 1, 0), (on2, 1, 1)]

    return _Family(A1_QUAD, (0, math.ceil(0.95 / s)), reach_of, _LENS_TESTS,
                   tiles, np.less_equal, True)


def _L_minus(s):
    def reach_of(xs, ys, s):
        da1 = np.hypot(xs - _A1_LOWEST[0], ys - _A1_LOWEST[1])
        dz = np.hypot(xs - _Z[0], ys - _Z[1])
        return np.maximum(da1, dz) - (_SQRT2 / 2.0) * s - s * _SQRT2

    def tiles(CX, CY, s):
        wedge = (_all(_WEDGE_TESTS[0], CX, CY, s)
                 | _all(_WEDGE_TESTS[1], CX, CY, s))
        lens2, on1, on2 = _lens(CX, CY, s)
        return (np.where(wedge, np.inf, lens2),
                [(wedge, 1, None), (on1 & ~wedge, 1, 0),
                 (on2 & ~wedge, 1, 1)])

    return _Family(A2_TRI, (-math.ceil(1.1 / s), 0), reach_of,
                   (*_WEDGE_TESTS[0], *_WEDGE_TESTS[1], *_LENS_TESTS), tiles,
                   np.less_equal, True)


def _H_plus(s, exclusion):
    def tiles(CX, CY, s):
        (meets1, meets2, beyond1, beyond2, out1, out2, short1,
         short2) = (test(CX, CY, s) for test in _CRESCENT_TESTS)
        kite = _all(_KITE_TESTS, CX, CY, s)
        # A crescent tile counts when the candidate lies at least the
        # exclusion radius away; the bound is +inf off the crescents and
        # -inf on the kite, which always counts.
        above = CY > 0.0
        cres1 = above & meets1 & beyond2
        cres2 = above & meets2 & beyond1
        C = _lens_sum(s)
        a1 = np.maximum(C - np.hypot(CX - _B1[0], CY - _B1[1]), 0.0)
        a2 = np.maximum(C - np.hypot(CX - _B2[0], CY - _B2[1]), 0.0)
        if exclusion == "either":
            cres1 = cres1 & out1
            cres2 = cres2 & out2
        else:
            a1 = np.where(out1, 0.0, a1)
            a2 = np.where(out2, 0.0, a2)
            short1 = short1 & ~out1
            short2 = short2 & ~out2
        bound = np.minimum(np.where(cres1, a1 * a1, np.inf),
                           np.where(cres2, a2 * a2, np.inf))
        bound = np.where(kite, -np.inf, bound)
        # Every finite or -inf tile counts unless the candidate lies inside
        # the exclusion ellipse of its crescent, whose radius is positive
        # where the centre is short of C.  A tile with a positive radius
        # about b1 has its centre within C of b1, so every corner within
        # 1: it is not in crescent 2, and no tile has two ellipses.
        ellipse = ~kite & (~cres1 | short1) & (~cres2 | short2)
        if (ellipse & cres1 & cres2).any():
            raise RuntimeError("a tile lies in both crescents' exclusion "
                               "ellipses")
        return bound, [(kite | cres1 | cres2, 1, None),
                       (ellipse & cres1, -1, 0), (ellipse & cres2, -1, 1)]

    return _Family(A1_QUAD, (-math.ceil(0.95 / s), math.ceil(0.95 / s)),
                   _max_reach, (*_CRESCENT_TESTS, *_KITE_TESTS), tiles,
                   np.greater_equal, False)


def _H_minus(s, semantics):
    # "universal" tests the tile's nearest points, "cover" its farthest
    # corners.
    cover = semantics != "universal"
    tests = (_corner(_B1, cover, 1.0, False), _corner(_B2, cover, 1.0, False),
             _corner(_B1, cover, 0.25, False),
             _corner(_B2, cover, 0.25, False))

    def tiles(CX, CY, s):
        out1, out2, half1, half2 = (test(CX, CY, s) for test in tests)
        below = CY < 0.0 if cover else True
        mask = (below & out1 & out2) | ((CY > 0.0) & half1 & half2)
        return mask, [(mask, 1, None)]

    return _Family(A2_TRI, (-math.ceil(1.15 / s), math.ceil(0.4 / s)),
                   _max_reach, tests, tiles, _keep_mask, False)


# ---------------------------------------------------------------------------
# the four censuses
# ---------------------------------------------------------------------------


def census_L_plus(s: float, progress: ProgressFn = None) -> CensusOutcome:
    """Certified minimum area of the upper empty region family.

    For every candidate square of ``a1``, counts tiles above the axis
    whose centre lies within ``sigma - s*sqrt(2)`` of the candidate
    centre and which are certified inside a half-radius disk about a
    ``b`` point and inside the matching worst-case joining ellipse.
    The minimum over candidates (times ``s**2``) lower-bounds the area
    that must be empty, uniformly over the square.
    """
    validate_step(s)
    return _scan(s, _L_plus(s), progress)


def census_L_minus(s: float, progress: ProgressFn = None) -> CensusOutcome:
    """Certified minimum area of the lower empty region family.

    Counts tiles below the axis within the certified radius of an ``a2``
    candidate that are certified inside a half-radius disk and its
    worst-case joining ellipse, or inside one of the two pi/6 wedges of
    the lower triangle.
    """
    validate_step(s)
    return _scan(s, _L_minus(s), progress)


def census_H_plus(s: float, exclusion: str = "either",
                  progress: ProgressFn = None) -> CensusOutcome:
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
    return _scan(s, _H_plus(s, exclusion), progress)


def census_H_minus(s: float, semantics: str = "universal",
                   progress: ProgressFn = None) -> CensusOutcome:
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
    return _scan(s, _H_minus(s, semantics), progress)
