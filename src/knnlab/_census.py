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
of every candidate, a static per-tile array with a per-tile ``keep`` test
on it (``d2 <= lens**2`` for ``L+``; ``d2 <= bound`` with ``+inf`` on the
pi/6 wedges for ``L-``; ``d2 >= min(crescent bounds)`` with ``-inf`` on
the kite for ``H+``; a bool mask for ``H-``), the same test written as
signed terms, and whether the count is minimised or maximised.  A term is
a static tile mask counted inside the candidate's disk, cut by the
joining ellipse about ``b1`` or ``b2`` if it names one: ``L+`` is the
lens tiles of each ``b`` inside that ``b``'s ellipse; ``L-`` adds the
wedges; ``H+`` is the kite and crescent tiles minus the crescent tiles
inside their crescent's exclusion ellipse (no tile lies in both
crescents' exclusion sets).  The kernel, :func:`_counts`, counts each
term one row at a time, from per-row prefix sums over the row's disk and
ellipse chords, so a point costs O(1/s).  A chord is used only when the
float excess at its ends clears a stated rounding margin, and the row is
otherwise counted tile by tile, so the counts are those of the per-tile
``keep`` test, bit for bit.

Few candidates come near the extremum, so the scan counts few of them.
It bounds each 5 x 5 block of candidates at once: one kernel call at the
block's middle tile with the disk and ellipses moved by the block's
radius, so that its count is certified not to beat any member's.  It
then counts exactly only the blocks, best bound first, whose bound can
still reach the best count so far.  The bounds cost O(s**-3) / 25 and
the counted blocks little beyond that (0.2% to 3% of the candidates at
step 0.001); the extremum and witness are those of the full scan.

The public wrappers that turn these censuses into certificates live in
:mod:`knnlab.bounds`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .regions import (A1_LOWEST, U_MINUS, V_MINUS, W_MINUS, Z_MINUS,
                      s1_polygon, s2_triangle)

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
_W_MINUS, _Z, _U_MINUS, _V_MINUS, _A1_LOWEST = (
    tuple(p) for p in (W_MINUS, Z_MINUS, U_MINUS, V_MINUS, A1_LOWEST))

#: Convex hull of the admissible ``a1`` positions.
A1_QUAD = [tuple(p) for p in s1_polygon().vertices]
#: Convex hull of the admissible ``a2`` positions.
A2_TRI = [tuple(p) for p in s2_triangle().vertices]
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
        Number of candidate squares in the census.
    step : float
        The grid side used.
    counted : int
        Number of candidate squares counted exactly; the others lie in
        blocks whose bound is strictly worse than the extremum (see
        :func:`_scan`).
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

#: Most points per unit of work handed to the thread pool, and about the
#: number of candidates counted exactly between incumbent updates.
_BLOCK = 64

#: Side, in tiles, of the square blocks of candidates that :func:`_scan`
#: bounds at once.
_PRUNE_SIDE = 5

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
    tiles: Callable
    keep: Callable
    minimise: bool


class _Universe(NamedTuple):
    """The tiles one family counts at one step, built once per scan: the
    column and row centres (``cp`` pads the columns by two on each side),
    the columns ``[first, last)`` of each row that hold any term tile, the
    ``static`` array of the ``keep`` test, each term as ``(prefix, sign,
    focus)`` with ``prefix`` its per-row prefix sums, and the family's
    focal sum ``C``."""

    s: float
    i0: int
    ci: np.ndarray
    cj: np.ndarray
    cp: np.ndarray
    first: np.ndarray
    last: np.ndarray
    static: np.ndarray
    sums: list
    keep: Callable
    C: float


def _universe(s, family):
    """Build the :class:`_Universe` of ``family`` at step ``s``."""
    i0 = math.floor(-0.35 / s)
    ci = (np.arange(i0, math.ceil(1.35 / s)) + 0.5) * s
    cj = (np.arange(*family.rows) + 0.5) * s
    static, terms = family.tiles(ci[:, None], cj[None, :], s)
    held = np.logical_or.reduce([mask for mask, _, _ in terms]).T
    first = np.argmax(held, axis=1)
    last = np.where(held.any(axis=1),
                    ci.size - np.argmax(held[:, ::-1], axis=1), 0)
    sums = [(np.pad(np.cumsum(mask.T, axis=1, dtype=np.int32),
                    ((0, 0), (1, 0))).ravel(), sign, focus)
            for mask, sign, focus in terms]
    return _Universe(s, i0, ci, cj, np.pad(ci, 2, mode="edge"), first, last,
                     static, sums, family.keep, _lens_sum(s))


def _lens_sum(s):
    """Focal-distance sum of the worst-case joining ellipses."""
    return 1.0 - 3.0 * ((_SQRT2 / 2.0) * s)


def _ragged(n):
    """Owner ``i`` and position ``0 <= p < n[i]`` of every item when each
    ``i`` owns ``n[i]`` consecutive items."""
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)


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


def _counts(u, xs, ys, reach, C, threads=None):
    """Census count of every point ``(xs, ys)`` of the universe ``u``,
    with counting radius ``reach`` and joining-ellipse focal sum ``C``
    (arrays, one entry per point), and whether each point had every row's
    chord trusted.

    A row whose chord is not trusted is counted tile by tile with the
    family's ``keep`` test when the point's focal sum is the family's own
    ``u.C``, the one ``keep`` encodes.  Any other point (the virtual point
    of a block, see :func:`_scan`) keeps the chord count; its flag says the
    count is not to be used.  Points are split into at least ``threads``
    parts of at most ``_BLOCK`` that run on a pool of ``threads`` threads
    (one when ``None``) and write disjoint slices of the result, so the
    counts do not depend on the split.
    """
    s, ci, cj = u.s, u.ci, u.cj
    for focus in {focus for _, _, focus in u.sums} - {None}:
        # The rounding bound of _scan needs C - |a - b| >= 0.07.
        bx, by = _FOCI[focus]
        assert np.all(C - np.hypot(xs - bx, ys - by) >= 0.07)
    exact = C == u.C
    r2 = reach * reach
    ia = np.searchsorted(ci, xs - reach, side="left")
    ib = np.where(reach > 0.0, np.searchsorted(ci, xs + reach, side="right"),
                  ia)
    ja = np.searchsorted(cj, ys - reach, side="left")
    jb = np.searchsorted(cj, ys + reach, side="right")
    kx = np.searchsorted(ci, xs)
    assert np.array_equal(ci[kx], xs)
    width = ci.size + 1
    total = xs.size
    counts = np.zeros(total, dtype=np.int64)
    trusted = np.ones(total, dtype=bool)

    def count_part(t0, t1):
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
        base = j * width
        row = np.zeros(t.size, dtype=np.int64)
        ok = np.ones(t.size, dtype=bool)
        for prefix, sign, focus in u.sums:
            in_disk = prefix[base + hi] - prefix[base + lo]
            if focus is None:
                row += sign * in_disk
                continue
            # The chord is needed only on rows where the term has tiles.
            idx = np.flatnonzero(in_disk)
            ca, cb, good = _ellipse_chord(u.cp, x[idx], y[idx], dy[idx],
                                          _FOCI[focus][0], C[t[idx]],
                                          lo[idx], hi[idx], s, u.i0)
            ok[idx] &= good
            row[idx] += sign * (prefix[base[idx] + cb]
                                - prefix[base[idx] + ca])
        trusted[t0:t1] = np.bincount(t[~ok] - t0, minlength=t1 - t0) == 0
        # Rows whose chords fail the rounding check are counted tile by tile.
        bad = np.flatnonzero(~ok & exact[t])
        if bad.size:
            r, pos = _ragged(hi[bad] - lo[bad])
            q = lo[bad][r] + pos
            dx = ci[q] - x[bad][r]
            d2 = dx * dx + dy2[bad][r]
            hits = u.keep(d2, u.static[q, j[bad][r]])
            row[bad] = np.bincount(r[hits], minlength=bad.size)
        counts[t0:t1] = np.bincount(t - t0, weights=row, minlength=t1 - t0)

    workers = max(1, int(threads or 1))
    parts = max(workers, -(-total // _BLOCK))
    ends = [total * k // parts for k in range(parts + 1)]
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(count_part, ends[:-1], ends[1:]))
    return counts, trusted


def _scan(s, family, progress, threads):
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
    ``tiles(CX, CY, s)``
        Static per-tile data over the universe, built once from column
        centres ``CX`` (shape ``(ni, 1)``) and row centres ``CY`` (shape
        ``(1, nj)``): an array ``static`` for the ``keep`` test and the
        family's terms, a list of ``(mask, sign, focus)`` with ``focus``
        ``None``, or 0 or 1 for the joining ellipse about ``b1`` or ``b2``.
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
    ``C = 1 - 3*(sqrt(2)/2)*s``).  Per-row prefix sums of each mask give
    every piece in O(1), so a candidate costs O(rows), not O(rows *
    columns).  The terms are chosen so that on every tile the signed sum
    equals ``keep`` whenever each ellipse's float test on the tile agrees
    with the row chord, and every tile ``keep`` can accept lies in a mask
    (so columns outside all masks are skipped).

    *Rounding.*  Let ``h(p) = |p - a| + |p - b| - C`` be the excess of a
    tile centre ``p`` over an ellipse with foci ``a`` and ``b``; ``h`` is
    convex along a row.  Its float value ``sqrt(dx*dx + dy*dy) +
    sqrt(dxb*dxb + y*y) - C`` is within ``20u < 3e-15`` of it (``u =
    2**-53``; every distance is below 2.5).  A term's float ellipse test
    compares ``d2`` with the static ``(C - |p - b|)**2``: the two are
    within ``16u`` of their exact values, whose difference is ``h * (|p -
    a| + C - |p - b|)``, and the second factor is at least ``C - |a - b|
    >= 0.07`` (triangle inequality; checked for every candidate when the
    scan starts).  So the float test follows the sign of ``h`` once
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
    0.02 to 0.001) is counted tile by tile with ``keep``.  Either way the
    count equals the 2-D window count.

    *Blocks.*  The candidates are split into squares of ``_PRUNE_SIDE``
    tile columns by rows (:func:`_block_bounds`).  A block's virtual point
    ``a0`` is the centre of its middle tile, a column centre, and its
    radius ``rho`` is the largest float distance from ``a0`` to a member
    plus ``_PRUNE_MARGIN`` (``1e-9``), so ``rho >= |a - a0| + 1e-9 -
    1e-15`` for every member ``a``.  The kernel counts ``a0`` with reach
    ``min(member reach) - rho`` in a min family and ``max(member reach) +
    rho`` in a max family, and focal sum ``C - rho`` in both.  On every
    tile the signed sum of the terms is ``keep``, 0 or 1, so a count is the
    size of a tile set: the tiles of the positive terms in the disk, less
    the tiles of the negative terms in the disk, each term cut by its
    ellipse if it has one.  Every term with a focus is positive in a min
    family and negative in a max family (checked when the scan starts).

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
    and the bound's set holds every member's.  The ellipse shrinks in the
    max family because ``H+`` subtracts its ellipse term: a grown ellipse
    would remove tiles that a member keeps.  The kernel takes only points
    with ``C - |a - b| >= 0.07``; a block whose ``a0`` misses that (some
    edge blocks at coarse steps), or whose bound has any untrusted row,
    gets the bound ``-inf`` (min) or ``+inf`` (max) and is never pruned.
    So every member's count is at least the bound in a min family, and at
    most it in a max family.

    *Search.*  Blocks are ranked by bound, best first, by a stable sort.
    The members of the best-ranked blocks are counted exactly in batches
    of about ``_BLOCK`` candidates, and the incumbent, the best count so
    far, is updated after each batch.  The scan stops when the next bound
    is strictly worse than the incumbent: every candidate not counted then
    has a count strictly worse than the extremum.  The witness is the
    first candidate in (column, row) scan order, among those counted,
    whose count is the extremum, the tie rule of ``argmin``/``argmax``
    over all candidates.  ``CensusOutcome.counted`` records how many were
    counted.

    *Threads.*  :func:`_counts` splits the bound pass and each batch over
    ``threads`` threads (one when ``None``).  The batches are fixed by the
    bounds and counts, so the outcome, ``counted`` included, does not
    depend on the thread count.  ``progress(done, total)`` is called after
    each batch with the number of settled candidates: counted, or in a
    block whose bound is strictly worse than the incumbent.  It never
    falls and ends at ``(total, total)``.
    """
    u = _universe(s, family)
    sign = 1 if family.minimise else -1
    assert all(sg == sign for _, sg, focus in u.sums if focus is not None)
    xs, ys = _candidate_centers(s, family.hull)
    reach = family.reach_of(xs, ys, s)
    total = xs.size
    owner, _, bound = _block_bounds(u, family, xs, ys, reach, threads)
    # Work with the key to minimise: the count, or minus it.
    key = sign * bound
    rank = np.argsort(key, kind="stable")
    key = key[rank]
    members = np.argsort(owner, kind="stable")
    size = np.bincount(owner)
    start = np.concatenate(([0], np.cumsum(size)))
    # tail[i]: candidates in the blocks ranked i and after.
    tail = np.concatenate((np.cumsum(size[rank][::-1])[::-1], [0]))
    best = math.inf
    batches, keys = [], []
    done = nxt = 0
    while nxt < rank.size and key[nxt] <= best:
        stop, batch = nxt, 0
        while stop < rank.size and key[stop] <= best and batch < _BLOCK:
            batch += size[rank[stop]]
            stop += 1
        idx = np.concatenate([members[start[b]:start[b + 1]]
                              for b in rank[nxt:stop]])
        cnt, _ = _counts(u, xs[idx], ys[idx], reach[idx],
                         np.full(idx.size, u.C), threads)
        batches.append(idx)
        keys.append(sign * cnt)
        best = min(best, keys[-1].min())
        done += idx.size
        nxt = stop
        if progress is not None:
            pruned = max(nxt, np.searchsorted(key, best, side="right"))
            progress(done + int(tail[pruned]), total)
    idx = np.concatenate(batches)
    keys = np.concatenate(keys)
    t = int(idx[keys == best].min())
    cnt = sign * int(best)
    return CensusOutcome(cnt * s * s, (float(xs[t]), float(ys[t])), cnt,
                         total, s, done)


def _block_bounds(u, family, xs, ys, reach, threads=None):
    """Split the candidates into blocks and bound each block's counts.

    Returns ``owner``, the block of every candidate; ``(x0, y0, reach0,
    c0)``, for every block in (column, row) order, the centre of its
    middle tile and the reach and focal sum it is counted with; and
    ``bound``, that count, or ``-inf`` (min family) or ``+inf`` (max
    family) where the kernel gives none (see :func:`_scan`).
    """
    s = u.s
    col = np.rint(xs / s - 0.5).astype(np.int64)
    row = np.rint(ys / s - 0.5).astype(np.int64)
    bcol = (col - col.min()) // _PRUNE_SIDE
    brow = (row - row.min()) // _PRUNE_SIDE
    nrow = int(brow.max()) + 1
    keys, owner = np.unique(bcol * nrow + brow, return_inverse=True)
    mid = _PRUNE_SIDE // 2
    x0 = (col.min() + (keys // nrow) * _PRUNE_SIDE + mid + 0.5) * s
    y0 = (row.min() + (keys % nrow) * _PRUNE_SIDE + mid + 0.5) * s
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
    c0 = u.C - rho
    # The kernel takes only points with C - |a - b| >= 0.07.
    fit = np.ones(keys.size, dtype=bool)
    for focus in {focus for _, _, focus in u.sums} - {None}:
        bx, by = _FOCI[focus]
        fit &= c0 - np.hypot(x0 - bx, y0 - by) >= 0.07
    fit = np.flatnonzero(fit)
    count, trusted = _counts(u, x0[fit], y0[fit], reach0[fit], c0[fit],
                             threads)
    bound = np.full(keys.size, -np.inf if family.minimise else np.inf)
    bound[fit[trusted]] = count[trusted]
    return owner, (x0, y0, reach0, c0), bound


def _lens(CX, CY, s):
    """Per-tile squared lens radius of the empty families and its terms.

    A tile is certified inside the worst-case joining ellipse of every
    candidate within ``C - |tile - b|`` of it, for a ``b`` point whose
    half-radius disk holds the tile; the squared radius is ``-1`` where
    neither disk does.  Returns it with the masks of the tiles that take
    their radius from ``b1`` and from ``b2``.
    """
    C = _lens_sum(s)
    t1, t2 = (np.where(_maxcorner_dist2(CX, CY, bx, by, s) <= 0.25,
                       C - np.hypot(CX - bx, CY - by), -1.0)
              for bx, by in (_B1, _B2))
    tl = np.maximum(t1, t2)
    return (np.where(tl > 0.0, tl * tl, -1.0), (t1 >= t2) & (t1 > 0.0),
            (t2 > t1) & (t2 > 0.0))


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

    return _Family(A1_QUAD, (0, math.ceil(0.95 / s)), reach_of, tiles,
                   np.less_equal, True)


def _L_minus(s):
    def reach_of(xs, ys, s):
        da1 = np.hypot(xs - _A1_LOWEST[0], ys - _A1_LOWEST[1])
        dz = np.hypot(xs - _Z[0], ys - _Z[1])
        return np.maximum(da1, dz) - (_SQRT2 / 2.0) * s - s * _SQRT2

    def tiles(CX, CY, s):
        wedge = (_tiles_inside(_TRI_B1, CX, CY, s)
                 | _tiles_inside(_TRI_B2, CX, CY, s))
        lens2, on1, on2 = _lens(CX, CY, s)
        return (np.where(wedge, np.inf, lens2),
                [(wedge, 1, None), (on1 & ~wedge, 1, 0),
                 (on2 & ~wedge, 1, 1)])

    return _Family(A2_TRI, (-math.ceil(1.1 / s), 0), reach_of, tiles,
                   np.less_equal, True)


def _H_plus(s, exclusion):
    def tiles(CX, CY, s):
        C = _lens_sum(s)
        # A crescent tile counts when the candidate lies at least the
        # exclusion radius away; the bound is +inf off the crescents and
        # -inf on the kite, which always counts.
        maxc1 = _maxcorner_dist2(CX, CY, *_B1, s)
        maxc2 = _maxcorner_dist2(CX, CY, *_B2, s)
        above = CY > 0.0
        cres1 = (above & (_mincorner_dist2(CX, CY, *_B1, s) <= 1.0)
                 & (maxc2 >= 1.0))
        cres2 = (above & (_mincorner_dist2(CX, CY, *_B2, s) <= 1.0)
                 & (maxc1 >= 1.0))
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
        bound = np.where(_tiles_overlapping(_KITE, CX, CY, s), -np.inf, bound)
        # Every finite or -inf tile counts unless the candidate lies inside
        # the exclusion ellipse of its crescent.  A tile with a positive
        # radius about b1 has its centre within C of b1, so every corner
        # within 1: it is not in crescent 2, and no tile has two ellipses.
        ellipse = bound > 0.0
        assert not (ellipse & cres1 & cres2).any()
        return bound, [(bound < np.inf, 1, None), (ellipse & cres1, -1, 0),
                       (ellipse & cres2, -1, 1)]

    return _Family(A1_QUAD, (-math.ceil(0.95 / s), math.ceil(0.95 / s)),
                   _max_reach, tiles, np.greater_equal, False)


def _H_minus(s, semantics):
    def tiles(CX, CY, s):
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
        mask = h3 | h4
        return mask, [(mask, 1, None)]

    return _Family(A2_TRI, (-math.ceil(1.15 / s), math.ceil(0.4 / s)),
                   _max_reach, tiles, _keep_mask, False)


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
    return _scan(s, _L_plus(s), progress, threads)


def census_L_minus(s: float, progress: ProgressFn = None,
                   threads: Optional[int] = None) -> CensusOutcome:
    """Certified minimum area of the lower empty region family.

    Counts tiles below the axis within the certified radius of an ``a2``
    candidate that are certified inside a half-radius disk and its
    worst-case joining ellipse, or inside one of the two pi/6 wedges of
    the lower triangle.
    """
    validate_step(s)
    return _scan(s, _L_minus(s), progress, threads)


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
    return _scan(s, _H_plus(s, exclusion), progress, threads)


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
    return _scan(s, _H_minus(s, semantics), progress, threads)
