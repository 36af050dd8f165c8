"""Poisson sampling, nearest-neighbour graphs, and structural checks.

This module implements the experimental side of the package: sampling a
Poisson point process on a square window, building the mutual (and related)
``k``-nearest-neighbour graphs exactly, decomposing them into connected
components, finding cross-component edge crossings, and verifying on random
instances the deterministic structural facts that the certified bounds in
:mod:`knnlab.bounds` rely on (half-neighbourhood containment, the
four-disk containment implication, the separation of foreign points from
edges, and the six "goodness" conditions used to rule out pathological
configurations).

The graph builders are deliberately exact: :func:`build_graph` takes
candidates from a ``scipy.spatial.cKDTree``, recomputes their distances
with the reference formula and certifies each neighbour list (any point
left out is provably farther than the ``k``-th neighbour, otherwise the
row is queried again with more candidates), so its output is identical to
the quadratic reference :func:`brute_force_graph` down to tie-breaking.
Ties in distance are always broken by lower point index.

All randomness flows through :class:`numpy.random.Generator` seeded
explicitly; trial seeds are derived with ``numpy.random.SeedSequence``
spawn keys so that every trial is reproducible in isolation.
"""

from __future__ import annotations

__all__ = [
    "MODELS",
    "FARAPART_RATIO",
    "SampleWindow",
    "PointSet",
    "sample_poisson",
    "NearestNeighborGraph",
    "build_graph",
    "brute_force_graph",
    "ComponentDecomposition",
    "components",
    "CrossingReport",
    "find_crossing_pairs",
    "check_half_disk_lemma",
    "check_intersect_union_lemma",
    "sample_intersect_union_quadruples",
    "check_farapart",
    "GoodnessReport",
    "check_goodness",
    "TrialResult",
    "ConnectivityEstimate",
    "wilson_interval",
    "run_trial",
    "estimate_connectivity",
    "figure_one_pointset",
]

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .bounds import ModelConstants
from .geom import (
    Point,
    Segment,
    disk_lens_area,
    disks_intersection_area,
    point_segment_distance,
)
from .regions import CrossingFrame, _frame_in_roles, crossing_roles

#: Supported graph models.  ``mutual`` joins two points when each lies in the
#: other's ``k``-nearest list; ``either`` when at least one does; ``gilbert``
#: joins every pair within a fixed radius.
MODELS = ("mutual", "either", "gilbert")

#: A point of a different component keeps distance at least
#: ``FARAPART_RATIO * |b1 b2|`` from any edge ``b1 b2`` (mutual model).
FARAPART_RATIO = 1.0 / (4.0 * math.sqrt(6.0))

# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleWindow:
    """Square observation window ``[0, sqrt(n)]^2`` of unit intensity.

    Parameters
    ----------
    n : float
        Expected number of points; the window side is ``sqrt(n)`` so the
        Poisson process has intensity one.
    """

    n: float

    def __post_init__(self) -> None:
        if not (self.n > 0.0 and math.isfinite(self.n)):
            raise ValueError("window intensity n must be positive and finite")

    @property
    def side(self) -> float:
        """Side length ``sqrt(n)`` of the window."""
        return math.sqrt(self.n)

    def contains(self, points: np.ndarray) -> bool:
        """Whether every row of ``points`` lies inside the window (+-1e-9)."""
        pts = np.asarray(points, dtype=float)
        s = self.side
        return bool(np.all(pts >= -1e-9) and np.all(pts <= s + 1e-9))

    @property
    def corners(self) -> Tuple[Tuple[float, float], ...]:
        s = self.side
        return ((0.0, 0.0), (s, 0.0), (0.0, s), (s, s))


@dataclass(frozen=True)
class PointSet:
    """Immutable planar point configuration with provenance.

    Attributes
    ----------
    points : numpy.ndarray
        ``(N, 2)`` float64 coordinates, all inside ``window``.
    seed : int
        Seed that produced the configuration (0 for hand-built sets).
    window : SampleWindow
        The observation window.
    """

    points: np.ndarray
    seed: int
    window: SampleWindow

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (N, 2)")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not self.window.contains(pts):
            raise ValueError("points must lie inside the window")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.shape[0])

    @functools.cached_property
    def tree(self) -> cKDTree:
        """kd-tree over ``points``, built on first use and then shared."""
        return cKDTree(self.points)


def sample_poisson(n: float, seed: int) -> PointSet:
    """Sample a unit-intensity Poisson process on ``[0, sqrt(n)]^2``.

    The number of points is Poisson with mean ``n`` and the locations are
    independent uniforms, both drawn from ``numpy.random.default_rng(seed)``
    (count first, then coordinates), so equal seeds give equal point sets.

    Examples
    --------
    >>> ps = sample_poisson(100.0, seed=7)
    >>> ps.window.side
    10.0
    >>> ps2 = sample_poisson(100.0, seed=7)
    >>> bool(np.array_equal(ps.points, ps2.points))
    True
    """
    window = SampleWindow(n)
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n))
    pts = rng.uniform(0.0, window.side, size=(count, 2))
    return PointSet(points=pts, seed=int(seed), window=window)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


@dataclass
class NearestNeighborGraph:
    """A nearest-neighbour-type graph over a :class:`PointSet`.

    The out-neighbours are stored in CSR form: point ``i``'s out-neighbours
    are ``indices[indptr[i]:indptr[i + 1]]``, ordered by (distance, index),
    and ``dists`` holds the matching distances.  For the ``k``-nearest
    models each row has ``min(k, N - 1)`` entries and its last distance is
    the ``k``-th-neighbour radius; for ``gilbert`` a row lists every point
    within ``radius``.

    The undirected edge set, component structure, and crossing search all go
    through :meth:`edges`: mutual keeps reciprocated pairs, ``either`` the
    union of directions, ``gilbert`` the radius pairs.  The graph caches
    its edges and :func:`components` and is not edited in place;
    :meth:`without_edges` returns an edited copy.
    """

    pointset: PointSet
    k: int
    model: str
    indptr: np.ndarray
    indices: np.ndarray
    dists: np.ndarray
    radius: Optional[float] = None
    _edges: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _codes: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _components: Optional[ComponentDecomposition] = field(
        default=None, init=False, repr=False)

    @property
    def points(self) -> np.ndarray:
        return self.pointset.points

    @property
    def n_points(self) -> int:
        return len(self.pointset)

    def _sources(self) -> np.ndarray:
        """Source point of every stored arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_points, dtype=np.int64),
                         np.diff(self.indptr))

    @functools.cached_property
    def _radii(self) -> np.ndarray:
        """Every point's ``k``-th-neighbour radius: the last distance of its
        row, 0 for an empty row."""
        ends = self.indptr[1:]
        filled = ends > self.indptr[:-1]
        radii = np.zeros(self.n_points)
        radii[filled] = self.dists[ends[filled] - 1]
        return radii

    @functools.cached_property
    def _disks(self) -> List[Tuple[float, float, float]]:
        """Every point's ``k``-th-neighbour disk as an ``(x, y, radius)``
        triple, the form :func:`check_intersect_union_lemma` reads."""
        return list(zip(self.points[:, 0].tolist(),
                        self.points[:, 1].tolist(), self._radii.tolist()))

    def neighbourhood_radius(self, i: int) -> float:
        """Radius of the closed ``k``-th-neighbour disk around point ``i``.

        Zero when the point has no out-neighbours (``k == 0`` or ``N == 1``).
        Undefined for the ``gilbert`` model, whose lists are not ``k``-based.
        """
        if self.model == "gilbert":
            raise ValueError("neighbourhood radius is k-NN specific; "
                             "the gilbert model has a global radius")
        return float(self._radii[i])

    def edges(self) -> np.ndarray:
        """Undirected edge list, shape ``(E, 2)`` with ``lo < hi`` per row.

        Rows are sorted lexicographically; the array is cached, together
        with the sorted edge codes ``lo * N + hi`` that :meth:`has_edges`
        searches.
        """
        if self._edges is None:
            n = self.n_points
            src = self._sources()
            code = (np.minimum(src, self.indices) * n
                    + np.maximum(src, self.indices))
            if self.model == "mutual":
                uniq, cnt = np.unique(code, return_counts=True)
                self._codes = uniq[cnt == 2]
            else:
                self._codes = np.unique(code)
            self._edges = np.column_stack((self._codes // max(n, 1),
                                           self._codes % max(n, 1)))
        return self._edges

    def has_edges(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether each undirected pair ``{a[t], b[t]}`` is an edge.

        A binary search in the sorted edge codes that :meth:`edges` caches.
        """
        self.edges()
        n = self.n_points
        code = np.minimum(a, b) * n + np.maximum(a, b)
        pos = np.searchsorted(self._codes, code)
        found = pos < self._codes.size
        found[found] = self._codes[pos[found]] == code[found]
        return found

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the undirected edge ``{i, j}`` is present."""
        return bool(self.has_edges([i], [j])[0])

    def without_edges(self, pairs) -> "NearestNeighborGraph":
        """Copy of the graph without both arcs of every pair in ``pairs``.

        Each row ``(i, j)`` of ``pairs`` removes the arcs ``i -> j`` and
        ``j -> i``; the graph itself is unchanged.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.n_points
        src = self._sources()
        drop = np.concatenate((pairs[:, 0] * n + pairs[:, 1],
                               pairs[:, 1] * n + pairs[:, 0]))
        keep = ~np.isin(src * n + self.indices, drop)
        # Kept sources stay sorted, so row i starts after those below i.
        indptr = np.searchsorted(src[keep], np.arange(n + 1))
        return replace(self, indptr=indptr, indices=self.indices[keep],
                       dists=self.dists[keep])


def _validate_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError("unknown model %r; expected one of %s"
                         % (model, ", ".join(MODELS)))


def _validate_graph_args(model: str, k: int, radius: Optional[float]) -> None:
    _validate_model(model)
    if k < 0:
        raise ValueError("k must be non-negative")
    if model == "gilbert":
        if radius is None or not radius > 0.0:
            raise ValueError("the gilbert model requires a positive radius")
    elif radius is not None:
        raise ValueError("radius applies to the gilbert model only")


# Relative margin on cKDTree results and on the crossing search's strip
# width.  Both round differently from the exact tests that follow, by a few
# ulps; search radii are padded, and certainty is required, by this much.
_SLACK = 1e-9
# Rows per cKDTree query, which bounds the candidate arrays at large N.
_CHUNK = 1 << 16

_CSR = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _knn_query(ps: PointSet, k: int) -> _CSR:
    """Exact ``min(k, N-1)``-nearest lists for every point, as CSR arrays.

    ``ps.tree`` proposes the ``kk + 2`` nearest candidates of each point (the
    point itself included), whose squared distances are recomputed with the
    formula of :func:`brute_force_graph`, one coordinate at a time (the
    same bits as its sum over the coordinate axis), and ordered by
    (distance, index).  The tree returns each row in its own distance
    order; a row whose recomputed distances strictly increase is already
    in (distance, index) order, so only the others are sorted.  A row is
    certain when its farthest candidate lies beyond the ``kk``-th by more
    than rounding, since every point the tree left out is farther still.
    The other rows (distance ties, coincident points) are queried again
    with twice as many candidates, until ``q == N`` makes every row certain.
    Rows are queried in the tree's leaf order (``tree.indices``), so each
    chunk of queries is spatially close, and scattered back by index; a
    row's result does not depend on its chunk.  Every row has exactly
    ``kk`` entries, so the lists fill one ``(N, kk)`` array.
    """
    pts, n = ps.points, len(ps)
    kk = max(min(k, n - 1), 0)
    indptr = np.arange(n + 1, dtype=np.int64) * kk
    nbrs = np.empty((n, kk), dtype=np.int64)
    dists = np.empty((n, kk), dtype=np.float64)
    if kk == 0:
        return indptr, nbrs.ravel(), dists.ravel()
    tree = ps.tree
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    todo, q = tree.indices, min(kk + 2, n)
    while todo.size:
        step = max(1, _CHUNK * (kk + 2) // q)
        unsure = []
        for start in range(0, todo.size, step):
            rows = todo[start:start + step]
            _, cand = tree.query(pts[rows], k=q)
            d2 = x[rows, None] - x[cand]
            dy = y[rows, None] - y[cand]
            d2 *= d2
            dy *= dy
            d2 += dy
            tied = np.flatnonzero(np.any(d2[:, 1:] <= d2[:, :-1], axis=1))
            if tied.size:
                order = np.lexsort((cand[tied], d2[tied]))
                cand[tied] = np.take_along_axis(cand[tied], order, axis=1)
                d2[tied] = np.take_along_axis(d2[tied], order, axis=1)
            # The point's own distance 0 leads each sorted row, so column
            # kk is the kk-th neighbour; a certain row holds it exactly once.
            sure = (d2[:, -1] > d2[:, kk] * (1.0 + _SLACK)) | (q == n)
            keep = sure[:, None] & (cand != rows[:, None])
            nbrs[rows[sure]] = cand[keep].reshape(-1, q - 1)[:, :kk]
            dists[rows[sure]] = np.sqrt(d2[keep].reshape(-1, q - 1)[:, :kk])
            unsure.append(rows[~sure])
        todo, q = np.concatenate(unsure), min(2 * q, n)
    return indptr, nbrs.ravel(), dists.ravel()


def _close_pairs(ps: PointSet, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Pairs ``(i, j)``, ``i < j``, within ``radius`` (closed), and their
    squared distances.

    A ``ps.tree`` pair query with the radius padded by ``_SLACK`` proposes
    the pairs, in the tree's order; the exact ``d2 <= radius**2`` test
    decides them.
    """
    pts = ps.points
    pairs = ps.tree.query_pairs(radius * (1.0 + _SLACK), output_type="ndarray")
    diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
    d2 = np.einsum("ij,ij->i", diff, diff)
    within = d2 <= radius * radius
    return pairs[within].astype(np.int64), d2[within]


def _radius_query(ps: PointSet, radius: float) -> _CSR:
    """All other points within ``radius`` (closed ball), as CSR arrays.

    The pairs come from :func:`_close_pairs`; each point's row is ordered
    by (distance, index).
    """
    pairs, d2 = _close_pairs(ps, radius)
    d2 = np.tile(d2, 2)
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    order = np.lexsort((dst, d2, src))
    indptr = np.searchsorted(src[order], np.arange(len(ps) + 1))
    return indptr, dst[order], np.sqrt(d2[order])


def build_graph(ps: PointSet, k: int, model: str = "mutual",
                radius: Optional[float] = None) -> NearestNeighborGraph:
    """Build the nearest-neighbour graph of ``ps`` exactly.

    The ``k``-nearest models take ``k + 2`` candidates per point from a
    cKDTree, querying the points in the tree's leaf order, and query again,
    with twice as many, the rows whose candidates cannot prove the ``k``-th
    neighbour (distance ties, coincident points); ``gilbert`` takes a
    cKDTree pair query.  Every kept distance is recomputed and compared
    exactly, and only rows whose recomputed distances do not strictly
    increase in the tree's order are sorted again.

    Parameters
    ----------
    ps : PointSet
    k : int
        Neighbour count (``k`` is capped at ``N - 1``); ignored by the edge
        rule of the ``gilbert`` model but still recorded.
    model : str
        One of :data:`MODELS`.
    radius : float, optional
        Connection radius, required iff ``model == "gilbert"``.

    Returns
    -------
    NearestNeighborGraph
        Identical (CSR arrays, ordering, ties) to :func:`brute_force_graph`.

    Examples
    --------
    >>> ps = sample_poisson(200.0, seed=3)
    >>> g = build_graph(ps, k=4, model="mutual")
    >>> ref = brute_force_graph(ps, k=4, model="mutual")
    >>> bool(np.array_equal(g.edges(), ref.edges()))
    True
    """
    _validate_graph_args(model, k, radius)
    if model == "gilbert":
        indptr, indices, dists = _radius_query(ps, radius)
    else:
        indptr, indices, dists = _knn_query(ps, k)
    return NearestNeighborGraph(pointset=ps, k=int(k), model=model,
                                indptr=indptr, indices=indices, dists=dists,
                                radius=radius)


def brute_force_graph(ps: PointSet, k: int, model: str = "mutual",
                      radius: Optional[float] = None) -> NearestNeighborGraph:
    """Quadratic reference implementation of :func:`build_graph`.

    Computes the full pairwise squared-distance matrix, keeps in each row
    the other points within its ``kk = min(k, N - 1)``-th smallest value
    (``radius**2`` for ``gilbert``), orders them by (distance, index) and
    cuts each ``k``-nearest row at ``kk``.  Intended for validation; memory
    grows as ``N**2``.
    """
    _validate_graph_args(model, k, radius)
    pts = ps.points
    n = pts.shape[0]
    # diff[i, j] = pts[i] - pts[j], one coordinate at a time, which is
    # faster than broadcasting over the length-2 axis.
    diff = np.empty((n, n, 2))
    for j in (0, 1):
        np.subtract.outer(pts[:, j], pts[:, j], out=diff[:, :, j])
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(d2, np.inf)
    if model == "gilbert":
        kk, limit = n, radius * radius
    else:
        kk = max(min(k, n - 1), 0)
        limit = (np.partition(d2, kk - 1, axis=1)[:, kk - 1:kk] if kk
                 else -np.inf)
    row, col = np.nonzero(d2 <= limit)
    order = np.lexsort((col, d2[row, col], row))
    row, col = row[order], col[order]
    counts = np.bincount(row, minlength=n)
    rank = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    row, col = row[rank < kk], col[rank < kk]
    return NearestNeighborGraph(
        pointset=ps, k=int(k), model=model,
        indptr=np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n)))),
        indices=col, dists=np.sqrt(d2[row, col]), radius=radius)


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components of an undirected edge set.

    ``labels[i]`` is the smallest point index in the component of ``i``, so
    the labelling depends only on the partition.  ``sizes`` maps each label
    to its member count, in ascending label order.  ``diameters`` maps each
    label to the exact Euclidean diameter of its members among ``points``
    (0 for singletons); it is computed on first read.
    """

    labels: np.ndarray
    sizes: Dict[int, int]
    points: np.ndarray = field(repr=False)

    @property
    def num_components(self) -> int:
        return len(self.sizes)

    @property
    def component_ids(self) -> List[int]:
        return sorted(self.sizes)

    @functools.cached_property
    def _groups(self) -> Tuple[np.ndarray, ...]:
        """``(ids, order, starts, counts)``: the ascending labels, and a
        stable argsort of ``labels`` whose slice ``starts[i]:starts[i] +
        counts[i]`` lists the members of ``ids[i]`` in ascending order."""
        ids = np.fromiter(self.sizes, np.int64, len(self.sizes))
        counts = np.fromiter(self.sizes.values(), np.int64, len(self.sizes))
        starts = np.cumsum(counts) - counts
        return ids, np.argsort(self.labels, kind="stable"), starts, counts

    def members(self, label: int) -> np.ndarray:
        """Ascending indices of the points in component ``label``."""
        ids, order, starts, counts = self._groups
        i = int(np.searchsorted(ids, label))
        if i == ids.size or ids[i] != label:
            return order[:0]
        return order[starts[i]:starts[i] + counts[i]]

    @functools.cached_property
    def diameters(self) -> Dict[int, float]:
        """Exact diameter of every component, keyed by ascending label."""
        return {label: _component_diameter(self.points[self.members(label)])
                for label in self._groups[0].tolist()}

    def sizes_sorted(self) -> List[int]:
        return sorted(self.sizes.values(), reverse=True)


def _pairwise_max_dist(pts: np.ndarray) -> float:
    """Exact diameter of a small point array (chunked to bound memory)."""
    m = pts.shape[0]
    if m <= 1:
        return 0.0
    best = 0.0
    step = max(1, int(2_000_000 // max(m, 1)))
    for a in range(0, m, step):
        diff = pts[a:a + step, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


def _component_diameter(pts: np.ndarray) -> float:
    """Exact Euclidean diameter; convex hull shortcut for large components."""
    m = pts.shape[0]
    if m < 5000:
        return _pairwise_max_dist(pts)
    try:
        hull = ConvexHull(pts)
        return _pairwise_max_dist(pts[hull.vertices])
    except QhullError:
        return _pairwise_max_dist(pts)


def _diameter_sides(comps: ComponentDecomposition, big_d: float
                    ) -> np.ndarray:
    """Sign of ``diameter - big_d`` for every component, in ascending label
    order, with the diameters of :attr:`ComponentDecomposition.diameters`.

    A component's bounding box of width ``w`` and height ``h`` brackets
    its diameter: the computed diameter is at least ``sqrt(max(w*w, h*h))``
    (the pair at the extreme ``x`` or ``y``; every rounding step is
    monotone) and at most ``sqrt(w*w + h*h)`` up to rounding, which the
    ``1e-12`` relative slack covers.  Only a component whose bracket holds
    ``big_d`` has its diameter computed.
    """
    _, order, starts, counts = comps._groups
    grouped = comps.points[order]
    extent = (np.maximum.reduceat(grouped, starts)
              - np.minimum.reduceat(grouped, starts))
    w2, h2 = extent[:, 0] * extent[:, 0], extent[:, 1] * extent[:, 1]
    lower = np.sqrt(np.maximum(w2, h2))
    upper = np.sqrt(w2 + h2) * (1.0 + 1e-12)
    sides = (lower > big_d).astype(np.int64) - (upper < big_d)
    for i in np.flatnonzero(sides == 0).tolist():
        diam = _component_diameter(grouped[starts[i]:starts[i] + counts[i]])
        sides[i] = (diam > big_d) - (diam < big_d)
    return sides


def components(g: NearestNeighborGraph) -> ComponentDecomposition:
    """Connected components of ``g``, built once and cached on the graph.

    Uses ``scipy.sparse.csgraph.connected_components`` over
    :meth:`NearestNeighborGraph.edges`.  Diameters are left to the first
    read of :attr:`ComponentDecomposition.diameters`: components of fewer
    than 5000 points get theirs by direct pairwise maximisation, larger ones
    via their convex hull vertices (the diameter is attained at hull
    vertices).

    Examples
    --------
    >>> ps = sample_poisson(500.0, seed=11)
    >>> comps = components(build_graph(ps, k=12, model="mutual"))
    >>> int(comps.labels.min())
    0
    """
    if g._components is None:
        n = g.n_points
        e = g.edges()
        adjacency = coo_matrix((np.ones(e.shape[0], dtype=np.int8),
                                (e[:, 0], e[:, 1])), shape=(n, n))
        _, raw = connected_components(adjacency, directed=False)
        # Relabel by each component's first, i.e. smallest, member; csgraph
        # numbers components in that order, so ``first`` ascends.
        _, first, counts = np.unique(raw, return_index=True,
                                     return_counts=True)
        sizes = dict(zip(first.tolist(), counts.tolist()))
        g._components = ComponentDecomposition(first[raw], sizes, g.points)
    return g._components


# ---------------------------------------------------------------------------
# Crossing pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingReport:
    """Cross-component edge crossings of a graph.

    ``quadruples`` lists point indices ``(a1, a2, b1, b2)``, in ascending
    order, in the canonical roles of :func:`knnlab.regions.crossing_roles`:
    segment ``a1 a2`` meets segment ``b1 b2``, the two edges lie in
    different components, ``|a1 a2| <= |b1 b2|``, ``a1`` is at least as
    close to the ``b`` segment as ``a2``, and ``b1`` is the ``b`` endpoint
    nearer ``a1``.  Every crossing keeps these roles.  ``frames`` holds the
    matching normalized coordinate frames (``b`` edge mapped to unit
    length), or ``None`` where the normalized configuration violates the
    frame invariants, which cannot happen for crossings of the mutual
    model but can for artificial input.
    """

    quadruples: List[Tuple[int, int, int, int]]
    frames: List[Optional[CrossingFrame]]
    candidates_tested: int

    @property
    def num_crossings(self) -> int:
        return len(self.quadruples)


def _box_candidates(lo: np.ndarray, hi: np.ndarray, minor: np.ndarray,
                    scale: float) -> Tuple[np.ndarray, np.ndarray]:
    """Edge pairs ``(e1, e2)``, ``e1`` minor, that include every pair whose
    closed boxes ``[lo, hi]`` meet, by the strip argument of
    :func:`find_crossing_pairs`; ``scale`` is the largest coordinate
    magnitude.  Both arrays are empty when every box is a point."""
    m = lo.shape[0]
    wide = float((hi - lo).max())
    if wide == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    wide += _SLACK * (wide + scale)
    strip = np.floor((lo[:, 0] - lo[:, 0].min()) / wide).astype(np.int64)
    by_y = np.argsort(lo[:, 1])
    ys = lo[by_y, 1]
    key = np.empty(m, dtype=np.int64)
    key[by_y] = np.arange(m)
    key += strip * m
    order = np.argsort(key)
    key = key[order]
    # Minor edges in key order, so that each searchsorted below gets its
    # needles nearly sorted.
    e1 = order[minor[order]]
    first = np.searchsorted(ys, lo[e1, 1] - wide)
    last = np.searchsorted(ys, hi[e1, 1], side="right")
    # One row each for the keys where strips strip[e1] - 1, strip[e1] and
    # strip[e1] + 1 begin.
    base = (strip[e1] + np.array([[-1], [0], [1]])) * m
    start = np.searchsorted(key, (base + first).ravel())
    count = np.searchsorted(key, (base + last).ravel()) - start
    pos = np.repeat(start + count - np.cumsum(count), count)
    pos += np.arange(pos.size)
    return np.repeat(np.tile(e1, 3), count), order[pos]


def find_crossing_pairs(g: NearestNeighborGraph) -> CrossingReport:
    """Find every pair of crossing edges that lie in different components.

    Only edges of different components are compared, so every candidate
    pair has an edge outside the largest component.  One sort of the edges
    proposes the pairs around each such *minor* edge.  Let ``W`` be the
    widest bounding-box side over all edges, padded by ``1e-9 * (W +
    max|coordinate|)``.  If the closed boxes of edges 1 and 2 meet, then
    ``lo2.x`` lies in ``[lo1.x - W, hi1.x]`` and ``lo2.y`` in ``[lo1.y - W,
    hi1.y]``.  So with ``strip = floor((lo.x - min lo.x) / W)``, edge 2 lies
    in edge 1's strip or a neighbouring one: the two quotients differ by at
    most ``(W - pad) / W`` before rounding, and rounding moves them by a
    few ulps of ``max|coordinate| / W``, far less than the pad.  The pad
    also covers the rounding of ``lo1.y - W``, and it caps the strip count
    near ``2e9``, so the key below fits in 64 bits.  The edges are sorted
    once by the exact integer key ``strip * E + rank(lo.y)``, where the
    rank is the edge's position in one sort by ``lo.y``.  Each minor edge's
    three windows (one per strip, cut to the ``lo.y`` window) are then
    found by ``searchsorted``: the edges with ``lo.y`` in ``[q, h]`` hold
    exactly the ranks from the first sorted value ``>= q`` to the last
    ``<= h``, ties included.  So the windows hold every pair whose boxes
    meet, and more.  Labels, closed bounding-box overlap and non-zero
    lengths are then filtered exactly (``candidates_tested`` counts the
    survivors).  Each survivor takes one call of
    :func:`knnlab.regions.crossing_roles`: its exact closed-segment test
    is the crossing test, and its roles order the quadruple, so the roles
    are decided once per crossing.  The points in those roles are then
    mapped to their frame.  When ``W == 0`` every edge has zero length and
    nothing is tested.  The components are the cached :func:`components`
    of ``g``.

    Examples
    --------
    >>> ps, roles = figure_one_pointset()
    >>> g = build_graph(ps, k=20, model="mutual")
    >>> report = find_crossing_pairs(g)
    >>> report.num_crossings
    1
    """
    comps = components(g)
    edges = g.edges()
    pts = g.points
    hits: List[Tuple[Tuple[int, int, int, int], Optional[CrossingFrame]]] = []
    tested = 0
    if edges.shape[0] >= 2 and comps.num_components >= 2:
        a = pts[edges[:, 0]]
        b = pts[edges[:, 1]]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        elab = comps.labels[edges[:, 0]]
        giant = max(comps.sizes, key=comps.sizes.get)
        e1, e2 = _box_candidates(lo, hi, elab != giant,
                                 float(np.abs(pts).max()))
        # A pair of two minor edges is proposed from both sides; keep one.
        keep = (elab[e1] != elab[e2]) & ((elab[e2] == giant) | (e1 < e2))
        e1, e2 = np.minimum(e1, e2)[keep], np.maximum(e1, e2)[keep]
        # An edge has zero length exactly when its box is a point.
        keep = (np.all((lo[e1] <= hi[e2]) & (lo[e2] <= hi[e1]), axis=1)
                & np.any(lo[e1] != hi[e1], axis=1)
                & np.any(lo[e2] != hi[e2], axis=1))
        e1, e2 = e1[keep], e2[keep]
        tested = int(e1.size)
        for i, j in zip(e1.tolist(), e2.tolist()):
            inputs = (*edges[i].tolist(), *edges[j].tolist())
            corners = [Point(*pts[v]) for v in inputs]
            roles = crossing_roles(*corners)
            if roles is None:
                continue
            try:
                frame = _frame_in_roles(*(corners[r] for r in roles))
            except ValueError:
                frame = None
            hits.append((tuple(inputs[r] for r in roles), frame))
        hits.sort(key=lambda hit: hit[0])
    return CrossingReport(quadruples=[quad for quad, _ in hits],
                          frames=[frame for _, frame in hits],
                          candidates_tested=tested)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def _ball_members(tree: cKDTree, centres: np.ndarray, radii: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Every point ``z`` of ``tree`` within ``radii[row]`` of ``centres[row]``.

    One batched ball query, flattened to the aligned arrays
    ``(row, z)``, rows in order.  The radii are padded by ``_SLACK``, so
    callers pass exact radii and test their candidates exactly.  An
    unsorted cKDTree ball, batched or single, lists its points in kd-tree
    leaf order (ascending rank in ``tree.indices``), so a smaller ball
    about the same centre lists a subsequence of a larger one's.
    """
    balls = tree.query_ball_point(centres, np.asarray(radii) * (1.0 + _SLACK),
                                  return_sorted=False)
    sizes = np.fromiter(map(len, balls), dtype=np.int64, count=balls.size)
    z = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64,
                    count=int(sizes.sum()))
    return np.repeat(np.arange(balls.size), sizes), z


def _edge_end_members(g: NearestNeighborGraph, edges: np.ndarray,
                      radii: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every point near each end of ``edges``, as aligned arrays ``(row, z)``.

    Row ``2e`` lists the points ``z`` other than ``edges[e, 0]`` within
    ``radii[e]`` of it, row ``2e + 1`` those about ``edges[e, 1]``; rows
    ascend, and each row lists its points in kd-tree leaf order, padded as
    :func:`_ball_members` pads.

    Each point ``x`` is queried once, with the largest radius over the
    edge ends at ``x``; every smaller ball about ``x`` lies inside it, so
    its members are the large ball's members within its own radius
    (padded), still in leaf order.  Candidates come from the point set,
    not the graph's rows, so a graph with edges removed
    (:meth:`NearestNeighborGraph.without_edges`) is scanned in full.
    """
    pts = g.points
    centre = edges.reshape(-1)
    radius = np.repeat(radii, 2)
    reach = np.zeros(len(pts))
    np.maximum.at(reach, centre, radius)
    queried = np.flatnonzero(reach > 0.0)
    ball, member = _ball_members(g.pointset.tree, pts[queried], reach[queried])
    owner = queried[ball]
    keep = member != owner
    owner, member = owner[keep], member[keep]
    dist = np.hypot(pts[member, 0] - pts[owner, 0],
                    pts[member, 1] - pts[owner, 1])
    # member[first[x]:first[x] + size[x]] is the ball about point x, less x.
    size = np.bincount(owner, minlength=len(pts))
    first = np.cumsum(size) - size
    count = size[centre]
    row = np.repeat(np.arange(centre.size), count)
    at = (np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
          + first[centre][row])
    sel = dist[at] <= radius[row] * (1.0 + _SLACK)
    return row[sel], member[at[sel]]


def _half_disk_triples(g: NearestNeighborGraph, joined: bool
                       ) -> Iterator[Tuple[int, int, int]]:
    """Triples ``(x, y, z)`` with ``z`` strictly inside the open half-disk
    at ``x`` of an edge ``x y`` and ``x z`` an edge (``joined``) or not.

    For each edge ``x y`` of length ``L``, in the order of
    :meth:`NearestNeighborGraph.edges`, first about ``x`` and then about
    ``y``, yields every ``z`` other than ``x`` and ``y`` with
    ``|xz| < L / 2``, in kd-tree leaf order.  The candidates are those of
    :func:`_edge_end_members` with radius ``L / 2``.
    """
    edges = g.edges()
    pts = g.points
    halves = np.hypot(*(pts[edges[:, 1]] - pts[edges[:, 0]]).T) / 2.0
    row, z = _edge_end_members(g, edges, halves)
    # Row 2e is the half-disk of edges[e, 0], row 2e + 1 that of edges[e, 1].
    x, y = edges.reshape(-1)[row], edges[:, ::-1].reshape(-1)[row]
    sel = (z != y) & (g.has_edges(x, z) == joined)
    half = halves[row // 2]
    for xi, yi, zi, r in zip(x[sel].tolist(), y[sel].tolist(),
                             z[sel].tolist(), half[sel].tolist()):
        if math.hypot(pts[zi, 0] - pts[xi, 0], pts[zi, 1] - pts[xi, 1]) < r:
            yield xi, yi, zi


def _require_mutual(g: NearestNeighborGraph, prop: str) -> None:
    """Raise :class:`ValueError` unless ``g`` is a mutual graph, the only
    model for which ``prop`` holds."""
    if g.model != "mutual":
        raise ValueError("%s holds for the mutual model; got %r"
                         % (prop, g.model))


def check_half_disk_lemma(g: NearestNeighborGraph
                          ) -> List[Tuple[int, int, int]]:
    """Check half-neighbourhood containment on every edge of a mutual graph.

    For each edge ``x y`` of length ``L``, every point strictly inside the
    open disk of radius ``L / 2`` around ``x`` must be joined to ``x`` (and
    symmetrically for ``y``).  Returns violating triples ``(x, y, z)`` where
    ``z`` lies inside the half-disk of ``x`` but ``x z`` is not an edge, in
    the scan order of :func:`_half_disk_triples`: edges in the order of
    :meth:`NearestNeighborGraph.edges`, the half-disk of ``x`` before that
    of ``y``, then ``z`` in kd-tree leaf order.  An empty list means the
    property holds.  Each point is queried once, with a ball as large as
    its largest half-disk, which holds every smaller one.

    Examples
    --------
    >>> ps = sample_poisson(300.0, seed=5)
    >>> g = build_graph(ps, k=8, model="mutual")
    >>> check_half_disk_lemma(g)
    []
    """
    _require_mutual(g, "half-neighbourhood containment")
    return list(_half_disk_triples(g, joined=False))


def _area_subset_union(a: Tuple[float, float, float],
                       c: Tuple[float, float, float],
                       d: Tuple[float, float, float],
                       rel_tol: float = 1e-9) -> bool:
    """Whether disk ``a`` is contained in the union of disks ``c`` and ``d``.

    Decided exactly (up to ``rel_tol``) through areas by inclusion-exclusion:
    ``|A| - |A∩C| - |A∩D| + |A∩C∩D| = |A \\ (C ∪ D)|`` must vanish.

    The residual is evaluated left to right as ``bound + |A∩C∩D|`` with
    ``bound = |A| - |A∩C| - |A∩D|``.  The triple area is never negative, and
    rounding is monotone, so the float sum is never below ``bound``: when
    ``bound`` already exceeds the tolerance the answer is ``False`` and the
    triple area is not computed.
    """
    area_a = math.pi * a[2] * a[2]
    ac = disk_lens_area(math.hypot(a[0] - c[0], a[1] - c[1]), a[2], c[2])
    ad = disk_lens_area(math.hypot(a[0] - d[0], a[1] - d[1]), a[2], d[2])
    bound = area_a - ac - ad
    if bound > rel_tol * area_a:
        return False
    return bound + disks_intersection_area([a, c, d]) <= rel_tol * area_a


def _lens_subset_disk(a: Tuple[float, float, float],
                      b: Tuple[float, float, float],
                      c: Tuple[float, float, float],
                      rel_tol: float = 1e-9) -> bool:
    """Whether the lens ``a ∩ b`` is contained in disk ``c`` (by areas)."""
    lens = disk_lens_area(math.hypot(a[0] - b[0], a[1] - b[1]), a[2], b[2])
    if lens <= 0.0:
        return True
    triple = disks_intersection_area([a, b, c])
    return lens - triple <= rel_tol * max(lens, 1e-300)


def check_intersect_union_lemma(g: NearestNeighborGraph,
                                quadruple: Tuple[int, int, int, int]
                                ) -> Optional[bool]:
    """Test the four-disk containment implication on one quadruple.

    For points ``(w, x, y, z)`` with ``k``-th-neighbour disks ``D(.)``: if
    ``D(w) ∪ D(x) ⊆ D(y) ∪ D(z)`` and ``D(w) ∩ D(x) ⊆ D(y) ∩ D(z)``, then at
    least one of ``w y``, ``w z``, ``x y``, ``x z`` must be an edge of the
    mutual graph.  Containments are decided through exact lens and
    triple-overlap areas (inclusion-exclusion), not sampling, up to a
    relative tolerance of ``1e-9`` of the area that must be covered
    (:func:`_area_subset_union`, :func:`_lens_subset_disk`).

    Returns
    -------
    bool or None
        ``None`` when the hypotheses do not hold (nothing to check); ``True``
        when they hold and one of the four pairs is an edge (or the pair sets
        ``{w, x}`` and ``{y, z}`` coincide, a trivially true case); ``False``
        on a genuine violation.
    """
    _require_mutual(g, "the containment implication")
    w, x, y, z = map(int, quadruple)
    if {w, x} == {y, z}:
        return True
    disks = g._disks
    dw, dx, dy, dz = disks[w], disks[x], disks[y], disks[z]
    if min(dw[2], dx[2], dy[2], dz[2]) <= 0.0:
        return None
    if not (_area_subset_union(dw, dy, dz) and _area_subset_union(dx, dy, dz)
            and _lens_subset_disk(dw, dx, dy)
            and _lens_subset_disk(dw, dx, dz)):
        return None
    return any(g.has_edge(p, q) for p, q in ((w, y), (w, z), (x, y), (x, z))
               if p != q)


def sample_intersect_union_quadruples(g: NearestNeighborGraph, samples: int,
                                      seed: int
                                      ) -> Tuple[List[Tuple[Tuple[int, int, int, int], bool]], int]:
    """Sample quadruples and evaluate :func:`check_intersect_union_lemma`.

    Quadruples mix three recipes — an edge ``(y, z)`` with ``w, x`` drawn
    from the two endpoints' neighbour lists (most likely to satisfy the
    containment hypotheses), two random edges, and four random points — and
    only those meeting the hypotheses are returned, each with the verdict
    :func:`check_intersect_union_lemma` gives it.

    On plain Poisson graphs the quadruples that qualify are, in practice,
    the trivially true ones with ``{w, x} == {y, z}``, so the edge test is
    not reached; it runs on point sets with doubled points, whose twins
    share one disk, and the tier-1 tests reach it only there.

    Returns
    -------
    (results, tested)
        ``results`` pairs each qualifying quadruple with the lemma verdict;
        ``tested`` counts all sampled quadruples.
    """
    _require_mutual(g, "the containment implication")
    rng = np.random.default_rng(seed)
    n = g.n_points
    if n < 2:
        return [], 0
    edge_list = g.edges().tolist()
    num_edges = len(edge_list)
    ptr = g.indptr.tolist()
    nbrs = g.indices.tolist()
    results: List[Tuple[Tuple[int, int, int, int], bool]] = []
    for _ in range(samples):
        mode = int(rng.integers(3)) if num_edges else 2
        if mode == 0:
            y, z = edge_list[int(rng.integers(num_edges))]
            pool = sorted({*nbrs[ptr[y]:ptr[y + 1]], *nbrs[ptr[z]:ptr[z + 1]],
                           y, z})
            w, x = (pool[i] for i in rng.integers(len(pool), size=2).tolist())
        elif mode == 1:
            w, x = edge_list[int(rng.integers(num_edges))]
            y, z = edge_list[int(rng.integers(num_edges))]
        else:
            w, x, y, z = rng.integers(n, size=4).tolist()
        verdict = check_intersect_union_lemma(g, (w, x, y, z))
        if verdict is not None:
            results.append(((w, x, y, z), verdict))
    return results, max(samples, 0)


def check_farapart(g: NearestNeighborGraph
                   ) -> List[Tuple[int, int, int, float, float]]:
    """Check the separation of foreign points from edges (mutual model).

    Every point ``a`` whose component differs from that of an edge
    ``b1 b2`` of length ``rho`` must satisfy
    ``dist(a, segment b1 b2) >= rho * FARAPART_RATIO``.  Returns violations
    ``(a, b1, b2, dist, rho)``; empty means the property holds.  Distances
    are exact point-to-closed-segment distances; the comparison allows a
    ``1e-12`` relative slack so boundary cases are not reported spuriously.
    The components are the cached :func:`components` of ``g``.

    Violations are listed by edge, in the order of
    :meth:`NearestNeighborGraph.edges` (zero-length edges skipped), and
    for each edge by the points' kd-tree leaf order.  The point of the
    segment nearest a point ``a`` lies within ``rho / 2`` of one end, so
    an ``a`` within ``rho * FARAPART_RATIO`` of the segment lies within
    ``rho * (1/2 + FARAPART_RATIO)`` of that end.  The candidates are
    therefore those of :func:`_edge_end_members` with that radius, from
    both ends; a point found from both is tested once.
    """
    _require_mutual(g, "the separation property")
    comps = components(g)
    edges = g.edges()
    violations: List[Tuple[int, int, int, float, float]] = []
    if edges.size == 0 or comps.num_components < 2:
        return violations
    pts = g.points
    labels = comps.labels
    rho = np.hypot(*(pts[edges[:, 1]] - pts[edges[:, 0]]).T)
    edges, rho = edges[rho > 0.0], rho[rho > 0.0]
    row, z = _edge_end_members(g, edges, rho * (0.5 + FARAPART_RATIO))
    e = row // 2
    foreign = labels[z] != labels[edges[e, 0]]
    z, e = z[foreign], e[foreign]
    # point_segment_distance, vectorised.  Only np.hypot may differ from
    # math.hypot, in the last bit, far below the 1e-12 * rho slack, so the
    # scalar decides just the candidates below the cutoff itself.
    ax, ay = pts[edges[e, 0]].T
    dx, dy = pts[edges[e, 1], 0] - ax, pts[edges[e, 1], 1] - ay
    t = np.clip(((pts[z, 0] - ax) * dx + (pts[z, 1] - ay) * dy)
                / (dx * dx + dy * dy), 0.0, 1.0)
    near = (np.hypot(pts[z, 0] - (ax + t * dx), pts[z, 1] - (ay + t * dy))
            < rho[e] * FARAPART_RATIO)
    # Sort by (edge, leaf rank), dropping points found from both ends.
    n, leaf = len(pts), g.pointset.tree.indices
    rank = np.empty(n, dtype=np.int64)
    rank[leaf] = np.arange(n)
    key = np.unique(e[near] * n + rank[z[near]])
    for zi, ei in zip(leaf[key % n].tolist(), (key // n).tolist()):
        b1, b2 = int(edges[ei, 0]), int(edges[ei, 1])
        seg = Segment(Point(*pts[b1]), Point(*pts[b2]))
        dist = point_segment_distance(Point(*pts[zi]), seg)
        if dist < rho[ei] * FARAPART_RATIO - 1e-12 * rho[ei]:
            violations.append((zi, b1, b2, float(dist), float(rho[ei])))
    return violations


# ---------------------------------------------------------------------------
# Goodness conditions
# ---------------------------------------------------------------------------


def _cos_extremes(lo: float, hi: float) -> Tuple[float, float]:
    """Range of ``cos`` over the angle interval ``[lo, hi]``."""
    vals = [math.cos(lo), math.cos(hi)]
    two_pi = 2.0 * math.pi
    k_lo = math.ceil(lo / two_pi)
    if lo <= k_lo * two_pi <= hi:
        vals.append(1.0)
    k_lo = math.ceil((lo - math.pi) / two_pi)
    if lo <= k_lo * two_pi + math.pi <= hi:
        vals.append(-1.0)
    return min(vals), max(vals)


def _half_disk_bbox(px: float, py: float, u: float, radius: float
                    ) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box of the closed half-disk at ``p``.

    The half-disk is ``{p + t v : 0 <= t <= radius, v in unit directions
    within pi/2 of u}`` — centre on the boundary diameter, bulge towards
    ``u``.
    """
    lo_c, hi_c = _cos_extremes(u - math.pi / 2.0, u + math.pi / 2.0)
    lo_s, hi_s = _cos_extremes(u - math.pi, u)  # sin t = cos(t - pi/2)
    return (px + radius * min(lo_c, 0.0), py + radius * min(lo_s, 0.0),
            px + radius * max(hi_c, 0.0), py + radius * max(hi_s, 0.0))


def _empty_half_disk(pts: np.ndarray, tree: cKDTree, idx: int, radius: float,
                     side: float) -> Optional[float]:
    """Direction ``u`` of an empty half-disk at point ``idx``, if one exists.

    The half-disk of direction ``u`` is empty of other points iff no
    neighbour within ``radius`` has direction within ``pi/2`` of ``u``; such
    ``u`` exist iff the sorted neighbour directions leave an angular gap
    greater than ``pi``.  Candidate directions from each gap are then tested
    for window containment through the exact half-disk bounding box.
    Returns a valid direction or ``None``.

    :func:`_half_disk_survivors` skips the points where no box can fit.
    """
    p = pts[idx]
    _, ids = _ball_members(tree, p[None, :], [radius])
    rel = pts[ids[ids != idx]] - p
    rel = rel[np.hypot(rel[:, 0], rel[:, 1]) <= radius]
    ang = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
    if ang.size == 0 or ang[0] == ang[-1]:
        # No neighbour, or all in one direction (one point, a ray,
        # duplicates): the rest of the circle is a single gap.
        gaps = [(float(ang[0]) if ang.size else 0.0, 2.0 * math.pi)]
    else:
        # Gap t runs from ang[t] to the next direction, cyclically.
        width = np.diff(ang, append=ang[0]) % (2.0 * math.pi)
        gaps = [(float(ang[t]), float(width[t]))
                for t in np.flatnonzero(width > math.pi)]
    for start, width in gaps:
        # u must keep all neighbour directions out of (u - pi/2, u + pi/2):
        # any u in [start + pi/2, start + width - pi/2] does.
        span = width - math.pi
        for frac in (0.5, 0.0, 1.0, 0.25, 0.75):
            u = start + math.pi / 2.0 + span * frac
            x0, y0, x1, y1 = _half_disk_bbox(float(p[0]), float(p[1]), u,
                                             radius)
            if x0 >= 0.0 and y0 >= 0.0 and x1 <= side and y1 <= side:
                return u % (2.0 * math.pi)
    return None


def _half_disk_survivors(pts: np.ndarray, radius: float,
                         side: float) -> np.ndarray:
    """Ascending indices of the points :func:`_empty_half_disk` may accept.

    A direction is accepted only if the half-disk's bounding box lies in the
    window.  The box holds both ends ``p +- radius v`` of the diameter
    (``v`` a unit vector), so ``radius |v_x| <= min(p_x, side - p_x)`` and
    likewise for ``y``, hence ``min(p_x, side - p_x)**2 +
    min(p_y, side - p_y)**2 >= radius**2``.  Points within ``1e-9 radius`` of
    passing are kept, far above the rounding of the quantities compared, so
    every point left out is one where :func:`_empty_half_disk` returns
    ``None``.
    """
    near = np.minimum(pts, side - pts)
    return np.flatnonzero(np.hypot(near[:, 0], near[:, 1])
                          >= radius - _SLACK * radius)


@dataclass(frozen=True)
class GoodnessReport:
    """Outcome of the six badness conditions on one graph.

    ``bad[i]`` is ``True`` when condition ``i + 1`` fails (the configuration
    is bad in that sense); ``witnesses`` maps the 1-based condition number of
    each failure to a witness object.  ``good`` means all six passed.

    The conditions, with ``D = d * sqrt(log n)`` and tile side
    ``sqrt(log n) / (20000 d)``:

    1. some edge joins points whose tiles are farther than ``2 D`` apart;
    2. some pair within ``D / d**2 = (1/d) sqrt(log n)`` is not an edge;
    3. some point has an empty half-disk of radius ``D`` inside the window;
    4. two or more components have diameter at least ``D``;
    5. some component of diameter at most ``D`` has a point within ``2 D``
       of a window corner;
    6. some two edges in different components cross.
    """

    bad: Tuple[bool, bool, bool, bool, bool, bool]
    witnesses: Dict[int, object]

    @property
    def good(self) -> bool:
        return not any(self.bad)


def check_goodness(g: NearestNeighborGraph, consts: ModelConstants
                   ) -> GoodnessReport:
    """Evaluate the six badness conditions of :class:`GoodnessReport`.

    ``consts`` supplies the diameter scale ``d``; the intensity ``n`` comes
    from the graph's window.  Every test is deterministic, and conditions 1,
    2, 4, 5 and 6 are exact.  Condition 3 reports bad only on an exactly
    verified empty half-disk (direction-gap argument plus exact bounding-box
    containment), so a bad verdict is always genuine.  Points too close to
    the boundary for any half-disk to fit are skipped first (see
    :func:`_half_disk_survivors`); the rest are scanned in index order, so the
    verdict and witness are those of a scan of every point.  Conditions 2
    and 3 query the point set's tree, 4 to 6 the cached :func:`components`.

    Examples
    --------
    >>> ps = sample_poisson(2000.0, seed=2)
    >>> consts = ModelConstants(c=1.2, c_minus=0.5, c_plus=23.9, d=11.0)
    >>> g = build_graph(ps, k=10, model="mutual")
    >>> isinstance(check_goodness(g, consts).good, bool)
    True
    """
    comps = components(g)
    n_int = g.pointset.window.n
    if n_int <= 1.0:
        raise ValueError("goodness conditions need window intensity n > 1")
    log_n = math.log(n_int)
    root = math.sqrt(log_n)
    d = consts.d
    big_d = d * root
    side = g.pointset.window.side
    pts = g.points
    edges = g.edges()
    bad = [False] * 6
    witnesses: Dict[int, object] = {}

    # Condition 1: edge endpoints in tiles with centres > 2 D apart.
    tile = root / (20000.0 * d)
    if edges.size:
        ca = (np.floor(pts[edges[:, 0]] / tile) + 0.5) * tile
        cb = (np.floor(pts[edges[:, 1]] / tile) + 0.5) * tile
        gap = np.hypot(cb[:, 0] - ca[:, 0], cb[:, 1] - ca[:, 1])
        far = np.flatnonzero(gap > 2.0 * big_d)
        if far.size:
            e = int(far[0])
            bad[0] = True
            witnesses[1] = (int(edges[e, 0]), int(edges[e, 1]),
                            float(gap[e]))

    # Condition 2: near pair that is not an edge.
    close_pairs, _ = _close_pairs(g.pointset, root / d)
    missing = np.flatnonzero(~g.has_edges(close_pairs[:, 0],
                                          close_pairs[:, 1]))
    if missing.size:
        i, j = close_pairs[missing[0]]
        bad[1] = True
        witnesses[2] = (int(i), int(j), float(math.hypot(*(pts[j] - pts[i]))))

    # Condition 3: empty half-disk of radius D fully inside the window.
    for i in _half_disk_survivors(pts, big_d, side).tolist():
        u = _empty_half_disk(pts, g.pointset.tree, i, big_d, side)
        if u is not None:
            bad[2] = True
            witnesses[3] = (i, float(u))
            break

    # Condition 4: two components of diameter >= D.
    ids, order, _, counts = comps._groups
    sides = _diameter_sides(comps, big_d)
    wide = ids[sides >= 0]
    if wide.size >= 2:
        bad[3] = True
        witnesses[4] = wide[:2].tolist()

    # Condition 5: small component within 2 D of a corner.  Only members of
    # components with ``sides <= 0`` can be witnesses, so only they are
    # measured.
    small = np.flatnonzero(sides <= 0)
    members = order[np.repeat(sides <= 0, counts)]
    corners = np.array(g.pointset.window.corners)
    to_corner = np.hypot(pts[members, None, 0] - corners[None, :, 0],
                         pts[members, None, 1] - corners[None, :, 1])
    dmin = np.minimum.reduceat(to_corner.min(axis=1),
                               np.cumsum(counts[small]) - counts[small])
    hit = np.flatnonzero(dmin <= 2.0 * big_d)
    if hit.size:
        bad[4] = True
        witnesses[5] = (int(ids[small[hit[0]]]), float(dmin[hit[0]]))

    # Condition 6: cross-component edge crossing.
    report = find_crossing_pairs(g)
    if report.num_crossings:
        bad[5] = True
        witnesses[6] = report.quadruples[0]

    return GoodnessReport(bad=tuple(bad), witnesses=witnesses)


# ---------------------------------------------------------------------------
# Connectivity experiments
# ---------------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = 1.96
                    ) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials
                                   + z * z / (4.0 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class TrialResult:
    """Outcome of a single sampled-graph trial.

    ``num_crossing_pairs`` is 0 for connected graphs without running the
    crossing search.
    ``second_component_size`` is the size of the second-largest component
    (0 when connected).
    """

    n: float
    k: int
    c: float
    seed: int
    connected: bool
    num_components: int
    num_crossing_pairs: int
    second_component_size: int


@dataclass(frozen=True)
class ConnectivityEstimate:
    """Aggregate over the trials at one coefficient ``c``.

    ``connected_frac`` comes with a 95% Wilson interval.
    ``max_small_component`` is the largest size, over the trials, of the
    second-largest component (0 when every trial was connected) — the
    natural size of the worst non-giant part.  ``crossing_pairs_total``
    sums cross-component crossings over all trials.
    """

    n: float
    k: int
    c: float
    model: str
    trials: int
    connected_frac: float
    wilson_lo: float
    wilson_hi: float
    mean_components: float
    max_small_component: int
    crossing_pairs_total: int
    seed: int
    results: Tuple[TrialResult, ...] = ()


def _trial_seed(master_seed: int, c_index: int, trial_index: int) -> int:
    """Deterministic per-trial seed from counter-based key splitting."""
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(c_index, trial_index))
    return int(seq.generate_state(1, np.uint64)[0])


def run_trial(n: float, c: float, seed: int, model: str = "mutual"
              ) -> TrialResult:
    """Sample one Poisson configuration and measure its graph.

    ``k = ceil(c log n)``; for the ``gilbert`` model the connection radius
    is ``sqrt(c log n / pi)`` (disk area ``c log n``), the analogue of the
    same coefficient scale.  Both are checked as :func:`build_graph` checks
    them before anything is sampled, so an invalid ``(n, c)`` raises
    ``ValueError`` whatever the seed.  An empty sample takes the same path
    as any other: no components, connected, no crossings.
    """
    scale = c * math.log(n)
    k = int(math.ceil(scale))
    radius = (math.sqrt(max(scale, 0.0) / math.pi) if model == "gilbert"
              else None)
    _validate_graph_args(model, k, radius)
    ps = sample_poisson(n, seed)
    g = build_graph(ps, k, model=model, radius=radius)
    comps = components(g)
    connected = comps.num_components <= 1
    if connected:
        crossings = 0
    else:
        crossings = find_crossing_pairs(g).num_crossings
    sizes = comps.sizes_sorted()
    return TrialResult(
        n=n, k=k, c=c, seed=seed, connected=connected,
        num_components=comps.num_components,
        num_crossing_pairs=crossings,
        second_component_size=sizes[1] if len(sizes) > 1 else 0)


def estimate_connectivity(n: float, c_values: Sequence[float], trials: int,
                          master_seed: int, model: str = "mutual"
                          ) -> List[ConnectivityEstimate]:
    """Estimate the connectivity probability across coefficients ``c``.

    Runs ``trials`` independent trials per coefficient.  Per-trial seeds are
    ``SeedSequence(master_seed, spawn_key=(c_index, trial_index))``, so any
    single trial can be reproduced without rerunning the sweep, and results
    do not depend on execution order.

    Examples
    --------
    >>> out = estimate_connectivity(400.0, [1.5], trials=3, master_seed=9)
    >>> out[0].trials
    3
    """
    _validate_model(model)
    if trials <= 0:
        raise ValueError("trials must be positive")
    estimates: List[ConnectivityEstimate] = []
    for ci, c in enumerate(c_values):
        results = [run_trial(n, c, _trial_seed(master_seed, ci, t), model)
                   for t in range(trials)]
        connected = sum(1 for r in results if r.connected)
        lo, hi = wilson_interval(connected, trials)
        estimates.append(ConnectivityEstimate(
            n=n, k=results[0].k, c=float(c), model=model, trials=trials,
            connected_frac=connected / trials, wilson_lo=lo, wilson_hi=hi,
            mean_components=sum(r.num_components for r in results) / trials,
            max_small_component=max(r.second_component_size
                                    for r in results),
            crossing_pairs_total=sum(r.num_crossing_pairs for r in results),
            seed=master_seed, results=tuple(results)))
    return estimates


# ---------------------------------------------------------------------------
# Deterministic showcase configuration
# ---------------------------------------------------------------------------


def figure_one_pointset(seed: int = 20) -> Tuple[PointSet, Dict[str, object]]:
    """Hand-built configuration with exactly one cross-component crossing.

    At ``k = 20`` the mutual graph on this set splits into several
    components; the edge between the two axis points ``b1 b2`` and the edge
    between the two straddling points ``a1 a2`` lie in different components
    yet cross.  Returns the point set (window intensity 25) and a role map
    with the indices of ``a1``, ``a2``, ``b1``, ``b2`` and the suggested
    ``k``.

    Examples
    --------
    >>> ps, roles = figure_one_pointset()
    >>> g = build_graph(ps, roles["k"], model="mutual")
    >>> find_crossing_pairs(g).num_crossings
    1
    """
    rng = np.random.default_rng(seed)

    def jitter_box(centre: Tuple[float, float], half: float, count: int
                   ) -> np.ndarray:
        return np.array(centre) + rng.uniform(-half, half, size=(count, 2))

    base = [
        (0.0, 0.0),      # b1
        (1.0, 0.0),      # b2
        (0.4995, 0.19),  # a1
        (0.5, -0.31),    # a2
    ]
    clusters = [
        jitter_box((0.09, 0.52), 0.001, 10),   # flank near b1
        jitter_box((0.91, 0.52), 0.001, 9),    # flank near b2
        jitter_box((0.172, 0.993), 0.001, 21),  # upper-left pack
        jitter_box((0.828, 0.993), 0.001, 21),  # upper-right pack
        jitter_box((0.5, -0.875), 0.002, 20),  # anchor pack below a2
    ]
    local = np.vstack([np.array(base, dtype=float)] + clusters)
    local += np.array([2.0, 2.0])
    fillers = np.array([
        [0.5, 0.5], [4.5, 0.5], [0.5, 4.5], [4.5, 4.5],
        [4.5, 2.5], [0.3, 4.0],
    ])
    pts = np.vstack([local, fillers])
    ps = PointSet(points=pts, seed=seed, window=SampleWindow(25.0))
    roles: Dict[str, object] = {"b1": 0, "b2": 1, "a1": 2, "a2": 3, "k": 20}
    return ps, roles
