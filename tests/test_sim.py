"""Tests for sampling, graph construction, components, crossings, and the
structural checks in :mod:`knnlab.sim`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError, cKDTree

from knnlab import sim
from knnlab.bounds import ModelConstants, model_constants
from knnlab.geom import (Point, Segment, disk_lens_area,
                         disks_intersection_area, distance,
                         point_segment_distance, segments_intersect)
from knnlab.sim import (
    PointSet,
    SampleWindow,
    brute_force_graph,
    build_graph,
    check_farapart,
    check_goodness,
    check_half_disk_lemma,
    check_intersect_union_lemma,
    components,
    estimate_connectivity,
    figure_one_pointset,
    find_crossing_pairs,
    sample_intersect_union_quadruples,
    sample_poisson,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_window_side_and_containment():
    w = SampleWindow(100.0)
    assert w.side == 10.0
    assert w.contains(np.array([[0.0, 0.0], [10.0, 10.0]]))
    assert not w.contains(np.array([[10.1, 0.0]]))
    with pytest.raises(ValueError):
        SampleWindow(0.0)


def test_sample_poisson_is_deterministic_per_seed():
    a = sample_poisson(300.0, seed=5)
    b = sample_poisson(300.0, seed=5)
    c = sample_poisson(300.0, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.window.contains(a.points)


def test_sample_poisson_count_is_poisson_scale():
    counts = [len(sample_poisson(400.0, seed=s)) for s in range(30)]
    assert 300 < np.mean(counts) < 500


def test_pointset_validation():
    w = SampleWindow(4.0)
    with pytest.raises(ValueError):
        PointSet(points=np.zeros((3, 3)), seed=0, window=w)
    with pytest.raises(ValueError):
        PointSet(points=np.array([[5.0, 0.0]]), seed=0, window=w)
    with pytest.raises(ValueError):
        PointSet(points=np.array([[np.nan, 0.0]]), seed=0, window=w)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def _line_pointset(xs):
    pts = np.array([[x, 0.0] for x in xs])
    window = SampleWindow(max(100.0, (pts.max() + 1.0) ** 2))
    return PointSet(points=pts, seed=0, window=window)


def test_mutual_versus_either_on_a_line():
    # 0 -- 1 ---- 2: point 1 is nearest to both ends, but point 2's
    # nearest is 1 while 1's nearest is 0.
    ps = _line_pointset([0.0, 1.0, 2.4])
    mutual = build_graph(ps, k=1, model="mutual").edges()
    either = build_graph(ps, k=1, model="either").edges()
    assert mutual.tolist() == [[0, 1]]
    assert either.tolist() == [[0, 1], [1, 2]]


def test_every_model_gives_its_own_edge_set():
    # 0 -- 1 ---- 2.4 ------ 5 at k = 1: only 0 and 1 choose each other,
    # every point's nearest joins the either graph, and radius 1.5 joins
    # the two pairs at distance 1 and 1.4.
    ps = _line_pointset([0.0, 1.0, 2.4, 5.0])
    edge_sets = {model: build_graph(
        ps, k=1, model=model,
        radius=1.5 if model == "gilbert" else None).edges().tolist()
        for model in sim.MODELS}
    assert edge_sets == {"mutual": [[0, 1]],
                         "either": [[0, 1], [1, 2], [2, 3]],
                         "gilbert": [[0, 1], [1, 2]]}


def test_gilbert_model_radius_rule():
    ps = _line_pointset([0.0, 1.0, 2.4])
    g = build_graph(ps, k=1, model="gilbert", radius=1.5)
    assert g.edges().tolist() == [[0, 1], [1, 2]]
    with pytest.raises(ValueError):
        build_graph(ps, k=1, model="gilbert")
    with pytest.raises(ValueError):
        build_graph(ps, k=1, model="mutual", radius=1.0)


def test_distance_ties_break_by_lower_index():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]) + 5.0
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = build_graph(ps, k=1, model="either")
    assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [1]


def test_neighbourhood_radius_is_kth_distance():
    ps = _line_pointset([0.0, 1.0, 3.0])
    g = build_graph(ps, k=2, model="mutual")
    assert g.neighbourhood_radius(0) == 3.0
    assert g.neighbourhood_radius(1) == 2.0
    gilbert = build_graph(ps, k=2, model="gilbert", radius=1.5)
    with pytest.raises(ValueError):
        gilbert.neighbourhood_radius(0)


def _assert_matches_brute_force(ps, k, model, radius):
    g = build_graph(ps, k, model=model, radius=radius)
    ref = brute_force_graph(ps, k, model=model, radius=radius)
    assert np.array_equal(g.edges(), ref.edges())
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)
    assert np.array_equal(g.dists, ref.dists)


def test_build_graph_matches_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(15):
        n = float(rng.integers(3, 600))
        ps = sample_poisson(n, int(rng.integers(1 << 31)))
        if len(ps) < 2:
            continue
        k = int(rng.integers(1, 40))
        model = sim.MODELS[trial % len(sim.MODELS)]
        radius = float(rng.uniform(0.5, 2.0)) if model == "gilbert" else None
        _assert_matches_brute_force(ps, k, model, radius)

    # Tie-heavy inputs: on an integer lattice most neighbour distances tie,
    # and duplicated points tie at distance zero (also with themselves).  A
    # cluster of 61 coincident points keeps rows uncertain until a query
    # takes more than 61 candidates, so small k re-queries several times.
    lattice = np.array([[x, y] for x in range(1, 16) for y in range(1, 13)],
                       dtype=float)
    base = rng.uniform(0.0, 10.0, size=(60, 2))
    duplicated = np.vstack([base, base[:25], base[:8], lattice[:30],
                            lattice[:30]])
    cluster = np.vstack([base, np.repeat(base[:1], 60, axis=0)])
    tie_sets = [PointSet(points=pts, seed=0, window=SampleWindow(256.0))
                for pts in (lattice, duplicated, cluster)]
    for ps in tie_sets:
        for model in sim.MODELS:
            if model == "gilbert":
                for radius in (1.0, math.sqrt(2.0), 2.0, 2.5):
                    _assert_matches_brute_force(ps, 1, model, radius)
            else:
                for k in (1, 2, 3, 4, 5, 8, 12, 21):
                    _assert_matches_brute_force(ps, k, model, None)

    # Far from the origin the coordinates are coarse: at 1e6 + 1e-8 * u
    # only about 90 values per axis remain, so distances tie often and the
    # tree's candidate order need not be the (distance, index) order.
    window = SampleWindow((1e6 + 21.0) ** 2)
    for spread in (20.0, 1e-8):
        ps = PointSet(points=1e6 + rng.uniform(0.0, spread, size=(150, 2)),
                      seed=0, window=window)
        for model in sim.MODELS:
            if model == "gilbert":
                for radius in (0.05, 0.1, 0.2):
                    _assert_matches_brute_force(ps, 1, model, radius * spread)
            else:
                for k in (1, 2, 4, 7, 13):
                    _assert_matches_brute_force(ps, k, model, None)


def test_build_graph_handles_degenerate_sizes():
    w = SampleWindow(9.0)
    empty = PointSet(points=np.empty((0, 2)), seed=0, window=w)
    single = PointSet(points=np.array([[1.0, 1.0]]), seed=0, window=w)
    assert build_graph(empty, k=3).edges().shape == (0, 2)
    for ps in (empty, single):
        for model in sim.MODELS:
            radius = 1.0 if model == "gilbert" else None
            _assert_matches_brute_force(ps, 3, model, radius)
    g = build_graph(single, k=3)
    assert g.edges().shape == (0, 2)
    assert g.neighbourhood_radius(0) == 0.0
    with pytest.raises(ValueError):
        build_graph(single, k=-1)
    with pytest.raises(ValueError):
        build_graph(single, k=1, model="voronoi")


def test_has_edge_and_degree_histogram():
    ps = _line_pointset([0.0, 1.0, 2.4])
    g = build_graph(ps, k=1, model="either")
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2) and not g.has_edge(1, 1)
    assert np.bincount(g.edges().ravel()).tolist() == [1, 2, 1]


def test_without_edges_removes_both_arcs_and_keeps_the_graph():
    g = build_graph(sample_poisson(600.0, seed=4), k=8, model="mutual")
    n = g.n_points
    before = [a.copy() for a in (g.indptr, g.indices, g.dists, g.edges())]
    removed = {tuple(e) for e in g.edges()[::40].tolist()}
    h = g.without_edges([(b, a) for a, b in sorted(removed)])
    after = (g.indptr, g.indices, g.dists, g.edges())
    assert all(np.array_equal(x, y) for x, y in zip(before, after))
    # Each row loses exactly the removed arcs and keeps its order.
    for i in range(n):
        row = slice(g.indptr[i], g.indptr[i + 1])
        keep = [(int(j), d) for j, d in zip(g.indices[row], g.dists[row])
                if tuple(sorted((i, int(j)))) not in removed]
        new = slice(h.indptr[i], h.indptr[i + 1])
        assert list(zip(h.indices[new].tolist(), h.dists[new])) == keep
    kept = {tuple(e) for e in before[3].tolist()} - removed
    assert {tuple(e) for e in h.edges().tolist()} == kept
    # The vectorised and scalar edge tests agree with edges() on all pairs.
    adj = np.zeros((n, n), dtype=bool)
    adj[h.edges()[:, 0], h.edges()[:, 1]] = True
    adj |= adj.T
    rows, cols = np.indices((n, n)).reshape(2, -1)
    assert np.array_equal(h.has_edges(rows, cols), adj.ravel())
    for a, b in sorted(removed)[:10]:
        assert g.has_edge(a, b) and not h.has_edge(a, b)
    # Every half-disk violation of the edited graph is a removed edge.
    violations = check_half_disk_lemma(h)
    assert violations and check_half_disk_lemma(g) == []
    assert all(tuple(sorted((x, z))) in removed for x, _, z in violations)
    # The copy decomposes its own edges; the original's cached components
    # stay the same object, unchanged.  Both share the point set's tree.
    comps = components(g)
    labels = comps.labels.copy()
    parent = list(range(n))  # union-find over h's edges, rooted at minima

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in h.edges().tolist():
        ra, rb = root(a), root(b)
        parent[max(ra, rb)] = min(ra, rb)
    expected = [root(i) for i in range(n)]
    ch = components(h)
    assert ch is not comps and ch.labels.tolist() == expected
    assert ch.sizes == {c: expected.count(c) for c in sorted(set(expected))}
    assert components(g) is comps
    assert np.array_equal(comps.labels, labels)
    assert h.pointset.tree is g.pointset.tree


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_components_labels_and_diameters():
    ps = _line_pointset([0.0, 1.0, 2.4, 50.0, 51.0])
    comps = components(build_graph(ps, k=1, model="mutual"))
    assert comps.labels.tolist() == [0, 0, 2, 3, 3]
    assert comps.sizes == {0: 2, 2: 1, 3: 2}
    assert comps.diameters[0] == 1.0
    assert comps.diameters[2] == 0.0
    assert comps.diameters[3] == 1.0
    assert comps.num_components == 3
    assert sorted(comps.diameters.values()) == [0.0, 1.0, 1.0]
    assert comps.members(3).tolist() == [3, 4]


def test_members_match_a_label_scan():
    g = build_graph(sample_poisson(500.0, seed=8), k=2, model="mutual")
    comps = components(g)
    assert comps.num_components > 50
    for label in comps.component_ids:
        assert np.array_equal(comps.members(label),
                              np.flatnonzero(comps.labels == label))


def test_components_are_built_once_per_graph(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return connected_components(*args, **kwargs)

    connected_components = sim.connected_components
    monkeypatch.setattr(sim, "connected_components", counting)
    n, c = 2000.0, 0.4
    g = build_graph(sample_poisson(n, 1), k=math.ceil(c * math.log(n)),
                    model="mutual")
    comps = components(g)
    assert components(g) is comps
    assert comps.num_components > 10
    # csgraph numbers components by their smallest members, so the sizes
    # come in ascending label order, which _groups relies on.
    assert list(comps.sizes) == sorted(comps.sizes)
    find_crossing_pairs(g)
    check_farapart(g)
    check_goodness(g, model_constants(c, n=n))
    assert components(g) is comps
    assert len(calls) == 1


def test_point_set_builds_its_tree_once_and_only_when_queried():
    ps = sample_poisson(300.0, seed=2)
    assert "tree" not in vars(ps)
    g = build_graph(ps, k=5, model="mutual")
    tree = ps.tree
    assert tree is ps.tree and tree.n == len(ps)
    check_half_disk_lemma(g)
    check_farapart(g)
    assert ps.tree is tree
    # A point set of one point, or k = 0, needs no neighbour query.
    one = PointSet(points=[[1.0, 1.0]], seed=0, window=SampleWindow(4.0))
    build_graph(one, k=3, model="mutual")
    few = sample_poisson(50.0, seed=1)
    build_graph(few, k=0, model="mutual")
    assert "tree" not in vars(one) and "tree" not in vars(few)


def test_component_partition_stable_under_relabelling():
    ps = sample_poisson(400.0, seed=17)
    g = build_graph(ps, k=3, model="mutual")
    comps = components(g)
    perm = np.random.default_rng(3).permutation(len(ps))
    ps2 = PointSet(points=ps.points[perm], seed=ps.seed, window=ps.window)
    comps2 = components(build_graph(ps2, k=3, model="mutual"))
    # Map the permuted partition back to original indices and compare.
    parts1 = {frozenset(np.flatnonzero(comps.labels == c).tolist())
              for c in comps.sizes}
    parts2 = {frozenset(perm[np.flatnonzero(comps2.labels == c)].tolist())
              for c in comps2.sizes}
    assert parts1 == parts2


def test_component_diameter_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 10.0, size=(200, 2))
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = build_graph(ps, k=199, model="mutual")  # complete graph
    comps = components(g)
    assert comps.num_components == 1
    diff = pts[:, None, :] - pts[None, :, :]
    expected = math.sqrt(((diff ** 2).sum(-1)).max())
    assert comps.diameters[0] == pytest.approx(expected, rel=1e-12)
    # Many components of different diameters, each keyed by its own label.
    comps = components(build_graph(ps, k=2, model="mutual"))
    assert len(set(comps.diameters.values())) > 10
    for label, diameter in comps.diameters.items():
        m = comps.members(label)
        expected = math.sqrt(((diff[np.ix_(m, m)] ** 2).sum(-1)).max())
        assert diameter == pytest.approx(expected, rel=1e-12)


def test_component_diameter_through_the_convex_hull():
    # Components of 5000 or more points take the diameter over their hull
    # vertices; the giant component here has 5872 points.
    comps = components(build_graph(sample_poisson(6000.0, 3), 12,
                                   model="mutual"))
    label, size = max(comps.sizes.items(), key=lambda item: item[1])
    assert size >= 5000
    members = comps.points[comps.members(label)]
    assert comps.diameters[label] == sim._pairwise_max_dist(members)


def test_component_diameter_falls_back_when_qhull_fails():
    t = np.linspace(0.0, 1.0, 5000)
    pts = np.column_stack([t, t])  # collinear: Qhull has no 2-d hull
    with pytest.raises(QhullError):
        ConvexHull(pts)
    assert sim._component_diameter(pts) == sim._pairwise_max_dist(pts)


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


def test_fixture_has_exactly_one_cross_component_crossing():
    ps, roles = figure_one_pointset()
    g = build_graph(ps, roles["k"], model="mutual")
    comps = components(g)
    assert comps.num_components >= 2
    report = find_crossing_pairs(g)
    assert report.num_crossings == 1
    assert report.quadruples[0] == tuple(roles[r]
                                         for r in ("a1", "a2", "b1", "b2"))
    assert report.frames[0] is not None


def test_crossing_roles_satisfy_ordering_conventions():
    ps, roles = figure_one_pointset()
    g = build_graph(ps, roles["k"], model="mutual")
    report = find_crossing_pairs(g)
    a1, a2, b1, b2 = report.quadruples[0]
    pts = ps.points
    len_a = math.hypot(*(pts[a2] - pts[a1]))
    len_b = math.hypot(*(pts[b2] - pts[b1]))
    assert len_a <= len_b
    assert (math.hypot(*(pts[b1] - pts[a1]))
            <= math.hypot(*(pts[b2] - pts[a1])))


def test_connected_graph_has_no_crossings():
    ps = sample_poisson(500.0, seed=3)
    g = build_graph(ps, k=10, model="mutual")
    comps = components(g)
    if comps.num_components == 1:
        assert find_crossing_pairs(g).num_crossings == 0


def test_crossing_search_reports_planted_crossing():
    # Two crossing segments cannot both be mutual nearest-neighbour pairs,
    # so plant the adjacency directly: a long horizontal edge and a
    # shorter vertical edge through it, in different components.
    pts = np.array([
        [1.0, 1.0], [3.0, 1.0],     # horizontal edge, length 2
        [2.0, 0.5], [2.0, 1.5],     # vertical edge, length 1, crossing it
    ])
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = sim.NearestNeighborGraph(pointset=ps, k=1, model="mutual",
                                 indptr=np.arange(5),
                                 indices=np.array([1, 0, 3, 2]),
                                 dists=np.array([2.0, 2.0, 1.0, 1.0]))
    comps = components(g)
    assert comps.num_components == 2
    report = find_crossing_pairs(g)
    assert report.num_crossings == 1
    quad = report.quadruples[0]
    assert {quad[0], quad[1]} == {2, 3}  # shorter edge takes the a role
    assert {quad[2], quad[3]} == {0, 1}


def _edge_graph(pts, pairs):
    """Mutual graph over ``pts`` whose edges are exactly ``pairs``.

    The point set skips :class:`PointSet`'s window check, so that the
    coordinates may be negative or far from the origin; the crossing
    search reads only the points, the edges and the components.
    """
    ps = object.__new__(PointSet)
    for name, value in (("points", np.ascontiguousarray(pts, dtype=float)),
                        ("seed", 0), ("window", SampleWindow(1.0))):
        object.__setattr__(ps, name, value)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    order = np.lexsort((dst, src))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src,
                                                        minlength=len(pts)))))
    return sim.NearestNeighborGraph(pointset=ps, k=1, model="mutual",
                                    indptr=indptr, indices=dst[order],
                                    dists=np.ones(dst.size))


def _planted_segments(pts):
    """Graph joining points ``2i`` and ``2i + 1``: one component per pair."""
    m = len(pts)
    return _edge_graph(pts, np.arange(m).reshape(-1, 2))


def _all_pairs_reference(g, comps):
    """``(tested, crossings)`` of the crossing search by comparing every
    pair of edges: the pairs in different components with non-zero
    lengths and meeting closed bounding boxes, and the crossing ones among
    them as sets of two edges."""
    pts = g.points
    edges = g.edges()
    lo = np.minimum(pts[edges[:, 0]], pts[edges[:, 1]])
    hi = np.maximum(pts[edges[:, 0]], pts[edges[:, 1]])
    lengths = np.hypot(*(pts[edges[:, 1]] - pts[edges[:, 0]]).T)
    labels = comps.labels[edges[:, 0]]
    tested = 0
    expected = set()
    for i in range(len(edges)):
        j = np.arange(i + 1, len(edges))
        j = j[(labels[j] != labels[i]) & (lengths[j] != 0.0)
              & (lengths[i] != 0.0) & np.all(lo[j] <= hi[i], axis=1)
              & np.all(lo[i] <= hi[j], axis=1)]
        tested += j.size
        for jj in j.tolist():
            if segments_intersect(Segment(Point(*pts[edges[i, 0]]),
                                          Point(*pts[edges[i, 1]])),
                                  Segment(Point(*pts[edges[jj, 0]]),
                                          Point(*pts[edges[jj, 1]]))):
                expected.add(frozenset((frozenset(edges[i].tolist()),
                                        frozenset(edges[jj].tolist()))))
    return tested, expected


def _assert_matches_all_pairs(g):
    comps = components(g)
    report = find_crossing_pairs(g)
    tested, expected = _all_pairs_reference(g, comps)
    found = {frozenset((frozenset(q[:2]), frozenset(q[2:])))
             for q in report.quadruples}
    assert report.candidates_tested == tested
    assert report.num_crossings == len(expected)
    assert found == expected
    assert report.quadruples == sorted(report.quadruples)
    return report, expected


def _mixed_planted_segments():
    """Random segments in separate components, with shared endpoints,
    collinear touching and overlapping ones, and a zero-length edge."""
    rng = np.random.default_rng(8)
    m = 300
    starts = rng.uniform(1.0, 19.0, size=(m, 2))
    ends = np.clip(starts + rng.normal(0.0, 0.7, size=(m, 2)), 0.0, 20.0)
    # Shared endpoints: a segment starting where the previous one ends.
    for i in range(0, 40, 2):
        starts[i + 1] = ends[i]
    # Collinear segments touching end to start, and overlapping ones.
    starts[40:44] = [[2.0, 3.0], [3.0, 3.0], [5.0, 3.0], [5.5, 3.0]]
    ends[40:44] = [[3.0, 3.0], [4.0, 3.0], [6.0, 3.0], [6.5, 3.0]]
    # A zero-length edge lying on another segment.
    starts[44] = ends[44] = [2.5, 3.0]
    pts = np.empty((2 * m, 2))
    pts[0::2] = starts
    pts[1::2] = ends
    return _planted_segments(pts)


def test_crossing_search_matches_all_pairs_reference():
    g = _mixed_planted_segments()
    m = g.n_points // 2
    assert components(g).num_components == m
    report, expected = _assert_matches_all_pairs(g)
    assert len(expected) > 20
    # The planted touching cases are among the hits; the zero-length edge
    # (points 88 and 89) is never tested.
    for i, j in ((0, 1), (40, 41), (42, 43)):
        pair = frozenset((frozenset((2 * i, 2 * i + 1)),
                          frozenset((2 * j, 2 * j + 1))))
        assert pair in expected
    assert not any(88 in q or 89 in q for q in report.quadruples)


def _random_segments(rng, m=400, offset=0.0):
    starts = rng.uniform(0.0, 20.0, size=(m, 2))
    ends = starts + rng.normal(0.0, 0.8, size=(m, 2))
    return _planted_segments(np.stack((starts, ends), axis=1).reshape(-1, 2)
                             + offset)


def _axis_parallel_segments(rng, m=400):
    starts = rng.uniform(0.0, 20.0, size=(m, 2))
    ends = starts.copy()
    # Horizontal, vertical, and a few long ones that set the strip width.
    ends[0::2, 0] += rng.uniform(-1.5, 1.5, size=(m + 1) // 2)
    ends[1::2, 1] += rng.uniform(-1.5, 1.5, size=m // 2)
    ends[:4, 0] = starts[:4, 0] + 4.0
    return _planted_segments(np.stack((starts, ends), axis=1).reshape(-1, 2))


def _strip_multiple_segments(rng, m=400):
    # Every box side is 0 or 1, the widest side W, and every lo.x an
    # integer: boxes touch exactly at strip multiples of the unpadded W.
    lo = np.column_stack((rng.integers(0, 12, size=m),
                          rng.integers(0, 12, size=m))).astype(float)
    step = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    hi = lo + step[rng.integers(0, 4, size=m)]
    return _planted_segments(np.stack((lo, hi), axis=1).reshape(-1, 2))


def _giant_with_minor(rng, m=300):
    # A random walk of 600 steps is one large component; 300 short
    # segments around it are the minor ones.
    walk = np.cumsum(rng.normal(0.0, 0.6, size=(600, 2)), axis=0) + 10.0
    starts = rng.uniform(0.0, 20.0, size=(m, 2))
    ends = starts + rng.normal(0.0, 0.5, size=(m, 2))
    pts = np.vstack((walk, starts, ends))
    path = np.column_stack((np.arange(599), np.arange(1, 600)))
    minor = 600 + np.column_stack((np.arange(m), m + np.arange(m)))
    return _edge_graph(pts, np.vstack((path, minor)))


def _zero_length_segments(rng, m=100):
    return _planted_segments(np.repeat(rng.uniform(0.0, 5.0, size=(m, 2)),
                                       2, axis=0))


def _touching_at_the_widest_side(rng):
    # The giant component's vertical edge, from y = 1.2 to 3.2, is the
    # widest box side W = 3.2 - 1.2 = 2.0000000000000004, and 3.2 - W
    # rounds to 1.1999999999999997, above 1.2 in the other direction: the
    # minor edge along y = 3.2 finds the edge it touches only because the
    # window below it is padded.
    pts = np.array([[5.0, 1.2], [5.0, 3.2], [5.3, 3.0], [4.5, 3.2],
                    [5.5, 3.2]])
    return _edge_graph(pts, [[0, 1], [1, 2], [3, 4]])


def test_every_reported_crossing_keeps_the_canonical_roles():
    # Planted segments cross at any angle and length, so many of their
    # frames are rejected; the quadruple keeps its roles all the same.
    graphs = [_mixed_planted_segments()]
    graphs += [_random_segments(np.random.default_rng(seed))
               for seed in range(5)]
    rejected = 0
    for g in graphs:
        pts = g.points
        report = find_crossing_pairs(g)
        assert report.num_crossings > 0
        for quad, frame in zip(report.quadruples, report.frames):
            a1, a2, b1, b2 = (Point(*pts[v]) for v in quad)
            assert distance(a1, a2) <= distance(b1, b2)
            bseg = Segment(b1, b2)
            gap = point_segment_distance(a1, bseg)
            assert gap <= point_segment_distance(a2, bseg) + 1e-12 * (1 + gap)
            assert distance(a1, b1) <= distance(a1, b2)
            rejected += frame is None
    assert rejected > 0


@pytest.mark.parametrize("make, least", [
    (lambda rng: _random_segments(rng, offset=1e4), 50),
    (lambda rng: _random_segments(rng, offset=-50.0), 50),
    (_axis_parallel_segments, 50),
    (_strip_multiple_segments, 50),
    (_giant_with_minor, 50),
    (_touching_at_the_widest_side, 2),
    (_zero_length_segments, 0),
    (lambda rng: build_graph(sample_poisson(2000.0, 5), 2), 0),
    (lambda rng: build_graph(sample_poisson(2000.0, 5), 6), 0),
], ids=["offset_1e4", "offset_minus_50", "axis_parallel", "strip_multiples",
        "giant_with_minor", "touching_at_the_widest_side", "zero_length",
        "poisson_k2", "poisson_k6"])
def test_crossing_search_matches_all_pairs_on_edge_cases(make, least):
    # Planted segments give at least ``least`` candidates and crossings;
    # zero-length edges and Poisson mutual graphs give none to test.
    g = make(np.random.default_rng(19))
    assert components(g).num_components >= 2
    report, expected = _assert_matches_all_pairs(g)
    assert min(report.candidates_tested, len(expected)) >= least


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_half_disk_check_clean_on_mutual_graphs():
    for seed in (0, 1, 2):
        g = build_graph(sample_poisson(600.0, seed), k=6, model="mutual")
        assert check_half_disk_lemma(g) == []


def test_half_disk_check_detects_removed_edge():
    g = build_graph(sample_poisson(600.0, seed=4), k=8, model="mutual")
    pts = g.points
    planted = None
    for lo, hi in g.edges():
        length = math.hypot(*(pts[hi] - pts[lo]))
        for z in range(len(pts)):
            if z in (lo, hi):
                continue
            if (math.hypot(*(pts[z] - pts[lo])) < length / 2.0
                    and g.has_edge(int(lo), z)):
                planted = (int(lo), int(hi), z)
                break
        if planted:
            break
    assert planted is not None, "no half-disk witness available to corrupt"
    x, y, z = planted
    violations = check_half_disk_lemma(g.without_edges([(x, z)]))
    assert (x, y, z) in violations


def _half_disk_violations_per_edge(g):
    """Per-edge, per-endpoint reference scan in the order of single queries."""
    pts = g.points
    tree = cKDTree(pts)
    out = []
    for lo, hi in g.edges().tolist():
        half = math.hypot(*(pts[hi] - pts[lo])) / 2.0
        for x, other in ((lo, hi), (hi, lo)):
            for z in tree.query_ball_point(pts[x], half):
                if z in (lo, hi):
                    continue
                if (math.hypot(*(pts[z] - pts[x])) < half
                        and not g.has_edge(x, z)):
                    out.append((x, other, z))
    return out


def test_half_disk_check_order_matches_per_edge_scan():
    g = build_graph(sample_poisson(600.0, seed=4), k=8, model="mutual")
    pts = g.points
    # Keep only the two longest edges of the best-connected point x: its
    # other neighbours become non-edges, several inside one half-disk of x
    # and some inside both.
    deg = np.bincount(g.edges().ravel(), minlength=len(pts))
    x = int(np.argmax(deg))
    nbrs = [int(y) for y in g.indices[g.indptr[x]:g.indptr[x + 1]]
            if g.has_edge(x, int(y))]
    nbrs.sort(key=lambda y: math.hypot(*(pts[y] - pts[x])))
    g = g.without_edges([(x, z) for z in nbrs[:-2]])
    violations = check_half_disk_lemma(g)
    from_x = [(y, z) for v, y, z in violations if v == x]
    assert len(from_x) >= 4
    assert any((nbrs[-1], z) in from_x and (nbrs[-2], z) in from_x
               for z in nbrs[:-2])
    assert violations == _half_disk_violations_per_edge(g)


def _half_disk_triples_all_points(g, joined):
    """Reference for ``sim._half_disk_triples`` with no ball query: every
    edge end against every point ``z``, taken in kd-tree leaf order."""
    pts = g.points
    leaf = g.pointset.tree.indices
    dist = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                    pts[:, None, 1] - pts[None, :, 1])
    out = []
    for lo, hi in g.edges().tolist():
        half = math.hypot(*(pts[hi] - pts[lo])) / 2.0
        for x, y in ((lo, hi), (hi, lo)):
            near = leaf[dist[x, leaf] <= half * (1.0 + 1e-6)]
            for z in near.tolist():
                if (z not in (x, y)
                        and math.hypot(*(pts[z] - pts[x])) < half
                        and g.has_edge(x, z) == joined):
                    out.append((x, y, z))
    return out


def test_half_disk_triples_match_all_points_scan():
    rng = np.random.default_rng(23)
    base = rng.uniform(0.0, 10.0, size=(60, 2))
    duplicated = PointSet(points=np.vstack([base, base[:25], base[:8]]),
                          seed=0, window=SampleWindow(256.0))
    graphs = [build_graph(sample_poisson(n, seed), k, model="mutual")
              for n, k in ((300.0, 4), (600.0, 8)) for seed in (0, 1)]
    graphs += [build_graph(duplicated, k, model="mutual") for k in (3, 9)]
    violated = 0
    for g in graphs:
        # Without every other edge, many half-disks hold non-neighbours.
        for h in (g, g.without_edges(g.edges()[::2])):
            for joined in (False, True):
                got = list(sim._half_disk_triples(h, joined))
                assert got == _half_disk_triples_all_points(h, joined)
            violated += len(check_half_disk_lemma(h))
    assert violated >= 200


class _ShrunkTree(cKDTree):
    """A kd-tree that rounds every ball and pair radius down by 1e-10, well
    inside ``sim._SLACK``: a query padded by the slack still finds the
    points on its exact radius, an unpadded one misses them."""

    def query_ball_point(self, x, r, **kwargs):
        return super().query_ball_point(x, np.asarray(r) * (1.0 - 1e-10),
                                        **kwargs)

    def query_pairs(self, r, **kwargs):
        return super().query_pairs(r * (1.0 - 1e-10), **kwargs)


def _with_shrunk_tree(pts, side):
    ps = PointSet(points=pts, seed=0, window=SampleWindow(side * side))
    ps.__dict__["tree"] = _ShrunkTree(ps.points)  # fills the cached_property
    return ps


def test_half_disk_scan_pads_its_ball_radius():
    # |xz| falls short of |xy| / 2 = 1 by 1e-11, and the shrunk tree must
    # still propose z.
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [2.0 - 1e-11, 1.0]])
    g = build_graph(_with_shrunk_tree(pts, 4.0), k=2, model="mutual")
    assert list(sim._half_disk_triples(g, joined=True)) == [(0, 1, 2)]
    assert check_half_disk_lemma(g) == []


def test_condition_three_pads_its_ball_radius():
    # A neighbour exactly D = 8 east of (50, 50) and three at D / 2, at 100,
    # 180 and 260 degrees: the widest gap is 100 degrees, so no half-disk is
    # empty.  Missing the east neighbour leaves a 200-degree gap about 0.
    angles = np.radians([100.0, 180.0, 260.0])
    pts = np.vstack([[[50.0, 50.0], [58.0, 50.0]],
                     [50.0, 50.0] + 4.0 * np.column_stack((np.cos(angles),
                                                           np.sin(angles)))])
    assert sim._empty_half_disk(pts, cKDTree(pts), 0, 8.0, 100.0) is None
    assert sim._empty_half_disk(pts, _ShrunkTree(pts), 0, 8.0, 100.0) is None
    assert sim._empty_half_disk(pts[[0, 2, 3, 4]], cKDTree(pts[[0, 2, 3, 4]]),
                                0, 8.0, 100.0) == 0.0


def test_condition_two_pads_its_pair_radius():
    # Points 0 and 1 are exactly `near` apart and not joined (k = 0); the
    # gilbert graph of that radius joins them.
    n = 100.0
    consts = model_constants(1.0, n=n)
    near = math.sqrt(math.log(n)) / consts.d
    pts = np.array([[0.0, 5.0], [near, 5.0], [9.0, 9.0]])
    ps = _with_shrunk_tree(pts, math.sqrt(n))
    report = check_goodness(build_graph(ps, k=0, model="mutual"), consts)
    assert report.bad[1]
    assert report.witnesses[2] == (0, 1, near)
    g = build_graph(ps, k=0, model="gilbert", radius=near)
    assert g.edges().tolist() == [[0, 1]]


@pytest.mark.parametrize("n", [50, 1000])
def test_unsorted_ball_queries_list_points_in_leaf_order(n):
    # _half_disk_triples takes each half-disk's members from a larger ball
    # about the same point; that keeps their order only if an unsorted
    # ball lists its points in kd-tree leaf order.
    rng = np.random.default_rng(n)
    base = rng.uniform(0.0, math.sqrt(n), size=(n, 2))
    for pts in (base, np.vstack([base, base, base])):
        tree = cKDTree(pts)
        rank = np.argsort(tree.indices)
        centres = pts[rng.integers(0, len(pts), size=100)]
        radii = rng.uniform(0.0, 4.0, size=100)
        balls = tree.query_ball_point(centres, radii, return_sorted=False)
        row, z = sim._ball_members(tree, centres, radii)
        assert row.tolist() == [t for t, ball in enumerate(balls)
                                for _ in ball]
        assert z.tolist() == [i for ball in balls for i in ball]
        assert max(map(len, balls)) >= 20
        for c, r, ball in zip(centres, radii, balls):
            assert tree.query_ball_point(c, r, return_sorted=False) == ball
            assert ball == sorted(ball, key=rank.__getitem__)


def test_intersect_union_degenerate_pairs_are_true():
    g = build_graph(sample_poisson(200.0, 8), k=4, model="mutual")
    e = g.edges()[0]
    assert check_intersect_union_lemma(g, (e[0], e[1], e[1], e[0])) is True
    assert check_intersect_union_lemma(g, (e[0], e[1], e[0], e[1])) is True


def test_intersect_union_needs_both_hypotheses():
    # D(w) = D(x) lies half in D(y) and half in D(z), so the union
    # hypothesis holds, but it reaches past D(z) on the left, so the lens
    # hypothesis fails.  Moving D(y) and D(z) inwards makes both hold.
    g = build_graph(sample_poisson(200.0, 8), k=4, model="mutual")
    disks = list(g._disks)
    disks[:4] = [(1.5, 0.0, 1.2), (1.5, 0.0, 1.2),
                 (0.0, 0.0, 2.5), (3.0, 0.0, 2.5)]
    g.__dict__["_disks"] = disks
    assert sim._area_subset_union(disks[0], disks[2], disks[3])
    assert check_intersect_union_lemma(g, (0, 1, 2, 3)) is None
    disks[2:4] = [(0.5, 0.0, 2.5), (2.5, 0.0, 2.5)]
    edge = any(g.has_edge(p, q) for p in (0, 1) for q in (2, 3))
    assert check_intersect_union_lemma(g, (0, 1, 2, 3)) is edge


def test_intersect_union_sampling_finds_no_counterexamples():
    # Plain samples qualify only in the trivial case {w, x} == {y, z}; with
    # every second point doubled, quadruples reach the edge test too.
    qualified_total = nontrivial_total = 0
    for sample in (sample_poisson, _with_duplicates):
        for seed in (0, 1, 2, 3):
            g = build_graph(sample(800.0, seed), k=9, model="mutual")
            results, tested = sample_intersect_union_quadruples(g, 300, seed)
            assert tested == 300
            qualified_total += len(results)
            nontrivial_total += sum({w, x} != {y, z}
                                    for (w, x, y, z), _ in results)
            assert all(verdict for _, verdict in results)
    assert qualified_total > 0
    assert nontrivial_total > 0


def _reference_quadruple_sample(g, samples, seed):
    """The per-quadruple sampling loop: the same draws as the sampler, each
    decided on its own by :func:`check_intersect_union_lemma`."""
    rng = np.random.default_rng(seed)
    n = g.n_points
    edges = g.edges()
    results = []
    if n < 2:
        return results, 0
    tested = 0
    for _ in range(samples):
        mode = int(rng.integers(3)) if edges.shape[0] else 2
        if mode == 0:
            e = edges[int(rng.integers(edges.shape[0]))]
            y, z = int(e[0]), int(e[1])
            pool = np.unique(np.concatenate((
                g.indices[g.indptr[y]:g.indptr[y + 1]],
                g.indices[g.indptr[z]:g.indptr[z + 1]],
                np.array([y, z], dtype=np.int64))))
            w, x = (int(v) for v in rng.choice(pool, size=2, replace=True))
        elif mode == 1:
            e1 = edges[int(rng.integers(edges.shape[0]))]
            e2 = edges[int(rng.integers(edges.shape[0]))]
            w, x, y, z = int(e1[0]), int(e1[1]), int(e2[0]), int(e2[1])
        else:
            w, x, y, z = (int(v) for v in rng.integers(n, size=4))
        tested += 1
        verdict = check_intersect_union_lemma(g, (w, x, y, z))
        if verdict is not None:
            results.append(((w, x, y, z), bool(verdict)))
    return results, tested


def _with_duplicates(n, seed):
    """A Poisson sample with every second point doubled.  A doubled point
    and its twin share one k-th-neighbour disk, so quadruples such as
    ``(w, x, w, x')`` meet the containment hypotheses without being
    trivially true; plain samples almost never give such quadruples."""
    ps = sample_poisson(n, seed)
    return PointSet(points=np.vstack([ps.points, ps.points[::2]]),
                    seed=seed, window=ps.window)


@pytest.mark.parametrize("n", [300.0, 1000.0, 2000.0])
@pytest.mark.parametrize("k", [3, 5, 12])
@pytest.mark.parametrize("sample", [sample_poisson, _with_duplicates],
                         ids=["plain", "doubled"])
def test_intersect_union_sampler_matches_per_quadruple_loop(n, k, sample):
    for seed in (0, 1, 2):
        g = build_graph(sample(n, seed), k=k, model="mutual")
        expected = _reference_quadruple_sample(g, 150, seed + 7)
        assert sample_intersect_union_quadruples(g, 150, seed + 7) == expected


def test_intersect_union_sampler_matches_loop_on_missing_edges(monkeypatch):
    # Hide the edges that every second non-trivial qualifying quadruple relies
    # on: the same draws then qualify, those quadruples become violations,
    # and the verdicts of one batch of edge tests come out mixed.
    g = build_graph(_with_duplicates(300.0, 0), k=3, model="mutual")
    results, _ = sample_intersect_union_quadruples(g, 300, 4)
    nontrivial = [(w, x, y, z) for (w, x, y, z), _ in results
                  if {w, x} != {y, z}]
    hidden = {(min(p, q), max(p, q)) for w, x, y, z in nontrivial[::2]
              for p, q in ((w, y), (w, z), (x, y), (x, z))}
    has_edges = g.has_edges

    def fewer_edges(a, b):
        hit = has_edges(a, b)
        for t, pair in enumerate(zip(np.minimum(a, b), np.maximum(a, b))):
            hit[t] &= pair not in hidden
        return hit

    monkeypatch.setattr(g, "has_edges", fewer_edges)
    planted, tested = sample_intersect_union_quadruples(g, 300, 4)
    assert (planted, tested) == _reference_quadruple_sample(g, 300, 4)
    assert [quad for quad, _ in planted] == [quad for quad, _ in results]
    verdict = dict(planted)
    assert len(nontrivial) >= 4
    assert not any(verdict[quad] for quad in nontrivial[::2])
    assert any(verdict[quad] for quad in nontrivial[1::2])


@pytest.mark.parametrize("model", ["either", "gilbert"])
@pytest.mark.parametrize("check, prop", [
    (check_half_disk_lemma, "half-neighbourhood containment"),
    (lambda g: check_intersect_union_lemma(g, (0, 1, 2, 3)),
     "the containment implication"),
    (lambda g: sample_intersect_union_quadruples(g, 10, 3),
     "the containment implication"),
    (check_farapart, "the separation property"),
], ids=["half-disk", "intersect-union", "sampler", "farapart"])
def test_mutual_only_checks_reject_other_models(check, prop, model):
    radius = 1.5 if model == "gilbert" else None
    g = build_graph(sample_poisson(200.0, 3), k=4, model=model,
                    radius=radius)
    with pytest.raises(ValueError, match="^%s holds for the mutual model; "
                                         "got '%s'$" % (prop, model)):
        check(g)


def _near_tangent_triples(rng, count):
    """Random disks in a side-100 window, and disk pairs within 1e-15 to
    1e-8 of external tangency with a third disk across the touching point."""
    for _ in range(count):
        x0, y0 = rng.uniform(0.0, 100.0, 2)
        r0, r1, r2 = rng.uniform(0.5, 5.0, 3)
        if rng.random() < 0.5:
            yield ((x0, y0, r0),
                   tuple(rng.uniform(-3.0, 3.0, 2) + (x0, y0)) + (r1,),
                   tuple(rng.uniform(-3.0, 3.0, 2) + (x0, y0)) + (r2,))
            continue
        theta = rng.uniform(0.0, 2.0 * math.pi)
        d = r0 + r1 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, -8)
        tx, ty = x0 + r0 * math.cos(theta), y0 + r0 * math.sin(theta)
        disks = [(x0, y0, r0),
                 (x0 + d * math.cos(theta), y0 + d * math.sin(theta), r1),
                 (tx + rng.uniform(-r2, r2), ty + rng.uniform(-r2, r2), r2)]
        rng.shuffle(disks)
        yield tuple(disks)


@pytest.mark.parametrize("rel_tol", [1e-9, 0.0])
def test_area_subset_union_prefilter_keeps_the_verdict(rel_tol):
    # The full inclusion-exclusion residual, with the triple area always
    # computed, must give the same verdict as the pre-filtered one.
    def full(a, c, d):
        area_a = math.pi * a[2] * a[2]
        ac = disk_lens_area(math.hypot(a[0] - c[0], a[1] - c[1]), a[2], c[2])
        ad = disk_lens_area(math.hypot(a[0] - d[0], a[1] - d[1]), a[2], d[2])
        acd = disks_intersection_area([a, c, d])
        return area_a - ac - ad + acd <= rel_tol * area_a

    rng = np.random.default_rng(17)
    verdicts = []
    for a, c, d in _near_tangent_triples(rng, 3000):
        for order in ((a, c, d), (c, a, d), (d, a, c)):
            verdict = sim._area_subset_union(*order, rel_tol=rel_tol)
            assert verdict == full(*order), order
            verdicts.append(verdict)
    # A disk inside one disk and apart from the other is covered with a
    # residual of exactly zero, on the pre-filter's boundary at rel_tol 0.
    inside = ((1.0, 1.0, 0.5), (1.2, 1.0, 2.0), (9.0, 9.0, 1.0))
    assert sim._area_subset_union(*inside, rel_tol=rel_tol) is True
    assert full(*inside)
    assert 0 < sum(verdicts) < len(verdicts)


def test_farapart_clean_on_mutual_graphs():
    for seed in (0, 1):
        g = build_graph(sample_poisson(900.0, seed), k=3, model="mutual")
        assert check_farapart(g) == []


def test_farapart_detects_planted_foreign_point():
    # A foreign point this close to an edge cannot occur in a real mutual
    # graph (that is the content of the check), so plant the adjacency
    # adjacency: edge (0, 1) of length 1 with an isolated point 2 only 0.05
    # above its midpoint, well inside rho / (4 sqrt(6)) ~ 0.102.
    pts = np.array([
        [1.0, 1.0], [2.0, 1.0],
        [1.5, 1.05],
    ])
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = sim.NearestNeighborGraph(pointset=ps, k=1, model="mutual",
                                 indptr=np.array([0, 1, 2, 2]),
                                 indices=np.array([1, 0]),
                                 dists=np.array([1.0, 1.0]))
    violations = check_farapart(g)
    assert len(violations) == 1
    cand, b1, b2, dist, rho = violations[0]
    assert cand == 2 and {b1, b2} == {0, 1}
    assert dist == pytest.approx(0.05)
    assert rho == 1.0


def _chains(pts, groups, side=100.0):
    """Planted mutual graph joining each group of point indices in a path."""
    m = len(pts)
    nbrs = [[] for _ in range(m)]
    for group in groups:
        for i, j in zip(group, group[1:]):
            nbrs[i].append(j)
            nbrs[j].append(i)
    pts = np.asarray(pts, dtype=float)
    indices = np.array([j for row in nbrs for j in sorted(row)],
                       dtype=np.int64)
    owners = np.repeat(np.arange(m), [len(row) for row in nbrs])
    ps = PointSet(points=pts, seed=0, window=SampleWindow(side * side))
    return sim.NearestNeighborGraph(
        pointset=ps, k=1, model="mutual",
        indptr=np.concatenate(([0], np.cumsum([len(row) for row in nbrs]))),
        indices=indices,
        dists=np.hypot(*(pts[indices] - pts[owners]).T))


def _farapart_per_edge(g, comps):
    """The per-edge scan that check_farapart must reproduce, order too."""
    pts = g.points
    tree = cKDTree(pts)
    violations = []
    for b1, b2 in g.edges().tolist():
        rho = float(np.hypot(*(pts[b2] - pts[b1])))
        if rho == 0.0:
            continue
        seg = Segment(Point(*pts[b1]), Point(*pts[b2]))
        cutoff = rho * sim.FARAPART_RATIO
        search = rho * (0.5 + sim.FARAPART_RATIO) * (1.0 + 1e-9)
        for cand in tree.query_ball_point((pts[b1] + pts[b2]) / 2.0, search):
            if comps.labels[cand] == comps.labels[b1]:
                continue
            dist = point_segment_distance(Point(*pts[cand]), seg)
            if dist < cutoff - 1e-12 * rho:
                violations.append((cand, b1, b2, dist, rho))
    return violations


def _planted_farapart(rng):
    """Chains of three points with foreign points planted near their edges.

    Near the first edge of every other chain: a point above the midpoint,
    some on the cutoff itself.  Near one end of its second edge: a point
    within the cutoff of the segment but farther than ``rho * (1/2 +
    FARAPART_RATIO)`` from the other end.  And a zero-length edge.
    """
    pts = rng.uniform(5.0, 95.0, size=(90, 2))
    groups = [list(range(i, i + 3)) for i in range(0, 90, 3)]
    for i in range(0, 90, 6):
        a, b = pts[i], pts[i + 1]
        u = (b - a) / np.hypot(*(b - a))
        offset = (np.hypot(*(b - a)) * sim.FARAPART_RATIO
                  * rng.choice([0.2, 0.9, 1.0, 1.1]))
        pts[i + 3] = (a + b) / 2.0 + offset * np.array([-u[1], u[0]])
        end, other = pts[[i + 1, i + 2][::rng.choice([1, -1])]]
        rho = np.hypot(*(other - end))
        u = (other - end) / rho
        along = rho * rng.choice([-0.03, 0.02, 0.1])
        offset = rho * sim.FARAPART_RATIO * rng.choice([0.5, 0.9])
        pts[i + 4] = end + along * u + offset * np.array([-u[1], u[0]])
    pts[89] = pts[88]
    return _chains(pts + 50.0, groups, side=200.0)


def test_farapart_matches_per_edge_scan_on_planted_violations():
    rng = np.random.default_rng(12)
    for rep in range(8):
        g = _planted_farapart(rng)
        shrunk = replace(g, pointset=_with_shrunk_tree(g.points, 200.0))
        for h in (g, g.without_edges(g.edges()[::4]), shrunk):
            expected = _farapart_per_edge(h, components(h))
            assert len(expected) > 5
            assert check_farapart(h) == expected
        # Each point planted near one end is a violation out of reach of a
        # ball about the other end.
        pts = g.points
        found = {(a, b1, b2) for a, b1, b2, _, _ in check_farapart(g)}
        for a, b1, b2 in ((i + 4, i + 1, i + 2) for i in range(0, 90, 6)):
            rho = math.hypot(*(pts[b2] - pts[b1]))
            assert (a, b1, b2) in found
            assert max(math.hypot(*(pts[a] - pts[b1])),
                       math.hypot(*(pts[a] - pts[b2]))) > 0.9 * rho
    for seed in (0, 1):
        g = build_graph(sample_poisson(400.0, seed), k=1, model="mutual")
        comps = components(g)
        assert check_farapart(g) == _farapart_per_edge(g, comps)


def test_farapart_makes_one_ball_query_with_at_most_one_centre_per_point():
    # With every edge of point 0 removed the graph is disconnected, so the
    # scan runs, and it has about three times as many edges as points.
    g = build_graph(sample_poisson(1000.0, 0), k=7, model="mutual")
    g = g.without_edges([(0, int(j)) for j in g.indices[g.indptr[0]:
                                                        g.indptr[1]]])
    calls = []

    class CountingTree(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            calls.append(len(np.atleast_2d(x)))
            return super().query_ball_point(x, r, **kwargs)

    expected = _farapart_per_edge(g, components(g))
    g.pointset.__dict__["tree"] = CountingTree(g.points)
    assert check_farapart(g) == expected
    assert g.edges().shape[0] > 2 * g.n_points
    assert len(calls) == 1 and calls[0] <= g.n_points


def _exact_d(root, target):
    """A model ``d`` with ``d * root == target`` exactly in floats."""
    d = target / root
    while d * root < target:
        d = math.nextafter(d, math.inf)
    while d * root > target:
        d = math.nextafter(d, -math.inf)
    assert d * root == target
    return d


def test_goodness_diameter_sides_match_exact_diameters():
    # D = 3 exactly.  Components: a lattice pair exactly D apart near a
    # corner; a wide and a narrow triangle whose bounding boxes straddle
    # D; the same narrow triangle next to a corner; a long chain; small
    # pairs; a 3-4-5 pair whose diameter is its bounding-box diagonal.
    pts = [[1.0, 5.0], [4.0, 5.0],
           [50.0, 50.0], [52.0, 52.5], [51.0, 50.2],
           [60.0, 60.0], [62.2, 60.1], [60.1, 62.2],
           [1.0, 1.0], [3.2, 1.1], [1.1, 3.2],
           [70.0, 30.0], [73.0, 31.0], [76.0, 30.0], [79.0, 31.0],
           [90.0, 90.0], [90.5, 90.5], [97.0, 2.0], [98.0, 3.0],
           [10.0, 80.0], [13.0, 84.0]]
    groups = [[0, 1], [2, 3, 4], [5, 6, 7], [8, 9, 10], [11, 12, 13, 14],
              [15, 16], [17, 18], [19, 20]]
    g = _chains(pts, groups)
    comps = components(g)
    n = g.pointset.window.n
    root = math.sqrt(math.log(n))
    corners = np.array(g.pointset.window.corners)
    straddled = set()
    for big_d in (3.0, 2.97, 3.2, 1.5, 5.0, 9.0, 12.0):
        consts = ModelConstants(c=1.0, c_minus=0.5, c_plus=23.9,
                                d=_exact_d(root, big_d))
        report = check_goodness(g, consts)
        diameters = comps.diameters
        wide = sorted(c for c, diam in diameters.items() if diam >= big_d)
        assert report.bad[3] == (len(wide) >= 2)
        assert report.witnesses.get(4) == (wide[:2] if len(wide) >= 2
                                           else None)
        corner = None
        for c, diam in diameters.items():
            if diam > big_d:
                continue
            members = comps.members(c)
            dmin = np.hypot(*(g.points[members, None, :]
                              - corners[None, :, :]).transpose(2, 0, 1)).min()
            if dmin <= 2.0 * big_d:
                corner = (c, float(dmin))
                break
        assert report.bad[4] == (corner is not None)
        assert report.witnesses.get(5) == corner
        for c in diameters:
            extent = np.ptp(comps.points[comps.members(c)], axis=0)
            if extent.max() <= big_d <= np.hypot(*extent):
                straddled.add(c)
    assert diameters[0] == 3.0 and diameters[19] == 5.0
    assert {0, 2, 5, 8, 19} <= straddled


@pytest.mark.parametrize("pts", [np.zeros((0, 2)), np.array([[3.0, 4.0]])],
                         ids=["empty", "one-point"])
def test_structure_checks_run_on_tiny_point_sets(pts):
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = build_graph(ps, k=5, model="mutual")
    comps = components(g)
    assert comps.num_components == len(pts)
    assert comps.component_ids == list(range(len(pts)))
    assert find_crossing_pairs(g).num_crossings == 0
    assert check_half_disk_lemma(g) == []
    assert check_farapart(g) == []
    assert sample_intersect_union_quadruples(g, 10, 0) == ([], 0)
    report = check_goodness(g, model_constants(1.0, n=100.0))
    # The lone point is a component of diameter 0, 5 from a corner.
    assert report.witnesses == ({5: (0, 5.0)} if len(pts) else {})


def test_goodness_all_conditions_pass_on_dense_graph():
    n, c = 2000.0, 1.2
    g = build_graph(sample_poisson(n, 0), k=math.ceil(c * math.log(n)),
                    model="mutual")
    report = check_goodness(g, model_constants(c, n=n))
    assert report.good
    assert report.witnesses == {}


def test_goodness_flags_sparse_two_cluster_configuration():
    rng = np.random.default_rng(5)
    cluster_a = rng.uniform(0.0, 0.1, size=(20, 2)) + [2.0, 2.0]
    cluster_b = rng.uniform(0.0, 0.1, size=(20, 2)) + [8.0, 8.0]
    pts = np.vstack([cluster_a, cluster_b])
    ps = PointSet(points=pts, seed=0, window=SampleWindow(100.0))
    g = build_graph(ps, k=3, model="mutual")
    consts = model_constants(1.0, n=100.0)
    report = check_goodness(g, consts)
    # Non-edges exist inside the clusters at tiny separation (condition 2)
    # and both small components sit within 2 D of a corner (condition 5).
    assert report.bad[1]
    near = math.sqrt(math.log(100.0)) / consts.d
    first = next((int(i), int(j)) for i, j in cKDTree(pts).query_pairs(
        near, output_type="ndarray") if not g.has_edge(int(i), int(j)))
    assert report.witnesses[2][:2] == first
    assert report.bad[4]
    assert not report.bad[0]
    assert not report.bad[3]
    assert not report.bad[5]
    assert not report.good


def test_goodness_detects_empty_half_disk():
    # Two lonely points near the top of a side-100 window: the half-disk
    # of radius D ~ 32 pointing straight down from either point is empty
    # and fits inside the window.
    pts = np.array([[50.0, 80.0], [50.0, 80.5]])
    ps = PointSet(points=pts, seed=0, window=SampleWindow(10000.0))
    g = build_graph(ps, k=1, model="mutual")
    report = check_goodness(g, model_constants(1.0, n=10000.0))
    assert report.bad[2]
    idx, direction = report.witnesses[3]
    assert idx in (0, 1)
    assert 0.0 <= direction < 2.0 * math.pi


@pytest.mark.parametrize("others", [
    [[40.0, 50.0]],                   # one neighbour
    [[40.0, 50.0], [45.0, 50.0]],     # two neighbours on one ray
    [[40.0, 50.0], [40.0, 50.0]],     # a duplicated neighbour
    [[50.0, 50.0], [50.0, 50.0]],     # the point itself, twice more
])
def test_empty_half_disk_when_neighbours_share_one_direction(others):
    # Every neighbour of (50, 50) lies in one direction, so the rest of the
    # circle is free and a half-disk of radius 31.9 fits in the side-100
    # window.
    pts = np.array([[50.0, 50.0]] + others)
    radius, side = 31.9, 100.0
    u = sim._empty_half_disk(pts, cKDTree(pts), 0, radius, side)
    assert u is not None
    # No neighbour lies strictly within pi/2 of u ...
    assert np.all((pts[1:] - pts[0]) @ [math.cos(u), math.sin(u)] <= 0.0)
    # ... and the half-disk, diameter ends included, lies in the window.
    t = u + np.linspace(-math.pi / 2.0, math.pi / 2.0, 10001)
    arc = pts[0] + radius * np.column_stack((np.cos(t), np.sin(t)))
    assert np.all((arc >= 0.0) & (arc <= side))
    ps = PointSet(points=pts, seed=0, window=SampleWindow(side * side))
    assert _check_condition_three(ps, _small_d(side * side, radius))[0] == 0


def _check_condition_three(ps, consts, k=3):
    """Compare condition 3 of ``check_goodness`` with a scan of every point.

    Also checks that every point with an empty half-disk survives the
    pre-filter, not just the first.  Returns the reference witness.
    """
    pts = ps.points
    radius = consts.d * math.sqrt(math.log(ps.window.n))
    side = ps.window.side
    tree = cKDTree(pts)
    found = [(i, sim._empty_half_disk(pts, tree, i, radius, side))
             for i in range(len(pts))]
    accepted = [(i, float(u)) for i, u in found if u is not None]
    expected = accepted[0] if accepted else None
    report = check_goodness(build_graph(ps, k=k, model="mutual"), consts)
    assert report.bad[2] == (expected is not None)
    assert report.witnesses.get(3) == expected
    survivors = sim._half_disk_survivors(pts, radius, side).tolist()
    assert survivors == sorted(set(survivors))
    assert {i for i, _ in accepted} <= set(survivors)
    return expected


def _small_d(n, radius):
    """Constants whose ``D = d sqrt(log n)`` equals ``radius``."""
    return ModelConstants(c=1.0, c_minus=0.5, c_plus=23.9,
                          d=radius / math.sqrt(math.log(n)))


@pytest.mark.parametrize("n", [1000.0, 2000.0])
def test_condition_three_matches_full_scan_on_poisson_graphs(n):
    for seed in (0, 1):
        ps = sample_poisson(n, seed)
        k = math.ceil(1.2 * math.log(n))
        # At the model's D condition 3 never fires; at D = 1.4 nearly every
        # point passes the fit test, and many fire.
        assert _check_condition_three(ps, model_constants(1.2, n=n), k) is None
        assert _check_condition_three(ps, _small_d(n, 1.4), k) is not None


def test_fit_test_leaves_no_point_when_the_window_is_small():
    # At n = 1000 the window's half-diagonal, 22.4, is below D = 27.7, so no
    # half-disk fits and condition 3 scans no point.
    ps = sample_poisson(1000.0, 0)
    radius = model_constants(1.0, n=1000.0).d * math.sqrt(math.log(1000.0))
    assert radius > ps.window.side / math.sqrt(2.0)
    assert sim._half_disk_survivors(ps.points, radius, ps.window.side).size == 0


def _cone_under_a_hole():
    # Background points around an empty box near the bottom wall, and a
    # point 5 above the wall over a narrow cone of three neighbours: the
    # half-disk of radius D ~ 32 pointing up from it is empty and fits, so
    # condition 3 fires there, behind background points that do not.
    rng = np.random.default_rng(3)
    bg = rng.uniform(0.0, 100.0, size=(1500, 2))
    bg = bg[~((np.abs(bg[:, 0] - 50.0) < 40.0) & (bg[:, 1] < 45.0))]
    cone = np.array([[50.0, 3.0], [49.7, 2.0], [50.3, 2.5]])
    pts = np.vstack([bg[:3], [[50.0, 5.0]], cone, bg[3:]])
    return pts, 10000.0, model_constants(1.0, n=10000.0), 3


def _touching_two_walls():
    # A lone point on the bottom wall at distance D from the left wall: the
    # half-disk pointing up touches both walls, and the fit test holds with
    # equality.
    consts = model_constants(1.0, n=10000.0)
    radius = consts.d * math.sqrt(math.log(10000.0))
    return np.array([[radius, 0.0]]), 10000.0, consts, 0


def _lattice_with_duplicates():
    # Unit lattice on a side-10 window with a 5 x 5 block removed except its
    # centre, which is doubled, as is every fourth other lattice point; D is
    # 1.5.  Straight edges leave gaps of exactly pi, which must not fire.
    grid = [(float(x), float(y)) for y in range(11) for x in range(11)
            if not (3 <= x <= 7 and 3 <= y <= 7) or (x, y) == (5, 5)]
    pts = np.array(grid + [(5.0, 5.0)] + grid[1::4])
    return pts, 100.0, _small_d(100.0, 1.5), grid.index((5.0, 5.0))


@pytest.mark.parametrize("make", [_cone_under_a_hole, _touching_two_walls,
                                  _lattice_with_duplicates])
def test_condition_three_matches_full_scan_on_planted_sets(make):
    pts, n, consts, index = make()
    ps = PointSet(points=pts, seed=0, window=SampleWindow(n))
    expected = _check_condition_three(ps, consts)
    assert expected is not None and expected[0] == index


# ---------------------------------------------------------------------------
# connectivity experiments
# ---------------------------------------------------------------------------


def test_wilson_interval_basic_properties():
    lo, hi = wilson_interval(8, 10)
    assert 0.0 <= lo < 0.8 < hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, 20)[0] == 0.0
    assert wilson_interval(20, 20)[1] == 1.0


def test_estimate_connectivity_is_reproducible():
    kwargs = dict(n=300.0, c_values=[0.2, 2.0], trials=5, master_seed=77)
    a = estimate_connectivity(**kwargs)
    b = estimate_connectivity(**kwargs)
    assert a == b
    assert a[0].k == math.ceil(0.2 * math.log(300.0))
    assert a[1].connected_frac >= a[0].connected_frac
    for est in a:
        assert est.trials == 5
        assert 0.0 <= est.wilson_lo <= est.connected_frac <= est.wilson_hi <= 1.0
        assert len(est.results) == 5
        for r in est.results:
            assert r.connected == (r.num_components <= 1)
    # The sparse row has trials of three or more components; recount the
    # second-largest component of each from a fresh build.
    sparse = a[0]
    assert any(r.num_components >= 3 for r in sparse.results)
    seconds = []
    for r in sparse.results:
        sizes = components(build_graph(sample_poisson(300.0, r.seed), r.k,
                                       model="mutual")).sizes_sorted()
        seconds.append(sizes[1] if len(sizes) > 1 else 0)
        assert r.second_component_size == seconds[-1]
    assert sparse.max_small_component == max(seconds) > 0


def test_trial_results_vary_with_trial_index():
    est = estimate_connectivity(200.0, [1.0], trials=4, master_seed=0)[0]
    seeds = {r.seed for r in est.results}
    assert len(seeds) == 4


def test_figure_one_pointset_deterministic():
    a, _ = figure_one_pointset()
    b, _ = figure_one_pointset()
    assert np.array_equal(a.points, b.points)
