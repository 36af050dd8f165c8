"""A deterministic point set whose mutual kNN graph has a cross-component
edge crossing, and the normalization of that crossing into canonical
coordinates.

The configuration places two anchor points and two opposite-side points in
a unit-scale crossing position, then surrounds them with tight clusters
that pin down everyone's k-th nearest-neighbour distances.  The resulting
graph splits into many components and exhibits exactly one crossing between
edges of different components.  The crossing is then normalized: the
shorter edge takes the (a1, a2) roles, the longer edge maps to the unit
segment b1 = (0,0), b2 = (1,0), and a similarity (plus a reflection if
needed) puts a1 above the axis and a2 below.

Run:  python demos/crossing_showcase.py
"""

from __future__ import annotations

from knnlab.regions import build_named_regions
from knnlab.sim import build_graph, components, figure_one_pointset, \
    find_crossing_pairs


def main() -> None:
    ps, roles = figure_one_pointset()
    print("deterministic point set: %d points, window side %.2f"
          % (len(ps), ps.window.side))
    g = build_graph(ps, roles["k"], model="mutual")
    comps = components(g)
    sizes = sorted(comps.sizes.values(), reverse=True)
    print("graph at k = %d: %d edges, %d components, sizes %s"
          % (roles["k"], len(g.edges()), comps.num_components, sizes))

    report = find_crossing_pairs(g)
    print("cross-component crossings found: %d (from %d candidate pairs)"
          % (report.num_crossings, report.candidates_tested))
    (a1, a2, b1, b2) = report.quadruples[0]
    print("crossing quadruple (a1, a2, b1, b2) = (%d, %d, %d, %d)"
          % (a1, a2, b1, b2))
    print("planted roles were                    (%d, %d, %d, %d)"
          % (roles["a1"], roles["a2"], roles["b1"], roles["b2"]))

    frame = report.frames[0]
    nmap = report.maps[0]
    print()
    print("normalized crossing frame:")
    print("  a1 = (%.6f, %+.6f)   (above the axis)" % (frame.a1.x, frame.a1.y))
    print("  a2 = (%.6f, %+.6f)   (below the axis)" % (frame.a2.x, frame.a2.y))
    print("  b1 = (0, 0), b2 = (1, 0) by construction")
    print("  scale %.6f, reflected: %s" % (nmap.scale, nmap.reflected))
    print("  radii r1 = %.6f, r2 = %.6f" % (frame.r1, frame.r2))

    named = build_named_regions(frame)
    print()
    print("named analysis regions at this frame: %s"
          % ", ".join(named))


if __name__ == "__main__":
    main()
