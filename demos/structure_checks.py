"""Deterministic structural laws of the mutual kNN graph, checked exactly.

Three provable properties of the mutual model are verified on sampled
graphs with exact geometric predicates (no floating-point shortcuts on the
decisions that matter):

* half-disk: for an edge x y of length L, every point strictly inside the
  open disk of radius L/2 around an endpoint is joined to that endpoint;
* far-apart: a point from another component keeps distance at least
  rho / (4 sqrt(6)) from any edge of length rho;
* containment implication: when the neighbourhood disk of each of w, x is
  covered by the union for y, z (and the w-x lens fits in each), one of the
  four cross pairs must be an edge.  On plain Poisson samples the
  quadruples that qualify are almost always the trivial ones with
  {w, x} == {y, z}, so the totals say how many were not.

A goodness report then evaluates six conditions that together describe
the typical geometry of a near-threshold graph.  All six are exact.
Condition 3 (an empty half-disk of radius D in the window) meets, per
point, the closed arc of directions whose half-disk fits the window with
the open arc whose half-disk holds no other point; both are closed form.

Run:  python demos/structure_checks.py [seeds]
"""

from __future__ import annotations

import math
import sys

from knnlab.bounds import model_constants
from knnlab.sim import (
    build_graph,
    check_farapart,
    check_goodness,
    check_half_disk_lemma,
    components,
    sample_intersect_union_quadruples,
    sample_poisson,
)


def main(seeds: int = 10) -> None:
    n, c = 1000.0, 1.0
    k = math.ceil(c * math.log(n))
    print("n = %g, k = %d, %d seeds" % (n, k, seeds))
    print()
    print("%5s %7s %6s | %9s %9s %12s %12s" %
          ("seed", "points", "comps", "half-disk", "far-apart",
           "implication", "qualified"))
    totals = [0, 0, 0, 0, 0]
    for seed in range(seeds):
        ps = sample_poisson(n, seed)
        g = build_graph(ps, k, model="mutual")
        comps = components(g)
        hd = check_half_disk_lemma(g)
        fa = check_farapart(g)
        results, _ = sample_intersect_union_quadruples(g, 200, seed)
        bad = sum(1 for _, verdict in results if not verdict)
        totals[0] += len(hd)
        totals[1] += len(fa)
        totals[2] += bad
        totals[3] += len(results)
        totals[4] += sum({w, x} != {y, z} for (w, x, y, z), _ in results)
        print("%5d %7d %6d | %9d %9d %12d %12d" %
              (seed, len(ps), comps.num_components, len(hd), len(fa),
               bad, len(results)))
    print("%s" % ("-" * 66))
    print("totals: %d half-disk, %d far-apart, %d implication failures "
          "over %d qualified quadruples, %d of them non-trivial"
          % tuple(totals))
    if totals[4] == 0:
        print("(every qualifying quadruple had {w, x} == {y, z}, so no "
              "edge test of the implication ran)")
    assert totals[0] == totals[1] == totals[2] == 0

    print()
    n_good = 2000.0
    c_good = 1.2
    g = build_graph(sample_poisson(n_good, 0),
                    math.ceil(c_good * math.log(n_good)), model="mutual")
    report = check_goodness(g, model_constants(c_good, n=n_good))
    print("goodness report at n = %g, c = %.1f:" % (n_good, c_good))
    labels = (
        "edge joins tiles farther than 2D apart",
        "near pair that is not an edge",
        "empty half-disk of radius D in the window",
        "two components of diameter at least D",
        "small component within 2D of a corner",
        "cross-component edge crossing",
    )
    for i, label in enumerate(labels):
        print("  condition %d (%s): %s"
              % (i + 1, label, "BAD" if report.bad[i] else "ok"))
    print("  overall: %s" % ("good" if report.good else "bad"))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 10)
