"""In-memory span recorder wrapped around knnlab's layer functions.

``Tracer.install()`` replaces module attributes of ``knnlab._census``,
``knnlab.bounds``, ``knnlab.sim`` and ``knnlab.cli`` with timing wrappers,
so internal callers that look the name up in their module (``run_trial``
calling ``build_graph``, ``_max_second_component`` re-simulating a trial)
are timed as well.  ``uninstall()`` puts the originals back, which keeps
untraced passes free of wrapper cost.  Each span records its name, parent
span, start and end; counts of work are taken from the returned objects.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

FAMILIES = ("L_plus", "L_minus", "H_plus", "H_minus")
SIM_CHECKS = ("check_goodness", "check_half_disk_lemma", "check_farapart",
              "sample_intersect_union_quadruples")


def _census_count(family):
    def count(counts, result):
        counts["census.%s.candidates" % family] += result.candidates
    return count


def _count_points(counts, result):
    counts["sim.build_graph.points"] += result.n_points


def _count_edges(counts, result):
    counts["sim.edges.count"] += len(result)


def _count_components(counts, result):
    counts["sim.components.count"] += result.num_components


def _count_crossings(counts, result):
    counts["sim.find_crossing_pairs.candidates_tested"] += result.candidates_tested
    counts["sim.find_crossing_pairs.crossings"] += result.num_crossings


# (module, attribute path, span name, counter taking (counts, result))
LAYERS = (
    [("knnlab._census", "census_" + f, "census." + f, _census_count(f))
     for f in FAMILIES]
    + [("knnlab.bounds", "verify_" + f, "bounds.verify_" + f, None)
       for f in FAMILIES]
    + [("knnlab.bounds", "crossing_ratio", "bounds.crossing_ratio", None),
       ("knnlab.bounds", "model_constants", "bounds.model_constants", None),
       ("knnlab.sim", "sample_poisson", "sim.sample_poisson", None),
       ("knnlab.sim", "build_graph", "sim.build_graph", _count_points),
       ("knnlab.sim", "NearestNeighborGraph.edges", "sim.edges", _count_edges),
       ("knnlab.sim", "components", "sim.components", _count_components),
       ("knnlab.sim", "find_crossing_pairs", "sim.find_crossing_pairs",
        _count_crossings),
       ("knnlab.sim", "run_trial", "sim.run_trial", None),
       ("knnlab.sim", "estimate_connectivity", "sim.estimate_connectivity",
        None)]
    + [("knnlab.sim", c, "sim." + c, None) for c in SIM_CHECKS]
    + [("knnlab.cli", "main", "cli", None)]
)


class Tracer:
    """Records spans ``(trace id, span id, parent id, name, start, end)``."""

    def __init__(self, trace_id):
        self.spans = []
        self.counts = Counter()
        self.trace_id = trace_id
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.trace_id, sid, parent, name, t0, t1)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self.counts, result)
            return result
        return traced

    def _wrap_edges(self, fn, counter):
        # ``edges()`` caches its array and ``has_edge`` calls it per query;
        # only the call that builds the array is a span.
        traced = self._wrap("sim.edges", fn, counter)

        def edges(graph):
            if getattr(graph, "_edges", None) is not None:
                return fn(graph)
            return traced(graph)
        return edges

    def install(self):
        for module_name, path, name, counter in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name == "sim.edges":
                setattr(owner, attr, self._wrap_edges(original, counter))
            else:
                setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self):
        """Per-layer times and counts of the recorded spans."""
        spans = self.spans
        dur = [t1 - t0 for (_, _, _, _, t0, t1) in spans]
        own = list(dur)
        for i, (_, _, parent, _, _, _) in enumerate(spans):
            if parent >= 0:
                own[parent] -= dur[i]
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (_, _, _, name, _, _) in enumerate(spans):
            total[name] += dur[i]
            self_s[name] += own[i]
        c = self.counts
        m = {}
        for f in FAMILIES:
            cand = c["census.%s.candidates" % f]
            m["census.%s.s" % f] = total["census." + f]
            m["census.%s.candidates" % f] = cand
            m["census.%s.us_per_candidate" % f] = (
                1e6 * total["census." + f] / cand if cand else 0.0)
        m["census.candidates"] = sum(c["census.%s.candidates" % f]
                                      for f in FAMILIES)
        m["bounds.verify.self_s"] = sum(self_s["bounds.verify_" + f]
                                        for f in FAMILIES)
        m["bounds.crossing_ratio.self_s"] = self_s["bounds.crossing_ratio"]
        m["bounds.model_constants.s"] = total["bounds.model_constants"]
        m["cli.self_s"] = self_s["cli"]
        m["sim.sample_poisson.s"] = total["sim.sample_poisson"]
        m["sim.build_graph.s"] = total["sim.build_graph"]
        m["sim.build_graph.calls"] = c["sim.build_graph.calls"]
        m["sim.build_graph.points"] = c["sim.build_graph.points"]
        m["sim.edges.self_s"] = self_s["sim.edges"]
        m["sim.edges.count"] = c["sim.edges.count"]
        m["sim.components.self_s"] = self_s["sim.components"]
        m["sim.components.count"] = c["sim.components.count"]
        m["sim.find_crossing_pairs.self_s"] = self_s["sim.find_crossing_pairs"]
        for key in ("candidates_tested", "crossings"):
            m["sim.find_crossing_pairs." + key] = c[
                "sim.find_crossing_pairs." + key]
        trials = c["sim.run_trial.calls"]
        m["sim.run_trial.calls"] = trials
        m["sim.rebuild_ratio"] = (c["sim.build_graph.calls"] / trials
                                  if trials else 0.0)
        for check in SIM_CHECKS:
            m["sim.%s.s" % check] = total["sim." + check]
        m["trace.spans"] = len(spans)
        m["trace.self_sum_s"] = sum(own)
        return m
