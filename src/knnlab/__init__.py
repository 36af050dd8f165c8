"""Mutual k-nearest-neighbour graphs: experiments and certified bounds.

The package has two halves.  The analytic half (:mod:`knnlab.geom`,
:mod:`knnlab.regions`, :mod:`knnlab.bounds`) re-derives, with conservative
grid censuses and exact closed-form areas, the constants behind two
thresholds for the mutual ``k = c log n`` nearest-neighbour graph on a
Poisson process: cross-component edge crossings are ruled out above
``c = 0.7102``, and connectivity holds above ``c = 0.9684``.  The
experimental half (:mod:`knnlab.sim`) samples the process, builds the
graphs exactly, and checks the deterministic structure (half-neighbourhood
containment, four-disk containment, foreign-point separation, goodness
conditions) that those derivations rely on.

The command-line entry point ``knnlab`` (see :mod:`knnlab.cli`) exposes
the constants, the certified verification runs, the Monte Carlo
connectivity sweeps, and the structural checks.
"""

__version__ = "1.0.0"

import importlib

from .bounds import (
    CENSUS_TARGETS,
    CONNECTIVITY_THRESHOLD,
    CROSSING_THRESHOLD,
    RATIO_TARGET,
    Certificate,
    ModelConstants,
    crossing_ratio,
    model_constants,
    solve_mu,
    threshold_suite,
    verify_H_minus,
    verify_H_plus,
    verify_L_minus,
    verify_L_plus,
)
from .geom import (
    Disk,
    Point,
    Segment,
    disk_lens_area,
    disks_intersection_area,
    distance,
    point_segment_distance,
    segments_intersect,
)
from .regions import (
    CrossingFrame,
    NormalizationMap,
    normalize_crossing_pair,
    normalize_crossing_pair_with_map,
)

#: Names re-exported from :mod:`knnlab.sim`, and the ``sim`` part of
#: ``__all__``.  The module is imported on first use, so that the analytic
#: half and the ``verify`` and ``constants`` commands do not load scipy.
_SIM_NAMES = (
    "MODELS",
    "ComponentDecomposition",
    "ConnectivityEstimate",
    "CrossingReport",
    "GoodnessReport",
    "NearestNeighborGraph",
    "PointSet",
    "SampleWindow",
    "TrialResult",
    "brute_force_graph",
    "build_graph",
    "check_farapart",
    "check_goodness",
    "check_half_disk_lemma",
    "check_intersect_union_lemma",
    "components",
    "estimate_connectivity",
    "figure_one_pointset",
    "find_crossing_pairs",
    "sample_poisson",
    "wilson_interval",
)


def __getattr__(name):
    if name == "sim" or name in _SIM_NAMES:
        sim = importlib.import_module(".sim", __name__)
        return sim if name == "sim" else getattr(sim, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "__version__",
    # bounds
    "CENSUS_TARGETS",
    "CONNECTIVITY_THRESHOLD",
    "CROSSING_THRESHOLD",
    "RATIO_TARGET",
    "Certificate",
    "ModelConstants",
    "crossing_ratio",
    "model_constants",
    "solve_mu",
    "threshold_suite",
    "verify_H_minus",
    "verify_H_plus",
    "verify_L_minus",
    "verify_L_plus",
    # geom
    "Disk",
    "Point",
    "Segment",
    "disk_lens_area",
    "disks_intersection_area",
    "distance",
    "point_segment_distance",
    "segments_intersect",
    # regions
    "CrossingFrame",
    "NormalizationMap",
    "normalize_crossing_pair",
    "normalize_crossing_pair_with_map",
    # sim
    *_SIM_NAMES,
]
