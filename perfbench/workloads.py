"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

Each workload is one ``knnlab`` CLI invocation (an *op*).  Its outputs are
the exit code, standard output, every file written under ``out/`` and the
run manifest; ``observe`` reduces them to digests that must match the
recorded reference (``reference.json``) for the seeds recorded there, and
the first pass of the same run for any other seed.  ``check`` tests what can
be verified independently of the recorded bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List

OUT = "out"
MANIFEST_TIME_KEYS = ("started", "finished", "runtime_ms")

# Each op takes about 1.5-2 s on a 2-vCPU VM, so a 30 s run holds about 15
# passes and their median rides out the host's second-scale speed swings.
CERTIFY_STEP = "0.00390625"  # 1/256: binary-exact tiles, as is 0.003125
SWEEP_N, SWEEP_TRIALS, SWEEP_C = 10000, 1, ("0.2", "0.6", "0.4")
CHECK_N, CHECK_C, CHECK_TRIALS, CHECK_SAMPLES = 1000, 1.0, 2, 200


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def observe(rc, stdout: str, files: Dict[str, bytes]) -> dict:
    """Digests of one op's outputs; manifest timestamps are left out."""
    obs = {"exit": rc, "stdout": _sha(stdout.encode("utf-8")), "files": {},
           "manifest": None}
    for name, data in sorted(files.items()):
        if name.startswith("run_manifest_"):
            manifest = json.loads(data)
            for key in MANIFEST_TIME_KEYS:
                manifest.pop(key, None)
            obs["manifest"] = _sha(json.dumps(manifest, sort_keys=True)
                                   .encode("utf-8"))
        else:
            obs["files"][name] = _sha(data)
    return obs


def manifest_problems(files: Dict[str, bytes]) -> List[str]:
    """The manifest's ``outputs`` digests must be those of the files."""
    names = [n for n in files if n.startswith("run_manifest_")]
    if len(names) != 1:
        return ["expected one run manifest, found %d" % len(names)]
    listed = json.loads(files[names[0]]).get("outputs", {})
    actual = {n: _sha(d) for n, d in files.items() if n != names[0]}
    return [] if listed == actual else ["manifest outputs %r != files %r"
                                        % (listed, actual)]


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def _check_certify(argv, rc, files):
    step = float(CERTIFY_STEP)
    certs = {}
    for name in ("lplus", "lminus", "hplus", "hminus", "ratio"):
        fname = "%s_%g.json" % (name, step)
        if fname not in files:
            return ["missing %s" % fname]
        certs[name] = json.loads(files[fname])
    problems = []
    for name in ("lplus", "lminus", "hplus", "hminus"):
        count = certs[name]["computed"] / (step * step)
        if abs(count - round(count)) > 1e-6:
            problems.append("%s area is not a whole number of tiles" % name)
    h = certs["hplus"]["computed"] + certs["hminus"]["computed"]
    ratio = h / (h + certs["lplus"]["computed"] + certs["lminus"]["computed"])
    if ratio != certs["ratio"]["computed"]:
        problems.append("ratio %r != recomputed %r"
                        % (certs["ratio"]["computed"], ratio))
    if certs["ratio"]["witness"] != -1.0 / math.log(ratio):
        problems.append("ratio threshold is not -1/log(ratio)")
    if rc != (0 if all(c["passed"] for c in certs.values()) else 1):
        problems.append("exit code %r disagrees with the verdicts" % rc)
    return problems


def _oracle_trial(n: float, k: int, seed: int):
    """Component sizes of the mutual kNN graph, rebuilt with scipy only.

    The point process follows the documented recipe of
    ``knnlab.sim.sample_poisson``: a Poisson count, then uniform points on
    ``[0, sqrt(n)]^2``, both from ``default_rng(seed)``.
    """
    import numpy as np
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n))
    pts = rng.uniform(0.0, math.sqrt(n), size=(count, 2))
    kk = min(k, count - 1)
    _, idx = cKDTree(pts).query(pts, kk + 1)
    rows = np.repeat(np.arange(count), kk)
    adj = coo_matrix((np.ones(rows.size), (rows, idx[:, 1:].ravel())),
                     shape=(count, count)).tocsr()
    mutual = adj.multiply(adj.T)
    ncomp, labels = connected_components(mutual, directed=False)
    return sorted(np.bincount(labels).tolist(), reverse=True)


def _trial_seed(master: int, c_index: int, trial: int) -> int:
    """Per-trial seed as documented in ``knnlab.sim.estimate_connectivity``."""
    import numpy as np
    seq = np.random.SeedSequence(master, spawn_key=(c_index, trial))
    return int(seq.generate_state(1, np.uint64)[0])


def _check_sweep(argv, rc, files):
    seed = int(argv[argv.index("--seed") + 1])
    lines = files.get("sweep.csv", b"").decode("utf-8").splitlines()
    if rc != 0 or len(lines) < 2:
        return ["exit code %r with %d CSV lines" % (rc, len(lines))]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    c_min, c_max, c_step = (float(x) for x in SWEEP_C)
    count = int(math.floor((c_max - c_min) / c_step + 1e-9)) + 1
    if len(rows) != count:
        return ["%d rows, expected %d" % (len(rows), count)]
    problems = []
    for ci, row in enumerate(rows):
        c = c_min + ci * c_step
        k = int(math.ceil(c * math.log(SWEEP_N)))
        trials = [_oracle_trial(float(SWEEP_N), k, _trial_seed(seed, ci, t))
                  for t in range(SWEEP_TRIALS)]
        connected = sum(1 for sizes in trials if len(sizes) <= 1)
        expect = {"k": str(k), "c": "%.17g" % c,
                  "trials": str(SWEEP_TRIALS),
                  "connected_frac": "%.17g" % (connected / SWEEP_TRIALS),
                  "mean_components": "%.17g" % (
                      sum(len(sizes) for sizes in trials) / SWEEP_TRIALS),
                  "max_small_component": str(max(
                      sizes[1] if len(sizes) > 1 else 0 for sizes in trials)),
                  "seed": str(seed)}
        for key, value in expect.items():
            if row.get(key) != value:
                problems.append("c=%g %s=%r, oracle %r"
                                % (c, key, row.get(key), value))
        if int(row["crossing_pairs_total"]) < 0:
            problems.append("c=%g negative crossing count" % c)
    return problems


def _check_check(argv, rc, files):
    seed = int(argv[argv.index("--seed") + 1])
    report = json.loads(files.get("check.json", b"{}") or b"{}")
    problems = [] if rc == 0 else ["exit code %r" % rc]
    expect = {"n": float(CHECK_N), "c": CHECK_C, "trials": CHECK_TRIALS,
              "seed": seed, "k": int(math.ceil(CHECK_C * math.log(CHECK_N))),
              "intersect_union_sampled": CHECK_TRIALS * CHECK_SAMPLES,
              "half_disk_violations": 0, "intersect_union_failures": 0,
              "farapart_violations": 0, "deterministic_violations": 0,
              "injected_bug": None, "first_violation": None}
    for key, value in expect.items():
        if report.get(key) != value:
            problems.append("%s=%r, expected %r" % (key, report.get(key), value))
    good = report.get("good_fraction", -1.0) * CHECK_TRIALS
    if abs(good - round(good)) > 1e-9 or not 0 <= good <= CHECK_TRIALS:
        problems.append("good_fraction is not a count over the trials")
    return problems


def reference_key(workload, seed: int) -> str:
    """Key of a workload's outputs in ``reference.json``."""
    return str(seed) if workload.seeded else "any"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    argv: Callable[[int], List[str]]
    warmup: List[str]
    check: Callable[[List[str], object, Dict[str, bytes]], List[str]]


WORKLOADS = {w.name: w for w in (
    # Census certificate chain: the per-candidate scan does nearly all the
    # work and sim none.  Deterministic, so the seed is not used.
    Workload(
        "certify", False,
        lambda seed: ["verify", "--step", CERTIFY_STEP, "--which", "all",
                      "--out-dir", OUT, "--threads", "1"],
        ["verify", "--step", "0.01", "--which", "all", "--out-dir", "warm",
         "--threads", "1"],
        _check_certify),
    # Large-n graph pipeline: k = 2 and 6.  Both rows are disconnected at
    # n = 10000 (k = 2 leaves thousands of tiny components, k = 6 a giant
    # component and tens of small ones), so each runs build, components, the
    # crossing search over every edge and the re-simulation of the
    # second-largest component.  The rows are chosen so that the pass time
    # does not depend on the seed: k = 4 sits near the percolation threshold,
    # where components of 700 to 3500 points take the O(m^2) diameter path
    # by chance, and rows meant to be connected are not reliably so (k = 8
    # leaves two components for some seeds, k = 10 for 7%), each such seed
    # adding a crossing search over the whole graph.
    Workload(
        "sweep", True,
        lambda seed: ["simulate", "--n", str(SWEEP_N), "--c-min", SWEEP_C[0],
                      "--c-max", SWEEP_C[1], "--c-step", SWEEP_C[2],
                      "--trials", str(SWEEP_TRIALS), "--seed", str(seed),
                      "--out", OUT + "/sweep.csv", "--threads", "1"],
        ["simulate", "--n", "300", "--c-min", "0.2", "--c-max", "0.6",
         "--c-step", "0.2", "--trials", "1", "--seed", "0",
         "--out", "warm/sweep.csv", "--threads", "1"],
        _check_sweep),
    # Many small graphs with per-point neighbour-list access: per-call
    # overhead of the graph layer and the structure checks dominate.
    Workload(
        "check", True,
        lambda seed: ["check", "--n", str(CHECK_N), "--c", str(CHECK_C),
                      "--trials", str(CHECK_TRIALS),
                      "--samples", str(CHECK_SAMPLES), "--seed", str(seed),
                      "--out", OUT + "/check.json", "--threads", "1"],
        ["check", "--n", "200", "--c", "1.0", "--trials", "1",
         "--samples", "20", "--seed", "0", "--out", "warm/check.json",
         "--threads", "1"],
        _check_check),
)}
