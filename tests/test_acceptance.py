"""Acceptance gate: nine end-to-end criteria covering the certified area
censuses, the closed-form constant chain, graph-construction equivalence,
the deterministic structure checks, the connectivity experiment, and
reproducibility of command-line outputs.

Each criterion prints an ``ACCEPTANCE n: PASS/FAIL`` line followed by the
label of each of its checks.  Criteria 1 and 2 validate the committed
step-0.001 certificates, bracket them with a fresh step-0.004 census, and
recompute all five at step 0.001, byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from knnlab import bounds, sim
from knnlab.bounds import (
    capture_chain,
    component_size_maximum,
    corner_exponent_coefficient,
    crossing_ratio,
    easy_connectivity_constant,
    edge_exponent_coefficient,
    solve_y_cap,
    tile_density_maximum,
    verify_H_minus,
    verify_H_plus,
    verify_L_minus,
    verify_L_plus,
)
from knnlab.cli import main as cli_main

CERT_DIR = Path(__file__).resolve().parent.parent / "certificates"

# Reference values for the step-0.001 census: strict area bound and the
# centre of the reference witness square for each family.
CENSUS_REFERENCE = {
    "lplus": (0.3411, (0.4995, 0.1895)),
    "lminus": (0.3564, (0.4995, -0.3825)),
    "hplus": (0.1300, (0.4995, 0.2885)),
    "hminus": (0.0958, (0.4995, -0.4335)),
}
LOWER_FAMILIES = ("lplus", "lminus")
RATIO_REFERENCE = 0.2446
THRESHOLD_REFERENCE = 0.7102
GUARD = 1e-12


def _emit(capsys, line: str) -> None:
    with capsys.disabled():
        print("\n" + line)


def _verdict(capsys, number: int, checks, suffix: str = "") -> None:
    failed = [label for label, ok in checks if not ok]
    passed = not failed
    lines = ["ACCEPTANCE %d%s: %s" % (number, suffix,
                                      "PASS" if passed else "FAIL")]
    lines += ["  %-4s %s" % ("ok" if ok else "FAIL", label)
              for label, ok in checks]
    _emit(capsys, "\n".join(lines))
    assert passed, "failed checks: %s" % ", ".join(failed)


def _load_certificate(name: str) -> dict:
    path = CERT_DIR / ("%s_0.001.json" % name)
    assert path.exists(), "missing committed certificate %s" % path
    return json.loads(path.read_text())


def _witness_near(witness, centre, tile: float) -> bool:
    return (abs(witness[0] - centre[0]) <= tile + 1e-9
            and abs(witness[1] - centre[1]) <= tile + 1e-9)


# ---------------------------------------------------------------------------
# criterion 1: the four area censuses
# ---------------------------------------------------------------------------


def test_acceptance_1_census_bounds(capsys):
    checks = []
    committed = {name: _load_certificate(name) for name in CENSUS_REFERENCE}
    for name, (bound, centre) in CENSUS_REFERENCE.items():
        cert = committed[name]
        checks.append(("%s step" % name, cert["step"] == 0.001))
        checks.append(("%s passed flag" % name, cert["passed"] is True))
        if name in LOWER_FAMILIES:
            checks.append(("%s clears %s" % (name, bound),
                           cert["computed"] > bound))
        else:
            checks.append(("%s stays below %s" % (name, bound),
                           cert["computed"] < bound))
        checks.append(("%s witness near %s" % (name, (centre,)),
                       _witness_near(cert["witness"], centre, 0.001)))
    # A fresh, coarser census must bracket the committed values from the
    # conservative side: coarser lower bounds are smaller, coarser upper
    # bounds are larger.
    live = {
        "lplus": verify_L_plus(0.004),
        "lminus": verify_L_minus(0.004),
        "hplus": verify_H_plus(0.004),
        "hminus": verify_H_minus(0.004),
    }
    for name in CENSUS_REFERENCE:
        fresh, fine = live[name].computed, committed[name]["computed"]
        if name in LOWER_FAMILIES:
            checks.append(("%s refinement direction" % name, fresh < fine))
        else:
            checks.append(("%s refinement direction" % name, fresh > fine))
    _verdict(capsys, 1, checks)


@pytest.fixture(scope="module")
def fine_census():
    return {
        "lplus": verify_L_plus(0.001),
        "lminus": verify_L_minus(0.001),
        "hplus": verify_H_plus(0.001),
        "hminus": verify_H_minus(0.001),
    }


def _same_as_committed(cert, tmp_path) -> bool:
    name = "%s_0.001.json" % cert.name
    cert.save(tmp_path / name)
    return (tmp_path / name).read_bytes() == (CERT_DIR / name).read_bytes()


def test_acceptance_1_census_bounds_extended(capsys, fine_census, tmp_path):
    checks = []
    for name, (bound, centre) in CENSUS_REFERENCE.items():
        cert = fine_census[name]
        checks.append(("%s recomputed byte for byte" % name,
                       _same_as_committed(cert, tmp_path)))
        if name in LOWER_FAMILIES:
            checks.append(("%s clears %s" % (name, bound),
                           cert.computed > bound))
        else:
            checks.append(("%s stays below %s" % (name, bound),
                           cert.computed < bound))
        checks.append(("%s witness near %s" % (name, (centre,)),
                       _witness_near(cert.witness, centre, 0.001)))
    _verdict(capsys, 1, checks, suffix=" (step 0.001 recomputed)")


# ---------------------------------------------------------------------------
# criterion 2: occupied/total ratio and the crossing threshold
# ---------------------------------------------------------------------------


def test_acceptance_2_crossing_threshold(capsys):
    checks = []
    parts = {name: _load_certificate(name) for name in CENSUS_REFERENCE}
    ratio_cert = _load_certificate("ratio")
    occupied = parts["hplus"]["computed"] + parts["hminus"]["computed"]
    total = (occupied + parts["lplus"]["computed"]
             + parts["lminus"]["computed"])
    ratio = occupied / total
    threshold = -1.0 / math.log(ratio)
    checks.append(("stored ratio consistent",
                   abs(ratio - ratio_cert["computed"]) <= 1e-15))
    checks.append(("stored threshold consistent",
                   abs(threshold - ratio_cert["witness"]) <= 1e-12))
    checks.append(("ratio below %s" % RATIO_REFERENCE,
                   ratio <= RATIO_REFERENCE - GUARD))
    checks.append(("threshold at most %s" % THRESHOLD_REFERENCE,
                   threshold <= THRESHOLD_REFERENCE))
    checks.append(("ratio certificate passed", ratio_cert["passed"] is True))
    _verdict(capsys, 2, checks)


def test_acceptance_2_crossing_threshold_extended(capsys, fine_census,
                                                 tmp_path):
    cert = crossing_ratio(0.001, components=fine_census)
    checks = [
        ("ratio recomputed byte for byte",
         _same_as_committed(cert, tmp_path)),
        ("ratio below %s" % RATIO_REFERENCE,
         cert.computed <= RATIO_REFERENCE - GUARD),
        ("threshold at most %s" % THRESHOLD_REFERENCE,
         cert.witness <= THRESHOLD_REFERENCE),
        ("certificate passed", cert.passed),
    ]
    _verdict(capsys, 2, checks, suffix=" (step 0.001 recomputed)")


# ---------------------------------------------------------------------------
# criterion 3: closed-form constants to their stated decimals
# ---------------------------------------------------------------------------


def test_acceptance_3_closed_form_constants(capsys):
    values = [
        ("easy connectivity constant", easy_connectivity_constant(),
         1.0293, 1e-4),
        ("corner exponent coefficient", corner_exponent_coefficient(),
         0.3439, 1e-4),
        ("edge exponent coefficient", edge_exponent_coefficient(),
         0.5993, 1e-4),
        ("edge tile cap root", solve_y_cap(boundary=True), 5.861, 1e-3),
    ]
    checks = [(label, abs(value - stated) <= tol)
              for label, value, stated, tol in values]
    _verdict(capsys, 3, checks)


# ---------------------------------------------------------------------------
# criterion 4: exponent maxima
# ---------------------------------------------------------------------------


def _trunc2(v: float) -> float:
    return math.trunc(v * 100.0) / 100.0


def test_acceptance_4_exponent_maximisations(capsys):
    checks = []
    for boundary, stated in ((False, -1.18), (True, -0.81)):
        arg, value = tile_density_maximum(boundary=boundary)
        label = "tile density %s" % ("edge" if boundary else "interior")
        checks.append(("%s truncates to %s" % (label, stated),
                       _trunc2(value) == stated))
        checks.append(("%s argmax at right endpoint" % label,
                       abs(arg - bounds.TILE_AREA_CAP) <= 1e-3))
    for boundary, stated, stated_arg in ((False, -1.0001, 0.6069),
                                         (True, -0.593, 0.601)):
        arg, value = component_size_maximum(boundary=boundary)
        label = "component size %s" % ("edge" if boundary else "interior")
        checks.append(("%s value near %s" % (label, stated),
                       abs(value - stated) <= 5e-3))
        checks.append(("%s argmax near %s" % (label, stated_arg),
                       abs(arg - stated_arg) <= 1e-3))
    _verdict(capsys, 4, checks)


# ---------------------------------------------------------------------------
# criterion 5: far-point capture chain
# ---------------------------------------------------------------------------


def test_acceptance_5_capture_chain(capsys):
    c = bounds.CONNECTIVITY_THRESHOLD
    exact = capture_chain(c)
    rounded = capture_chain(c, use_rounded_areas=True)
    checks = [
        ("exact capture ratio clears 2.8087", exact["mu"] > 2.8087),
        ("rounded capture ratio clears 2.8087", rounded["mu"] > 2.8087),
        ("exact margin exceeds 1", exact["margin"] > 1.0),
        ("rounded margin exceeds 1", rounded["margin"] > 1.0),
        ("far region area below 2.31", exact["region"] < 2.31),
        ("overlap matches 0.6515 to 1e-4",
         abs(exact["overlap"] - 0.6515) <= 1e-4),
    ]
    _emit(capsys,
          "note: the overlap area computes to %.10f, slightly above the "
          "rounded reference 0.6515; the capture ratio clears 2.8087 with "
          "either value (exact %.6f, rounded %.6f)."
          % (exact["overlap"], exact["mu"], rounded["mu"]))
    _verdict(capsys, 5, checks)


# ---------------------------------------------------------------------------
# criterion 6: grid construction equals brute force
# ---------------------------------------------------------------------------


def test_acceptance_6_graph_construction_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    mismatches = 0
    instances = 0
    tree_s = brute_s = 0.0
    for model in sim.MODELS:
        for _ in range(50):
            n = float(rng.integers(50, 2001))
            seed = int(rng.integers(1 << 31))
            k = int(rng.integers(1, 51))
            radius = (float(rng.uniform(0.5, 2.5))
                      if model == "gilbert" else None)
            ps = sim.sample_poisson(n, seed)
            if len(ps) < 2:
                continue
            instances += 1
            t1 = time.perf_counter()
            g = sim.build_graph(ps, k, model=model, radius=radius)
            t2 = time.perf_counter()
            ref = sim.brute_force_graph(ps, k, model=model, radius=radius)
            tree_s += t2 - t1
            brute_s += time.perf_counter() - t2
            same = all(np.array_equal(getattr(g, f), getattr(ref, f))
                       for f in ("indptr", "indices", "dists"))
            same &= np.array_equal(g.edges(), ref.edges())
            mismatches += 0 if same else 1
    elapsed = time.perf_counter() - t0
    checks = [
        ("all %d instances matched" % instances, mismatches == 0),
        ("instance count", instances >= 190),
        ("finished inside 120 s (took %.1f s: kd-tree %.1f s, brute force "
         "%.1f s)" % (elapsed, tree_s, brute_s), elapsed < 120.0),
    ]
    _verdict(capsys, 6, checks)


# ---------------------------------------------------------------------------
# criterion 7: deterministic structure checks over 100 seeds
# ---------------------------------------------------------------------------


def test_acceptance_7_structure_checks(capsys):
    t0 = time.perf_counter()
    half_disk = farapart = iu_failures = iu_qualified = iu_nontrivial = 0
    for seed in range(100):
        k = 7 + seed % 8
        ps = sim.sample_poisson(1000.0, seed)
        g = sim.build_graph(ps, k, model="mutual")
        half_disk += len(sim.check_half_disk_lemma(g))
        farapart += len(sim.check_farapart(g))
        results, _ = sim.sample_intersect_union_quadruples(g, 40, seed)
        iu_qualified += len(results)
        iu_nontrivial += sum(1 for (w, x, y, z), _ in results
                             if {w, x} != {y, z})
        iu_failures += sum(1 for _, verdict in results if not verdict)
    elapsed = time.perf_counter() - t0
    checks = [
        ("half-disk violations", half_disk == 0),
        ("far-apart violations", farapart == 0),
        ("containment-implication failures", iu_failures == 0),
        ("containment hypotheses exercised (%d, %d non-trivial)"
         % (iu_qualified, iu_nontrivial),
         iu_qualified > 0),
        ("finished inside 300 s (took %.1f s)" % elapsed, elapsed < 300.0),
    ]
    _verdict(capsys, 7, checks)


# ---------------------------------------------------------------------------
# criterion 8: connectivity at n = 10^4 across the threshold
# ---------------------------------------------------------------------------


def test_acceptance_8_connectivity_phase_transition(capsys):
    t0 = time.perf_counter()
    n, trials, master = 10000.0, 200, 11
    low, high = sim.estimate_connectivity(n, [0.3, 1.5], trials=trials,
                                          master_seed=master)
    k_low, k_high = low.k, high.k
    nested = monotone = 0
    for result in high.results:
        ps = sim.sample_poisson(n, result.seed)
        g_low = sim.build_graph(ps, k_low, model="mutual")
        g_high = sim.build_graph(ps, k_high, model="mutual")
        nested += bool(g_high.has_edges(*g_low.edges().T).all())
        low_connected = sim.components(g_low).num_components <= 1
        high_connected = sim.components(g_high).num_components <= 1
        monotone += (not low_connected) or high_connected
    elapsed = time.perf_counter() - t0
    checks = [
        ("connected fraction %.3f at c=1.5 is >= 0.99" % high.connected_frac,
         high.connected_frac >= 0.99),
        ("connected fraction %.3f at c=0.3 is <= 0.05" % low.connected_frac,
         low.connected_frac <= 0.05),
        ("edge sets nested for all pointsets", nested == trials),
        ("connectivity monotone in k for all pointsets", monotone == trials),
        ("finished inside 600 s (took %.1f s)" % elapsed, elapsed < 600.0),
    ]
    _verdict(capsys, 8, checks)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical outputs on repeated runs.  ``--threads`` is
# accepted and ignored, so its two values change only the recorded flags.
# ---------------------------------------------------------------------------


def test_acceptance_9_thread_count_reproducibility(capsys, tmp_path):
    checks = []
    csv_paths = []
    for threads in (1, 4):
        out = tmp_path / ("sweep_t%d.csv" % threads)
        code = cli_main(["simulate", "--n", "400", "--trials", "3",
                         "--c-min", "0.4", "--c-max", "1.2",
                         "--c-step", "0.4", "--seed", "7",
                         "--threads", str(threads), "--out", str(out)])
        checks.append(("simulate exit (threads=%d)" % threads, code == 0))
        csv_paths.append(out)
    checks.append(("CSV bytes identical",
                   csv_paths[0].read_bytes() == csv_paths[1].read_bytes()))
    cert_dirs = []
    for threads in (1, 4):
        out_dir = tmp_path / ("certs_t%d" % threads)
        code = cli_main(["verify", "--step", "0.008", "--which", "all",
                         "--threads", str(threads),
                         "--out-dir", str(out_dir)])
        checks.append(("verify ran (threads=%d)" % threads, code in (0, 1)))
        cert_dirs.append(out_dir)
    names = sorted(p.name for p in cert_dirs[0].glob("*_0.008.json"))
    checks.append(("five certificates written", len(names) == 5))
    for name in names:
        same = ((cert_dirs[0] / name).read_bytes()
                == (cert_dirs[1] / name).read_bytes())
        checks.append(("%s bytes identical" % name, same))
    _verdict(capsys, 9, checks)
