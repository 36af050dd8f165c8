"""End-to-end tests of the command-line interface, run in process through
:func:`knnlab.cli.main`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.spatial import cKDTree

import knnlab
from knnlab import sim
from knnlab.cli import _MODEL_CHOICES, _inject_half_disk_bug, main


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_requires_a_coefficient(capsys):
    assert main(["constants"]) == 2


def test_constants_prints_table_and_json(capsys):
    assert main(["constants", "--c", "0.9684", "--n", "10000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("c ")
    for name in ("c_minus", "c_plus", "d", "r", "R", "separation"):
        assert name in out
    blob = json.loads(out[out.index("{"):])
    assert blob["c"] == 0.9684
    assert blob["n"] == 10000.0
    assert blob["r"] is not None


def test_constants_writes_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "consts.json"
    assert main(["constants", "--c", "1.0", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["c"] == 1.0
    manifest = json.loads((tmp_path / "run_manifest_constants.json").read_text())
    assert manifest["command"] == "constants"
    assert manifest["outputs"]["consts.json"] == _sha256(out)
    assert manifest["config"]["c"] == 1.0
    assert "config" not in manifest["config"]
    assert "threads" not in manifest["config"]
    assert main(["constants", "--c", "1.0", "--threads", "2"]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_rejects_invalid_steps(tmp_path, capsys):
    assert main(["verify", "--step", "0.5",
                 "--out-dir", str(tmp_path)]) == 2
    assert "census step" in capsys.readouterr().err
    # 1 / 0.003 is not an integer, so the unit square does not tile.
    assert main(["verify", "--step", "0.003",
                 "--out-dir", str(tmp_path)]) == 2
    # 0.02 tiles, but the command-line cap is 0.01.
    assert main(["verify", "--step", "0.02",
                 "--out-dir", str(tmp_path)]) == 2
    assert "at most 0.01" in capsys.readouterr().err


def test_verify_single_family_writes_certificate(tmp_path, capsys):
    # The coarsest accepted grid undershoots the certified bound, so the
    # run completes but reports an honest FAIL.
    code = main(["verify", "--step", "0.01", "--which", "lplus",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "lplus" in out and "FAIL" in out
    cert = json.loads((tmp_path / "lplus_0.01.json").read_text())
    assert set(cert) == {"name", "step", "computed", "target", "comparator",
                        "witness", "passed", "config_hash"}
    assert cert["name"] == "lplus"
    assert cert["step"] == 0.01
    assert cert["comparator"] == ">="
    assert cert["target"] == 0.3411
    assert cert["passed"] is False
    assert 0.25 < cert["computed"] < 0.3411
    manifest = json.loads((tmp_path / "run_manifest_verify.json").read_text())
    assert manifest["outputs"]["lplus_0.01.json"] == _sha256(
        tmp_path / "lplus_0.01.json")


def test_verify_all_writes_five_certificates(tmp_path, capsys):
    code = main(["verify", "--step", "0.01", "--which", "all",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    names = {p.name for p in tmp_path.glob("*_0.01.json")}
    assert names == {"lplus_0.01.json", "lminus_0.01.json",
                     "hplus_0.01.json", "hminus_0.01.json",
                     "ratio_0.01.json"}
    ratio = json.loads((tmp_path / "ratio_0.01.json").read_text())
    parts = {name: json.loads((tmp_path / ("%s_0.01.json" % name)).read_text())
             for name in ("lplus", "lminus", "hplus", "hminus")}
    occupied = parts["hplus"]["computed"] + parts["hminus"]["computed"]
    total = occupied + parts["lplus"]["computed"] + parts["lminus"]["computed"]
    assert ratio["computed"] == pytest.approx(occupied / total, rel=1e-15)
    assert ratio["target"] == 0.2446
    manifest = json.loads((tmp_path / "run_manifest_verify.json").read_text())
    assert len(manifest["outputs"]) == 5


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_ARGS = ["simulate", "--n", "250", "--trials", "2", "--c", "1.0",
             "--seed", "3"]
_HEADER = ("n,k,c,model,trials,connected_frac,wilson_lo,wilson_hi,"
           "mean_components,max_small_component,crossing_pairs_total,seed")


def test_simulate_emits_csv_with_exact_columns(capsys):
    assert main(_SIM_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == _HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "250"
    assert cells[3] == "mutual"
    assert cells[4] == "2"
    assert cells[11] == "3"
    assert out.endswith("\n")


def test_simulate_is_deterministic(capsys):
    assert main(_SIM_ARGS) == 0
    first = capsys.readouterr().out
    assert main(_SIM_ARGS) == 0
    assert capsys.readouterr().out == first


def test_simulate_c_shorthand_matches_range_form(capsys):
    assert main(_SIM_ARGS) == 0
    short = capsys.readouterr().out
    assert main(["simulate", "--n", "250", "--trials", "2", "--c-min", "1.0",
                 "--c-max", "1.0", "--seed", "3"]) == 0
    assert capsys.readouterr().out == short


def test_simulate_range_produces_one_row_per_coefficient(capsys):
    assert main(["simulate", "--n", "150", "--trials", "1", "--c-min", "0.4",
                 "--c-max", "0.8", "--c-step", "0.2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert [row.split(",")[2] for row in lines[1:]] == [
        "0.40000000000000002", "0.60000000000000009", "0.80000000000000004"]


def test_simulate_out_file_matches_stdout(tmp_path, capsys):
    assert main(_SIM_ARGS) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert main(_SIM_ARGS + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout_text
    manifest = json.loads((tmp_path / "run_manifest_simulate.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"]["sweep.csv"] == _sha256(out)
    assert manifest["seed"] == 3
    assert isinstance(manifest["runtime_ms"], float)
    assert manifest["started"].endswith("+00:00")


def test_model_choices_are_the_simulated_models():
    assert _MODEL_CHOICES == sim.MODELS


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "100", "--c", "1.0", "--model", "directed"],
    ["verify", "--step", "0.01", "--which", "ratio"],
], ids=["simulate-model-directed", "verify-which-ratio"])
def test_removed_option_values_are_usage_errors(argv, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_rejects_bad_usage(capsys):
    assert main(["simulate", "--n", "100", "--model", "voronoi"]) == 2
    assert main(["simulate", "--n", "100", "--c", "1.0", "--trials", "0"]) == 2
    assert main(["simulate", "--n", "100"]) == 2
    assert "provide --c" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--n", "0.3", "--c", "2.0"], "k must be non-negative"),
    (["--n", "1", "--c", "1.0", "--model", "gilbert"], "positive radius"),
], ids=["negative-k", "zero-radius"])
def test_simulate_rejects_invalid_graph_arguments_on_every_seed(
        argv, message, capsys):
    # An empty sample must not let an invalid k or radius through.
    for seed in range(40):
        assert main(["simulate", *argv, "--trials", "2",
                     "--seed", str(seed)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", "0", "--c", "1"], "n must be positive and finite"),
    (["simulate", "--n", "-3", "--c", "1"], "n must be positive and finite"),
    (["simulate", "--n", "inf", "--c", "1"], "n must be positive and finite"),
    (["simulate", "--n", "nan", "--c", "1"], "n must be positive and finite"),
    (["simulate", "--n", "100", "--c", "nan"], "c must be finite"),
    (["simulate", "--n", "100", "--c-min", "1", "--c-max", "inf"],
     "c must be finite"),
    (["simulate", "--n", "100", "--c-min", "0.5", "--c-max", "1",
      "--c-step", "1e-320"], "(c_max - c_min) / c_step must be finite"),
    (["simulate", "--n", "100", "--c-min", "0.5", "--c-max", "1",
      "--c-step", "nan"], "c_step must be positive"),
    (["check", "--n", "0"], "n must exceed 1 and be finite"),
    (["check", "--n", "-2"], "n must exceed 1 and be finite"),
    (["check", "--n", "inf"], "n must exceed 1 and be finite"),
    (["check", "--n", "100", "--c", "nan"], "c must be positive and finite"),
    (["constants", "--c", "nan"], "c must be positive and finite"),
], ids=["simulate-n-0", "simulate-n-negative", "simulate-n-inf",
        "simulate-n-nan", "simulate-c-nan", "simulate-c-max-inf",
        "simulate-c-step-tiny", "simulate-c-step-nan", "check-n-0",
        "check-n-negative", "check-n-inf", "check-c-nan", "constants-c-nan"])
def test_out_of_range_numbers_are_usage_errors(argv, message, capsys):
    # Each is rejected by the rule it breaks before any log or int
    # conversion, so none ends in a math error or a traceback.
    assert main(argv) == 2
    assert "error: %s" % message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_clean_run_reports_no_violations(capsys):
    code = main(["check", "--n", "150", "--c", "1.0", "--trials", "3",
                 "--samples", "25", "--seed", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["deterministic_violations"] == 0
    assert report["half_disk_violations"] == 0
    assert report["farapart_violations"] == 0
    assert report["intersect_union_failures"] == 0
    assert report["intersect_union_sampled"] == 3 * 25
    assert report["first_violation"] is None
    assert report["injected_bug"] is None
    assert 0.0 <= report["good_wilson_lo"] <= report["good_fraction"] \
        <= report["good_wilson_hi"] <= 1.0
    assert report["k"] == 6


def test_check_counts_tiny_point_sets_by_check_goodness(capsys):
    # At n = 2 most samples have 0 or 1 points, and none is counted good
    # without being checked.
    assert main(["check", "--n", "2", "--trials", "50", "--samples", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    consts = knnlab.model_constants(1.0, n=2.0)
    good = sum(
        sim.check_goodness(sim.build_graph(
            sim.sample_poisson(2.0, sim._trial_seed(0, 0, t)), 1), consts).good
        for t in range(50))
    assert report["good_fraction"] == good / 50


def test_check_injected_bug_is_caught(capsys):
    code = main(["check", "--n", "150", "--c", "1.0", "--trials", "2",
                 "--samples", "10", "--seed", "0", "--inject-bug"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["half_disk_violations"] >= 1
    assert report["deterministic_violations"] >= 1
    x, y, z = report["injected_bug"]
    assert report["first_violation"]["kind"] == "half_disk"
    assert report["first_violation"]["trial"] == 0
    assert report["first_violation"]["witness"][0] in (x, y)


@pytest.fixture
def tree_builds(monkeypatch):
    """The point arrays of the cKDTrees that knnlab.sim builds during a
    test, and the point sets that it samples."""
    built, sampled = [], []

    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(data)
            super().__init__(data, *args, **kwargs)

    def sample(*args, **kwargs):
        sampled.append(real_sample(*args, **kwargs))
        return sampled[-1]

    real_sample = sim.sample_poisson
    monkeypatch.setattr(sim, "cKDTree", CountingTree)
    monkeypatch.setattr(sim, "sample_poisson", sample)
    return built, sampled


@pytest.mark.parametrize("extra", [[], ["--inject-bug"]])
def test_check_builds_one_tree_per_point_set(tree_builds, extra, capsys):
    built, sampled = tree_builds
    main(["check", "--n", "300", "--c", "1.0", "--trials", "2",
          "--samples", "10", "--seed", "0"] + extra)
    report = json.loads(capsys.readouterr().out)
    assert (report["injected_bug"] is not None) == bool(extra)
    assert len(sampled) == 2
    assert len(built) == 2
    assert all(data is ps.points for data, ps in zip(built, sampled))


def test_simulate_builds_one_tree_per_point_set(tree_builds, capsys):
    built, sampled = tree_builds
    assert main(["simulate", "--n", "2000", "--trials", "1", "--c-min",
                 "0.2", "--c-max", "0.6", "--c-step", "0.4",
                 "--seed", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # Both rows are disconnected, so the crossing search runs too.
    assert [row.split(",")[5] for row in rows] == ["0", "0"]
    assert len(sampled) == 2
    assert len(built) == 2
    assert all(data is ps.points for data, ps in zip(built, sampled))


def _first_forced_edge(g):
    """Reference scan: one ball query per half-disk, edge by edge."""
    pts = g.points
    tree = cKDTree(pts)
    for lo, hi in g.edges():
        x, y = int(lo), int(hi)
        length = math.hypot(*(pts[y] - pts[x]))
        for cx, other in ((x, y), (y, x)):
            for z in tree.query_ball_point(pts[cx], length / 2.0):
                z = int(z)
                if z in (x, y):
                    continue
                if (math.hypot(*(pts[z] - pts[cx])) < length / 2.0
                        and g.has_edge(cx, z)):
                    return (cx, other, z)
    return None


@pytest.mark.parametrize("n, k", [(1000.0, 7), (300.0, 4)])
def test_injected_bug_matches_reference_scan(n, k):
    for seed in range(5):
        g = sim.build_graph(sim.sample_poisson(n, seed), k, model="mutual")
        h, planted = _inject_half_disk_bug(g)
        assert planted == _first_forced_edge(g)
        x, _, z = planted
        assert g.has_edge(x, z) and not h.has_edge(x, z)
        assert sim.check_half_disk_lemma(h)[0] == planted


def test_check_out_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check", "--n", "150", "--c", "1.0", "--trials", "1",
                 "--samples", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["trials"] == 1
    manifest = json.loads((tmp_path / "run_manifest_check.json").read_text())
    assert manifest["outputs"]["report.json"] == _sha256(out)


# ---------------------------------------------------------------------------
# config files, precedence, environment
# ---------------------------------------------------------------------------


def test_config_file_matches_equivalent_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# connectivity sweep\nn = 250\ntrials = 2\nc = 1.0\n"
                   "seed = 3\n")
    assert main(_SIM_ARGS) == 0
    from_flags = capsys.readouterr().out
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == from_flags


def test_flags_override_config_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 250\ntrials = 2\nc = 1.0\nseed = 3\n")
    assert main(["simulate", "--config", str(cfg), "--trials", "1"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split(",")[4] == "1"


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 250\nbogus = 5\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_threads_flag_overrides_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 3\n")
    argv = ["verify", "--step", "0.01", "--which", "lplus",
            "--out-dir", str(tmp_path), "--config", str(cfg)]
    manifest = tmp_path / "run_manifest_verify.json"
    for extra, expected in (([], 3), (["--threads", "2"], 2)):
        assert main(argv + extra) == 1
        config = json.loads(manifest.read_text())["config"]
        assert config["threads"] == expected


def test_unknown_subcommand_exits_with_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# option validation and the recorded configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, option", [
    (["verify", "--step", "0.01", "--threads", "0"], "--threads"),
    (["simulate", "--c", "1.0", "--trials", "0"], "--trials"),
    (["check", "--samples", "-1"], "--samples"),
])
def test_counts_are_validated_when_parsed(argv, option, capsys):
    assert main(argv) == 2
    assert option in capsys.readouterr().err


@pytest.mark.parametrize("command, line, key", [
    ("simulate", "trials = 0", "trials"),
    ("check", "samples = -1", "samples"),
    ("verify", "threads = 0", "threads"),
    ("simulate", "model = bogus", "model"),
    ("verify", "which = bogus", "which"),
    ("check", "inject_bug = maybe", "inject_bug"),
])
def test_config_values_are_checked_like_flags(command, line, key, tmp_path,
                                              capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("%s\n" % line)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert line.split("=")[1].strip() in err


def _typed(mapping):
    """``mapping`` with each value paired with its type, so that ``1 == 1.0``
    and ``0 == False`` do not pass for each other."""
    return {key: (value, type(value)) for key, value in mapping.items()}


# Each command's flags (every file output in the test's directory ``{d}``)
# and the ``config`` its run manifest must record; ``check`` takes the
# smallest sample count allowed.
_MANIFEST_CASES = {
    "constants": (
        ["--c", "1.0", "--out", "{d}/consts.json"],
        {"c": 1.0, "n": None, "c_prime": 0.0, "out": "{d}/consts.json"}),
    "verify": (
        ["--step", "0.01", "--which", "lplus", "--out-dir", "{d}"],
        {"step": 0.01, "which": "lplus", "out_dir": "{d}", "seed": None,
         "threads": 1, "progress": False}),
    "simulate": (
        ["--n", "250", "--trials", "2", "--c", "1.0", "--seed", "3",
         "--out", "{d}/sweep.csv"],
        {"n": 250.0, "c": 1.0, "c_min": 1.0, "c_max": 1.0, "c_step": 0.1,
         "trials": 2, "seed": 3, "model": "mutual", "out": "{d}/sweep.csv",
         "threads": 1}),
    "check": (
        ["--n", "150", "--c", "1.0", "--trials", "1", "--samples", "0",
         "--seed", "1", "--out", "{d}/report.json"],
        {"n": 150.0, "c": 1.0, "trials": 1, "seed": 1, "samples": 0,
         "out": "{d}/report.json", "inject_bug": False, "threads": 1}),
}


def test_constants_takes_no_seed(capsys):
    assert main(["constants", "--c", "1.0", "--seed", "3"]) == 2


@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("command", sorted(_MANIFEST_CASES))
def test_manifest_records_the_resolved_configuration(command, source,
                                                     tmp_path, capsys):
    flags, expected = _MANIFEST_CASES[command]
    flags = [flag.format(d=tmp_path) for flag in flags]
    expected = {key: value.format(d=tmp_path) if isinstance(value, str)
                else value for key, value in expected.items()}
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(
            "%s = %s\n" % (name[2:].replace("-", "_"), value)
            for name, value in zip(flags[::2], flags[1::2])))
        flags = ["--config", str(cfg)]
    assert main([command] + flags) in (0, 1)
    manifest = json.loads(
        (tmp_path / ("run_manifest_%s.json" % command)).read_text())
    assert manifest["command"] == command
    assert _typed(manifest["config"]) == _typed(expected)
    seed = expected.get("seed")
    assert _typed(manifest)["seed"] == (seed, type(seed))


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", [[], ["constants"], ["verify"],
                                     ["simulate"], ["check"]],
                         ids=["knnlab", "constants", "verify", "simulate",
                              "check"])
def test_module_entry_point_prints_help(command):
    src = str(Path(knnlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "knnlab"] + command
                          + ["--help"], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: knnlab")
