"""knnlab benchmark: time one workload through ``knnlab.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

Workloads (``workloads.py``; ``BENCHMARK.json`` says why each exists):

* ``certify`` -- ``knnlab verify --which all`` at one census step;
* ``sweep``   -- ``knnlab simulate`` over c = 0.2, 0.6 at n = 10000;
* ``check``   -- ``knnlab check`` at n = 1000 over several trials.

The workload's CLI arguments are made from ``--seed``; the program receives
nothing else.  Every process runs single-threaded (``--threads 1``, BLAS and
OpenMP pinned to one thread).  Set-up (interpreter start, importing
``knnlab``, one small warm-up op) is timed in several fresh processes; one
of them then runs passes of the op for about ``--seconds`` seconds.  Every
pass's outputs are compared with recorded reference digests (or, for a seed
without a recording, with the first pass) and checked independently.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``wall_rel`` (median over passes of the pass's wall time divided by the
host-speed reference of ``calibrate.py`` taken around it), ``setup_s``
(median set-up), ``peak_rss_mb`` (of the process that ran the passes) and
``ok_frac`` (1 - failed/attempted ops).  The raw pass times in seconds are
printed and kept in ``result.json``; they are not a metric because the
shared hosts this runs on drift in speed by more than any useful bound.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (``spans.py``) plus ``trace.overhead_frac`` (traced over
untraced ``wall_rel``, minus one).  Human
readable lines, including the run environment, come first; the last line
of standard output is the JSON result.  Each run leaves ``result.json`` (and
``spans.json`` when traced) in its directory under ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUPS = 4            # set-up samples per run; the last one runs the passes
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("KNNLAB_THREADS", None)
    return env


def _run_worker(args, workdir, result, setup_only, env, deadline):
    """Run a worker to its end; return seconds from its start to READY."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or line.strip() != "READY":
        raise RuntimeError("worker failed (exit %d)" % proc.returncode)
    return ready


def _environment():
    src = ROOT / "src" / "knnlab"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "threads": {var: "1" for var in THREAD_VARS},
            "cli_threads": 1}


def measure(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    workdir = HERE / "_runs" / ("%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result_path = workdir / "worker.json"
    env = _worker_env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    environment = _environment()
    environment["loadavg_before"] = os.getloadavg()

    setups = [_run_worker(args, workdir, result_path, i < SETUPS - 1, env,
                          deadline) for i in range(SETUPS)]
    environment["loadavg_after"] = os.getloadavg()
    worker = json.loads(result_path.read_text())
    environment["versions"] = worker["versions"]

    passes = worker["passes"]
    failed = sum(1 for p in passes if p["problems"])
    untraced = [p for p in passes if not p["traced"]]
    wall_rel = statistics.median(p["wall_rel"] for p in untraced)
    if args.trace:
        values = dict(worker["layers"])
        traced_rel = statistics.median(p["wall_rel"] for p in passes
                                       if p["traced"])
        values["trace.overhead_frac"] = (traced_rel - wall_rel) / wall_rel
    else:
        values = {"wall_rel": wall_rel, "setup_s": statistics.median(setups),
                  "peak_rss_mb": worker["peak_rss_mb"],
                  "ok_frac": (len(passes) - failed) / len(passes)}
    if sorted(values) != sorted(names):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(values), sorted(names)))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}

    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "argv": worker["argv"],
               "reference": worker["reference"],
               "passes": passes, "setups_s": setups, "failed": failed,
               "attempted": len(passes), "fail_frac": failed / len(passes),
               "environment": environment, "metrics": metrics}
    if "spans_file" in worker:
        summary["spans_file"] = worker["spans_file"]
    (workdir / "result.json").write_text(json.dumps(summary, indent=1))
    result_path.unlink()
    return summary


def report(summary):
    print("knnlab %s  seed %d  trace %d: %s" % (
        summary["workload"], summary["seed"], summary["trace"],
        " ".join(summary["argv"])))
    print("  %d ops attempted, %d failed, fail_frac %g (outputs checked "
          "against %s)" % (summary["attempted"], summary["failed"],
                           summary["fail_frac"], summary["reference"]))
    for p in [p for p in summary["passes"] if p["problems"]][:3]:
        print("  problem: %s" % "; ".join(p["problems"])[:2000])
    for key, unit in (("wall_s", "s"), ("kernel_s", "s"), ("wall_rel", "")):
        vals = [p[key] for p in summary["passes"] if not p["traced"]]
        print("  untraced passes: %d, %s min %.4f / median %.4f / max %.4f %s"
              % (len(vals), key, min(vals), statistics.median(vals),
                 max(vals), unit))
    print("  set-up samples (s): %s" % " ".join("%.4f" % s for s in
                                                 summary["setups_s"]))
    for name, m in summary["metrics"].items():
        print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))
    print("  environment: %s" % json.dumps(summary["environment"]))
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": summary["metrics"]}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "knnlab" / "cli.py").is_file():
        print("error: no knnlab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    try:
        summary = measure(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    report(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
