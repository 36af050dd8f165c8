"""One benchmark process: import knnlab, warm up, then time CLI passes.

Started by ``run.py`` with the environment it prepares (``PYTHONPATH`` set
to the checkout's ``src``, BLAS/OpenMP pinned to one thread).  It prints
``READY`` once ``knnlab`` is imported and a small warm-up op has run; with
``--setup-only`` it exits there.  Otherwise it runs passes of the workload's
op through ``knnlab.cli.main(argv)`` until ``--seconds`` have passed, checks
every pass's outputs, and writes its findings as JSON to ``--result``.
Each pass is bracketed by host-speed references (``calibrate.py``); its
``wall_rel`` is its wall time over the mean of the two.
With ``--trace 1`` untraced and traced passes alternate, and the spans of
the traced ones are written next to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import reference_s  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (OUT, WORKLOADS, manifest_problems, observe,  # noqa: E402
                       reference_key)


def _read_outputs(directory: Path):
    if not directory.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


def run_op(cli, argv, out_dir: Path):
    """Run one CLI invocation; returns (seconds, exit code, stdout, files)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an op that raises is a failed op, not a crash
            rc = "raised: " + traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    return wall, rc, captured.getvalue(), _read_outputs(out_dir)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import knnlab
    import knnlab.cli as cli
    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(knnlab.__file__).resolve().parent.parent != src:
        print("knnlab imported from %s, not %s" % (knnlab.__file__, src),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(workload.warmup)
    shutil.rmtree("warm", ignore_errors=True)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    argv = workload.argv(args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference[workload.name].get(reference_key(workload, args.seed))
    recorded = expected is not None
    out_dir = workdir / OUT
    passes, layers, spans = [], [], []
    first_files = None
    start = time.perf_counter()
    kernel_before = reference_s()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer(len(passes))
        if traced:
            tracer.install()
        try:
            wall, rc, stdout, files = run_op(cli, argv, out_dir)
        finally:
            tracer.uninstall()
        kernel_after = reference_s()
        kernel = (kernel_before + kernel_after) / 2.0
        kernel_before = kernel_after
        obs = observe(rc, stdout, files)
        problems = manifest_problems(files)
        if first_files is None:
            first_files, first_rc = files, rc
            if expected is None:
                expected = obs
        if obs != expected:
            problems.append("outputs differ from the reference: %r != %r"
                            % (obs, expected))
        passes.append({"traced": traced, "wall_s": wall, "kernel_s": kernel,
                       "wall_rel": wall / kernel, "problems": problems})
        if traced:
            metrics = tracer.layer_metrics()
            metrics["trace.accounted_frac"] = (
                metrics.pop("trace.self_sum_s") / wall)
            layers.append(metrics)
            spans.extend(tracer.spans)
        # Stop before a pass that would likely end after ``--seconds``.
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(out_dir, ignore_errors=True)

    # The independent check reads the first pass's outputs; every pass
    # matched them (or the reference), so its verdict holds for all.
    try:
        oracle = workload.check(argv, first_rc, first_files)
    except Exception:  # malformed output fails the check, not the run
        oracle = ["output check raised: " + traceback.format_exc(limit=3)]
    for p in passes:
        p["problems"].extend(oracle)

    result = {
        "argv": argv,
        "reference": "recorded" if recorded else "first pass",
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "layers": {key: statistics.median(m[key] for m in layers)
                   for key in (layers[0] if layers else {})},
        "versions": _versions(),
    }
    if spans:
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps(
            {"fields": ["trace", "span", "parent", "name", "start", "end"],
             "spans": spans}))
        result["spans_file"] = str(spans_path)
    Path(args.result).write_text(json.dumps(result))
    return 0


def _versions():
    import numpy
    import scipy

    import knnlab
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "knnlab": knnlab.__version__}


if __name__ == "__main__":
    sys.exit(main())
