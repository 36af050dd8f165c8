"""Record the reference output digests of every workload in ``reference.json``.

Run from the repository root, at a commit whose outputs are trusted:

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_reference.py

Seeded workloads are recorded for ``SEEDS``; ``certify`` takes no seed.
Every recorded op must pass its workload's independent check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import run_op  # noqa: E402
from workloads import (OUT, WORKLOADS, manifest_problems, observe,  # noqa: E402
                       reference_key)

SEEDS = range(20)


def main() -> int:
    import knnlab.cli as cli

    workdir = HERE / "_runs" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    reference = {}
    for workload in WORKLOADS.values():
        for seed in (SEEDS if workload.seeded else [0]):
            argv = workload.argv(seed)
            _, rc, stdout, files = run_op(cli, argv, workdir / OUT)
            problems = manifest_problems(files) + workload.check(argv, rc,
                                                                 files)
            if problems:
                print("%s: %s" % (" ".join(argv), problems), file=sys.stderr)
                return 1
            reference.setdefault(workload.name, {})[
                reference_key(workload, seed)] = observe(rc, stdout, files)
            print(workload.name, seed, "recorded", flush=True)
    shutil.rmtree(workdir)
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
