"""Command-line interface: constants, certified verification, experiments.

Four subcommands drive the library from the shell:

``constants``
    Print the closed-form model constants at a coefficient ``c``.
``verify``
    Run the certified grid censuses at a chosen step and write certificate
    JSON files; exit status reports whether every bound held.
``simulate``
    Monte Carlo connectivity sweep over a range of coefficients, written as
    a CSV table.
``check``
    Sample random graphs and test the deterministic structural properties
    (half-neighbourhood containment, four-disk containment implication,
    foreign-point separation) plus the six goodness conditions.

Every command accepts ``--config FILE`` (``key=value`` lines, ``#``
comments; explicit flags override file values) and ``--seed``, and writes a
run manifest next to any file outputs recording the resolved configuration
and SHA-256 digests of what was produced.  ``verify`` takes its census
worker count from ``--threads`` or the ``KNNLAB_THREADS`` environment
variable; ``simulate`` and ``check`` accept and record the same setting.

Exit codes: 0 success / all bounds passed; 1 a certified bound or a
deterministic structural check failed; 2 usage error.
"""

from __future__ import annotations

__all__ = ["main", "RunManifest"]

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, bounds, sim
from ._census import validate_step

_WHICH_CHOICES = ("lplus", "lminus", "hplus", "hminus", "ratio", "all")


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """Self-describing record of one command invocation.

    Stored as JSON next to the command's file outputs: the resolved
    configuration (after config-file merging), the seed, the package
    version, start/finish timestamps, the elapsed milliseconds, and the
    SHA-256 digest of every output file.
    """

    command: str
    config: Dict[str, object]
    seed: Optional[int]
    version: str = __version__
    started: str = ""
    finished: str = ""
    runtime_ms: float = 0.0
    outputs: Dict[str, str] = field(default_factory=dict)

    def add_output(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.outputs[path.name] = digest

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "started": self.started,
            "finished": self.finished,
            "runtime_ms": self.runtime_ms,
            "outputs": self.outputs,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, directory: Path) -> Path:
        path = directory / ("run_manifest_%s.json" % self.command)
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _public_config(cfg: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in cfg.items() if k != "config"}


def _write_manifest(command: str, cfg: Dict[str, object], seed: Optional[int],
                    started: str, t0: float, outputs: Sequence[Path],
                    directory: Path) -> None:
    """Write the run manifest of ``command`` into ``directory``.

    ``started`` (wall clock) and ``t0`` (``time.perf_counter``) mark when
    the command began; ``outputs`` are the files it wrote.
    """
    manifest = RunManifest(command=command, config=_public_config(cfg),
                           seed=seed, started=started)
    for path in outputs:
        manifest.add_output(path)
    manifest.finished = _utc_now()
    manifest.runtime_ms = (time.perf_counter() - t0) * 1000.0
    manifest.save(directory)


# ---------------------------------------------------------------------------
# Configuration handling
# ---------------------------------------------------------------------------


def _read_config(path: str) -> Dict[str, str]:
    """Parse a ``key=value`` configuration file (``#`` starts a comment)."""
    values: Dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError("%s:%d: expected key=value, got %r"
                             % (path, lineno, raw))
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip().strip('"').strip("'")
    return values


def _resolve(args: argparse.Namespace, spec: Dict[str, tuple]) -> Dict[str, object]:
    """Merge defaults, config-file values, and explicit flags.

    ``spec`` maps option names to ``(converter, default)``.  Explicit
    command-line values win over the config file, which wins over defaults.
    """
    config_values: Dict[str, str] = {}
    if getattr(args, "config", None):
        config_values = _read_config(args.config)
    unknown = set(config_values) - set(spec)
    if unknown:
        raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    resolved: Dict[str, object] = {}
    for name, (convert, default) in spec.items():
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in config_values:
            resolved[name] = convert(config_values[name])
        else:
            resolved[name] = default
    return resolved


def _threads_default() -> int:
    env = os.environ.get("KNNLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _fmt_float(x: float) -> str:
    return "%.17g" % x


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % text)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _cmd_constants(args: argparse.Namespace) -> int:
    spec = {
        "c": (float, None),
        "n": (float, None),
        "c_prime": (float, 0.0),
        "out": (str, None),
        "seed": (int, None),
    }
    cfg = _resolve(args, spec)
    if cfg["c"] is None:
        raise SystemExit(2)
    started = _utc_now()
    t0 = time.perf_counter()
    consts = bounds.model_constants(cfg["c"], n=cfg["n"],
                                    c_prime=cfg["c_prime"])
    rows = [
        ("c", consts.c),
        ("c_minus", consts.c_minus),
        ("c_plus", consts.c_plus),
        ("d", consts.d),
        ("r", consts.r),
        ("R", consts.R),
        ("separation", consts.separation),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        shown = "-" if value is None else _fmt_float(value)
        print("%-*s  %s" % (width, name, shown))
    blob = json.dumps(consts.to_json_dict(), indent=2, sort_keys=True)
    print(blob)
    if cfg["out"]:
        out = Path(cfg["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(blob + "\n", encoding="utf-8")
        _write_manifest("constants", cfg, cfg["seed"], started, t0, [out],
                        out.parent)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _progress_printer(enabled: bool):
    if not enabled:
        return None
    state = {"last": 0.0}

    def report(done: int, total: int) -> None:
        now = time.perf_counter()
        if done == total or now - state["last"] > 2.0:
            state["last"] = now
            sys.stderr.write("\r  %d/%d candidate squares" % (done, total))
            sys.stderr.flush()
            if done == total:
                sys.stderr.write("\n")

    return report


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = {
        "step": (float, 0.004),
        "which": (str, "all"),
        "out_dir": (str, "certificates"),
        "seed": (int, None),
        "threads": (int, _threads_default()),
        "progress": (_parse_bool, False),
    }
    cfg = _resolve(args, spec)
    step = float(cfg["step"])
    which = str(cfg["which"])
    if which not in _WHICH_CHOICES:
        raise SystemExit(2)
    try:
        validate_step(step)
        if step > 0.01:
            raise ValueError("verification step must be at most 0.01")
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        raise SystemExit(2)
    threads = int(cfg["threads"])
    progress = _progress_printer(bool(cfg["progress"]))
    started = _utc_now()
    t0 = time.perf_counter()
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    single = {
        "lplus": bounds.verify_L_plus,
        "lminus": bounds.verify_L_minus,
        "hplus": bounds.verify_H_plus,
        "hminus": bounds.verify_H_minus,
    }
    certificates: List[bounds.Certificate] = []
    if which in single:
        certificates.append(single[which](step, threads=threads,
                                          progress=progress))
    else:
        parts = {name: single[name](step, threads=threads, progress=progress)
                 for name in ("lplus", "lminus", "hplus", "hminus")}
        if which != "ratio":
            certificates.extend(parts.values())
        certificates.append(bounds.crossing_ratio(step, components=parts))

    paths = []
    all_passed = True
    for cert in certificates:
        path = out_dir / ("%s_%g.json" % (cert.name, step))
        cert.save(path)
        paths.append(path)
        all_passed &= cert.passed
        verdict = "PASS" if cert.passed else "FAIL"
        print("%-7s %s  computed=%s  target %s %s" %
              (cert.name, verdict, _fmt_float(cert.computed),
               cert.comparator, _fmt_float(cert.target)))
    _write_manifest("verify", cfg, cfg["seed"], started, t0, paths, out_dir)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_rows(cfg: Dict[str, object]) -> List[Dict[str, object]]:
    n = float(cfg["n"])
    c_min = float(cfg["c_min"])
    c_max = float(cfg["c_max"])
    c_step = float(cfg["c_step"])
    if c_max < c_min:
        raise ValueError("c_max must be at least c_min")
    if c_step <= 0.0:
        raise ValueError("c_step must be positive")
    count = int(math.floor((c_max - c_min) / c_step + 1e-9)) + 1
    c_values = [c_min + i * c_step for i in range(count)]
    estimates = sim.estimate_connectivity(
        n, c_values, trials=int(cfg["trials"]),
        master_seed=int(cfg["seed"]), model=str(cfg["model"]))
    rows = []
    for est in estimates:
        rows.append({
            "n": est.n, "k": est.k, "c": est.c, "model": est.model,
            "trials": est.trials, "connected_frac": est.connected_frac,
            "wilson_lo": est.wilson_lo, "wilson_hi": est.wilson_hi,
            "mean_components": est.mean_components,
            "max_small_component": est.max_small_component,
            "crossing_pairs_total": est.crossing_pairs_total,
            "seed": est.seed,
        })
    return rows


_CSV_COLUMNS = ("n", "k", "c", "model", "trials", "connected_frac",
                "wilson_lo", "wilson_hi", "mean_components",
                "max_small_component", "crossing_pairs_total", "seed")


def _render_csv(rows: Sequence[Dict[str, object]]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        cells = []
        for col in _CSV_COLUMNS:
            value = row[col]
            if isinstance(value, bool):
                cells.append(str(int(value)))
            elif isinstance(value, float):
                cells.append(_fmt_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = {
        "n": (float, 10000.0),
        "c": (float, None),
        "c_min": (float, None),
        "c_max": (float, None),
        "c_step": (float, 0.1),
        "trials": (int, 10),
        "seed": (int, 0),
        "model": (str, "mutual"),
        "out": (str, None),
        "threads": (int, _threads_default()),
    }
    cfg = _resolve(args, spec)
    if cfg["model"] not in sim.MODELS:
        raise SystemExit(2)
    if int(cfg["trials"]) < 1:
        raise SystemExit(2)
    if cfg["c"] is not None:
        cfg["c_min"] = cfg["c"]
        cfg["c_max"] = cfg["c"]
    if cfg["c_min"] is None or cfg["c_max"] is None:
        print("error: provide --c or both --c-min and --c-max",
              file=sys.stderr)
        raise SystemExit(2)
    started = _utc_now()
    t0 = time.perf_counter()
    rows = _simulate_rows(cfg)
    text = _render_csv(rows)
    if cfg["out"]:
        out = Path(cfg["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(text.encode("utf-8"))
        _write_manifest("simulate", cfg, int(cfg["seed"]), started, t0, [out],
                        out.parent)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _inject_half_disk_bug(g: sim.NearestNeighborGraph
                          ) -> Tuple[sim.NearestNeighborGraph,
                                     Optional[tuple]]:
    """Remove one mutual edge that the containment property forces to exist.

    Takes the first edge ``x y`` and third point ``z`` strictly inside the
    open half-disk at ``x`` (radius ``|xy| / 2``), in the scan order of
    :func:`sim.check_half_disk_lemma`; the property guarantees ``x z`` is
    an edge, so deleting it plants a genuine violation.  Returns
    the graph without that edge and the planted triple, or ``g`` and
    ``None`` when no half-disk holds a third point.
    """
    pts = g.points
    x, y, z, half = sim._half_disk_candidates(g)
    for t in np.flatnonzero(g.has_edges(x, z)).tolist():
        xi, zi = int(x[t]), int(z[t])
        dz = math.hypot(pts[zi, 0] - pts[xi, 0], pts[zi, 1] - pts[xi, 1])
        if dz < half[t]:
            return g.without_edges([(xi, zi)]), (xi, int(y[t]), zi)
    return g, None


def _cmd_check(args: argparse.Namespace) -> int:
    spec = {
        "n": (float, 1000.0),
        "c": (float, 1.0),
        "trials": (int, 100),
        "seed": (int, 0),
        "samples": (int, 200),
        "out": (str, None),
        "inject_bug": (_parse_bool, False),
        "threads": (int, _threads_default()),
    }
    cfg = _resolve(args, spec)
    n = float(cfg["n"])
    c = float(cfg["c"])
    trials = int(cfg["trials"])
    if trials < 1:
        raise SystemExit(2)
    started = _utc_now()
    t0 = time.perf_counter()
    k = int(math.ceil(c * math.log(n)))
    consts = bounds.model_constants(c, n=n)
    seq_master = int(cfg["seed"])

    half_disk_violations = 0
    iu_failures = 0
    iu_qualified = 0
    iu_sampled = 0
    farapart_violations = 0
    good_count = 0
    injected: Optional[tuple] = None
    first_violation: Optional[Dict[str, object]] = None

    for t in range(trials):
        trial_seed = sim._trial_seed(seq_master, 0, t)
        ps = sim.sample_poisson(n, trial_seed)
        if len(ps) < 2:
            good_count += 1
            continue
        g = sim.build_graph(ps, k, model="mutual")
        if cfg["inject_bug"] and injected is None:
            g, injected = _inject_half_disk_bug(g)
        hd = sim.check_half_disk_lemma(g)
        comps = sim.components(g)
        fa = sim.check_farapart(g, comps)
        results, tested = sim.sample_intersect_union_quadruples(
            g, int(cfg["samples"]), trial_seed)
        iu_sampled += tested
        iu_qualified += len(results)
        iu_bad = [quad for quad, verdict in results if not verdict]
        half_disk_violations += len(hd)
        farapart_violations += len(fa)
        iu_failures += len(iu_bad)
        if first_violation is None:
            if hd:
                first_violation = {"kind": "half_disk", "trial": t,
                                   "witness": list(hd[0])}
            elif fa:
                first_violation = {"kind": "farapart", "trial": t,
                                   "witness": list(fa[0][:3])}
            elif iu_bad:
                first_violation = {"kind": "intersect_union", "trial": t,
                                   "witness": list(iu_bad[0])}
        if sim.check_goodness(g, consts, comps).good:
            good_count += 1

    lo, hi = sim.wilson_interval(good_count, trials)
    violations = half_disk_violations + iu_failures + farapart_violations
    report = {
        "n": n, "c": c, "k": k, "trials": trials, "seed": seq_master,
        "half_disk_violations": half_disk_violations,
        "intersect_union_failures": iu_failures,
        "intersect_union_qualified": iu_qualified,
        "intersect_union_sampled": iu_sampled,
        "farapart_violations": farapart_violations,
        "deterministic_violations": violations,
        "good_fraction": good_count / trials,
        "good_wilson_lo": lo,
        "good_wilson_hi": hi,
        "injected_bug": list(injected) if injected else None,
        "first_violation": first_violation,
    }
    blob = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg["out"]:
        out = Path(cfg["out"])
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(blob, encoding="utf-8")
        _write_manifest("check", cfg, seq_master, started, t0, [out],
                        out.parent)
    else:
        sys.stdout.write(blob)
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knnlab",
        description="Mutual k-nearest-neighbour graph experiments and "
                    "certified area bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants",
                       help="print model constants at coefficient c")
    p.add_argument("--c", type=float, required=False)
    p.add_argument("--n", type=float)
    p.add_argument("--c-prime", dest="c_prime", type=float)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify",
                       help="run certified grid censuses, write certificates")
    p.add_argument("--step", type=float)
    p.add_argument("--which", choices=_WHICH_CHOICES)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--progress", action="store_const", const=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate",
                       help="Monte Carlo connectivity sweep to CSV")
    p.add_argument("--n", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--c-min", dest="c_min", type=float)
    p.add_argument("--c-max", dest="c_max", type=float)
    p.add_argument("--c-step", dest="c_step", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--model", choices=sim.MODELS)
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check",
                       help="test structural properties on random graphs")
    p.add_argument("--n", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--out")
    p.add_argument("--inject-bug", dest="inject_bug",
                   action="store_const", const=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "constants" and args.c is None
                and args.config is None):
            parser.error("constants requires --c (or a config file "
                         "providing c)")
        return int(args.func(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
