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

Every option, its type and its default are declared once, in
:func:`_build_parser`.  Every command accepts ``--config FILE``
(``key=value`` lines, ``#`` comments): each value is converted and checked
exactly like the flag of the same name, unknown keys are rejected, and
explicit flags override file values.  Counts are validated when parsed:
``--threads`` and ``--trials`` must be positive, ``--samples``
non-negative.  Other numbers are checked before any ``log`` or ``int``
of them: ``--n`` must be finite and positive (above 1 for ``constants``
and ``check``), ``--c`` finite (and positive for ``constants`` and
``check``), and a ``simulate`` sweep's ``(c_max - c_min) / c_step``
finite.  ``verify``, ``simulate`` and ``check`` accept ``--seed``
(``constants`` has nothing random to seed).  Every command writes a run
manifest next to any file outputs recording the resolved configuration,
the seed (``null`` when the command takes none) and SHA-256 digests of
what was produced.  ``verify``, ``simulate`` and ``check`` accept
``--threads`` (or a config file's ``threads``) and record it; knnlab
starts no threads of its own, so the value changes nothing else.

Exit codes: 0 success / all bounds passed; 1 a certified bound or a
deterministic structural check failed; 2 usage error.
"""

from __future__ import annotations

__all__ = ["main"]

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from . import __version__, bounds
from ._census import validate_step

if TYPE_CHECKING:
    from . import sim

_WHICH_CHOICES = ("lplus", "lminus", "hplus", "hminus", "all")
#: ``sim.MODELS``, spelled out so that parsing the command line does not
#: import :mod:`knnlab.sim` and scipy; ``tests/test_cli.py`` checks that
#: the two agree.
_MODEL_CHOICES = ("mutual", "either", "gilbert")


# ---------------------------------------------------------------------------
# Run manifests and outputs
# ---------------------------------------------------------------------------


def _write_manifest(args: argparse.Namespace, t0: float,
                    outputs: Sequence[Path], directory: Path) -> None:
    """Write ``run_manifest_<command>.json`` into ``directory``.

    The manifest records the parsed options (config file merged in), the
    seed (``None`` for a command without ``--seed``), the package version,
    start/finish timestamps, the milliseconds since ``t0``
    (``time.perf_counter`` when the command began) and the SHA-256 digest of
    every file in ``outputs``.
    """
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in outputs}
    elapsed = time.perf_counter() - t0
    finished = datetime.now(timezone.utc)
    manifest = {
        "command": args.command,
        "config": {key: value for key, value in vars(args).items()
                   if key not in ("command", "func", "config")},
        "seed": vars(args).get("seed"),
        "version": __version__,
        "started": (finished - timedelta(seconds=elapsed)).isoformat(),
        "finished": finished.isoformat(),
        "runtime_ms": elapsed * 1000.0,
        "outputs": digests,
    }
    path = directory / ("run_manifest_%s.json" % args.command)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _deliver(args: argparse.Namespace, text: str, t0: float) -> None:
    """Write ``text`` to ``--out`` with a run manifest beside it, or to
    standard output when no ``--out`` was given."""
    if not args.out:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(text.encode("utf-8"))
    _write_manifest(args, t0, [out], out.parent)


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


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Install the values of config file ``path`` as ``parser``'s defaults.

    Each value goes through its flag's ``type`` (:func:`_parse_bool` for
    on/off flags) and ``choices``, so a file value is checked like the flag
    and explicit flags still override it.
    """
    actions = {action.dest: action for action in parser._actions
               if action.option_strings
               and action.dest not in ("help", "config")}
    values = _read_config(path)
    unknown = sorted(set(values) - set(actions))
    if unknown:
        parser.error("unknown config keys: %s" % ", ".join(unknown))
    defaults = {}
    for key, text in values.items():
        action = actions[key]
        convert = _parse_bool if action.nargs == 0 else (action.type or str)
        try:
            defaults[key] = convert(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error("config %s: %s" % (key, exc))
        if action.choices is not None and defaults[key] not in action.choices:
            parser.error("config %s: invalid choice %r (choose from %s)"
                         % (key, text, ", ".join(action.choices)))
    parser.set_defaults(**defaults)


def _int_at_least(low: int):
    """Argument type: an integer no smaller than ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %s" % (low, text))
        return value

    # argparse names the type in its message for unparsable text.
    convert.__name__ = "int"
    return convert


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
    if args.c is None:
        raise ValueError("constants requires --c (or a config file "
                         "providing c)")
    t0 = time.perf_counter()
    consts = bounds.model_constants(args.c, n=args.n, c_prime=args.c_prime)
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
    if args.out:
        _deliver(args, blob + "\n", t0)
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
            sys.stderr.write("\r  %d/%d candidate squares settled"
                             % (done, total))
            sys.stderr.flush()
            if done == total:
                sys.stderr.write("\n")

    return report


def _cmd_verify(args: argparse.Namespace) -> int:
    step, which = args.step, args.which
    validate_step(step)
    if step > 0.01:
        raise ValueError("verification step must be at most 0.01")
    progress = _progress_printer(args.progress)
    t0 = time.perf_counter()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    single = {
        "lplus": bounds.verify_L_plus,
        "lminus": bounds.verify_L_minus,
        "hplus": bounds.verify_H_plus,
        "hminus": bounds.verify_H_minus,
    }
    if which in single:
        certificates = [single[which](step, progress=progress)]
    else:
        parts = {name: verify(step, progress=progress)
                 for name, verify in single.items()}
        certificates = [*parts.values(),
                        bounds.crossing_ratio(step, components=parts)]

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
    _write_manifest(args, t0, paths, out_dir)
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


_CSV_COLUMNS = ("n", "k", "c", "model", "trials", "connected_frac",
                "wilson_lo", "wilson_hi", "mean_components",
                "max_small_component", "crossing_pairs_total", "seed")


def _render_csv(estimates: Sequence[sim.ConnectivityEstimate]) -> str:
    lines = [",".join(_CSV_COLUMNS)]
    for est in estimates:
        cells = (getattr(est, col) for col in _CSV_COLUMNS)
        lines.append(",".join(_fmt_float(value) if isinstance(value, float)
                              else str(value) for value in cells))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.c is not None:
        args.c_min = args.c_max = args.c
    if args.c_min is None or args.c_max is None:
        raise ValueError("provide --c or both --c-min and --c-max")
    if not (math.isfinite(args.c_min) and math.isfinite(args.c_max)):
        raise ValueError("c must be finite")
    if args.c_max < args.c_min:
        raise ValueError("c_max must be at least c_min")
    if not args.c_step > 0.0:
        raise ValueError("c_step must be positive")
    steps = (args.c_max - args.c_min) / args.c_step
    if not math.isfinite(steps):
        raise ValueError("(c_max - c_min) / c_step must be finite")
    from . import sim

    t0 = time.perf_counter()
    count = int(math.floor(steps + 1e-9)) + 1
    c_values = [args.c_min + i * args.c_step for i in range(count)]
    estimates = sim.estimate_connectivity(
        args.n, c_values, trials=args.trials, master_seed=args.seed,
        model=args.model)
    _deliver(args, _render_csv(estimates), t0)
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
    :func:`sim.check_half_disk_lemma`, whose decision it shares; the
    property guarantees ``x z`` is an edge, so deleting it plants a genuine
    violation.  Returns the graph without that edge and the planted triple,
    or ``g`` and ``None`` when no half-disk holds a third point.
    """
    from . import sim

    triple = next(sim._half_disk_triples(g, joined=True), None)
    if triple is None:
        return g, None
    return g.without_edges([(triple[0], triple[2])]), triple


def _cmd_check(args: argparse.Namespace) -> int:
    from . import sim

    n, c, trials = args.n, args.c, args.trials
    t0 = time.perf_counter()
    consts = bounds.model_constants(c, n=n)  # checks c and n before the log
    k = int(math.ceil(c * math.log(n)))

    half_disk_violations = 0
    iu_failures = 0
    iu_qualified = 0
    iu_sampled = 0
    farapart_violations = 0
    good_count = 0
    injected: Optional[tuple] = None
    first_violation: Optional[Dict[str, object]] = None

    for t in range(trials):
        trial_seed = sim._trial_seed(args.seed, 0, t)
        ps = sim.sample_poisson(n, trial_seed)
        g = sim.build_graph(ps, k, model="mutual")
        if args.inject_bug and injected is None:
            g, injected = _inject_half_disk_bug(g)
        hd = sim.check_half_disk_lemma(g)
        fa = sim.check_farapart(g)
        results, tested = sim.sample_intersect_union_quadruples(
            g, args.samples, trial_seed)
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
        if sim.check_goodness(g, consts).good:
            good_count += 1

    lo, hi = sim.wilson_interval(good_count, trials)
    violations = half_disk_violations + iu_failures + farapart_violations
    report = {
        "n": n, "c": c, "k": k, "trials": trials, "seed": args.seed,
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
    _deliver(args, json.dumps(report, indent=2, sort_keys=True) + "\n", t0)
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> Tuple[argparse.ArgumentParser,
                             Dict[str, argparse.ArgumentParser]]:
    """The ``knnlab`` parser and its subcommand parsers by name.

    ``--threads`` (on ``verify``, ``simulate`` and ``check``) and ``verify
    --seed`` are accepted, recorded in the run manifest and otherwise
    ignored.  Both stay because the benchmark's recorded manifest digests
    (``perfbench/reference.json``) hold their values: every workload passes
    ``--threads 1``, and no workload passes ``verify --seed``, but its
    ``null`` default is in the ``config`` of every ``verify`` manifest.
    """
    parser = argparse.ArgumentParser(
        prog="knnlab",
        description="Mutual k-nearest-neighbour graph experiments and "
                    "certified area bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive, non_negative = _int_at_least(1), _int_at_least(0)

    p = sub.add_parser("constants",
                       help="print model constants at coefficient c")
    p.add_argument("--c", type=float)
    p.add_argument("--n", type=float)
    p.add_argument("--c-prime", dest="c_prime", type=float, default=0.0)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify",
                       help="run certified grid censuses, write certificates")
    p.add_argument("--step", type=float, default=0.004)
    p.add_argument("--which", choices=_WHICH_CHOICES, default="all")
    p.add_argument("--out-dir", dest="out_dir", default="certificates")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=positive, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate",
                       help="Monte Carlo connectivity sweep to CSV")
    p.add_argument("--n", type=float, default=10000.0)
    p.add_argument("--c", type=float)
    p.add_argument("--c-min", dest="c_min", type=float)
    p.add_argument("--c-max", dest="c_max", type=float)
    p.add_argument("--c-step", dest="c_step", type=float, default=0.1)
    p.add_argument("--trials", type=positive, default=10)
    p.add_argument("--model", choices=_MODEL_CHOICES, default="mutual")
    p.add_argument("--out")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=positive, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("check",
                       help="test structural properties on random graphs")
    p.add_argument("--n", type=float, default=1000.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--trials", type=positive, default=100)
    p.add_argument("--samples", type=non_negative, default=200)
    p.add_argument("--out")
    p.add_argument("--inject-bug", dest="inject_bug", action="store_true")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=positive, default=1)
    p.set_defaults(func=_cmd_check)

    return parser, sub.choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # File values become the subcommand's defaults; parsing again
            # lets explicit flags override them.
            _apply_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        return int(args.func(args))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
