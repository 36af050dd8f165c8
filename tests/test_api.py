"""Guards on the names that code outside the library relies on.

Every ``__all__`` entry of the package and its modules must resolve, every
layer that the benchmark tracer (``perfbench/spans.py``) wraps must exist,
and every demo script must import and run.  A deletion that breaks any of
them fails here rather than in a benchmark run or a demo.  The command-line
entry point must also load without ``scipy.optimize``, which the library
no longer needs, and ``verify`` must run without scipy, which only the
simulation half needs.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import knnlab

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["knnlab"] + sorted(
    "knnlab." + m.name for m in pkgutil.iter_modules(knnlab.__path__)
    if m.name != "__main__")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load(path: Path):
    """Execute the module body of ``path`` (``__name__`` is not main)."""
    spec = importlib.util.spec_from_file_location("_api_" + path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_traced_layers_resolve():
    spans = _load(ROOT / "perfbench" / "spans.py")
    assert spans.LAYERS
    for module_name, path, _, _ in spans.LAYERS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), "%s.%s" % (module_name, path)
            owner = getattr(owner, part)


def test_demos_are_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    assert callable(_load(path).main)


#: Small arguments for each demo's ``main`` (each run takes well under 1 s).
_DEMO_ARGS = {
    "certificate_walkthrough": (0.02, 0.01),
    "connectivity_sweep": (300.0, 2),
    "structure_checks": (1,),
    "crossing_showcase": (),
}


@pytest.mark.parametrize("name", sorted(_DEMO_ARGS))
def test_demo_runs(name, capsys):
    _load(ROOT / "demos" / (name + ".py")).main(*_DEMO_ARGS[name])
    assert capsys.readouterr().out.strip()


def _fresh(code, cwd=None):
    """Standard output of ``code`` run in a fresh interpreter, which has
    imported nothing that the test process has."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True).stdout


def test_cli_import_does_not_load_scipy_optimize():
    out = _fresh("import knnlab.cli, sys; "
                 "print('scipy.optimize' in sys.modules)")
    assert out.strip() == "False"


def test_verify_loads_no_scipy(tmp_path):
    # Step 0.01 is too coarse for the H- target, so the verdict is FAIL.
    # The census runs in the calling thread, so no thread pool is loaded.
    out = _fresh("import sys; from knnlab.cli import main; "
                 "code = main(['verify', '--step', '0.01', '--which', "
                 "'hminus', '--out-dir', 'out']); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'), "
                 "'concurrent.futures' in sys.modules)", cwd=tmp_path)
    assert out.splitlines()[-1] == "1 [] False"
    assert (tmp_path / "out" / "hminus_0.01.json").is_file()


def test_sim_names_load_on_first_use():
    out = _fresh("import knnlab, sys; before = 'knnlab.sim' in sys.modules; "
                 "print(before, knnlab.build_graph is knnlab.sim.build_graph)")
    assert out.strip() == "False True"
