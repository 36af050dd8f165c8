"""The benchmark's tracer (``perfbench/spans.py``) must keep fitting knnlab.

The tracer wraps knnlab's layer functions by module attribute and reads
counts off what they return.  A renamed function, a counter field that is
gone, or a caller that holds an unwrapped function would silently zero a
per-layer metric; these tests fail instead.  ``perfbench/`` is only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from knnlab import sim

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_layer_is_a_knnlab_callable(spans):
    for module_name, path, _, _ in spans.LAYERS:
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_edges_caches_the_array_the_tracer_checks():
    g = sim.build_graph(sim.sample_poisson(300.0, 1), 3)
    assert g._edges is None
    edges = g.edges()
    assert g._edges is edges
    assert g.edges() is edges


def test_the_tracer_sees_every_layer_of_the_workloads(spans, tmp_path,
                                                      capsys):
    # Callers look the layers up when they run, so the wrappers that
    # ``install`` puts in place see every call, and each counter reads
    # its fields off a real result.
    tracer = spans.Tracer(0)
    tracer.install()
    try:
        cli = importlib.import_module("knnlab.cli")
        cli.main(["verify", "--step", "0.01", "--out-dir", str(tmp_path)])
        cli.main(["simulate", "--n", "300", "--c", "0.2", "--trials", "1"])
        cli.main(["check", "--n", "300", "--trials", "1", "--samples", "5"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    called = {name for name in tracer.counts if name.endswith(".calls")}
    assert called == {name + ".calls" for _, _, name, _ in spans.LAYERS}
    metrics = tracer.layer_metrics()
    for family in spans.FAMILIES:
        assert metrics["census.%s.candidates" % family] > 0
    for key in ("sim.build_graph.points", "sim.edges.count",
                "sim.components.count", "sim.run_trial.calls"):
        assert metrics[key] > 0
    for module_name, path, _, _ in spans.LAYERS:
        assert not _resolve(module_name, path).__qualname__.startswith(
            "Tracer.")
