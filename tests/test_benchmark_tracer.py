"""The benchmark's span tracer (perfbench/tracer.py) still instruments the package.

A refactor that renames or folds away what the tracer wraps would break every
traced benchmark run; this keeps that contract in the unit suite.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from fuzzydist import distance, sphere, triple
from fuzzydist.halfint import HalfInteger

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every callable each loaded fuzzydist module binds, and FuzzySphere.__init__."""
    out = {("FuzzySphere", "__init__"): sphere.FuzzySphere.__init__}
    for modname, mod in list(sys.modules.items()):
        if modname == "fuzzydist" or modname.startswith("fuzzydist."):
            out.update(((modname, attr), obj) for attr, obj in vars(mod).items() if callable(obj))
    return out


def test_tracer_counts_the_svd_of_an_exact_route_supremum():
    tracer_module = _load_tracer()
    for layer in tracer_module.LAYERS:
        importlib.import_module("fuzzydist." + layer)
    before = _bindings()
    s = sphere.build_space(HalfInteger(1), 1.0)
    tr = triple.build_dirac(s, "config")
    rho, rho2 = sphere.pure_state(s, HalfInteger(1)), sphere.pure_state(s, HalfInteger(-1))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert triple.operator_norm is not before[("fuzzydist.triple", "operator_norm")]
        result = distance.connes_distance_optimized(tr, rho, rho2, seed=1)
    finally:
        tracer.uninstall()
    assert result.method == "diagonal_exact"
    metrics = tracer.metrics()
    assert metrics["linalg.svd.calls"] >= 1
    assert metrics["distance.connes_distance_optimized.calls"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in after.items() if obj is not before[key]] == []
