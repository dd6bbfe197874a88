"""The names the benchmark in ``perfbench/`` reaches into must keep existing.

``perfbench/run.py`` calls ``boundary_map.cache_info()`` and its K guard
outside the per-op error handling, and names every cache it reports by
``__module__`` and ``__name__``, and the tracer looks every traced
name up before the run starts, so a renamed function would crash the
whole benchmark run instead of counting one failed op.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"fluxrec.{name}")


def test_traced_functions_exist(tracer):
    for mod_name, funcs in tracer.TRACED_FUNCTIONS.items():
        for func in funcs:
            assert callable(getattr(_module(mod_name), func)), f"{mod_name}.{func}"


def test_traced_methods_are_defined_on_their_class(tracer):
    for mod_name, cls_name, method in tracer.TRACED_METHODS:
        cls = getattr(_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(method)), f"{mod_name}.{cls_name}.{method}"


def test_names_the_run_calls_directly():
    boundary_map = _module("geometry").boundary_map
    info = boundary_map.cache_info()
    assert all(isinstance(n, int) for n in (info.hits, info.misses, info.currsize))
    assert boundary_map.__module__ == "fluxrec.geometry"
    assert boundary_map.__name__ == "boundary_map"
    assert callable(_module("fem").FactorizedSystem.solve_flux)
    assert callable(_module("fem").trace)
