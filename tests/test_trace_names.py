"""Every name the benchmark's per-layer trace reports still exists.

``benchmarks/tracing.py`` lists a missing name and reads its metrics as 0
rather than failing, so a kernel renamed or removed here would only show
as ``trace.missing_names`` in a traced benchmark run.  This test loads the
file and resolves each name the way its ``Tracer.install`` does.
"""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing() -> types.ModuleType:
    """The trace module, run from its source (no bytecode is written)."""
    module = types.ModuleType("polyident_bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), TRACING, "exec"), module.__dict__)
    return module


tracing = _load_tracing()


def _traced_names() -> list[str]:
    """The names the trace wraps or reads: METHODS, the SPAN_METRICS keys,
    the CACHE_METRICS values, both names of each NODE_CACHE_METRICS pair,
    INTEGRAL, RUN_TASK and EMIT."""
    names = [*tracing.METHODS, *tracing.SPAN_METRICS, *tracing.CACHE_METRICS.values(),
             *(name for pair in tracing.NODE_CACHE_METRICS.values() for name in pair),
             tracing.INTEGRAL, tracing.RUN_TASK, tracing.EMIT]
    return sorted(set(names))


@pytest.mark.parametrize("name", _traced_names())
def test_each_traced_name_resolves(name):
    # a method span resolves through METHODS; any other name is a public
    # function defined in its layer module, which install() wraps
    if name in tracing.METHODS:
        layer, cls_name, method = tracing.METHODS[name]
        cls = getattr(importlib.import_module(f"{tracing.PACKAGE}.{layer}"), cls_name, None)
        assert isinstance(cls, type), f"{name}: no class {layer}.{cls_name}"
        assert inspect.isfunction(inspect.getattr_static(cls, method, None)), name
        return
    layer, attr = name.split(".", 1)
    assert layer in tracing.LAYERS, name
    module = importlib.import_module(f"{tracing.PACKAGE}.{layer}")
    obj = getattr(module, attr, None)
    assert obj is not None, f"{name}: no such attribute"
    assert tracing._is_public_function(attr, obj, module.__name__), name
