"""The benchmark's tracer names library functions by string: benchmarks/spans.py
wraps every name in its ``_SPANNED`` table, and ``--trace 1`` raises
``AttributeError`` on one that no longer exists.  Its ``_MARCHES`` counter
binds each march's arguments by name on every traced call, so a renamed
parameter breaks ``--trace 1`` too.  Loading the tables here makes a rename
or a deletion fail the test suite instead."""

import importlib
import importlib.util
import inspect
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    pytest.importorskip("scipy")  # spans.py imports it at the top
    path = os.path.join(REPO_ROOT, "benchmarks", "spans.py")
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_spanned_name_resolves_on_its_module():
    spans = load_spans()
    missing = [
        f"{module.__name__}.{name}"
        for module, names in spans._SPANNED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"benchmarks/spans.py wraps names that do not exist: {missing}"


def test_every_counted_march_has_the_parameters_the_counter_binds():
    spans = load_spans()
    wrong = {}
    for name in spans._MARCHES:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"pullbacklab.{layer}"), attr)
        lacking = {"t_start", "t_end", "cfg"} - set(inspect.signature(fn).parameters)
        if lacking:
            wrong[name] = sorted(lacking)
    assert not wrong, f"benchmarks/spans.py counts steps with names these lack: {wrong}"
