"""The benchmark's tracer names library functions by string: benchmarks/spans.py
wraps every name in its ``_SPANNED`` table, and ``--trace 1`` raises
``AttributeError`` on one that no longer exists.  Loading the table here
makes a rename or a deletion fail the test suite instead."""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_spanned_name_resolves_on_its_module():
    pytest.importorskip("scipy")  # spans.py imports it at the top
    path = os.path.join(REPO_ROOT, "benchmarks", "spans.py")
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module.__name__}.{name}"
        for module, names in spans._SPANNED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert not missing, f"benchmarks/spans.py wraps names that do not exist: {missing}"
