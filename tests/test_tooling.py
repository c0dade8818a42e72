"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracer.py`` binds each (module, attribute) of its ``TRACED``
table with a strict ``getattr``, so renaming or removing one of them breaks
every traced benchmark run.  The file is loaded by path, as a plain module,
without installing anything.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attribute, span", _traced())
def test_traced_entry_point_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute)), span
