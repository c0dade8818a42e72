"""Module state the tooling relies on.

``perfbench/tracer.py`` binds each (module, attribute) of its ``TRACED``
table with a strict ``getattr``, so renaming or removing one of them breaks
every traced benchmark run.  The file is loaded by path, as a plain module,
without installing anything.  The package's functools caches are pinned by
name, so a cache added or removed shows up as a test edit.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import package_lru_caches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, attribute, span", _traced())
def test_traced_entry_point_resolves(module, attribute, span):
    assert callable(getattr(importlib.import_module(module), attribute)), span


def test_package_cache_inventory():
    assert sorted(package_lru_caches()) == [
        "sfwmsim.dispersion._a_eff_cached",
        "sfwmsim.dispersion._mode_profile",
        "sfwmsim.dispersion._neff_table",
        "sfwmsim.efficiency.operating_point",
        "sfwmsim.numerics._gauss_nodes",
    ]
