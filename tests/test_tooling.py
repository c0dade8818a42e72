"""Module state the tooling relies on.

``perfbench/tracer.py`` binds each (module, attribute) of its ``TRACED``
table with a strict ``getattr``, so renaming or removing one of them breaks
every traced benchmark run.  The file is loaded by path, as a plain module,
without installing anything.  The package's functools caches are pinned by
name, so a cache added or removed shows up as a test edit.  SciPy is a test
dependency only: running the package loads none of it, and neither does it
load ``hashlib`` (whose ``_hashlib`` maps OpenSSL's libcrypto).
"""
import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
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
        "sfwmsim.dispersion._step_index",
        "sfwmsim.efficiency.operating_point",
        "sfwmsim.numerics._gauss_nodes",
    ]


def test_taylor_k_is_bound_on_its_class():
    # the tracer reads and replaces ``TaylorDispersion.__dict__["k"]``; a k
    # inherited from a shared base class would break every traced run
    from sfwmsim.dispersion import TaylorDispersion
    assert "k" in TaylorDispersion.__dict__


NO_SCIPY = """
import sys
import sfwmsim, sfwmsim.cli
from sfwmsim.constants import omega_from_um
from sfwmsim.dispersion import FiberSpec, beta, gamma_sfwm, mode_profile
fiber = FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91, length=0.5)
om_p, om_s = omega_from_um(0.708), omega_from_um(0.65)
beta(om_p, fiber)
mode_profile(om_p, fiber).amplitude(1e-6)
gamma_sfwm(fiber, om_p, om_p, om_s, 2 * om_p - om_s)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_runs_without_scipy():
    # a fresh interpreter: this test process has SciPy loaded by other tests
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[-2] == "[]"


NO_OPENSSL = """
import sys
import sfwmsim, sfwmsim.cli
from sfwmsim.dispersion import FiberSpec
from sfwmsim.efficiency import eta_cw, eta_pulsed_numeric
from sfwmsim.sfwm import PumpSpec, SourceConfig
fiber = FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91, length=0.5)
for pump in (PumpSpec.from_units(0.708, 3.0, 0.3, 80.0),
             PumpSpec.from_units(0.708, 0.0, 0.3)):
    config = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
    (eta_cw if config.is_cw else eta_pulsed_numeric)(config)
print(sorted(m for m in ("_hashlib", "hashlib") if m in sys.modules))
"""


def test_runs_without_openssl():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", NO_OPENSSL], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[-2] == "[]"


def test_config_digest_is_the_sha256_of_the_bytes(tmp_path):
    from sfwmsim.config_io import config_digest
    path = tmp_path / "config.json"
    path.write_bytes(b'{"fiber": {"length_m": 0.5}}\n')
    assert config_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
