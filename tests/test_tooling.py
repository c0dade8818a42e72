"""Module state the tooling relies on.

``perfbench/tracer.py`` binds each (module, attribute) of its ``TRACED``
table with a strict ``getattr``, so renaming or removing one of them breaks
every traced benchmark run.  The file is loaded by path, as a plain module,
without installing anything.  The package's functools caches are pinned by
name, so a cache added or removed shows up as a test edit.  SciPy is a test
dependency only: running the package loads none of it.  Neither does a run
load ``hashlib`` (whose ``_hashlib`` maps OpenSSL's libcrypto) or
``numpy.polynomial``: not the CLI writing its outputs and manifests, nor a
pulsed or CW eta on a step-index or a Taylor fiber.
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


LEAN_RUN = """
import json, sys
import sfwmsim, sfwmsim.cli
from sfwmsim.constants import omega_from_um
from sfwmsim.dispersion import FiberSpec, TaylorDispersion
from sfwmsim.efficiency import eta_cw, eta_pulsed_numeric
from sfwmsim.sfwm import PumpSpec, SourceConfig
work = sys.argv[1]
with open(work + "/loop.json", "w") as fh:
    json.dump({"fiber": {"core_radius_um": 0.5, "air_fill_fraction": 0.6,
                         "length_m": 1.0},
               "pump1": {"wavelength_um": 0.75, "sigma_THz": 5.0,
                         "avg_power_mW": 0.3, "rep_rate_MHz": 80.0}}, fh)
assert sfwmsim.cli.main(["contour", "--config", work + "/loop.json",
                         "--pump-range", "0.74:0.76", "--points", "2",
                         "--out", work + "/contour.csv", "--svg"]) == 0
taylor = TaylorDispersion(     # fiber A's fit at 708 nm, to beta_4
    reference_frequency=omega_from_um(0.708), beta_coefficients=(
        12709608.91856346, 4.972458401064144e-09, 1.7257388265561942e-27,
        6.591119073571425e-41, -5.586155955194142e-56))
for fiber in (FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91,
                        length=0.5),
              FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91,
                        length=0.5, taylor=taylor)):
    for pump in (PumpSpec.from_units(0.708, 3.0, 0.3, 80.0),
                 PumpSpec.from_units(0.708, 0.0, 0.3)):
        config = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        (eta_cw if config.is_cw else eta_pulsed_numeric)(config)
print(sorted(m for m in ("_hashlib", "hashlib", "numpy.polynomial")
             if m in sys.modules))
"""


def test_runs_without_openssl(tmp_path):
    # a fresh interpreter, whose CLI run writes two outputs and their
    # manifests; the pulsed etas take the pump rule (orders other than 15)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", LEAN_RUN, str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[-2] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "contour.csv", "contour.csv.manifest.json", "contour.csv.svg",
        "contour.csv.svg.manifest.json", "loop.json"]


def test_config_digest_is_the_sha256_of_the_bytes(tmp_path, monkeypatch):
    from sfwmsim.config_io import config_digest
    path = tmp_path / "config.json"
    for body in (b"", b'{"fiber": {"length_m": 0.5}}\n'):
        path.write_bytes(body)
        want = hashlib.sha256(body).hexdigest()
        assert config_digest(path) == want
        with monkeypatch.context() as patch:
            # as where CPython has no SHA-256 of its own (some FIPS builds)
            patch.setitem(sys.modules, "_sha2", None)
            patch.setitem(sys.modules, "_sha256", None)
            assert config_digest(path) == want
