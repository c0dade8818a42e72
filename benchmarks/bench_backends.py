#!/usr/bin/env python3
"""Benchmark: compiled kernel extension vs pure-NumPy fallback.

Times the seeded fundamental-mode solver at several batch sizes, the build
of the per-geometry n_eff table and its evaluation at the same batch sizes
(the path that serves array queries), and one full numeric efficiency
evaluation per backend.  Run from the repo root (with the package
installed, or from the source tree):

    PYTHONPATH=src python benchmarks/bench_backends.py

Force the fallback in a separate process via SFWMSIM_PURE_PYTHON=1; this
script spawns both variants itself.
"""
import json
import os
import subprocess
import sys
import time

_WORKER = """
import json, os, sys, time
import numpy as np
from sfwmsim.backend import active_backend, kernels
from sfwmsim.constants import omega_from_um

out = {"backend": active_backend(), "solve_us_per_point": {},
       "table_us_per_point": {}}
lam = np.geomspace(0.23, 3.5, 192)
seed_om = np.sort(2e6 * np.pi * 299792458.0 / lam)
neff, _u, _w = kernels.he11_solve(seed_om, 0.97e-6, 0.91)
nco = kernels.sellmeier_n(2e6 * np.pi * 299792458.0 / seed_om)
ncl = 0.91 + 0.09 * nco
seed_b = (neff ** 2 - ncl ** 2) / (nco ** 2 - ncl ** 2)

for size in (32, 150, 1000, 20000):
    om = np.linspace(omega_from_um(0.80), omega_from_um(0.60), size)
    reps = max(3, 20000 // size)
    kernels.he11_solve_seeded(om, 0.97e-6, 0.91, seed_om, seed_b)
    t0 = time.perf_counter()
    for _ in range(reps):
        kernels.he11_solve_seeded(om, 0.97e-6, 0.91, seed_om, seed_b)
    dt = (time.perf_counter() - t0) / reps
    out["solve_us_per_point"][str(size)] = 1e6 * dt / size

from sfwmsim.dispersion import FiberSpec, _neff_table, effective_index
fiber = FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91, length=0.5)
builds = []
for _ in range(5):
    _neff_table.cache_clear()
    t0 = time.perf_counter()
    _neff_table(fiber.core_radius, fiber.air_fill_fraction)
    builds.append(time.perf_counter() - t0)
out["table_build_ms"] = 1e3 * sorted(builds)[2]
for size in (32, 150, 1000, 20000):
    om = np.linspace(omega_from_um(0.80), omega_from_um(0.60), size)
    reps = max(3, 20000 // size)
    effective_index(om, fiber)
    t0 = time.perf_counter()
    for _ in range(reps):
        effective_index(om, fiber)
    dt = (time.perf_counter() - t0) / reps
    out["table_us_per_point"][str(size)] = 1e6 * dt / size

from sfwmsim.sfwm import PumpSpec, SourceConfig
from sfwmsim.efficiency import eta_pulsed_numeric
pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
t0 = time.perf_counter()
res = eta_pulsed_numeric(cfg)
out["eta_pulsed_seconds"] = time.perf_counter() - t0
out["eta"] = res.eta
print(json.dumps(out))
"""


def run(pure_python):
    env = dict(os.environ)
    if pure_python:
        env["SFWMSIM_PURE_PYTHON"] = "1"
    else:
        env.pop("SFWMSIM_PURE_PYTHON", None)
    proc = subprocess.run([sys.executable, "-c", _WORKER], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    results = [run(pure_python=False), run(pure_python=True)]
    if results[0]["backend"] == results[1]["backend"]:
        print("compiled extension not built; showing the fallback only")
        results = results[:1]
    print(f"{'us per point':>12} " + " ".join(
        f"{'seeded ' + r['backend']:>18} {'table ' + r['backend']:>18}"
        for r in results))
    sizes = sorted(results[0]["solve_us_per_point"], key=int)
    for size in sizes:
        row = " ".join(f"{r['solve_us_per_point'][size]:>15.3f} us "
                       f"{r['table_us_per_point'][size]:>15.3f} us"
                       for r in results)
        print(f"{size:>12} {row}")
    print(f"{'table build':>12} " + " ".join(
        f"{r['table_build_ms']:>34.2f} ms" for r in results))
    print(f"{'eta (1 run)':>12} " + " ".join(
        f"{r['eta_pulsed_seconds']:>12.2f} s" for r in results))
    etas = {r["eta"] for r in results}
    if len(results) == 2:
        rel = abs(results[0]["eta"] - results[1]["eta"]) / results[0]["eta"]
        print(f"eta agreement between backends: {rel:.2e} relative")


if __name__ == "__main__":
    main()
