"""Workloads of the sfwmsim benchmark: inputs, operations and answer checks.

Three workloads, each a closed loop with one operation in flight:

* ``sweep_pcf`` -- one ``sfwmsim sweep --include-cw`` row on a step-index
  PCF (fiber A): ``eta_pulsed_numeric``, ``eta_closed`` and ``eta_cw`` at
  sigma = 0.  Chosen because it is the main user path and the mode solve is
  most of its time; ``FiberSpec`` carries the length, so every operation
  pays all per-fiber set-up again.
* ``sweep_taylor`` -- the same row on a ``taylor_coefficients`` fiber (a
  degree-8 fit of fiber A around 708 nm).  Chosen because the HE11 solver
  is absent from its hot loop: what remains is adaptive quadrature, the
  pump convolution and Taylor k, so a mode-solve optimisation must show no
  change here.
* ``contour_cli`` -- one in-process ``cli.main(["contour", ..., "--svg"])``
  on fiber B.  Chosen because it uses the dispersion layer differently
  (scalar beta calls through Brent root finding and the orientation
  stencils), reuses one fiber across operations so per-fiber state and
  caches are kept, and is the only workload that exercises ``cli``,
  ``config_io`` and ``svg``.

The draws are made once, from ``POOL_SEED``, by ``make_reference.py``; it
stores them in ``reference/<workload>.json`` beside the answers and the CPU
time they had at the commit that generated them.  ``--seed`` then selects,
per round, one pool entry from each cost stratum (see ``draw_round``).  Draws
are not filtered: an entry whose answer raised when the reference was made
simply has no reference for that answer.

This module imports no sfwmsim code at import time; the operations take the
package as an argument so a traced run sees the patched names.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

POOL_SEED = 1309
REP_RATE_MHZ = 80.0

FIBER_A = {"core_radius_um": 0.97, "air_fill_fraction": 0.91}
FIBER_B = {"core_radius_um": 0.5, "air_fill_fraction": 0.6}

# beta_n [s^n/m] of fiber A at 708 nm: least-squares degree-8 fit of its
# step-index beta on 200 Chebyshev nodes over 0.55-0.95 um.  It reproduces
# fiber A's degenerate-pump eta (708 nm, 3 THz, 0.3 mW, L = 0.5 m) to 1e-6
# relative; the 521/1042 nm draws extrapolate it.
TAYLOR_A = {
    "lambda_ref_um": 0.708,
    "beta": [12709608.91856346, 4.972458401064144e-09,
             1.7257388265561942e-27, 6.591119073571425e-41,
             -5.586155955194142e-56, 9.39673010226559e-71,
             -1.7057484072930343e-85, 3.578548420376906e-100,
             -6.356628143533568e-115],
}

# contour_cli: fiber B pumped like the two-ZDW loop fixture of the tests
CONTOUR_CONFIG = {
    "fiber": dict(FIBER_B, length_m=1.0),
    "pump1": {"wavelength_um": 0.75, "sigma_THz": 5.0, "avg_power_mW": 0.3,
              "rep_rate_MHz": REP_RATE_MHZ},
}

# Pool size and operations per round (= cost strata).  A round takes 20-27 s
# at the reference commit on one core.
POOL = {
    # the main user path, where the mode solve is most of a pulsed and of a
    # CW eta; every row pays all per-fiber set-up again
    "sweep_pcf": (40, 5),
    # no HE11 solve in the hot loop: quadrature, pump convolution and Taylor
    # k remain, so a mode-solve optimisation must show no change here
    "sweep_taylor": (60, 16),
    # scalar beta calls through Brent and the orientation stencils, one
    # fiber reused with its caches, and the only user of cli, config_io, svg
    "contour_cli": (40, 7),
}
WORKLOADS = tuple(POOL)

# Inputs outside the pool that take the one-off warm-up of a process before
# the reference costs are measured
WARM_UP = {
    "sweep_pcf": {"fiber": dict(FIBER_A, length_m=0.5),
                  "pump1": {"wavelength_um": 0.708, "sigma_THz": 3.0,
                            "avg_power_mW": 0.3, "rep_rate_MHz": REP_RATE_MHZ}},
    "contour_cli": {"pump_range_um": [0.64, 0.87], "points": 8},
}
WARM_UP["sweep_taylor"] = {"fiber": dict(WARM_UP["sweep_pcf"]["fiber"], taylor=TAYLOR_A),
                           "pump1": WARM_UP["sweep_pcf"]["pump1"]}

# share of sweep draws pumped at 521/1042 nm instead of degenerately
NDP_SHARE = 0.25


# ---------------------------------------------------------------- inputs

def draw_pool_entry(workload, rng):
    """One input of ``workload`` drawn from ``rng`` (user-facing units)."""
    if workload == "contour_cli":
        return {"pump_range_um": [rng.uniform(0.64, 0.68),
                                  rng.uniform(0.83, 0.87)],
                "points": rng.randint(24, 40)}
    length = rng.uniform(0.2, 1.0)
    sigma = rng.uniform(1.0, 5.0)
    power = rng.uniform(0.1, 1.0)
    if rng.random() < NDP_SHARE:
        lams = (0.521, 1.042)
    else:
        lam = rng.uniform(0.704, 0.712)
        lams = (lam, lam)
    fiber = dict(FIBER_A, length_m=length)
    if workload == "sweep_taylor":
        fiber["taylor"] = TAYLOR_A
    pumps = [{"wavelength_um": lam, "sigma_THz": sigma, "avg_power_mW": power,
              "rep_rate_MHz": REP_RATE_MHZ} for lam in lams]
    return {"fiber": fiber, "pump1": pumps[0], "pump2": pumps[1]}


def draw_pool(workload):
    """The fixed input pool of ``workload`` (deterministic in POOL_SEED)."""
    size, _strata = POOL[workload]
    rng = random.Random(f"{POOL_SEED}:{workload}")
    return [draw_pool_entry(workload, rng) for _ in range(size)]


def strata(costs, n_strata):
    """Pool indices split into ``n_strata`` bands of ascending cost whose
    sizes differ by at most one."""
    order = sorted(range(len(costs)), key=lambda i: (costs[i], i))
    edges = [round(k * len(order) / n_strata) for k in range(n_strata + 1)]
    return [order[lo:hi] for lo, hi in zip(edges, edges[1:])]


def draw_round(costs, n_strata, seed, round_index, candidates=256):
    """Pool indices of one round, in the order they run.

    One entry per cost stratum, so every round spans cheap to expensive
    inputs.  Of ``candidates`` such draws the one whose reference-cost
    median and total sit closest to the pool's is kept: the benchmark
    reports the median and the rate of operations, and balancing both keeps
    every seed carrying the same load.
    """
    bands = strata(costs, n_strata)
    target_median = statistics.median(costs)
    target_total = sum(statistics.fmean(costs[i] for i in b) for b in bands)
    rng = random.Random(f"{seed}:{round_index}")
    best, best_dev = None, math.inf
    for _ in range(candidates):
        pick = [rng.choice(b) for b in bands]
        picked = [costs[i] for i in pick]
        dev = max(abs(statistics.median(picked) / target_median - 1.0),
                  abs(sum(picked) / target_total - 1.0))
        if dev < best_dev:
            best, best_dev = pick, dev
    rng.shuffle(best)
    return best


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ operations

def _column(call, record):
    """Answers of one sweep column, or the name of the typed error it raised."""
    import sfwmsim
    try:
        return record(call())
    except sfwmsim.SfwmError as exc:
        return {"error": type(exc).__name__}


def _pulsed_record(res):
    d = res.diagnostics
    center = d["center"]
    return {"eta": res.eta,
            "lambda_s_um": float(center.wavelengths_um[0]),
            "lambda_i_um": float(center.wavelengths_um[1]),
            "shell": d["shell"], "expansions": d["expansions"],
            "quadrature_error": d["quadrature_error"],
            "integral": d["integral"]}


def _cw_record(res):
    d = res.diagnostics
    return {"eta": res.eta, "expansions": d["expansions"],
            "quadrature_error": d["quadrature_error"],
            "integral": d["integral"]}


def sweep_row(sfwm, cfg):
    """One ``sweep --include-cw`` row, computed through the library."""
    from dataclasses import replace
    cw_cfg = replace(cfg, pump1=replace(cfg.pump1, sigma=0.0),
                     pump2=replace(cfg.pump2, sigma=0.0))
    return {
        "numeric": _column(lambda: sfwm.eta_pulsed_numeric(cfg), _pulsed_record),
        "closed": _column(lambda: sfwm.eta_closed(cfg), lambda r: {"eta": r.eta}),
        "cw": _column(lambda: sfwm.eta_cw(cw_cfg), _cw_record),
    }


def build_input(workload, sfwm, inp):
    """What the program receives for one pool input: a SourceConfig for the
    sweeps, the contour's command-line arguments as they are."""
    return inp if workload == "contour_cli" else sfwm.parse_config(inp)


def make_op(workload, sfwm, work, tag):
    """The operation of ``workload`` as a function of one built input.

    For ``contour_cli`` this writes the config JSON once, into ``work``.
    """
    if workload != "contour_cli":
        return lambda cfg: sweep_row(sfwm, cfg)
    config_path = os.path.join(work, f"{tag}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(CONTOUR_CONFIG, fh)
    out_csv = os.path.join(work, f"{tag}.csv")
    return lambda entry: contour_op(sfwm.cli, config_path, entry, out_csv)


def contour_op(cli, config_path, entry, out_csv):
    """One ``sfwmsim contour --svg`` invocation; answers read from its CSV."""
    lo, hi = entry["pump_range_um"]
    code = cli.main(["contour", "--config", config_path,
                     "--pump-range", f"{lo!r}:{hi!r}",
                     "--points", str(entry["points"]),
                     "--out", out_csv, "--svg"])
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    svg_ok = os.path.getsize(f"{out_csv}.svg") > 0 and \
        os.path.exists(f"{out_csv}.manifest.json")
    return {"exit_code": code, "svg": svg_ok, "points": len(rows),
            "branches": [r["branch"] for r in rows],
            "lambda_p_um": [float(r["lambda_p_um"]) for r in rows],
            "delta_s": [float(r["delta_s_rad_s"]) for r in rows],
            "theta": [float(r["theta_si_deg"]) for r in rows]}


# ---------------------------------------------------------- answer check
#
# Each tolerance is the accuracy the code itself requests for that answer:
#   * eta_pulsed_numeric integrates its outer axis at 1000 x the config
#     rel_tol (1e-6), so 1e-3;
#   * eta_cw and the effective-area integrals behind eta_closed run at the
#     config rel_tol or tighter, so 1e-6;
#   * the shell fraction is a ring integrated at 1e-3 relative with an
#     absolute floor of 1e-3 x SHELL_TOL of the total, on up to four strips;
#   * phasematched frequencies are Brent roots of a mismatch whose beta
#     cancellation leaves ~1e-9 relative noise, so 1e-9;
#   * contour angles come from 5-point stencils with ~5e-6 degree noise, so
#     1e-4 degree;
#   * window expansions, contour point counts and branches must match
#     exactly, and the achieved quadrature error may not exceed the larger
#     of the requested tolerance and the reference's.
REL_TOL = {"eta_numeric": 1e-3, "eta_closed": 1e-6, "eta_cw": 1e-6,
           "frequency": 1e-9}
SHELL_ABS_TOL = 4 * 1e-3 * 1e-2
THETA_ABS_TOL_DEG = 1e-4


def _close(value, ref, rel, abs_tol=0.0):
    return abs(value - ref) <= max(rel * abs(ref), abs_tol)


def _achieved(col):
    return col["quadrature_error"] / abs(col["integral"]) if col["integral"] else 0.0


def check_answers(workload, answers, ref):
    """List of mismatches between one operation's answers and its reference.

    A column that raised at the reference has no reference and is skipped.
    """
    bad = []
    if workload == "contour_cli":
        if answers["exit_code"] != 0 or not answers["svg"]:
            bad.append("exit code or figure")
        for key in ("points", "branches"):
            if answers[key] != ref[key]:
                bad.append(key)
        if answers["points"] == ref["points"]:
            for key, rel, abs_tol in (("lambda_p_um", REL_TOL["frequency"], 0.0),
                                      ("delta_s", REL_TOL["frequency"], 0.0),
                                      ("theta", 0.0, THETA_ABS_TOL_DEG)):
                if not all(_close(a, r, rel, abs_tol)
                           for a, r in zip(answers[key], ref[key])):
                    bad.append(key)
        return bad
    for name, rel, qtol in (("numeric", REL_TOL["eta_numeric"], 1e-3),
                            ("closed", REL_TOL["eta_closed"], None),
                            ("cw", REL_TOL["eta_cw"], 1e-6)):
        col, rcol = answers[name], ref[name]
        if "error" in rcol:
            continue
        if "error" in col:
            bad.append(f"{name}: raised {col['error']}")
            continue
        if not _close(col["eta"], rcol["eta"], rel):
            bad.append(f"{name}.eta")
        if name == "closed":
            continue
        if col["expansions"] != rcol["expansions"]:
            bad.append(f"{name}.expansions")
        if _achieved(col) > max(qtol, _achieved(rcol)):
            bad.append(f"{name}.quadrature_error")
        if name == "numeric":
            for key in ("lambda_s_um", "lambda_i_um"):
                if not _close(col[key], rcol[key], REL_TOL["frequency"]):
                    bad.append(f"numeric.{key}")
            if not _close(col["shell"], rcol["shell"], 1e-3, SHELL_ABS_TOL):
                bad.append("numeric.shell")
    return bad
