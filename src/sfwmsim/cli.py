"""Command-line interface.

JSON configs carry the physics; flags pick the analysis and output shape.
Six subcommands: ``dispersion``, ``gamma``, ``efficiency``, ``sweep``,
``jsa`` and ``contour``; only ``sweep`` and ``contour`` take ``--svg``,
which adds a figure next to the CSV.  Every output file gets a RunManifest
sidecar (<out>.manifest.json) with the config digest, tool version,
timestamp and the command line as ``main`` received it.  Exit codes:
0 success, 2 configuration/schema error, 3 numerical non-convergence.
``gamma``'s per-pump keys follow the stored pump order (lower carrier
frequency first, see ``SourceConfig``), each with its ``lambda_pump*_um``.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import shlex
import sys

import numpy as np

from . import __version__
from ._kernels_py import active_backend
from .config_io import config_digest, load_config
from .constants import um_from_omega, omega_from_um
from .dispersion import (beta1, beta2, effective_index, find_zero_dispersion,
                         nonlinear_parameters)
from .efficiency import eta_closed, eta_cw, eta_pulsed_numeric
from .errors import (ConfigError, DivergenceError, NoPhasematchError,
                     NonConvergenceError, RegimeError, SfwmError,
                     WavelengthRangeError, WindowError)
from .phasematch import contour
from .sfwm import jsa_grid, peak_power, solve_phasematch_center
from . import svg as svgmod

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_NUMERIC_FAILURES = (NonConvergenceError, WindowError, NoPhasematchError)


def _fmt(value):
    if value is None:
        return ""
    return f"{value:.12g}"


def _write_manifest(out_path, args):
    manifest = {
        "config_sha256": config_digest(args.config),
        "tool": "sfwmsim",
        "version": __version__,
        "backend": active_backend(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": args.command_line,
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _echo_summary(config):
    dispersion = "step-index" if config.fiber.taylor is None else "taylor"
    lines = [f"fiber: r={config.fiber.core_radius*1e6:.4g} um, "
             f"f={config.fiber.air_fill_fraction:.4g}, "
             f"L={config.fiber.length:.4g} m, dispersion={dispersion}"]
    for name, pump in (("pump1", config.pump1), ("pump2", config.pump2)):
        if pump.is_cw:
            lines.append(f"{name}: {pump.wavelength_um:.4f} um, CW, "
                         f"p={pump.avg_power*1e3:.4g} mW")
        else:
            lines.append(f"{name}: {pump.wavelength_um:.4f} um, "
                         f"sigma={pump.sigma/1e12:.4g} THz, "
                         f"p={pump.avg_power*1e3:.4g} mW, "
                         f"f_r={pump.rep_rate/1e6:.4g} MHz, "
                         f"P_peak={peak_power(pump):.4g} W")
    print("\n".join(lines), file=sys.stderr)


def _parse_range(text, what):
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"{what} must look like LO:HI, got {text!r}") from exc
    if not lo < hi:
        raise ConfigError(f"{what} must satisfy LO < HI, got {text!r}")
    return lo, hi


def _positive_int(text):
    """argparse type of ``--points``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _result_record(result):
    diag = {}
    for key, value in result.diagnostics.items():
        if key == "center":
            diag["lambda_s_um"] = um_from_omega(value.omega_s)
            diag["lambda_i_um"] = um_from_omega(value.omega_i)
            diag["residual_per_m"] = value.residual
        elif isinstance(value, (int, float, str)):
            diag[key] = value
        elif isinstance(value, tuple) and all(
                isinstance(v, (int, float)) for v in value):
            diag[key] = list(value)
    return {"eta": result.eta, "pairs_per_second": result.pairs_per_second,
            "method": result.method, "diagnostics": diag}


def cmd_dispersion(config, args):
    lo, hi = _parse_range(args.range, "--range")
    n = args.points
    lams = np.linspace(lo, hi, n)
    rows = []
    for lam in lams:
        try:
            om = omega_from_um(float(lam))
            rows.append((lam, effective_index(om, config.fiber),
                         beta1(om, config.fiber) * 1e12,
                         beta2(om, config.fiber) * 1e27))
        except (WavelengthRangeError, SfwmError) as exc:
            print(f"warning: {lam:.4f} um: {exc}", file=sys.stderr)
            rows.append((lam, None, None, None))
    try:
        zdws = find_zero_dispersion(config.fiber, (lo, hi))
    except SfwmError:
        zdws = []
    out = args.out or "dispersion.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_um", "n_eff", "beta1_ps_per_m",
                         "beta2_ps2_per_m"])
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        for z in zdws:
            fh.write(f"# zero_dispersion_um,{z:.9g}\n")
    _write_manifest(out, args)
    return 0


def cmd_gamma(config, args):
    center = solve_phasematch_center(config)
    params = nonlinear_parameters(config.fiber, config.pump1.omega0,
                                  config.pump2.omega0, center.omega_s,
                                  center.omega_i)
    record = {
        "gamma_sfwm_per_W_km": params.gamma_sfwm * 1e3,
        "gamma_pump1_per_W_km": params.gamma_pump_1 * 1e3,
        "gamma_pump2_per_W_km": params.gamma_pump_2 * 1e3,
        "lambda_pump1_um": config.pump1.wavelength_um,
        "lambda_pump2_um": config.pump2.wavelength_um,
        "a_eff_um2": params.a_eff * 1e12,
        "lambda_s_um": um_from_omega(center.omega_s),
        "lambda_i_um": um_from_omega(center.omega_i),
    }
    _emit_json(record, args)
    return 0


def _emit_json(record, args):
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_manifest(args.out, args)
    else:
        sys.stdout.write(text)


def cmd_efficiency(config, args):
    method = args.method
    if method == "cw" and not config.is_cw:
        raise ConfigError("cw method needs monochromatic pumps (sigma_THz = 0)")
    if method in ("numeric", "closed") and config.is_cw:
        raise ConfigError(f"{method} method needs pulsed pumps (sigma_THz > 0)")
    records = {}
    if method in ("numeric", "all") and not config.is_cw:
        records["numeric"] = _result_record(eta_pulsed_numeric(config))
    if method in ("closed", "all") and not config.is_cw:
        records["closed"] = _result_record(eta_closed(config))
    if (method == "cw" or (method == "all" and config.is_cw)):
        records["cw"] = _result_record(eta_cw(config))
    if not records:
        raise ConfigError(f"no applicable method for {method!r} in this regime")
    out = {"results": records}
    names = sorted(records)
    if len(names) > 1:
        diffs = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ea, eb = records[a]["eta"], records[b]["eta"]
                diffs[f"{a}_vs_{b}"] = abs(ea - eb) / max(abs(ea), abs(eb))
        out["relative_differences"] = diffs
    _emit_json(out, args)
    return 0


def _sweep_config(config, parameter, value):
    from dataclasses import replace
    if parameter == "length":
        return replace(config, fiber=replace(config.fiber, length=value))
    if parameter == "power":
        watts = value * 1e-3
        return replace(config,
                       pump1=replace(config.pump1, avg_power=watts),
                       pump2=replace(config.pump2, avg_power=watts))
    if parameter == "bandwidth":
        rads = value * 1e12
        return replace(config,
                       pump1=replace(config.pump1, sigma=rads),
                       pump2=replace(config.pump2, sigma=rads))
    if parameter == "pump-frequency":
        om = omega_from_um(value)
        return replace(config,
                       pump1=replace(config.pump1, omega0=om),
                       pump2=replace(config.pump2, omega0=om))
    raise ConfigError(f"unknown sweep parameter {parameter!r}")


_SWEEP_COLUMN = {"length": "length_m", "power": "avg_power_mW",
                 "bandwidth": "sigma_THz", "pump-frequency": "lambda_p_um"}


def cmd_sweep(config, args):
    lo, hi = _parse_range(args.range, "--range")
    values = np.linspace(lo, hi, args.points)
    col = _SWEEP_COLUMN[args.parameter]
    rows = []
    failures = 0
    for value in values:
        row = {"x": float(value), "eta_numeric": None, "eta_closed": None,
               "eta_cw": None, "pairs_per_second": None, "error": ""}
        errors = []
        try:
            cfg = _sweep_config(config, args.parameter, float(value))
        except (ConfigError, ValueError) as exc:
            row["error"] = str(exc)
            failures += 1
            rows.append(row)
            continue
        if cfg.is_cw:
            try:
                res = eta_cw(cfg)
                row["eta_cw"] = res.eta
                row["pairs_per_second"] = res.pairs_per_second
            except (SfwmError,) as exc:
                errors.append(f"cw: {exc}")
        else:
            try:
                res = eta_pulsed_numeric(cfg)
                row["eta_numeric"] = res.eta
                row["pairs_per_second"] = res.pairs_per_second
            except (SfwmError,) as exc:
                errors.append(f"numeric: {exc}")
            try:
                row["eta_closed"] = eta_closed(cfg).eta
            except (SfwmError,) as exc:
                errors.append(f"closed: {exc}")
            if args.include_cw:
                try:
                    from dataclasses import replace
                    cw_cfg = replace(
                        cfg, pump1=replace(cfg.pump1, sigma=0.0),
                        pump2=replace(cfg.pump2, sigma=0.0))
                    row["eta_cw"] = eta_cw(cw_cfg).eta
                except (SfwmError,) as exc:
                    errors.append(f"cw: {exc}")
        if errors and row["eta_numeric"] is None and row["eta_cw"] is None \
                and row["eta_closed"] is None:
            failures += 1
        row["error"] = "; ".join(errors)
        rows.append(row)

    out = args.out or "sweep.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [col, "eta_numeric", "eta_closed"]
        if args.include_cw or config.is_cw:
            header.append("eta_cw")
        header += ["pairs_per_second", "error"]
        writer.writerow(header)
        for row in rows:
            record = [_fmt(row["x"]), _fmt(row["eta_numeric"]),
                      _fmt(row["eta_closed"])]
            if args.include_cw or config.is_cw:
                record.append(_fmt(row["eta_cw"]))
            record += [_fmt(row["pairs_per_second"]), row["error"]]
            writer.writerow(record)
    _write_manifest(out, args)
    if args.svg:
        series = {"eta_numeric": [r["eta_numeric"] for r in rows],
                  "eta_closed": [r["eta_closed"] for r in rows]}
        if args.include_cw or config.is_cw:
            series["eta_cw"] = [r["eta_cw"] for r in rows]
        svgmod.line_plot(f"{out}.svg", [r["x"] for r in rows], series,
                         col, "conversion efficiency",
                         title=f"sweep: {args.parameter}")
        _write_manifest(f"{out}.svg", args)
    if failures > 0.1 * len(rows):
        print(f"error: {failures}/{len(rows)} sweep points failed",
              file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_jsa(config, args):
    grid = jsa_grid(config, n_s=args.points, n_i=args.points)
    out = args.out or "jsa.csv"
    s_axis, i_axis, amp = grid.as_arrays()
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega_s_rad_s", "omega_i_rad_s",
                         "re_amplitude", "im_amplitude"])
        for i_s, om_s in enumerate(s_axis):
            for i_i, om_i in enumerate(i_axis):
                val = amp[i_s, i_i]
                writer.writerow([_fmt(float(om_s)), _fmt(float(om_i)),
                                 _fmt(val.real), _fmt(val.imag)])
    _write_manifest(out, args)
    return 0


def cmd_contour(config, args):
    lo, hi = _parse_range(args.pump_range, "--pump-range")
    points = contour(config, (lo, hi), args.points)
    if not points:
        print("warning: empty contour in the requested pump range",
              file=sys.stderr)
    points = sorted(points, key=lambda p: (p.pump_wavelength_um,
                                           p.branch != "outer",
                                           -p.detuning_signal))
    out = args.out or "contour.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_p_um", "delta_s_rad_s", "delta_i_rad_s",
                         "theta_si_deg", "branch"])
        for p in points:
            writer.writerow([_fmt(p.pump_wavelength_um),
                             _fmt(p.detuning_signal), _fmt(p.detuning_idler),
                             _fmt(p.theta_si), p.branch])
    _write_manifest(out, args)
    if args.svg:
        svgmod.contour_plot(f"{out}.svg", points, title="phasematching loop")
        _write_manifest(f"{out}.svg", args)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sfwmsim",
        description="Design and simulation of fiber photon-pair sources "
                    "based on spontaneous four-wave mixing.")
    parser.add_argument("--version", action="version",
                        version=f"sfwmsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output file path")

    p = sub.add_parser("dispersion", help="n_eff, beta1, beta2 vs wavelength")
    common(p)
    p.add_argument("--range", default="0.45:1.6",
                   help="wavelength range in um, LO:HI")
    p.add_argument("--points", type=_positive_int, default=200)

    p = sub.add_parser("gamma", help="nonlinear coefficients at phasematch")
    common(p)

    p = sub.add_parser("efficiency", help="conversion efficiency")
    common(p)
    p.add_argument("--method", choices=("numeric", "closed", "cw", "all"),
                   default="all")

    p = sub.add_parser("sweep", help="efficiency vs a swept parameter")
    common(p)
    p.add_argument("--parameter", required=True,
                   choices=("length", "power", "bandwidth", "pump-frequency"))
    p.add_argument("--range", required=True,
                   help="sweep range LO:HI (m, mW, THz or um)")
    p.add_argument("--points", type=_positive_int, default=8)
    p.add_argument("--include-cw", action="store_true",
                   help="add the monochromatic-pump efficiency column")
    p.add_argument("--svg", action="store_true",
                   help="also render an SVG figure")

    p = sub.add_parser("jsa", help="joint spectral amplitude grid")
    common(p)
    p.add_argument("--points", type=_positive_int, default=64)

    p = sub.add_parser("contour", help="phasematching loop vs pump wavelength")
    common(p)
    p.add_argument("--pump-range", required=True,
                   help="pump wavelength range in um, LO:HI")
    p.add_argument("--points", type=_positive_int, default=40)
    p.add_argument("--svg", action="store_true",
                   help="also render an SVG figure")

    return parser


# parse_args leaves the parser unchanged, so one serves every call of main
_PARSER = build_parser()

_COMMANDS = {
    "dispersion": cmd_dispersion,
    "gamma": cmd_gamma,
    "efficiency": cmd_efficiency,
    "sweep": cmd_sweep,
    "jsa": cmd_jsa,
    "contour": cmd_contour,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _PARSER.parse_args(argv)
    args.command_line = "sfwmsim " + shlex.join(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _echo_summary(config)
    try:
        return _COMMANDS[args.command](config, args)
    except (ConfigError, RegimeError, DivergenceError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
