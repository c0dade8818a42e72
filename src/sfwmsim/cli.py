"""Command-line interface.

JSON configs carry the physics; flags pick the analysis and output shape.
Six subcommands: ``dispersion``, ``gamma``, ``efficiency``, ``sweep``,
``jsa`` and ``contour``; only ``sweep`` and ``contour`` take ``--svg``,
which adds a figure next to the CSV.  One function, ``_write``, writes
every output file and its RunManifest sidecar (<out>.manifest.json) with
the config digest, tool version, timestamp and the command line as
``main`` received it.  Exit codes: 0 success; 2 when the input asks what
the model cannot answer (ConfigError, RegimeError, DivergenceError,
WavelengthRangeError, ModeCutoffError) or an output cannot be written; 3 for
every other package error, a numerical failure (NonConvergenceError,
WindowError, NoPhasematchError, OverlapError, BracketError).
``gamma``'s per-pump keys follow the stored pump order (lower carrier
frequency first, see ``SourceConfig``), each with its ``lambda_pump*_um``.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import shlex
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np

from . import __version__
from ._kernels_py import active_backend
from .config_io import config_digest, load_config
from .constants import um_from_omega, omega_from_um
from .dispersion import (beta1, beta2, effective_index, find_zero_dispersion,
                         nonlinear_parameters)
from .efficiency import eta_closed, eta_cw, eta_pulsed_numeric
from .errors import (ConfigError, DivergenceError, ModeCutoffError,
                     RegimeError, SfwmError, WavelengthRangeError)
from .phasematch import contour
from .sfwm import jsa_grid, peak_power, solve_phasematch_center
from . import svg as svgmod

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# package errors that say the input asks what the model cannot answer; every
# other package error is a numerical failure
_CONFIG_FAILURES = (ConfigError, RegimeError, DivergenceError,
                    WavelengthRangeError, ModeCutoffError)


def _fmt(value):
    if value is None:
        return ""
    return f"{value:.12g}"


def _csv(header, rows):
    """CSV text of a table: numbers through ``_fmt``, strings as they are."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([v if isinstance(v, str) else _fmt(v) for v in row]
                     for row in rows)
    return buf.getvalue()


def _write(path, text, args):
    """Write one output file and its RunManifest (<path>.manifest.json).

    An output that cannot be written is a ConfigError naming its path.
    """
    manifest = {
        "config_sha256": config_digest(args.config),
        "tool": "sfwmsim",
        "version": __version__,
        "backend": active_backend(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": args.command_line,
    }
    sidecar = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    for name, body in ((path, text), (f"{path}.manifest.json", sidecar)):
        try:
            with open(name, "w", newline="", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}",
                              field=str(name)) from exc


def _echo_summary(config):
    lines = [f"fiber: r={config.fiber.core_radius*1e6:.4g} um, "
             f"f={config.fiber.air_fill_fraction:.4g}, "
             f"L={config.fiber.length:.4g} m, "
             f"dispersion={config.fiber.dispersion.label}"]
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
        except SfwmError as exc:
            print(f"warning: {lam:.4f} um: {exc}", file=sys.stderr)
            rows.append((lam, None, None, None))
    try:
        zdws = find_zero_dispersion(config.fiber, (lo, hi))
    except SfwmError:
        zdws = []
    text = _csv(["lambda_um", "n_eff", "beta1_ps_per_m", "beta2_ps2_per_m"],
                rows)
    text += "".join(f"# zero_dispersion_um,{z:.9g}\n" for z in zdws)
    _write(args.out or "dispersion.csv", text, args)
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
        _write(args.out, text, args)
    else:
        sys.stdout.write(text)


# the efficiency methods of each regime (keyed by is_cw), the main one first
_METHODS = {False: {"numeric": eta_pulsed_numeric, "closed": eta_closed},
            True: {"cw": eta_cw}}


def cmd_efficiency(config, args):
    own = _METHODS[config.is_cw]
    if args.method != "all" and args.method not in own:
        need = ("pulsed pumps (sigma_THz > 0)" if config.is_cw
                else "monochromatic pumps (sigma_THz = 0)")
        raise ConfigError(f"{args.method} method needs {need}")
    names = own if args.method == "all" else (args.method,)
    records = {name: _result_record(own[name](config)) for name in names}
    out = {"results": records}
    if len(records) > 1:
        out["relative_differences"] = {
            f"{a}_vs_{b}": abs(ea - eb) / max(abs(ea), abs(eb))
            for (a, ea), (b, eb) in combinations(
                sorted((name, r["eta"]) for name, r in records.items()), 2)}
    _emit_json(out, args)
    return 0


# per swept parameter: its CSV column, the PumpSpec field it sets on both
# pumps (None: the fiber length) and its conversion from the CLI unit to SI
_SWEEP = {"length": ("length_m", None, float),
          "power": ("avg_power_mW", "avg_power", lambda mw: mw * 1e-3),
          "bandwidth": ("sigma_THz", "sigma", lambda thz: thz * 1e12),
          "pump-frequency": ("lambda_p_um", "omega0", omega_from_um)}


def _sweep_config(config, parameter, value):
    _column, field, to_si = _SWEEP[parameter]
    si = to_si(value)
    if field is None:
        return replace(config, fiber=replace(config.fiber, length=si))
    return replace(config, pump1=replace(config.pump1, **{field: si}),
                   pump2=replace(config.pump2, **{field: si}))


def _sweep_row(cfg, include_cw):
    """({eta column: eta}, pairs_per_second, errors) of one sweep row.

    The config's own methods, plus ``eta_cw`` at zero pump bandwidths if
    ``include_cw`` and the config is pulsed; pairs_per_second is the main
    method's, and errors holds "<method>: <message>" per method that raised.
    """
    runs = [(name, method, cfg)
            for name, method in _METHODS[cfg.is_cw].items()]
    if include_cw and not cfg.is_cw:
        runs.append(("cw", eta_cw, replace(
            cfg, pump1=replace(cfg.pump1, sigma=0.0),
            pump2=replace(cfg.pump2, sigma=0.0))))
    etas, pairs, errors = {}, None, []
    for k, (name, method, run_cfg) in enumerate(runs):
        try:
            res = method(run_cfg)
        except SfwmError as exc:
            errors.append(f"{name}: {exc}")
            continue
        etas[f"eta_{name}"] = res.eta
        if k == 0:
            pairs = res.pairs_per_second
    return etas, pairs, errors


def cmd_sweep(config, args):
    lo, hi = _parse_range(args.range, "--range")
    col = _SWEEP[args.parameter][0]
    columns = ["eta_numeric", "eta_closed"]
    if args.include_cw or config.is_cw:
        columns.append("eta_cw")
    rows = []           # (x, etas, pairs_per_second, error)
    for value in np.linspace(lo, hi, args.points):
        x = float(value)
        try:
            cfg = _sweep_config(config, args.parameter, x)
        except (ConfigError, ValueError) as exc:
            rows.append((x, {}, None, str(exc)))
            continue
        etas, pairs, errors = _sweep_row(cfg, args.include_cw)
        rows.append((x, etas, pairs, "; ".join(errors)))
    # a row fails when it has no eta: its config was invalid or every
    # method it ran raised
    failures = sum(not etas for _x, etas, _p, _e in rows)

    out = args.out or "sweep.csv"
    _write(out, _csv([col, *columns, "pairs_per_second", "error"],
                     [(x, *(etas.get(c) for c in columns), pairs, error)
                      for x, etas, pairs, error in rows]), args)
    if args.svg:
        series = {c: [etas.get(c) for _x, etas, _p, _e in rows]
                  for c in columns}
        _write(f"{out}.svg", svgmod.line_plot(
            [x for x, *_ in rows], series, col, "conversion efficiency",
            title=f"sweep: {args.parameter}"), args)
    if failures > 0.1 * len(rows):
        print(f"error: {failures}/{len(rows)} sweep points failed",
              file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def cmd_jsa(config, args):
    grid = jsa_grid(config, n_s=args.points, n_i=args.points)
    s_axis, i_axis, amp = grid.as_arrays()
    rows = [(float(om_s), float(om_i), a.real, a.imag)
            for om_s, row in zip(s_axis, amp) for om_i, a in zip(i_axis, row)]
    _write(args.out or "jsa.csv", _csv(["omega_s_rad_s", "omega_i_rad_s",
                                        "re_amplitude", "im_amplitude"],
                                       rows), args)
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
    _write(out, _csv(["lambda_p_um", "delta_s_rad_s", "delta_i_rad_s",
                      "theta_si_deg", "branch"],
                     [(p.pump_wavelength_um, p.detuning_signal,
                       p.detuning_idler, p.theta_si, p.branch)
                      for p in points]), args)
    if args.svg:
        _write(f"{out}.svg",
               svgmod.contour_plot(points, title="phasematching loop"), args)
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
    p.add_argument("--points", type=_positive_int, default=64,
                   help="grid points per axis")

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
    except _CONFIG_FAILURES as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SfwmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
