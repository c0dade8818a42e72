"""JSON configuration loading and validation.

The JSON file is the reproducibility unit: it carries all physics in fixed
user-facing units (um, THz = 1e12 rad/s, mW, MHz, m), while flags on the
command line only select analyses and output shapes.  Unknown keys and
non-numeric or non-finite values are rejected with the offending field path.
"""
from __future__ import annotations

import json
import math
from dataclasses import fields, replace

from .constants import N2_SILICA_DEFAULT, omega_from_um
from .dispersion import FiberSpec, TaylorDispersion
from .errors import ConfigError
from .numerics import QuadratureSpec
from .sfwm import CONFIG_QUADRATURE, PumpSpec, SourceConfig

_FIBER_KEYS = {"core_radius_um", "air_fill_fraction", "length_m",
               "n2_m2_per_W", "taylor"}
_TAYLOR_KEYS = {"lambda_ref_um", "beta"}
_PUMP_KEYS = {"wavelength_um", "sigma_THz", "avg_power_mW", "rep_rate_MHz"}
# in QuadratureSpec's field order, the order the fields are checked in
_QUAD_KEYS = tuple(f.name for f in fields(QuadratureSpec))
_TOP_KEYS = {"fiber", "pump1", "pump2", "quadrature"}


def _require_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=path)
    try:
        number = float(value)
    except OverflowError:       # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"expected a finite number, got {value!r}",
                          field=path)
    return number


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", field=path)
    unknown = set(obj).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)}", field=path)


def _parse_fiber(obj):
    _check_keys(obj, _FIBER_KEYS, "fiber")
    for key in ("core_radius_um", "air_fill_fraction", "length_m"):
        if key not in obj:
            raise ConfigError("missing required field", field=f"fiber.{key}")
    taylor = None
    if "taylor" in obj:
        t = obj["taylor"]
        _check_keys(t, _TAYLOR_KEYS, "fiber.taylor")
        if "lambda_ref_um" not in t or "beta" not in t:
            raise ConfigError("taylor needs lambda_ref_um and beta",
                              field="fiber.taylor")
        if not isinstance(t["beta"], list) or len(t["beta"]) < 2:
            raise ConfigError("beta must be a list with at least beta0, beta1",
                              field="fiber.taylor.beta")
        coeffs = tuple(_require_number(b, f"fiber.taylor.beta[{i}]")
                       for i, b in enumerate(t["beta"]))
        taylor = TaylorDispersion(
            reference_frequency=omega_from_um(
                _require_number(t["lambda_ref_um"], "fiber.taylor.lambda_ref_um")),
            beta_coefficients=coeffs)
    try:
        return FiberSpec(
            core_radius=_require_number(obj["core_radius_um"],
                                        "fiber.core_radius_um") * 1e-6,
            air_fill_fraction=_require_number(obj["air_fill_fraction"],
                                              "fiber.air_fill_fraction"),
            length=_require_number(obj["length_m"], "fiber.length_m"),
            n2_kerr=_require_number(obj.get("n2_m2_per_W", N2_SILICA_DEFAULT),
                                    "fiber.n2_m2_per_W"),
            taylor=taylor)
    except ValueError as exc:
        raise ConfigError(str(exc), field="fiber") from exc


def _parse_pump(obj, path):
    _check_keys(obj, _PUMP_KEYS, path)
    for key in ("wavelength_um", "sigma_THz", "avg_power_mW"):
        if key not in obj:
            raise ConfigError("missing required field", field=f"{path}.{key}")
    sigma_thz = _require_number(obj["sigma_THz"], f"{path}.sigma_THz")
    rep = obj.get("rep_rate_MHz", 0.0)
    if sigma_thz > 0 and "rep_rate_MHz" not in obj:
        raise ConfigError("pulsed pump needs rep_rate_MHz",
                          field=f"{path}.rep_rate_MHz")
    try:
        return PumpSpec.from_units(
            wavelength_um=_require_number(obj["wavelength_um"],
                                          f"{path}.wavelength_um"),
            sigma_thz=sigma_thz,
            avg_power_mw=_require_number(obj["avg_power_mW"],
                                         f"{path}.avg_power_mW"),
            rep_rate_mhz=_require_number(rep, f"{path}.rep_rate_MHz"))
    except ValueError as exc:
        raise ConfigError(str(exc), field=path) from exc


def _parse_quadrature(obj):
    _check_keys(obj, _QUAD_KEYS, "quadrature")
    kwargs = {}
    for key in _QUAD_KEYS:
        if key in obj:
            value = _require_number(obj[key], f"quadrature.{key}")
            if key in ("panel_order", "max_subdivisions"):
                if not value.is_integer():
                    raise ConfigError(f"expected an integer, got {obj[key]!r}",
                                      field=f"quadrature.{key}")
                value = int(value)
            kwargs[key] = value
    try:
        return replace(CONFIG_QUADRATURE, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc), field="quadrature") from exc


def parse_config(data):
    """SourceConfig from a parsed JSON object."""
    _check_keys(data, _TOP_KEYS, "<root>")
    if "fiber" not in data or "pump1" not in data:
        raise ConfigError("fiber and pump1 are required", field="<root>")
    fiber = _parse_fiber(data["fiber"])
    pump1 = _parse_pump(data["pump1"], "pump1")
    pump2 = _parse_pump(data["pump2"], "pump2") if "pump2" in data else pump1
    quad = _parse_quadrature(data["quadrature"]) if "quadrature" in data \
        else CONFIG_QUADRATURE
    return SourceConfig(fiber=fiber, pump1=pump1, pump2=pump2, quadrature=quad)


def load_config(path):
    """SourceConfig from a JSON file; raises ConfigError on any violation."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", field=str(path)) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", field=str(path)) from exc
    return parse_config(data)


def config_digest(path):
    """Hex SHA-256 of the config file bytes.

    CPython's built-in SHA-256 (``_sha2`` on 3.12+, ``_sha256`` before)
    hashes them, so a run maps no OpenSSL libcrypto; ``hashlib`` is the
    fallback where neither module exists, as in some FIPS builds.  All
    three give the same digest.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()
