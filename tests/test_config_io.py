import json
import math
import os
import subprocess
import sys
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

from sfwmsim import cli
from sfwmsim.config_io import load_config, parse_config
from sfwmsim.constants import omega_from_um
from sfwmsim.dispersion import FiberSpec, beta
from sfwmsim.errors import ConfigError

BASE = {
    "fiber": {"core_radius_um": 0.97, "air_fill_fraction": 0.91,
              "length_m": 0.5},
    "pump1": {"wavelength_um": 0.708, "sigma_THz": 3.0, "avg_power_mW": 0.3,
              "rep_rate_MHz": 80.0},
}
TAYLOR = {"lambda_ref_um": 0.708, "beta": [1.2e7, 4.87e-9, 5e-26]}
DELETE = object()


def edited(path, value):
    """BASE with the entry at a dotted ``path`` set to ``value``, or
    removed when ``value`` is DELETE."""
    data = deepcopy(BASE)
    *parents, key = path.split(".")
    node = data
    for name in parents:
        node = node.setdefault(name, {})
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return data


# (config, field path the ConfigError names), one per raise site
SCHEMA_ERRORS = {
    "missing_core_radius": (edited("fiber.core_radius_um", DELETE),
                            "fiber.core_radius_um"),
    "missing_pump_wavelength": (edited("pump1.wavelength_um", DELETE),
                                "pump1.wavelength_um"),
    "string_length": (edited("fiber.length_m", "0.5"), "fiber.length_m"),
    "bool_length": (edited("fiber.length_m", True), "fiber.length_m"),
    "string_beta_coefficient": (
        edited("fiber.taylor", dict(TAYLOR, beta=[1.2e7, "x"])),
        "fiber.taylor.beta[1]"),
    "taylor_without_beta": (
        edited("fiber.taylor", {"lambda_ref_um": 0.708}), "fiber.taylor"),
    "taylor_one_coefficient": (
        edited("fiber.taylor", dict(TAYLOR, beta=[1.2e7])),
        "fiber.taylor.beta"),
    "taylor_not_an_object": (edited("fiber.taylor", [1.2e7]), "fiber.taylor"),
    "unknown_model_key": (edited("fiber.model", "step_index_pcf"), "fiber"),
    "fiber_out_of_range": (edited("fiber.air_fill_fraction", 1.5), "fiber"),
    "pulsed_without_rep_rate": (edited("pump1.rep_rate_MHz", DELETE),
                                "pump1.rep_rate_MHz"),
    "negative_power": (edited("pump1.avg_power_mW", -1.0), "pump1"),
    "unknown_quadrature_key": (edited("quadrature.order", 15), "quadrature"),
    "string_rel_tol": (edited("quadrature.rel_tol", "tight"),
                       "quadrature.rel_tol"),
    "zero_rel_tol": (edited("quadrature.rel_tol", 0.0), "quadrature"),
    "root_not_an_object": ([BASE], "<root>"),
    "missing_fiber": ({"pump1": BASE["pump1"]}, "<root>"),
    "mixed_regimes": (edited("pump2", dict(BASE["pump1"], sigma_THz=0.0)),
                      "pump2"),
    "unequal_rep_rates": (edited("pump2", dict(BASE["pump1"],
                                               rep_rate_MHz=40.0)),
                          "pump2.rep_rate_MHz"),
    "fractional_panel_order": (edited("quadrature.panel_order", 15.9),
                               "quadrature.panel_order"),
    "fractional_max_subdivisions": (
        edited("quadrature.max_subdivisions", 1.5),
        "quadrature.max_subdivisions"),
    "nan_power": (edited("pump1.avg_power_mW", math.nan),
                  "pump1.avg_power_mW"),
    "nan_sigma": (edited("pump1.sigma_THz", math.nan), "pump1.sigma_THz"),
    "infinite_length": (edited("fiber.length_m", math.inf), "fiber.length_m"),
    "integer_beyond_float_range": (edited("fiber.length_m", 10 ** 400),
                                   "fiber.length_m"),
    "nan_abs_tol": (edited("quadrature.abs_tol", math.nan),
                    "quadrature.abs_tol"),
}


def write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def cli_exit(path, capsys):
    code = cli.main(["gamma", "--config", path])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("data, field", SCHEMA_ERRORS.values(),
                         ids=SCHEMA_ERRORS.keys())
def test_schema_error_names_its_field(tmp_path, capsys, data, field):
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert info.value.field == field
    code, err = cli_exit(write(tmp_path, data), capsys)
    assert code == cli.EXIT_CONFIG == 2
    assert err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("value", [15, 15.0])
def test_integral_quadrature_fields_parse(value):
    quad = parse_config(edited("quadrature", {"panel_order": value,
                                              "max_subdivisions": value})
                        ).quadrature
    assert (quad.panel_order, quad.max_subdivisions) == (15, 15)
    assert type(quad.panel_order) is type(quad.max_subdivisions) is int


def test_first_invalid_quadrature_field_independent_of_hash_seed(tmp_path):
    # every quadrature field invalid: the error names the first in
    # QuadratureSpec's field order, whatever order string hashing gives sets
    path = write(tmp_path, edited("quadrature", {
        "rel_tol": "tight", "abs_tol": math.nan, "max_subdivisions": 1.5,
        "panel_order": 15.9}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    errors = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       [src] + os.environ.get("PYTHONPATH", "").split(
                           os.pathsep)))
        out = subprocess.run([sys.executable, "-m", "sfwmsim.cli", "gamma",
                              "--config", path], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == cli.EXIT_CONFIG
        errors.add(out.stderr)
    assert errors == {"config error: quadrature.rel_tol: expected a number, "
                      "got 'tight'\n"}


def test_unreadable_path_names_the_path(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.field == path
    code, err = cli_exit(path, capsys)
    assert code == 2
    assert err.startswith(f"config error: {path}: cannot read config")


def test_invalid_json_names_the_path(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"fiber": ', encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.field == str(path)
    code, err = cli_exit(str(path), capsys)
    assert code == 2
    assert err.startswith(f"config error: {path}: invalid JSON")


def test_taylor_data_selects_the_taylor_model():
    parsed = parse_config(edited("fiber.taylor", TAYLOR)).fiber
    geometry = dict(core_radius=parsed.core_radius,
                    air_fill_fraction=parsed.air_fill_fraction,
                    length=parsed.length)
    built = FiberSpec(**geometry, taylor=parsed.taylor)
    om = omega_from_um(0.8)
    oms = omega_from_um(np.linspace(0.6, 1.0, 7))
    for fiber in (parsed, built):
        assert beta(om, fiber) == parsed.taylor.k(om)
        assert np.array_equal(beta(oms, fiber), parsed.taylor.k(oms))
    # the geometry alone gives a different beta: the data is not dropped
    step_index = FiberSpec(**geometry)
    assert abs(beta(om, step_index) / beta(om, parsed) - 1) > 1e-2
