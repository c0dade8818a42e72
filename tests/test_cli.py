import csv
import json
import math
from dataclasses import replace

import pytest

from sfwmsim import cli, efficiency
from sfwmsim.config_io import parse_config
from sfwmsim.constants import omega_from_um, um_from_omega
from sfwmsim.efficiency import eta_closed, eta_cw, eta_pulsed_numeric
from sfwmsim.errors import (BracketError, ConfigError, DivergenceError,
                            ModeCutoffError, NoPhasematchError,
                            NonConvergenceError, OverlapError, RegimeError,
                            SfwmError, WavelengthRangeError, WindowError)

FIBER_A = {"core_radius_um": 0.97, "air_fill_fraction": 0.91, "length_m": 0.5}
PULSED_708 = {"wavelength_um": 0.708, "sigma_THz": 3.0, "avg_power_mW": 0.3,
              "rep_rate_MHz": 80.0}
CW_708 = {"wavelength_um": 0.708, "sigma_THz": 0.0, "avg_power_mW": 0.3}
# beta_n [s^n/m] of a degree-8 fit of fiber A's beta around 708 nm
TAYLOR_A = {"lambda_ref_um": 0.708,
            "beta": [12709608.91856346, 4.972458401064144e-09,
                     1.7257388265561942e-27, 6.591119073571425e-41,
                     -5.586155955194142e-56, 9.39673010226559e-71,
                     -1.7057484072930343e-85, 3.578548420376906e-100,
                     -6.356628143533568e-115]}

MANIFEST_KEYS = {"backend", "command", "config_sha256", "timestamp", "tool",
                 "version"}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(tmp_path, command, data, *extra, out=None):
    """Exit code of one ``sfwmsim`` invocation and the path it wrote to."""
    config = write_config(tmp_path, data)
    out = str(tmp_path / out) if out else None
    argv = [command, "--config", config, *extra]
    if out:
        argv += ["--out", out]
    return cli.main(argv), out


def read_manifest(out):
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(out):
    with open(out, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def pulsed():
    return {"fiber": FIBER_A, "pump1": PULSED_708}


@pytest.fixture
def cw():
    return {"fiber": FIBER_A, "pump1": CW_708}


class TestSubcommands:
    def test_dispersion(self, tmp_path, pulsed):
        code, out = run(tmp_path, "dispersion", pulsed, "--range", "0.6:0.9",
                        "--points", "4", out="dispersion.csv")
        assert code == 0
        rows = read_csv(out)
        # four samples, then one comment row per zero-dispersion wavelength
        # (fiber A has one near 0.715 um)
        samples, zdws = rows[:4], rows[4:]
        assert [float(r["lambda_um"]) for r in samples] == [0.6, 0.7, 0.8, 0.9]
        assert all(float(r["n_eff"]) > 1.0 for r in samples)
        assert [r["lambda_um"] for r in zdws] == ["# zero_dispersion_um"]
        assert float(zdws[0]["n_eff"]) == pytest.approx(0.715, abs=1e-3)
        assert set(read_manifest(out)) == MANIFEST_KEYS

    def test_gamma(self, tmp_path, pulsed):
        code, out = run(tmp_path, "gamma", pulsed, out="gamma.json")
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        assert set(record) == {"gamma_sfwm_per_W_km", "gamma_pump1_per_W_km",
                               "gamma_pump2_per_W_km", "lambda_pump1_um",
                               "lambda_pump2_um", "a_eff_um2",
                               "lambda_s_um", "lambda_i_um"}
        assert record["lambda_s_um"] < 0.708 < record["lambda_i_um"]
        assert set(read_manifest(out)) == MANIFEST_KEYS

    def test_gamma_independent_of_pump_order(self, tmp_path):
        pump_521 = dict(PULSED_708, wavelength_um=0.521)
        pump_1042 = dict(PULSED_708, wavelength_um=1.042)
        texts = []
        for name, pumps in (("given", (pump_521, pump_1042)),
                            ("swapped", (pump_1042, pump_521))):
            data = {"fiber": FIBER_A, "pump1": pumps[0], "pump2": pumps[1]}
            work = tmp_path / name
            work.mkdir()
            code, out = run(work, "gamma", data, out="gamma.json")
            assert code == 0
            with open(out, encoding="utf-8") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]
        # the per-pump keys name the pump they belong to
        record = json.loads(texts[0])
        assert record["lambda_pump1_um"] == pytest.approx(1.042, rel=1e-12)
        assert record["lambda_pump2_um"] == pytest.approx(0.521, rel=1e-12)

    def test_efficiency(self, tmp_path, cw):
        code, out = run(tmp_path, "efficiency", cw, out="eta.json")
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        assert set(record["results"]) == {"cw"}
        assert record["results"]["cw"]["method"] == "cw"
        assert record["results"]["cw"]["eta"] > 0
        assert set(read_manifest(out)) == MANIFEST_KEYS

    def test_cw_window_stays_inside_the_band(self, tmp_path, cw):
        # the doubling CW window of a short fiber once took the idler past
        # the Sellmeier window (3.7 um), and the command exited 2
        data = dict(cw, fiber=dict(FIBER_A, length_m=0.05))
        code, out = run(tmp_path, "efficiency", data, "--method", "cw",
                        out="eta.json")
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)["results"]["cw"]
        assert math.isfinite(result["eta"]) and result["eta"] > 0
        total = 2 * omega_from_um(CW_708["wavelength_um"])
        lams = [um_from_omega(om) for edge in result["diagnostics"]["window"]
                for om in (edge, total - edge)]
        assert all(0.21 < lam < 3.7 for lam in lams)
        assert max(lams) == pytest.approx(3.7, rel=1e-9)
        assert result["diagnostics"]["band_capped"] is True

    def test_closed_efficiency_writes_strict_json(self, tmp_path):
        # equal carriers with unequal powers: the pumps never walk off, so
        # no diagnostic may be infinite (JSON has no Infinity)
        data = {"fiber": FIBER_A, "pump1": PULSED_708,
                "pump2": dict(PULSED_708, avg_power_mW=0.6)}
        code, out = run(tmp_path, "efficiency", data, "--method", "closed",
                        out="eta.json")
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        with open(out, encoding="utf-8") as fh:
            record = json.loads(fh.read(), parse_constant=reject)
        assert set(record["results"]) == {"closed"}
        assert record["results"]["closed"]["method"] == "closed"
        assert record["results"]["closed"]["eta"] > 0

    def test_sweep(self, tmp_path, cw):
        code, out = run(tmp_path, "sweep", cw, "--parameter", "length",
                        "--range", "0.25:0.5", "--points", "2", "--svg",
                        out="sweep.csv")
        assert code == 0
        rows = read_csv(out)
        assert [float(r["length_m"]) for r in rows] == [0.25, 0.5]
        assert all(float(r["eta_cw"]) > 0 and r["error"] == "" for r in rows)
        assert set(read_manifest(out)) == MANIFEST_KEYS
        assert set(read_manifest(f"{out}.svg")) == MANIFEST_KEYS

    def test_jsa(self, tmp_path, pulsed):
        code, out = run(tmp_path, "jsa", pulsed, "--points", "4",
                        out="jsa.csv")
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 16
        assert set(read_manifest(out)) == MANIFEST_KEYS
        # 4 evenly spaced points per axis, within the CSV's 12 significant
        # digits
        for key in ("omega_s_rad_s", "omega_i_rad_s"):
            axis = sorted({float(r[key]) for r in rows})
            assert len(axis) == 4
            steps = [b - a for a, b in zip(axis, axis[1:])]
            rounding = 10.0 ** (math.floor(math.log10(axis[-1])) - 11)
            assert max(steps) - min(steps) <= 2 * rounding
        code, out = run(tmp_path, "jsa", pulsed, "--points", "1",
                        out="one.csv")
        assert code == 0
        assert len(read_csv(out)) == 1

    def test_contour(self, tmp_path):
        loop = {"fiber": {"core_radius_um": 0.5, "air_fill_fraction": 0.6,
                          "length_m": 1.0},
                "pump1": {"wavelength_um": 0.75, "sigma_THz": 5.0,
                          "avg_power_mW": 0.3, "rep_rate_MHz": 80.0}}
        code, out = run(tmp_path, "contour", loop, "--pump-range", "0.74:0.76",
                        "--points", "2", "--svg", out="contour.csv")
        assert code == 0
        rows = read_csv(out)
        assert rows and {r["branch"] for r in rows} <= {"outer", "inner"}
        assert set(read_manifest(out)) == MANIFEST_KEYS
        assert set(read_manifest(f"{out}.svg")) == MANIFEST_KEYS


class TestManifest:
    def test_command_is_the_argv_given_to_main(self, tmp_path, pulsed):
        config = write_config(tmp_path, pulsed)
        out = str(tmp_path / "gamma out.json")
        assert cli.main(["gamma", "--config", config, "--out", out]) == 0
        assert read_manifest(out)["command"] == (
            f"sfwmsim gamma --config {config} --out '{out}'")


class TestExitCodes:
    # normal dispersion (beta2 > 0) everywhere: nothing phasematches
    NO_PHASEMATCH_FIBER = dict(
        FIBER_A, taylor={"lambda_ref_um": 0.708,
                         "beta": [1.2e7, 4.87e-9, 5e-26]})

    def test_unknown_fiber_key_is_a_config_error(self, tmp_path, pulsed,
                                                 capsys):
        data = dict(pulsed, fiber=dict(FIBER_A, colour="red"))
        code, _ = run(tmp_path, "gamma", data)
        assert code == cli.EXIT_CONFIG == 2
        assert "fiber: unknown field(s) ['colour']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dispersion", "gamma", "efficiency",
                                         "jsa"])
    def test_svg_only_where_a_figure_is_drawn(self, tmp_path, pulsed,
                                              command):
        with pytest.raises(SystemExit) as info:
            run(tmp_path, command, pulsed, "--svg")
        assert info.value.code == 2

    def test_no_phasematch_is_a_numerical_failure(self, tmp_path):
        data = {"fiber": self.NO_PHASEMATCH_FIBER, "pump1": PULSED_708}
        code, _ = run(tmp_path, "gamma", data, out="gamma.json")
        assert code == cli.EXIT_NUMERIC == 3
        assert not (tmp_path / "gamma.json").exists()

    def test_sweep_past_failure_threshold(self, tmp_path, capsys):
        data = {"fiber": self.NO_PHASEMATCH_FIBER, "pump1": PULSED_708}
        code, out = run(tmp_path, "sweep", data, "--parameter", "length",
                        "--range", "0.3:0.5", "--points", "3",
                        out="sweep.csv")
        assert code == cli.EXIT_NUMERIC
        assert "3/3 sweep points failed" in capsys.readouterr().err
        # the rows are written before the exit code is decided
        rows = read_csv(out)
        assert len(rows) == 3
        assert all("no phasematched frequency" in r["error"] for r in rows)

    # every subcommand with --points, with the options it requires
    POINTS_COMMANDS = {
        "dispersion": (),
        "sweep": ("--parameter", "length", "--range", "0.3:0.5"),
        "jsa": (),
        "contour": ("--pump-range", "0.74:0.76"),
    }

    @pytest.mark.parametrize("points", ["0", "-3", "2.5", "many"])
    @pytest.mark.parametrize("command", sorted(POINTS_COMMANDS))
    def test_points_not_a_positive_integer_is_a_usage_error(
            self, tmp_path, pulsed, capsys, command, points):
        # parsed before the config is read or anything is computed
        with pytest.raises(SystemExit) as info:
            run(tmp_path, command, pulsed, *self.POINTS_COMMANDS[command],
                f"--points={points}", out="out.csv")
        assert info.value.code == 2
        assert (f"--points: must be a positive integer, got {points!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out.csv").exists()


class TestPackageErrorExitCodes:
    EXIT = {ConfigError: 2, RegimeError: 2, DivergenceError: 2,
            WavelengthRangeError: 2, ModeCutoffError: 2,
            NonConvergenceError: 3, WindowError: 3, NoPhasematchError: 3,
            OverlapError: 3, BracketError: 3}

    def test_every_package_error_is_mapped(self):
        assert set(self.EXIT) == set(SfwmError.__subclasses__())

    @pytest.mark.parametrize("error", sorted(EXIT, key=lambda e: e.__name__),
                             ids=lambda e: e.__name__)
    def test_exit_code(self, tmp_path, pulsed, monkeypatch, capsys, error):
        def fail(config):
            raise error("injected")

        monkeypatch.setattr(cli, "solve_phasematch_center", fail)
        code, _ = run(tmp_path, "gamma", pulsed, out="gamma.json")
        assert code == self.EXIT[error]
        prefix = "config error" if code == 2 else "numerical failure"
        assert f"{prefix}: injected" in capsys.readouterr().err
        assert not (tmp_path / "gamma.json").exists()

    def test_window_error_is_a_numerical_failure(self, tmp_path, cw,
                                                 monkeypatch, capsys):
        monkeypatch.setattr(efficiency, "SHELL_TOL", 0.0)
        data = dict(cw, fiber=dict(FIBER_A, length_m=2.0))
        code, _ = run(tmp_path, "efficiency", data, "--method", "cw")
        assert code == cli.EXIT_NUMERIC
        assert ("numerical failure: cw window did not converge within 4 "
                "expansions") in capsys.readouterr().err


class TestUnwritableOutput:
    """An output that cannot be written is a config error naming its path,
    never a traceback."""

    def check(self, capsys, code, path):
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {path}: cannot write output:" in err
        assert "Traceback" not in err

    def test_csv_in_a_missing_directory(self, tmp_path, pulsed, capsys):
        code, out = run(tmp_path, "dispersion", pulsed, "--range", "0.6:0.9",
                        "--points", "2", out="missing/dispersion.csv")
        self.check(capsys, code, out)
        assert not (tmp_path / "missing").exists()

    def test_json_in_a_missing_directory(self, tmp_path, pulsed, capsys):
        code, out = run(tmp_path, "gamma", pulsed, out="missing/gamma.json")
        self.check(capsys, code, out)
        assert not (tmp_path / "missing").exists()

    def test_svg_path_is_a_directory(self, tmp_path, cw, capsys):
        (tmp_path / "sweep.csv.svg").mkdir()
        code, out = run(tmp_path, "sweep", cw, "--parameter", "length",
                        "--range", "0.25:0.5", "--points", "2", "--svg",
                        out="sweep.csv")
        self.check(capsys, code, f"{out}.svg")
        # the CSV and its manifest are written before the figure
        assert len(read_csv(out)) == 2
        assert set(read_manifest(out)) == MANIFEST_KEYS


class TestNonPositiveWavelength:
    """A wavelength of 0 or below in a range is a config error, never a
    traceback: a sweep row is invalid, a dispersion row is a warning and a
    contour exits 2."""

    def test_sweep_row_is_invalid(self, tmp_path, pulsed, capsys):
        code, out = run(tmp_path, "sweep", pulsed, "--parameter",
                        "pump-frequency", "--range", "0:0.705", "--points",
                        "2", out="sweep.csv")
        assert code == cli.EXIT_NUMERIC
        assert "1/2 sweep points failed" in capsys.readouterr().err
        invalid, valid = read_csv(out)
        assert invalid == {"lambda_p_um": "0", "eta_numeric": "",
                           "eta_closed": "", "pairs_per_second": "",
                           "error": "wavelength must be > 0 um, got 0.0"}
        assert valid["lambda_p_um"] == "0.705" and valid["error"] == ""
        assert float(valid["eta_numeric"]) > 0

    def test_dispersion_row_is_a_warning(self, tmp_path, pulsed, capsys):
        code, out = run(tmp_path, "dispersion", pulsed, "--range=-0.8:0.8",
                        "--points", "3", out="dispersion.csv")
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: -0.8000 um: wavelength must be > 0 um" in err
        assert "warning: 0.0000 um: wavelength must be > 0 um" in err
        rows = read_csv(out)[:3]       # then the zero-dispersion comment
        assert [r["lambda_um"] for r in rows] == ["-0.8", "0", "0.8"]
        assert all(r["n_eff"] == "" for r in rows[:2])
        assert float(rows[2]["n_eff"]) > 1

    @pytest.mark.parametrize("terms, want", [
        (9, [0.3533, 0.7150]),
        # beta2 of odd degree changes sign across the pole at 0 um
        (4, [0.7150]),
    ])
    def test_taylor_zero_dispersion_through_zero(self, tmp_path, pulsed,
                                                 capsys, terms, want):
        # the range's non-positive wavelengths are warned about and left
        # out of the scan; every zero-dispersion wavelength above 0 remains
        taylor = dict(TAYLOR_A, beta=TAYLOR_A["beta"][:terms])
        data = dict(pulsed, fiber=dict(FIBER_A, taylor=taylor))
        code, out = run(tmp_path, "dispersion", data, "--range=-0.8:0.8",
                        out="dispersion.csv")
        assert code == 0
        assert "wavelength must be > 0 um" in capsys.readouterr().err
        zdws = [r for r in read_csv(out)
                if r["lambda_um"] == "# zero_dispersion_um"]
        assert [float(r["n_eff"]) for r in zdws] == pytest.approx(want,
                                                                   abs=1e-4)

    @pytest.mark.parametrize("pump_range", ["0:0.8", "-0.5:0.8"])
    def test_contour_is_a_config_error(self, tmp_path, pulsed, capsys,
                                       pump_range):
        code, out = run(tmp_path, "contour", pulsed,
                        f"--pump-range={pump_range}", "--points", "3",
                        out="contour.csv")
        assert code == cli.EXIT_CONFIG
        lo = float(pump_range.split(":")[0])
        assert (f"config error: wavelength must be > 0 um, got {lo!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "contour.csv").exists()


def fmt(value):
    return f"{value:.12g}"


class TestSweepRows:
    """Every CSV cell of a sweep row is the library's answer for that row."""

    def expect(self, cfg, include_cw=False):
        numeric = eta_pulsed_numeric(cfg)
        row = {"eta_numeric": fmt(numeric.eta),
               "eta_closed": fmt(eta_closed(cfg).eta),
               "pairs_per_second": fmt(numeric.pairs_per_second),
               "error": ""}
        if include_cw:
            row["eta_cw"] = fmt(eta_cw(replace(
                cfg, pump1=replace(cfg.pump1, sigma=0.0),
                pump2=replace(cfg.pump2, sigma=0.0))).eta)
        return row

    def test_pulsed_rows_with_cw(self, tmp_path, pulsed):
        code, out = run(tmp_path, "sweep", pulsed, "--parameter", "length",
                        "--range", "0.3:0.5", "--points", "2",
                        "--include-cw", out="sweep.csv")
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["length_m", "eta_numeric", "eta_closed",
                                 "eta_cw", "pairs_per_second", "error"]
        for row, length in zip(rows, (0.3, 0.5)):
            cfg = parse_config(dict(pulsed, fiber=dict(FIBER_A,
                                                       length_m=length)))
            assert row == {"length_m": fmt(length),
                           **self.expect(cfg, include_cw=True)}

    @pytest.mark.parametrize("parameter, column, field, value", [
        ("power", "avg_power_mW", "avg_power_mW", 0.6),
        ("bandwidth", "sigma_THz", "sigma_THz", 2.0),
        ("pump-frequency", "lambda_p_um", "wavelength_um", 0.705),
    ])
    def test_pump_parameter(self, tmp_path, pulsed, parameter, column,
                            field, value):
        code, out = run(tmp_path, "sweep", pulsed, "--parameter", parameter,
                        "--range", f"{value}:{2 * value}", "--points", "1",
                        out="sweep.csv")
        assert code == 0
        row, = read_csv(out)
        cfg = parse_config(dict(pulsed, pump1=dict(PULSED_708,
                                                   **{field: value})))
        assert row == {column: fmt(value), **self.expect(cfg)}

    def test_invalid_row(self, tmp_path, pulsed, capsys):
        code, out = run(tmp_path, "sweep", pulsed, "--parameter", "length",
                        "--range", "0:0.5", "--points", "2", out="sweep.csv")
        # one failed row in two is past the 10% threshold
        assert code == cli.EXIT_NUMERIC
        assert "1/2 sweep points failed" in capsys.readouterr().err
        invalid, valid = read_csv(out)
        assert invalid == {"length_m": "0", "eta_numeric": "",
                           "eta_closed": "", "pairs_per_second": "",
                           "error": "length must be > 0"}
        assert valid == {"length_m": "0.5",
                         **self.expect(parse_config(pulsed))}

    def test_window_error_recorded_in_row(self, tmp_path, pulsed,
                                          monkeypatch):
        # a zero shell threshold never accepts the window; the absolute
        # tolerance (about 3e-9 of the integral) keeps the strips cheap
        data = dict(pulsed, quadrature={"abs_tol": 1e56})
        monkeypatch.setattr(efficiency, "SHELL_TOL", 0.0)
        code, out = run(tmp_path, "sweep", data, "--parameter", "length",
                        "--range", "0.5:1", "--points", "1", out="sweep.csv")
        # the closed form still answers, so the row has not failed
        assert code == 0
        row, = read_csv(out)
        assert row == {"length_m": "0.5", "eta_numeric": "",
                       "eta_closed": fmt(eta_closed(parse_config(data)).eta),
                       "pairs_per_second": "",
                       "error": "numeric: pulsed efficiency window did not "
                                "converge within 4 expansions"}


def test_repeat_efficiency_runs_byte_identical(tmp_path, pulsed):
    texts = []
    for name in ("first.json", "second.json"):
        code, out = run(tmp_path, "efficiency", pulsed, "--method", "all",
                        out=name)
        assert code == 0
        with open(out, "rb") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]
    assert set(json.loads(texts[0])["results"]) == {"numeric", "closed"}
