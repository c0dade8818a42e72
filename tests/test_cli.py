import csv
import json

import pytest

from sfwmsim import cli

FIBER_A = {"core_radius_um": 0.97, "air_fill_fraction": 0.91, "length_m": 0.5}
PULSED_708 = {"wavelength_um": 0.708, "sigma_THz": 3.0, "avg_power_mW": 0.3,
              "rep_rate_MHz": 80.0}
CW_708 = {"wavelength_um": 0.708, "sigma_THz": 0.0, "avg_power_mW": 0.3}

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
        assert len(read_csv(out)) == 16
        assert set(read_manifest(out)) == MANIFEST_KEYS

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
