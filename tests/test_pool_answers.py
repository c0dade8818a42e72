"""``tools/pool_answers.py``: the field diff of two answer files and its exit status."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pool_answers.py"

A = {"sweep_pcf/0": {"answers": {"eta": 1.25e-9, "shells": [1, 2]}, "bad": []},
     "contour_cli/3": {"answers": {"branch": "outer"}, "bad": []}}


@pytest.fixture(scope="module")
def tool():
    saved = list(sys.path)    # the tool puts perfbench/ on the path
    spec = importlib.util.spec_from_file_location("pool_answers", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def _write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_leaves_are_the_scalars_by_path(tool):
    # an empty list holds no scalar, so it is no field
    assert tool.leaves(A) == [
        ("sweep_pcf/0/answers/eta", 1.25e-9),
        ("sweep_pcf/0/answers/shells/0", 1),
        ("sweep_pcf/0/answers/shells/1", 2),
        ("contour_cli/3/answers/branch", "outer")]


def test_compare_counts_changed_and_missing_fields(tool, tmp_path, capsys):
    b = json.loads(json.dumps(A))
    b["sweep_pcf/0"]["answers"]["eta"] = 1.25e-9 * (1 + 2 ** -52)
    del b["contour_cli/3"]
    assert tool.compare(_write(tmp_path / "a.json", A),
                        _write(tmp_path / "b.json", b)) == 2
    out = capsys.readouterr().out
    assert "sweep_pcf/0/answers/eta" in out
    assert "contour_cli/3/answers/branch: 'outer' -> None" in out
    assert out.endswith("2 of 4 fields differ\n")


def test_identical_files_compare_equal(tool, tmp_path, capsys):
    assert tool.compare(_write(tmp_path / "a.json", A),
                        _write(tmp_path / "b.json", A)) == 0
    assert capsys.readouterr().out == "0 of 4 fields differ\n"


@pytest.mark.parametrize("eta, status", [(1.25e-9, 0), (1.5e-9, 1)])
def test_compare_exit_status(tmp_path, eta, status):
    b = json.loads(json.dumps(A))
    b["sweep_pcf/0"]["answers"]["eta"] = eta
    run = subprocess.run(
        [sys.executable, str(TOOL), "--compare",
         _write(tmp_path / "a.json", A), _write(tmp_path / "b.json", b)],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == status, run.stderr


def _column(error, integral=2.0):
    return {"eta": 1.0, "quadrature_error": error, "integral": integral}


def test_quadrature_margin_is_left_of_the_larger_allowance(tool):
    # numeric: allowed max(1e-3, 3e-3) = 3e-3, achieved 1.5e-3 -> 0.5;
    # cw: allowed 1e-6 (the reference did better), achieved 9e-7 -> 0.1
    answers = {"numeric": _column(3e-3), "cw": _column(1.8e-6),
               "closed": {"eta": 1.0}}
    ref = {"numeric": _column(6e-3), "cw": _column(1e-6)}
    assert tool.quadrature_margins(answers, ref) == pytest.approx(
        {"numeric": 0.5, "cw": 0.1})
    # a column that raised on either side has no check
    ref["cw"] = {"error": "WindowError"}
    assert tool.quadrature_margins(answers, ref) == pytest.approx(
        {"numeric": 0.5})
    # an entry with no such column (contour) has no margin
    assert tool.quadrature_margins({"points": 3}, {"points": 3}) == {}


def test_smallest_margins_per_workload(tool):
    ref = {"numeric": _column(2e-3)}
    rows = [("sweep_pcf", "sweep_pcf/0", {"numeric": _column(2e-3)}, ref),
            ("sweep_pcf", "sweep_pcf/1", {"numeric": _column(1e-3)}, ref),
            ("sweep_taylor", "sweep_taylor/4", {"numeric": _column(5e-3)}, ref),
            ("sweep_taylor", "sweep_taylor/5", {"numeric": _column(1e-3)}, ref),
            ("contour_cli", "contour_cli/0", {"points": 3}, {"points": 3})]
    # a reference whose error equals the allowance has margin exactly 0,
    # and a failing entry a negative one
    assert tool.smallest_margins(rows) == {
        "sweep_pcf": {"numeric": (0.0, "sweep_pcf/0")},
        "sweep_taylor": {"numeric": (-1.5, "sweep_taylor/4")},
        "contour_cli": {}}


def test_smallest_margin_of_each_column(tool):
    # the cw column at margin 0 does not hide the numeric margin above it
    ref = {"numeric": _column(2e-3), "cw": _column(1e-6)}
    rows = [("sweep_taylor", "sweep_taylor/18",
             {"numeric": _column(1e-3), "cw": _column(2e-6)}, ref),
            ("sweep_taylor", "sweep_taylor/36",
             {"numeric": _column(1.5e-3), "cw": _column(1e-6)}, ref)]
    assert tool.smallest_margins(rows) == {"sweep_taylor": {
        "numeric": (0.25, "sweep_taylor/36"), "cw": (0.0, "sweep_taylor/18")}}


def test_summary_prints_margin_and_cpu_per_workload(tool):
    margins = {"sweep_pcf": {"numeric": (5.52e-7, "sweep_pcf/0")},
               "sweep_taylor": {"cw": (0.0, "sweep_taylor/18"),
                                "numeric": (4.2e-7, "sweep_taylor/36")}}
    cpu = {"sweep_pcf": 12.345, "sweep_taylor": 6.0, "contour_cli": 7.0}
    assert tool.summary(margins, cpu) == [
        "sweep_pcf: smallest quadrature_error margin numeric 5.52e-07 "
        "(sweep_pcf/0); in-process CPU 12.35 s (not BENCH evidence)",
        "sweep_taylor: smallest quadrature_error margin numeric 4.2e-07 "
        "(sweep_taylor/36), cw 0 (sweep_taylor/18); in-process CPU 6.00 s "
        "(not BENCH evidence)",
        "contour_cli: no quadrature_error check; in-process CPU 7.00 s "
        "(not BENCH evidence)"]


def _contour(lam, ds, theta):
    return {"points": len(lam), "lambda_p_um": lam, "delta_s": ds,
            "theta": theta}


def test_contour_deviations_as_check_answers_measures_them(tool):
    ref = _contour([0.7, 0.8], [2e14, -1e14], [10.0, -20.0])
    got = _contour([0.7 * (1 + 3e-10), 0.8], [2e14, -1e14 * (1 + 6e-10)],
                   [10.0 - 2e-5, -20.0 + 5e-5])
    dev = tool.contour_deviations(got, ref)
    assert dev["lambda_p_um/delta_s"] == pytest.approx(6e-10, rel=1e-5)
    assert dev["theta"] == pytest.approx(5e-5, rel=1e-5)
    # another point count: check_answers compares no value
    assert tool.contour_deviations(_contour([0.7], [2e14], [10.0]), ref) == {}


def test_largest_contour_deviations_and_their_line(tool):
    ref = _contour([0.7], [2e14], [10.0])
    rows = [("contour_cli", "contour_cli/0",
             _contour([0.7], [2e14 * (1 + 9e-10)], [10.0]), ref),
            ("contour_cli", "contour_cli/1",
             _contour([0.7], [2e14], [10.0 + 1e-5]), ref),
            ("sweep_pcf", "sweep_pcf/0", {"numeric": _column(1e-3)},
             {"numeric": _column(2e-3)})]
    contour = tool.largest_contour_deviations(rows)
    assert contour["lambda_p_um/delta_s"][1] == "contour_cli/0"
    assert contour["theta"][1] == "contour_cli/1"
    assert tool.summary({}, {"contour_cli": 1.0}, contour) == [
        "contour_cli: no quadrature_error check; largest deviation "
        "lambda_p_um/delta_s 9e-10 (contour_cli/0) against 1e-09, theta "
        "1e-05 (contour_cli/1) against 0.0001; in-process CPU 1.00 s "
        "(not BENCH evidence)"]


def _fake_workloads(tool, calls):
    """A stand-in for perfbench's workloads module: two pools of two entries,
    whose operation records the workload and input it runs and, as the
    contour CLI does, prints a summary to standard error."""
    pools = {"sweep_pcf": [(0, 1.5), (1, 2.5)], "contour_cli": [(3, 4.0), (4, 5.0)]}

    def make_op(workload, sfwm, work, tag):
        def op(inp):
            print(f"summary of {workload} {inp}", file=sys.stderr)
            calls.append((workload, inp))
            return {"eta": inp}
        return op

    return SimpleNamespace(
        WORKLOADS=tuple(pools), _achieved=tool.wl._achieved,
        load_reference=lambda w: {"entries": [
            {"id": i, "input": x, "answers": {"eta": x}} for i, x in pools[w]]},
        build_input=lambda workload, sfwm, inp: inp,
        make_op=make_op,
        check_answers=lambda workload, answers, ref: [])


def test_workload_filter_runs_only_its_pool(tool, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(tool, "wl", _fake_workloads(tool, calls))
    monkeypatch.setattr(sys, "path", list(sys.path))
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    root = str(TOOL.parents[1])
    assert tool.main(["--workload", "contour_cli", root, a]) == 0
    assert calls == [("contour_cli", 4.0), ("contour_cli", 5.0)]
    assert sorted(json.loads(Path(a).read_text())) == ["contour_cli/3",
                                                       "contour_cli/4"]
    out, err = capsys.readouterr()
    assert out.startswith("contour_cli: ") and "sweep_pcf" not in out
    # what the operations print to standard error is not shown
    assert "summary of" not in out + err
    # two files filtered the same way compare as any two files do
    tool.run_pool(root, b, ["contour_cli"])
    assert tool.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out.endswith("0 of 2 fields differ\n")
    # without the filter every pool runs
    calls.clear()
    assert tool.main([root, b]) == 0
    assert [w for w, _ in calls] == ["sweep_pcf"] * 2 + ["contour_cli"] * 2
    assert tool.main(["--compare", a, b]) == 1


def test_unknown_workload_is_a_usage_error(tmp_path):
    run = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "contour", ".",
         str(tmp_path / "out.json")], capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "invalid choice: 'contour'" in run.stderr
    assert not (tmp_path / "out.json").exists()
