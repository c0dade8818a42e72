"""``tools/pool_answers.py``: the field diff of two answer files and its exit status."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
    margin, column = tool.quadrature_margin(answers, ref)
    assert column == "cw" and margin == pytest.approx(0.1)
    # a column that raised on either side has no check
    ref["cw"] = {"error": "WindowError"}
    margin, column = tool.quadrature_margin(answers, ref)
    assert column == "numeric" and margin == pytest.approx(0.5)
    # an entry with no such column (contour) has no margin
    assert tool.quadrature_margin({"points": 3}, {"points": 3}) is None


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
        "sweep_pcf": (0.0, "sweep_pcf/0", "numeric"),
        "sweep_taylor": (-1.5, "sweep_taylor/4", "numeric")}
