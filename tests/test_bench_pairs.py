"""``tools/bench_pairs.py``: the summary arithmetic of paired benchmark runs.

Canned ``run.py`` results only; no benchmark runs here.
"""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}
RATE = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rss, rate, attempted=100, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                        "ops_per_s": {"value": rate, "unit": "1/s"}}}


def test_seeds_and_order(tool):
    assert tool.parse_seeds(["2501-2503", "2508"]) == [2501, 2502, 2503, 2508]
    assert [tool.first_in_pair(i) for i in range(3)] == [
        "parent", "change", "parent"]


def test_summary_of_four_pairs(tool):
    parent_rss, change_rss = [42.0, 42.2, 41.9, 42.1], [37.7, 37.8, 37.6, 42.3]
    parent_rate, change_rate = [10.0, 12.0, 11.0, 13.0], [13.0, 12.0, 14.0, 12.0]
    runs = [{"parent": result(pr, pq), "change": result(cr, cq, 110, f)}
            for pr, cr, pq, cq, f in zip(parent_rss, change_rss, parent_rate,
                                         change_rate, [0, 2, 0, 0])]
    record = tool.summarize("sweep_pcf", [1, 2, 3, 4], runs, [RSS, RATE],
                            claim="peak_rss_mb", command="cmd")
    assert record["pairs"] == 4 and record["seeds"] == [1, 2, 3, 4]
    assert record["first_in_pair"] == ["parent", "change"] * 2

    rss = record["metrics"]["peak_rss_mb"]
    assert rss["parent"]["median"] == pytest.approx(42.05)
    assert rss["parent"]["q1"] == pytest.approx(41.975)
    assert rss["parent"]["q3"] == pytest.approx(42.125)
    assert rss["parent"]["iqr"] == pytest.approx(0.15)
    assert rss["parent"]["runs"] == parent_rss
    assert rss["change"]["median"] == pytest.approx(37.75)
    assert rss["change_wins"] == 3           # 42.3 against 42.1 loses
    assert rss["change_over_parent_median"] == pytest.approx(37.75 / 42.05)
    assert rss["within_bound"] and rss["bound"] == 0.05

    rate = record["metrics"]["ops_per_s"]
    assert rate["change_wins"] == 2          # a tie is no win
    assert rate["change_over_parent_median"] == pytest.approx(12.5 / 11.5)
    assert rate["within_bound"]

    assert record["answer_check"] == {
        "parent": {"attempted": 400, "failed": 0, "all_correct": True},
        "change": {"attempted": 440, "failed": 2, "all_correct": False}}
    # 3 wins of 4 is under nine in ten
    assert record["claim"] == "peak_rss_mb"
    assert record["claim_met"].startswith("not met: change wins 3/4")
    assert record["notes"][0] == (
        "peak_rss_mb 42.05 -> 37.75 (x0.898, change wins 3/4, parent IQR 0.15)")


def test_claim_and_bound_verdicts(tool):
    met = tool.summarize_metric(RSS, [42.0, 42.2, 41.9, 42.1],
                                [37.7, 37.8, 37.6, 37.9])
    assert tool.claim_verdict(met, 4).startswith("met: change wins 4/4")
    # every pair won, but by less than the parent's IQR
    close = tool.summarize_metric(RSS, [42.0, 42.2, 41.9, 42.1],
                                  [41.95, 42.15, 41.85, 42.05])
    assert tool.claim_verdict(close, 4).startswith("not met: change wins 4/4")
    # 10% more memory is past a 5% bound; 20% fewer ops within 25%
    assert not tool.summarize_metric(RSS, [40.0, 40.0], [44.0, 44.0])[
        "within_bound"]
    assert tool.summarize_metric(RATE, [10.0, 10.0], [8.0, 8.0])["within_bound"]
    assert not tool.summarize_metric(RATE, [10.0, 10.0], [7.0, 7.0])[
        "within_bound"]


def test_equal_ops_ratio(tool):
    rec = tool.summarize_equal_ops("cmd", [41.5, 41.4, 41.6], [37.2, 37.3, 37.1])
    assert rec["parent_mb"] == [41.5, 41.4, 41.6]
    assert rec["median_ratio"] == pytest.approx(37.2 / 41.5)


def test_reproduces_a_saved_bench_file(tool):
    # the layout and arithmetic of the saved files: recomputed from their
    # runs, every metric entry comes out as saved
    saved = json.loads((ROOT / "BENCH_24_sweep_pcf.json").read_text())
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for spec in specs:
        entry = saved["metrics"][spec["name"]]
        got = tool.summarize_metric(spec, entry["parent"]["runs"],
                                    entry["change"]["runs"])
        assert got.keys() == entry.keys()
        for key, value in got.items():
            if isinstance(value, dict):
                assert value.keys() == entry[key].keys()
                for k, v in value.items():
                    assert v == pytest.approx(entry[key][k], rel=1e-12), k
            else:
                assert value == pytest.approx(entry[key], rel=1e-12), key


def test_run_length_comes_from_the_benchmark(tool, tmp_path, monkeypatch):
    # main() with stubbed runs: the run length is BENCHMARK.json's
    # run_seconds, and the tool has no option to change it
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "end_to_end": [RSS, RATE]}))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(("run", seconds))
        return result(42.0 if checkout.endswith("parent") else 38.0, 10.0)

    def worker_rss(checkout, workload, seed, seconds, ops):
        calls.append(("worker", seconds, ops))
        return 41.0

    monkeypatch.setattr(tool, "run_once", run_once)
    monkeypatch.setattr(tool, "worker_rss", worker_rss)
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"),
            "--workload", "sweep_pcf", "--seeds", "1-2", "--pr", "99"]
    with pytest.raises(SystemExit):
        tool.main(argv + ["--seconds", "3"])
    assert tool.main(argv + ["--ops", "5"]) == 0
    assert calls == [("run", 7)] * 4 + [("worker", 7, 5)] * 4
    record = json.loads((tmp_path / "BENCH_99_sweep_pcf.json").read_text())
    assert "--seconds 7 --trace 0" in record["command"]
    assert "--seconds 7 --ops 5" in record["peak_rss_equal_ops"]["command"]
    assert record["metrics"]["peak_rss_mb"]["change_wins"] == 2
