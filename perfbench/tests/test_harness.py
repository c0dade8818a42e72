"""Tests of the benchmark harness itself.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, 0, attrs]


class TestSelfTime:
    def test_synthetic_tree(self):
        # op [0,100] > quad [10,90] > integrand [20,50] > kernel [25,45]
        #                           > integrand [60,80]
        spans = [_span("op", 0, 100, -1),
                 _span("quad.integrate_1d", 10, 90, 0),
                 _span("integrand", 20, 50, 1),
                 _span("kernels.he11_solve", 25, 45, 2, {"points": 4}),
                 _span("integrand", 60, 80, 1)]
        assert tracer.self_times(spans) == [20, 30, 10, 20, 20]

    def test_self_times_sum_to_root_duration(self):
        spans = [_span("op", 0, 1000, -1), _span("a", 100, 400, 0),
                 _span("b", 150, 250, 1), _span("c", 500, 900, 0)]
        assert sum(tracer.self_times(spans)) == 1000

    def test_breakdown_shares(self):
        spans = [_span("op", 0, 100, -1),
                 _span("dispersion.beta", 0, 50, 0, {"points": 1, "scalar": True}),
                 _span("kernels.he11_solve", 10, 40, 1, {"points": 1})]
        total, shares = tracer.breakdown(spans)
        assert total == pytest.approx(100e-9)
        assert shares == pytest.approx({"op": 0.5, "dispersion": 0.2, "kernels": 0.3})


class TestRecorder:
    def test_wrappers_restored_after_traced_run(self):
        import sfwmsim
        import sfwmsim.cli
        namespaces = [m.__dict__ for n, m in sys.modules.items()
                      if n == "sfwmsim" or n.startswith("sfwmsim.")]
        before = [dict(ns) for ns in namespaces]
        k_before = sfwmsim.TaylorDispersion.__dict__["k"]
        beta_before = sfwmsim.dispersion.beta

        rec = tracer.Recorder()
        rec.install()
        assert sfwmsim.dispersion.beta is not beta_before
        fiber = sfwmsim.FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91,
                                  length=0.5)
        omega = sfwmsim.constants.omega_from_um(0.8)
        traced = rec.run_op(0, sfwmsim.beta1, omega, fiber)
        assert rec.restore()

        for ns, old in zip(namespaces, before):
            assert ns.keys() == old.keys()
            assert all(ns[key] is value for key, value in old.items())
        assert sfwmsim.TaylorDispersion.__dict__["k"] is k_before
        names = {s[tracer.NAME] for s in rec.spans}
        assert {"op", "dispersion.beta1", "dispersion.beta",
                "kernels.he11_solve"} <= names
        assert traced == sfwmsim.beta1(omega, fiber)

    def test_raising_call_is_still_counted(self):
        import sfwmsim
        fiber = sfwmsim.FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91,
                                  length=0.5)
        omega = sfwmsim.constants.omega_from_um(5.0)    # outside Sellmeier range
        rec = tracer.Recorder()
        rec.install()
        try:
            with pytest.raises(sfwmsim.WavelengthRangeError):
                rec.run_op(0, sfwmsim.beta, omega, fiber)
        finally:
            assert rec.restore()
        metrics = tracer.layer_metrics(rec.spans, 1)
        assert metrics["dispersion.calls"] == 1
        assert metrics["dispersion.scalar_calls"] == 1

    def test_layer_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = {m["name"] for m in json.load(fh)["per_layer"]}
        assert set(tracer.layer_metrics([], 1)) | {"trace.overhead"} == names


class TestGenerator:
    def test_pool_is_deterministic(self):
        for workload in wl.WORKLOADS:
            assert wl.draw_pool(workload) == wl.draw_pool(workload)

    def test_round_is_deterministic_in_the_seed(self):
        costs = [0.5 + (7 * i % 13) for i in range(40)]
        one = wl.draw_round(costs, 4, seed=3, round_index=0)
        assert one == wl.draw_round(costs, 4, seed=3, round_index=0)
        assert one != wl.draw_round(costs, 4, seed=4, round_index=0)

    def test_round_takes_one_entry_per_stratum(self):
        costs = [float(i) for i in range(40)]
        pick = wl.draw_round(costs, 4, seed=11, round_index=2)
        assert sorted(i // 10 for i in pick) == [0, 1, 2, 3]

    def test_reference_pool_matches_generator(self):
        for workload in wl.WORKLOADS:
            ref = wl.load_reference(workload)
            assert [e["input"] for e in ref["entries"]] == \
                json.loads(json.dumps(wl.draw_pool(workload)))


def test_taylor_fit_reproduces_fiber_a():
    """The Taylor constants stand in for fiber A near 708 nm."""
    import sfwmsim
    pump = {"wavelength_um": 0.708, "sigma_THz": 3.0, "avg_power_mW": 0.3,
            "rep_rate_MHz": 80.0}
    fiber = dict(wl.FIBER_A, length_m=0.5)
    pcf = sfwmsim.parse_config({"fiber": fiber, "pump1": pump})
    taylor = sfwmsim.parse_config({"fiber": dict(fiber, taylor=wl.TAYLOR_A),
                                   "pump1": pump})
    eta_pcf = sfwmsim.eta_pulsed_numeric(pcf).eta
    eta_taylor = sfwmsim.eta_pulsed_numeric(taylor).eta
    assert eta_taylor == pytest.approx(eta_pcf, rel=3e-6)
