import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfwmsim.errors import BracketError, NonConvergenceError
from sfwmsim.numerics import (QuadratureSpec, RootBracket, _gauss_nodes,
                              _levels, _panel_sums, _sinc_phasor,
                              _sinc_phasor_sum, bracket_root, erf_ratio,
                              find_root, find_roots, integrate_1d,
                              integrate_2d, integrate_2d_windows, sinc)

# frozen oracle values (brute-force trapezoid / long bisection, see comments)
SINC2_0_40 = 1.5584510463645005          # 1e7-point trapezoid of sinc^2
WALLIS_ROOT = 2.094551481542327          # 200-step bisection of x^3-2x-5
ERF1 = 0.8427007929497149
TWO_OVER_SQRT_PI = 1.1283791670955126


class TestIntegrate1D:
    def test_sine(self):
        res = integrate_1d(np.sin, 0.0, math.pi)
        assert abs(res.value - 2.0) < 1e-10

    def test_constant_exact_any_order(self):
        for order in (2, 5, 15):
            spec = QuadratureSpec(panel_order=order)
            res = integrate_1d(np.ones_like, 0.0, 1.0, spec)
            assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_sinc_squared_against_trapezoid_oracle(self):
        spec = QuadratureSpec(rel_tol=1e-10)
        res = integrate_1d(lambda x: sinc(x) ** 2, 0.0, 40.0, spec)
        assert abs(res.value - SINC2_0_40) < 1e-8

    def test_complex_integrand(self):
        res = integrate_1d(lambda x: np.exp(1j * x), 0.0, np.pi / 2)
        assert res.value == pytest.approx(1.0 + 1.0j, abs=1e-10)

    def test_array_valued_integrand(self):
        # component k integrates x^k on [0,1] -> 1/(k+1)
        res = integrate_1d(lambda x: x[:, None] ** np.arange(4)[None, :],
                           0.0, 1.0)
        assert np.allclose(res.value, [1, 1 / 2, 1 / 3, 1 / 4], atol=1e-12)

    def test_error_estimate_reported(self):
        res = integrate_1d(lambda x: np.exp(-x * x), -4.0, 4.0)
        assert res.error_estimate >= 0.0
        assert abs(res.value - math.sqrt(math.pi) * math.erf(4.0)) \
            <= max(res.error_estimate, 1e-9)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=3)
        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(lambda x: np.sin(50 * x * x), 0.0, 10.0, spec)
        assert err.value.best is not None
        assert math.isfinite(err.value.best)
        assert err.value.subdivisions >= 3

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 1.0)

    def test_one_call_per_refinement_level(self):
        # call k holds only panels of depth k (width span / 2^k), and every
        # split panel is evaluated in its level's call
        order = 15
        xg, _ = np.polynomial.legendre.leggauss(order)
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.exp(-x * x) * np.cos(8 * x)

        res = integrate_1d(f, -3.0, 5.0, QuadratureSpec(rel_tol=1e-12))
        assert len(calls) > 3
        assert calls[0].size == order
        for depth, nodes in enumerate(calls):
            panels = nodes.reshape(-1, order)
            extent = panels[:, -1] - panels[:, 0]
            width = 8.0 / 2 ** depth
            assert np.allclose(extent, 0.5 * width * (xg[-1] - xg[0]),
                               rtol=1e-12)
        assert sum(c.size // order for c in calls[1:]) == 2 * res.subdivisions

    @given(st.floats(0.3, 3.0), st.floats(0.5, 4.0))
    @settings(max_examples=20, deadline=None)
    def test_even_integrand_symmetric_interval(self, width, a):
        f = lambda x: np.exp(-a * x * x) + np.cos(x)
        full = integrate_1d(f, -width, width)
        half = integrate_1d(f, 0.0, width)
        tol = 1e-7 * abs(full.value) + 2 * (full.error_estimate
                                            + 2 * half.error_estimate) + 1e-12
        assert abs(full.value - 2 * half.value) <= tol


class TestIntegrate2D:
    def test_unit_square_constant(self):
        res = integrate_2d(lambda x, y: np.ones_like(y), (0, 1, 0, 1))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_separable_polynomial(self):
        res = integrate_2d(lambda x, y: x * y, (0, 1, 0, 1))
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_gaussian_equals_pi(self):
        res = integrate_2d(lambda x, y: np.exp(-x * x - y * y),
                           (-6, 6, -6, 6))
        assert abs(res.value - math.pi) < 1e-9

    def test_transpose_symmetry(self):
        f = lambda x, y: np.exp(-(x - 0.3) ** 2 - (y - 0.3) ** 2) + x * y
        a = integrate_2d(f, (-2, 2, -2, 2))
        b = integrate_2d(lambda x, y: f(y, x), (-2, 2, -2, 2))
        assert abs(a.value - b.value) <= 1e-10 * abs(a.value)

    def test_inner_axis_identified_on_failure(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=3)
        with pytest.raises(NonConvergenceError) as err:
            integrate_2d(lambda x, y: np.sin(50 * y * y) + 0 * x,
                         (0, 1, 0, 10), spec)
        assert err.value.axis == "y"

    def test_equals_nested_1d_integrals(self):
        # the pulsed efficiency relies on integrate_2d being exactly the
        # outer integral over x of the inner integrals over y
        f = lambda x, y: np.exp(-(x - 0.3) ** 2 - y * y) * np.cos(x * y)
        spec = QuadratureSpec(rel_tol=1e-6)
        inner_spec = QuadratureSpec(rel_tol=1e-9)
        got = integrate_2d(f, (-2, 2, -3, 3), spec, inner_spec=inner_spec)

        def outer(xs):
            return np.asarray([
                integrate_1d(lambda ys: f(x, ys), -3, 3, inner_spec).value
                for x in xs])

        assert got.value == integrate_1d(outer, -2, 2, spec).value

    def test_bad_window(self):
        with pytest.raises(ValueError):
            integrate_2d(lambda x, y: np.ones_like(y), (0, 1, 1, 1))

    def test_inner_failure_raises_lowest_outer_node(self):
        # outer root nodes 3 and 9 fail along y; node 9 (oscillating) hits
        # the cap levels before node 3 (one jump, one split per level), yet
        # the sequential order raises node 3's error
        xg, _ = np.polynomial.legendre.leggauss(15)
        x3, x9 = 0.5 + 0.5 * xg[3], 0.5 + 0.5 * xg[9]
        inner_spec = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0,
                                    max_subdivisions=20)

        def f(x, y):
            x = np.broadcast_to(x, np.shape(y))
            return np.where(np.abs(x - x3) < 1e-3, (y > math.pi / 4) * 1.0,
                            np.where(np.abs(x - x9) < 1e-3,
                                     np.sin(50 * y * y), np.exp(-y)))

        refs, levels = {}, {}
        for x in (x3, x9):
            calls = []
            with pytest.raises(NonConvergenceError) as ref:
                integrate_1d(lambda ys: calls.append(0) or f(x, ys),
                             0.0, 2.0, inner_spec)
            refs[x], levels[x] = ref.value, len(calls)
        assert levels[x9] < levels[x3]
        with pytest.raises(NonConvergenceError) as err:
            integrate_2d(f, (0, 1, 0, 2), inner_spec=inner_spec)
        assert err.value.axis == "y"
        assert err.value.best == refs[x3].best
        assert err.value.error_estimate == refs[x3].error_estimate
        assert err.value.subdivisions == refs[x3].subdivisions


class TestIntegrate2DWindows:
    """Several windows in lockstep: each gets its own integrate_2d bits."""

    WINDOWS = [(-2, 2, -3, 3), (0, 1, 0, 2), (2, 5, -1, 1)]
    SPEC = QuadratureSpec(rel_tol=1e-6)
    INNER = QuadratureSpec(rel_tol=1e-9)

    def test_each_window_has_its_own_bits(self):
        calls = []

        def f(x, y):
            calls.append(0)
            return _kink(x, y)

        got = integrate_2d_windows(f, self.WINDOWS, self.SPEC,
                                   inner_spec=self.INNER)
        lockstep_calls = len(calls)
        assert len(got) == len(self.WINDOWS)
        for res, window in zip(got, self.WINDOWS):
            want = integrate_2d(f, window, self.SPEC, inner_spec=self.INNER)
            assert _hex(res.value) == _hex(want.value)
            assert res.error_estimate == want.error_estimate
            assert res.subdivisions == want.subdivisions
        # one call per inner level serves every window
        assert lockstep_calls < len(calls) - lockstep_calls
        # the first window is the golden one-window integral
        _, value, error, subdivisions = GOLDEN["2d"]
        assert _hex(got[0].value) == value
        assert float(got[0].error_estimate).hex() == error
        assert got[0].subdivisions == subdivisions

    def test_bad_window(self):
        with pytest.raises(ValueError):
            integrate_2d_windows(lambda x, y: np.ones_like(y),
                                 [(0, 1, 0, 1), (0, 1, 1, 1)])

    def test_error_is_the_sequential_one(self):
        # window 0 fails on its outer axis (a kink in x), window 1 on its
        # inner axis (oscillation in y) at its first outer level, so window
        # 1 reaches the cap first; a sequential run raises window 0's error
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=10)
        inner_spec = QuadratureSpec(rel_tol=1e-10, abs_tol=0.0,
                                    max_subdivisions=10)
        windows = [(0, 1, 0, 1), (20, 21, 0, 2)]

        def f(x, y):
            return np.where(x < 10, np.sqrt(np.abs(x - 0.3)) * np.exp(-y),
                            np.sin(50 * y * y))

        refs, calls_to_fail = [], []
        for window in windows:
            calls = []
            with pytest.raises(NonConvergenceError) as ref:
                integrate_2d(lambda x, y: calls.append(0) or f(x, y), window,
                             spec, inner_spec=inner_spec)
            refs.append(ref.value)
            calls_to_fail.append(len(calls))
        assert [r.axis for r in refs] == ["x", "y"]
        assert calls_to_fail[1] < calls_to_fail[0]
        for order in ([0, 1], [1, 0]):
            with pytest.raises(NonConvergenceError) as err:
                integrate_2d_windows(f, [windows[w] for w in order], spec,
                                     inner_spec=inner_spec)
            want = refs[order[0]]
            assert err.value.axis == want.axis
            assert _hex(err.value.best) == _hex(want.best)
            assert err.value.error_estimate == want.error_estimate
            assert err.value.subdivisions == want.subdivisions


def _hex(v):
    """float.hex of a real, complex ([real, imag]) or 1-D value."""
    v = np.asarray(v)
    if np.iscomplexobj(v):
        return [_hex(v.real), _hex(v.imag)]
    return float(v).hex() if v.ndim == 0 else [float(t).hex() for t in v]


def _kink(x, y):
    return np.sqrt(np.abs(x - y)) * np.exp(-x * x - y * y)


# value, error estimate and subdivisions of one-integral-at-a-time adaptive
# refinement with per-panel Gauss sums (np.tensordot), as float.hex: the
# level engine must reproduce every bit
GOLDEN = {
    "real": (lambda: integrate_1d(
        lambda x: np.sqrt(np.abs(x - 0.3)) * np.cos(8 * x), -3.0, 5.0,
        QuadratureSpec(rel_tol=1e-12)),
        "0x1.2b1efbf3d9dc8p-5", "0x1.58ed2c0b8f780p-45", 63),
    "complex": (lambda: integrate_1d(
        lambda x: np.exp(40j * x * x) * np.sqrt(np.abs(x - 1.0)), 0.0, 3.0,
        QuadratureSpec(rel_tol=1e-11)),
        ["0x1.b25dff473142ep-4", "0x1.7d01fb796c40ep-4"],
        "0x1.364099d869400p-40", 93),
    "vector": (lambda: integrate_1d(
        lambda x: np.stack([np.sin(9 * x), np.sqrt(np.abs(x - 0.7)),
                            1 / (1 + 100 * x * x)], axis=1), -1.0, 2.0,
        QuadratureSpec(rel_tol=1e-12)),
        ["-0x1.65976bc7337f1p-3", "0x1.3ba093a612910p+1",
         "0x1.3260954a5702cp-2"], "0x1.467f7c6d4d300p-40", 59),
    "2d": (lambda: integrate_2d(
        _kink, (-2, 2, -3, 3), QuadratureSpec(rel_tol=1e-6),
        inner_spec=QuadratureSpec(rel_tol=1e-9)),
        "0x1.47d990e180db6p+1", "0x1.52d7788893000p-26", 1440),
}


class TestGoldenBits:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_result_bits(self, name):
        run, value, error, subdivisions = GOLDEN[name]
        res = run()
        assert _hex(res.value) == value
        assert res.error_estimate.hex() == error
        assert res.subdivisions == subdivisions

    def test_nonconvergence_bits(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=40)
        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(lambda x: np.sin(50 * x * x), 0.0, 10.0, spec)
        # the last level splits only the panels the budget of 40 allows
        assert _hex(err.value.best) == "-0x1.c3fa9bc01e85cp-3"
        assert err.value.error_estimate.hex() == "0x1.62c286c7fa017p+0"
        assert err.value.subdivisions == 40
        assert err.value.axis is None


class TestPanelSums:
    """The stacked Gauss sum equals the per-panel tensordot bit for bit."""

    @pytest.mark.parametrize("kind", ["real", "complex", "vector"])
    def test_equals_per_panel_tensordot(self, kind):
        rng = np.random.default_rng(11)
        order = 15
        _, w = _gauss_nodes(order)
        for panels in (1, 2, 3, 8, 17, 64, 129, 255, 300):
            shape = (panels, order) + ((3,) if kind == "vector" else ())
            scale = 10.0 ** rng.uniform(-30, 5, (panels,) + (1,) * (len(shape) - 1))
            vals = rng.standard_normal(shape) * scale
            if kind == "complex":
                vals = vals + 1j * rng.standard_normal(shape) * scale
            half = 10.0 ** rng.uniform(-3, 3, panels)
            want = np.asarray([h * np.tensordot(w, v, axes=(0, 0))
                               for h, v in zip(half, vals)])
            got = _panel_sums(half, vals, w)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_default_rule_is_leggauss(self):
        # the pinned default rule has the bits np.polynomial gives it
        for got, want in zip(_gauss_nodes(15),
                             np.polynomial.legendre.leggauss(15)):
            assert got.tobytes() == want.tobytes()

    def test_one_value_per_node(self):
        _, w = _gauss_nodes(15)
        with pytest.raises(ValueError):
            _panel_sums(np.ones(2), np.ones((2, 14)), w)


def _nan_band(x):
    return np.where(np.abs(x - 0.35) < 0.05, np.nan, 1.0)


class TestNonFinite:
    def test_nan_band_fails_on_inner_axis(self):
        # every inner integral of an outer node in the band splits every
        # panel at every level, 1 + 2 + ... + 512 subdivisions, then the
        # 977 panels left of the cap of 2000
        with pytest.raises(NonConvergenceError) as err:
            integrate_2d(lambda x, y: _nan_band(x) + 0 * y, (0, 1, 0, 1))
        assert err.value.axis == "y"
        assert err.value.subdivisions == 2000
        assert math.isnan(err.value.best)
        assert math.isnan(err.value.error_estimate)

    def test_nan_band_fails_in_1d(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(_nan_band, 0, 1)
        assert err.value.axis is None
        assert err.value.subdivisions == 2000
        assert math.isnan(err.value.best)

    def test_nan_estimate_sets_a_nan_tolerance(self):
        # max(nan, abs_tol) is nan: the kink at 0.8, outside the band, is
        # not accepted on abs_tol, so every level splits the panel that
        # holds it, but the last, whose budget ends left of it (np.fmax
        # would accept it, and levels 6 to 15 would not hold it)
        calls = []

        def f(x):
            calls.append(x.reshape(-1, 15))
            return np.where(np.isnan(_nan_band(x)), np.nan,
                            np.sqrt(np.abs(x - 0.8)))

        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(f, 0, 1, QuadratureSpec(abs_tol=1e-3))
        assert err.value.subdivisions == 2000
        assert len(calls) == 16
        assert all(((c[:, 0] < 0.8) & (c[:, -1] > 0.8)).any()
                   for c in calls[:-1])

    def test_nan_panel_is_never_accepted(self):
        # every panel holding a NaN is split by the next level, until the
        # subdivision budget runs out: the last level splits the leftmost
        # panels it allows, and holds the others back
        xg, _ = _gauss_nodes(15)
        calls = []

        def f(x):
            calls.append(x.reshape(-1, 15))
            return _nan_band(x)

        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(f, 0, 1)
        assert len(calls) > 5
        assert sum(len(c) for c in calls[1:]) == 2 * err.value.subdivisions
        for coarse, fine in zip(calls, calls[1:]):
            bad = coarse[np.isnan(_nan_band(coarse)).any(axis=1)]
            if fine is calls[-1]:
                held = bad[:, 0] > fine[-1, 0]
                assert held.any()
                bad = bad[~held]
            center = 0.5 * (bad[:, 0] + bad[:, -1])
            quarter = 0.5 * (bad[:, -1] - bad[:, 0]) / (xg[-1] - xg[0])
            fine_center = 0.5 * (fine[:, 0] + fine[:, -1])
            for child in (center - quarter, center + quarter):
                gap = np.abs(fine_center[None, :] - child[:, None]).min(axis=1)
                assert np.all(gap < 1e-9 * quarter)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 2, (0.0, 5.0), 1e-12) == \
            pytest.approx(2.0, abs=1e-10)

    def test_cosine(self):
        root = find_root(math.cos, (1.0, 2.0), 1e-12)
        assert root == pytest.approx(math.pi / 2, abs=1e-10)

    def test_cubic_against_bisection_oracle(self):
        root = find_root(lambda x: x ** 3 - 2 * x - 5, (2.0, 3.0), 1e-12)
        assert abs(root - WALLIS_ROOT) < 1e-9

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bracket_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bracket_dataclass_validation(self):
        with pytest.raises(BracketError):
            RootBracket(lo=1.0, hi=0.0, f_lo=-1.0, f_hi=1.0)

    @given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_root_inside_bracket(self, center, spread, scale):
        f = lambda x: scale * (x - center)
        lo, hi = center - spread, center + spread * 1.7
        root = find_root(f, (lo, hi), 1e-10)
        assert lo <= root <= hi
        assert abs(root - center) < 1e-8


def _step(x):
    return -1.0 if x < 0.3 else 1.0


# (f, bracket, tol, float.hex of the root and evaluations of f, bracket
# ends included) as the loop-bodied find_root gave them
BRENT_GOLDEN = {
    "linear": (lambda x: x - 2, (0.0, 5.0), 1e-12, "0x1.0000000000000p+1", 3),
    "cos": (math.cos, (1.0, 2.0), 1e-12, "0x1.921fb54442d18p+0", 7),
    "cubic": (lambda x: x ** 3 - 2 * x - 5, (2.0, 3.0), 1e-12,
              "0x1.0c1a4350819e4p+1", 8),
    "fa_zero": (lambda x: x - 1, (1.0, 3.0), 1e-12, "0x1.0000000000000p+0", 2),
    "fb_zero": (lambda x: x - 3, (1.0, 3.0), 1e-12, "0x1.8000000000000p+1", 2),
    # constant |f|: every step is the bisection fallback
    "step": (_step, (0.0, 1.0), 1e-10, "0x1.3333333300000p-2", 36),
    "root10": (lambda x: math.copysign(abs(x - 0.3) ** 0.1, x - 0.3),
               (0.0, 1.0), 1e-12, "0x1.333333333202bp-2", 39),
    "exp": (lambda x: math.exp(x) - 10, (0.0, 5.0), 1e-10,
            "0x1.26bb1bbb5556ep+1", 11),
    "wide": (lambda x: ((x - 2.5e15) / 1e14) ** 3 + 0.1 * (x - 2.5e15) / 1e14
             - 0.05, (2.4e15, 2.7e15), 1e2, "0x1.1f66e666d288bp+51", 16),
}


class TestBrentLanes:
    """find_root and the lockstep lanes of find_roots share one Brent body."""

    @pytest.mark.parametrize("name", sorted(BRENT_GOLDEN))
    def test_find_root_bits(self, name):
        f, bracket, tol, root, evals = BRENT_GOLDEN[name]
        xs = []
        got = find_root(lambda x: xs.append(x) or f(x), bracket, tol)
        assert float(got).hex() == root
        assert len(xs) == evals

    def lockstep(self, names, calls=None):
        fs = [BRENT_GOLDEN[n][0] for n in names]

        def f(lanes, x):
            if calls is not None:
                calls.append(list(lanes))
            return [fs[lane](xj) for lane, xj in zip(lanes, x)]

        brackets = [BRENT_GOLDEN[n][1] for n in names]
        return find_roots(f, brackets, 1e-12)

    def test_lanes_equal_find_root(self):
        # all tolerances 1e-12 here, so compare with find_root, not the table
        names = sorted(n for n in BRENT_GOLDEN if BRENT_GOLDEN[n][2] == 1e-12)
        calls = []
        roots = self.lockstep(names, calls)
        for name, root in zip(names, roots):
            f, bracket, tol, _root, evals = BRENT_GOLDEN[name]
            assert float(root).hex() == float(find_root(f, bracket, tol)).hex()
            # one call per evaluation of each lane, ends included
            assert sum(names.index(name) in c for c in calls) == evals
        # lanes end at different steps, and each call serves the live ones
        assert len({len(c) for c in calls}) > 2
        assert len(calls) == max(BRENT_GOLDEN[n][4] for n in names)

    @pytest.mark.parametrize("name", sorted(BRENT_GOLDEN))
    def test_lane_bits_match_golden(self, name):
        f, bracket, tol, root, _evals = BRENT_GOLDEN[name]
        others = ["cos", "step", "wide"]
        fs = [f] + [BRENT_GOLDEN[n][0] for n in others]
        brackets = [bracket] + [BRENT_GOLDEN[n][1] for n in others]
        got = find_roots(
            lambda lanes, x: [fs[lane](xj) for lane, xj in zip(lanes, x)],
            brackets, tol)
        assert float(got[0]).hex() == root

    def test_validated_bracket_lane(self):
        f = BRENT_GOLDEN["cubic"][0]
        bracket = bracket_root(f, 2.0, 3.0)
        got = find_roots(lambda lanes, x: [f(xj) for xj in x], [bracket], 1e-12)
        assert float(got[0]).hex() == "0x1.0c1a4350819e4p+1"

    def test_failed_lane_ends_the_lanes_above(self):
        # lane 1 (11 evaluations) fails at its fourth; lane 0 (cos) still
        # needs seven, lane 2 (step) 36, and lane 3 (linear) ends after three
        fs = [math.cos, lambda x: math.exp(x) - 10, _step, lambda x: x - 2]
        seen = [0] * 4

        def f(lanes, x):
            out = []
            for lane, xj in zip(lanes, x):
                seen[lane] += 1
                if lane == 1 and seen[lane] == 4:
                    out.append(ZeroDivisionError("lane 1"))
                else:
                    out.append(fs[lane](xj))
            return out

        got = find_roots(f, [(1.0, 2.0), (0.0, 5.0), (0.0, 1.0), (0.0, 5.0)],
                         1e-12)
        assert float(got[0]).hex() == float(find_root(fs[0], (1.0, 2.0), 1e-12)).hex()
        assert isinstance(got[1], ZeroDivisionError)
        assert got[2:] == [None, None]
        assert seen[0] == 7 and seen[2] == 4

    def test_bracket_error_is_a_lane_failure(self):
        got = find_roots(lambda lanes, x: [1.0 + xj * xj for xj in x],
                         [(-1.0, 1.0)], 1e-12)
        assert isinstance(got[0], BracketError)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            find_roots(lambda lanes, x: x, [(0.0, 1.0)], 0.0)


# four integrals on their own intervals, as separate integrate_1d calls
# gave them: float.hex of value and error, and subdivisions
LEVELS_C = np.array([0.3, -0.5, 1.2, 2.0])
LEVELS_W = np.array([8.0, 3.0, 20.0, 1.0])
LEVELS_A = [-3.0, -1.0, 0.0, 1.5]
LEVELS_B = [5.0, 0.25, 2.5, 7.0]
LEVELS_GOLDEN = [
    ("0x1.2b1efbf3e3c56p-5", "0x1.6d9dbd06fc980p-42", 53),
    ("0x1.948602ed4ef75p-3", "0x1.d68fe5f577500p-41", 39),
    ("-0x1.328de6340d7e0p-6", "0x1.705f9e7430000p-43", 45),
    ("0x1.4ec45d7d65576p+0", "0x1.48136cbf8a000p-41", 43),
]


class TestLevelsBounds:
    spec = QuadratureSpec(rel_tol=1e-11)

    def test_separate_calls_bits(self):
        for c, w, a, b, want in zip(LEVELS_C, LEVELS_W, LEVELS_A, LEVELS_B,
                                    LEVELS_GOLDEN):
            res = integrate_1d(lambda x: np.sqrt(np.abs(x - c)) * np.cos(w * x),
                               a, b, self.spec)
            assert (float(res.value).hex(), res.error_estimate.hex(),
                    res.subdivisions) == want

    def test_per_integral_bounds_equal_separate_calls(self):
        def f(owner, x):
            c, w = LEVELS_C[owner, None], LEVELS_W[owner, None]
            return np.sqrt(np.abs(x - c)) * np.cos(w * x)

        value, error, subdivisions = _levels(f, 4, LEVELS_A, LEVELS_B, self.spec)
        got = [(float(v).hex(), float(e).hex(), int(n))
               for v, e, n in zip(value, error, subdivisions)]
        assert got == LEVELS_GOLDEN

    def test_bounds_checked_per_integral(self):
        with pytest.raises(ValueError):
            _levels(lambda owner, x: x, 2, [0.0, 1.0], [1.0, 1.0], self.spec)

    def test_nonconvergence_owner_order(self):
        # integrals 1 and 3 fail; 3 (fast oscillation) reaches the cap at
        # level 7, 1 (a jump, one split per level, the last one held back)
        # at level 22, yet the sequential order raises 1's error, with its
        # own best estimate
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=0.0, max_subdivisions=40)
        fs = [lambda x: np.sin(1.0 * x * x), lambda x: (x > math.pi / 4) * 1.0,
              lambda x: np.sin(3.0 * x * x), lambda x: np.sin(80.0 * x * x)]
        bounds = [10.0, 2.0, 2.0, 10.0]
        with pytest.raises(NonConvergenceError) as one:
            integrate_1d(fs[1], 0.0, 2.0, spec)
        assert (float(one.value.best).hex(), one.value.error_estimate.hex(),
                one.value.subdivisions) == (
            "0x1.36f0259a2c153p+0", "0x1.32e59621c67b4p-24", 40)

        def f(owner, x):
            out = np.empty_like(x)
            for k, g in enumerate(fs):
                rows = owner == k
                out[rows] = g(x[rows])
            return out

        with pytest.raises(NonConvergenceError) as err:
            _levels(f, 4, 0.0, bounds, spec)
        assert float(err.value.best).hex() == "0x1.36f0259a2c153p+0"
        assert err.value.error_estimate.hex() == "0x1.32e59621c67b4p-24"
        assert err.value.subdivisions == 40


class TestErfRatio:
    def test_at_zero(self):
        assert erf_ratio(0.0) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

    def test_at_one(self):
        assert erf_ratio(1.0) == pytest.approx(ERF1, rel=1e-12)

    def test_tiny_argument(self):
        assert erf_ratio(1e-8) == pytest.approx(TWO_OVER_SQRT_PI, abs=1e-12)

    def test_switchover_continuity(self):
        below = erf_ratio(1e-4 * (1 - 1e-9))
        above = erf_ratio(1e-4 * (1 + 1e-9))
        assert abs(below - above) / above < 1e-12

    def test_monotone_decreasing_on_grid(self):
        xs = np.linspace(0.0, 3.0, 1000)
        vals = [erf_ratio(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            erf_ratio(-0.1)


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"rel_tol": 0.0}, {"rel_tol": -1e-9}, {"abs_tol": -1.0},
        {"abs_tol": math.nan},
        {"max_subdivisions": 0}, {"panel_order": 1},
    ])
    def test_invalid_spec(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_sinc_removable_singularity(self):
        assert sinc(0.0) == 1.0
        assert sinc(np.array([0.0, math.pi]))[0] == 1.0
        assert sinc(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_sinc_equals_masked_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        n = 12 * 180 * 15
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-9, 3, n)
        x[:7] = [0.0, -0.0, 1e-200, -1e-200, 1e-150, -2e-150, math.pi]
        x = x.reshape(12, 180, 15)
        want = np.ones_like(x)
        nz = np.abs(x) > 1e-150
        want[nz] = np.sin(x[nz]) / x[nz]
        assert sinc(x).tobytes() == want.tobytes()


class TestSincPhasor:
    """``_sinc_phasor`` against the complex-exp form it replaces."""

    @staticmethod
    def block(k, seed):
        # (P, K, 15) mismatch phases, as the pump integral forms them
        rng = np.random.default_rng(seed)
        shape = (5, k, 15)
        x = (rng.choice([-1.0, 1.0], size=shape)
             * 10.0 ** rng.uniform(-9, 5, size=shape))
        x.flat[:7] = [0.0, 1e-200, -1e-200, 1e-150, -1e-150, 1e5, -1e5]
        amp = 10.0 ** rng.uniform(-30, 5, size=shape[:2])
        return x, amp

    @pytest.mark.parametrize("k", [33, 60, 180])
    def test_equals_sinc_times_exp_bit_for_bit(self, k):
        x, amp = self.block(k, k)
        want = sinc(x) * np.exp(1j * x)
        got = _sinc_phasor(x, 1.0)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the stacked contraction of the pulsed integrand
        assert (np.matmul(amp[:, None, :], got).tobytes()
                == np.matmul(amp[:, None, :], want).tobytes())

    @pytest.mark.parametrize("k", [33, 60, 180])
    def test_scaled_equals_scale_times_sinc_times_exp(self, k):
        x, amp = self.block(k, 100 + k)
        scale = amp[:, :, None] * np.linspace(0.5, 2.0, x.shape[2])
        want = scale * sinc(x) * np.exp(1j * x)
        got = _sinc_phasor(x, scale)
        assert got.tobytes() == want.tobytes()
        # a weighted contraction over the pump nodes
        weights = amp[0]
        assert (np.matmul(weights, got).tobytes()
                == np.matmul(weights, want).tobytes())

    def test_nan_maps_to_nan(self):
        assert math.isnan(sinc(math.nan))
        x = np.array([math.nan, 0.0, 1e-200, 2.0])
        assert np.isnan(sinc(x)[0]) and sinc(x)[1] == 1.0
        got = _sinc_phasor(x, 1.0)
        assert np.isnan(got[0].real) and np.isnan(got[0].imag)
        assert got[1] == 1.0 and got[2] == 1.0 + 1e-200j


def phasor_rows(amp, q):
    """[Re(amp e^{2iq}), Im(amp e^{2iq}), amp] of shape (P, 3, K), formed as
    the pulsed integrand forms them."""
    amp_e = amp * np.exp(2j * q)
    return np.stack([amp_e.real, amp_e.imag, amp], axis=1)


def sinc_phasor_sum_reference(amp, q, phi):
    """The earlier body of ``_sinc_phasor_sum``, which formed the phasor rows
    on every call and 1/x out of place; the kernel must keep its bits."""
    x = q[:, :, None] - phi[:, None, :]
    near = np.abs(x) < 1e-3
    any_near = near.any()
    recip = 1.0 / (np.where(near, np.inf, x) if any_near else x)
    amp_e = amp * np.exp(2j * q)
    sums = np.matmul(np.stack([amp_e.real, amp_e.imag, amp], axis=1), recip)
    w = np.exp(-2j * phi)
    F = 0.5j * (sums[:, 2] - w * (sums[:, 0] + 1j * sums[:, 1]))
    if any_near:
        p, k, j = np.nonzero(near)
        np.add.at(F, (p, j), _sinc_phasor(x[p, k, j], amp[p, k]))
    return F


class TestSincPhasorSum:
    """``_sinc_phasor_sum`` against the direct sum of sinc(x) e^{ix}."""

    # x forced onto the single-element path and both sides of its threshold
    FORCED = (0.0, 1e-150, -1e-150,
              math.nextafter(1e-3, 0.0), -math.nextafter(1e-3, 0.0),
              math.nextafter(1e-3, 1.0), -math.nextafter(1e-3, 1.0))

    @classmethod
    def block(cls, k, seed):
        # rows 1-3 carry phases of the size the pulsed integrand forms (L/2
        # beta ~ 6e6 rad, x = q - phi within +-80 rad); row 0 sits at zero so
        # that x = q - 0 takes the forced values exactly in its column 3
        rng = np.random.default_rng(seed)
        offset = np.array([[0.0], [6e6], [6e6], [6e6]])
        q = offset + rng.uniform(-40, 40, (4, k))
        phi = offset + rng.uniform(-40, 40, (4, 15))
        amp = rng.uniform(0.05, 1.0, (4, k))
        phi[0, 3] = 0.0
        q[0, :len(cls.FORCED)] = cls.FORCED
        q[1, 5] = phi[1, 7]                   # x = 0 at full phase size
        q[2, :2] = phi[2, 0]                  # two of them in one element
        return amp, q, phi

    @staticmethod
    def direct(amp, q, phi):
        x = q[:, :, None] - phi[:, None, :]
        s = np.ones_like(x)
        nz = x != 0
        s[nz] = np.sin(x[nz]) / x[nz]
        return np.einsum("pk,pkj->pj", amp, s * np.exp(1j * x))

    @pytest.mark.parametrize("k", [33, 60, 180])
    def test_matches_direct_sum(self, k):
        for seed in range(3):
            amp, q, phi = self.block(k, 10 * k + seed)
            got = _sinc_phasor_sum(phasor_rows(amp, q), q, phi)
            want = self.direct(amp, q, phi)
            assert got.shape == want.shape == (4, 15)
            peak = np.max(np.abs(want), axis=1)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * peak)

    @pytest.mark.parametrize("k", [33, 60, 180])
    def test_reference_bits(self, k):
        # forced near-zero elements, one row whose every element is near
        # zero, and a block with none; the inputs stay as they were
        amp, q, phi = self.block(k, 7 * k)
        rng = np.random.default_rng(k)
        amp = np.vstack([amp, rng.uniform(0.05, 1.0, (1, k))])
        q = np.vstack([q, 5.0 + rng.uniform(-4e-4, 4e-4, (1, k))])
        phi = np.vstack([phi, 5.0 + rng.uniform(-4e-4, 4e-4, (1, 15))])
        for rows in (slice(None), slice(1, 4)):
            a, qr, ph = amp[rows], q[rows], phi[rows]
            rows_in = phasor_rows(a, qr)
            before = [arr.copy() for arr in (rows_in, qr, ph)]
            got = _sinc_phasor_sum(rows_in, qr, ph)
            want = sinc_phasor_sum_reference(a, qr, ph)
            assert got.tobytes() == want.tobytes()
            for arr, copy in zip((rows_in, qr, ph), before):
                assert arr.tobytes() == copy.tobytes()
        assert np.all(np.abs(q[4][:, None] - phi[4]) < 1e-3)

    def test_nan_maps_to_nan(self):
        amp = np.ones((1, 3))
        q = np.array([[0.5, math.nan, 2.0]])
        phi = np.array([[0.5, 1.0]])
        got = _sinc_phasor_sum(phasor_rows(amp, q), q, phi)
        assert np.isnan(got).all()
        want = sinc_phasor_sum_reference(amp, q, phi)
        assert got.tobytes() == want.tobytes()


def test_repeat_runs_bit_identical():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    a = integrate_1d(f, -3.0, 5.0)
    b = integrate_1d(f, -3.0, 5.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions == b.subdivisions
