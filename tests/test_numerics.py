import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfwmsim.errors import BracketError, NonConvergenceError
from sfwmsim.numerics import (QuadratureSpec, RootBracket, _gauss_nodes,
                              _panel_sums, _sinc_phasor, _sinc_phasor_sum,
                              bracket_root, erf_ratio, find_root, integrate_1d,
                              integrate_2d, sinc)

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
        assert _hex(err.value.best) == "0x1.afcb3e425d3aap-3"
        assert err.value.error_estimate.hex() == "0x1.3428d81c2455fp+0"
        assert err.value.subdivisions == 63
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

    def test_one_value_per_node(self):
        _, w = _gauss_nodes(15)
        with pytest.raises(ValueError):
            _panel_sums(np.ones(2), np.ones((2, 14)), w)


def _nan_band(x):
    return np.where(np.abs(x - 0.35) < 0.05, np.nan, 1.0)


class TestNonFinite:
    def test_nan_band_fails_on_inner_axis(self):
        # every inner integral of an outer node in the band splits every
        # panel at every level: 1 + 2 + ... + 1024 subdivisions
        with pytest.raises(NonConvergenceError) as err:
            integrate_2d(lambda x, y: _nan_band(x) + 0 * y, (0, 1, 0, 1))
        assert err.value.axis == "y"
        assert err.value.subdivisions == 2047
        assert math.isnan(err.value.best)
        assert math.isnan(err.value.error_estimate)

    def test_nan_band_fails_in_1d(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(_nan_band, 0, 1)
        assert err.value.axis is None
        assert err.value.subdivisions == 3305
        assert math.isnan(err.value.best)

    def test_nan_estimate_sets_a_nan_tolerance(self):
        # max(nan, abs_tol) is nan: the kink at 0.8, outside the band, is
        # not accepted on abs_tol (np.fmax would accept it: 3311)
        def f(x):
            return np.where(np.isnan(_nan_band(x)), np.nan,
                            np.sqrt(np.abs(x - 0.8)))

        with pytest.raises(NonConvergenceError) as err:
            integrate_1d(f, 0, 1, QuadratureSpec(abs_tol=1e-3))
        assert err.value.subdivisions == 3331

    def test_nan_panel_is_never_accepted(self):
        # every panel holding a NaN is split by the next level
        xg, _ = _gauss_nodes(15)
        calls = []

        def f(x):
            calls.append(x.reshape(-1, 15))
            return _nan_band(x)

        with pytest.raises(NonConvergenceError):
            integrate_1d(f, 0, 1)
        assert len(calls) > 5
        for coarse, fine in zip(calls, calls[1:]):
            bad = coarse[np.isnan(_nan_band(coarse)).any(axis=1)]
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
        # (P, K, 15) mismatch phases as the pump convolution forms them
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
        got = _sinc_phasor(x)
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
        # the stacked contraction of the joint spectral amplitude
        weights = amp[0]
        assert (np.matmul(weights, got).tobytes()
                == np.matmul(weights, want).tobytes())

    def test_nan_maps_to_nan(self):
        assert math.isnan(sinc(math.nan))
        x = np.array([math.nan, 0.0, 1e-200, 2.0])
        assert np.isnan(sinc(x)[0]) and sinc(x)[1] == 1.0
        got = _sinc_phasor(x)
        assert np.isnan(got[0].real) and np.isnan(got[0].imag)
        assert got[1] == 1.0 and got[2] == 1.0 + 1e-200j


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
            got = _sinc_phasor_sum(amp, q, phi)
            want = self.direct(amp, q, phi)
            assert got.shape == want.shape == (4, 15)
            peak = np.max(np.abs(want), axis=1)
            assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * peak)

    def test_nan_maps_to_nan(self):
        amp = np.ones((1, 3))
        got = _sinc_phasor_sum(amp, np.array([[0.5, math.nan, 2.0]]),
                               np.array([[0.5, 1.0]]))
        assert np.isnan(got).all()


def test_repeat_runs_bit_identical():
    f = lambda x: np.exp(-x * x) * np.cos(3 * x)
    a = integrate_1d(f, -3.0, 5.0)
    b = integrate_1d(f, -3.0, 5.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions == b.subdivisions
