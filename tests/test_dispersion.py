import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import taylor_fiber
from sfwmsim import _kernels_py, dispersion
from sfwmsim import _kernels_py as kernels
from sfwmsim.constants import (C, SELLMEIER_RANGE_UM, omega_from_um,
                               um_from_omega)
from sfwmsim.dispersion import (_MEMO_SIZE, _TABLE_PANELS, FiberSpec,
                                StepIndexDispersion, TaylorDispersion,
                                _amplitude, _effective_areas, _mode_profiles,
                                beta, beta1, beta2, effective_area,
                                effective_index, find_zero_dispersion,
                                gamma_pump, gamma_pumps, gamma_sfwm,
                                mode_profile, nonlinear_parameters,
                                silica_index)
from sfwmsim.errors import (ModeCutoffError, OverlapError,
                            WavelengthRangeError)


def hand_sellmeier(lam_um):
    """Independent oracle: the three-term sum written out explicitly."""
    l2 = lam_um * lam_um
    s = (0.6961663 * l2 / (l2 - 0.0684043 ** 2)
         + 0.4079426 * l2 / (l2 - 0.1162414 ** 2)
         + 0.8974794 * l2 / (l2 - 9.896161 ** 2))
    return math.sqrt(1.0 + s)


class TestSilicaIndex:
    def test_sodium_d_line(self):
        n = silica_index(omega_from_um(0.5876))
        assert n == pytest.approx(1.4585, abs=1e-3)
        assert n == pytest.approx(hand_sellmeier(0.5876), rel=1e-12)

    def test_one_micron(self):
        n = silica_index(omega_from_um(1.0))
        assert n == pytest.approx(1.4504, abs=1e-3)
        assert n == pytest.approx(hand_sellmeier(1.0), rel=1e-12)

    def test_normal_dispersion(self):
        assert silica_index(omega_from_um(0.4)) > silica_index(omega_from_um(1.5))

    def test_range_validation(self):
        with pytest.raises(WavelengthRangeError):
            silica_index(omega_from_um(0.15))
        with pytest.raises(WavelengthRangeError):
            silica_index(omega_from_um(4.0))


class TestEffectiveIndex:
    def test_guidance_bounds(self, fiber_a):
        om = np.linspace(omega_from_um(1.8), omega_from_um(0.45), 50)
        neff = effective_index(om, fiber_a)
        nco = silica_index(om)
        ncl = fiber_a.air_fill_fraction + (1 - fiber_a.air_fill_fraction) * nco
        assert np.all(neff > ncl)
        assert np.all(neff < nco)

    def test_deep_guidance_limit(self):
        # huge core: the mode index approaches the core index
        fat = FiberSpec(core_radius=20e-6, air_fill_fraction=0.91, length=1.0)
        om = omega_from_um(0.708)
        assert silica_index(om) - effective_index(om, fat) < 1e-4

    def test_scalar_matches_array_path(self, fiber_a):
        oms = np.linspace(omega_from_um(1.2), omega_from_um(0.5), 16)
        arr = effective_index(oms, fiber_a)
        scal = np.array([effective_index(float(om), fiber_a) for om in oms])
        assert np.max(np.abs(arr - scal) / scal) < 1e-12

    @pytest.mark.parametrize("omega, lam", [(1e13, "188.3652"),
                                            (1e17, "0.0188")])
    def test_scalar_out_of_window_raises(self, fiber_b, omega, lam):
        with pytest.raises(WavelengthRangeError) as err:
            effective_index(omega, fiber_b)
        assert str(err.value) == (f"wavelength {lam} um outside Sellmeier "
                                  "validity [0.21, 3.7] um")

    def test_scalar_nan_raises_cutoff(self, fiber_b):
        with pytest.raises(ModeCutoffError) as err:
            effective_index(math.nan, fiber_b)
        assert str(err.value) == ("fundamental-mode solve failed at "
                                  "omega=nan rad/s (lambda=nan um)")

    def test_beta_definition(self, fiber_a):
        om = omega_from_um(0.708)
        assert beta(om, fiber_a) / om == pytest.approx(
            effective_index(om, fiber_a) / C, rel=1e-12)

    def test_beta1_positive_in_band(self, fiber_a):
        om = np.linspace(omega_from_um(1.8), omega_from_um(0.45), 25)
        assert np.all(beta1(om, fiber_a) > 0)


def window_wavelengths(n):
    """n wavelengths [um] spread over the open Sellmeier window."""
    lo, hi = SELLMEIER_RANGE_UM
    return np.linspace(lo, hi, n + 2)[1:-1]


GEOMETRIES = pytest.mark.parametrize(
    "core_radius, fill", [(0.97e-6, 0.91), (0.5e-6, 0.6), (20e-6, 0.91)],
    ids=["fiber_a", "fiber_b", "core_20um"])


class TestModeSolve:
    @pytest.mark.parametrize("core_radius, fill",
                             [(0.5e-6, 0.6), (0.4e-6, 0.5)],
                             ids=["fiber_b", "core_0.4um"])
    def test_characteristic_residual_across_window(self, core_radius, fill):
        # thin cores reach b -> 0 in the far infrared, where the fixed
        # Newton steps alone stop short of the root
        lam = window_wavelengths(20000)
        om = omega_from_um(lam)
        _neff, _u, w = kernels.he11_solve(om, core_radius, fill)
        nco = _kernels_py.sellmeier_n(lam)
        ncl = fill + (1 - fill) * nco
        V = om / C * core_radius * np.sqrt(nco ** 2 - ncl ** 2)
        g, gp = _kernels_py._g_and_gprime((w / V) ** 2, V, (ncl / nco) ** 2)
        assert np.all(np.abs(g) <= 1e-13 * np.maximum(np.abs(gp), 1.0))

    @pytest.mark.parametrize("core_radius, fill",
                             [(0.97e-6, 0.91), (0.5e-6, 0.6), (0.4e-6, 0.5),
                              (0.3e-6, 0.6)],
                             ids=["fiber_a", "fiber_b", "core_0.4um",
                                  "core_0.3um"])
    def test_one_point_solve_matches_array_solve(self, core_radius, fill):
        # short queries take the plain-float operations of the ladder; they
        # must give the bits of the array operations, or scalar and array
        # n_eff would disagree.  On the 0.3 um core the rtsafe polish runs
        # out its steps in the far infrared; bytes compare NaN as equal.
        # omega = 1e30, far outside the window, has V = 0: both give NaN
        om = np.append(omega_from_um(window_wavelengths(2000)), 1e30)
        with np.errstate(divide="ignore", invalid="ignore"):
            arrays = kernels.he11_solve(om, core_radius, fill)
            for i in range(om.size):
                one = kernels.he11_solve(om[i:i + 1], core_radius, fill)
                assert [v.tobytes() for v in one] == [v[i:i + 1].tobytes()
                                                      for v in arrays]

    def test_short_query_keeps_shape(self):
        om = omega_from_um(np.array([[0.8], [1.2]]))
        for out in kernels.he11_solve(om, 0.97e-6, 0.91):
            assert out.shape == (2, 1)


def characteristic_b():
    """b over the ladder's bracket [1e-12, 1 - 1e-12], both ends crowded."""
    ends = np.logspace(-12, -1, 500)
    return np.concatenate([np.linspace(1e-12, 1.0 - 1e-12, 1500), ends,
                           1.0 - ends, [np.nan]])


class TestFloatCharacteristic:
    """The float call of G and G' rounds like the array call, bit for bit."""

    @GEOMETRIES
    def test_float_call_matches_array_call(self, core_radius, fill):
        b = characteristic_b()
        for lam in (0.25, 0.75, 1.55, 3.5):
            V, q = (float(x) for x in kernels._guidance(
                omega_from_um(np.array(lam)), core_radius, fill)[2:])
            g, gp = kernels._g_and_gprime(b, V, q)
            expected = [(x.hex(), y.hex()) for x, y in zip(g.tolist(),
                                                           gp.tolist())]
            calls = [kernels._g_and_gprime(x, V, q) for x in b.tolist()]
            assert all(type(x) is float for call in calls for x in call)
            assert [(x.hex(), y.hex()) for x, y in calls] == expected
            signs = [kernels._g_and_gprime(x, V, q, gprime=False)
                     for x in b.tolist()]
            assert [(x.hex(), y) for x, y in signs] == [
                (x, None) for x, _y in expected]

    def test_raising_float_arguments_take_numpy_semantics(self):
        # a zero divisor (b = 0 or 1) or a negative root (b outside [0, 1])
        # raises in floats; those fall back to np.float64, as the array does
        V, q = 2.0, 0.8
        b = np.array([0.0, 1.0, -0.5, 1.5])
        with np.errstate(all="ignore"):
            g, gp = kernels._g_and_gprime(b, V, q)
            calls = [kernels._g_and_gprime(x, V, q) for x in b.tolist()]
        assert [(float(x).hex(), float(y).hex()) for x, y in calls] == [
            (x.hex(), y.hex()) for x, y in zip(g.tolist(), gp.tolist())]
        assert not all(np.isfinite(g))

    def test_guidance_in_floats_matches_arrays(self):
        om = omega_from_um(window_wavelengths(500))
        arrays = kernels._guidance(om, 0.5e-6, 0.6)
        floats = [kernels._guidance(x, 0.5e-6, 0.6, math.sqrt)
                  for x in om.tolist()]
        assert [tuple(v.hex() for v in f) for f in floats] == [
            tuple(float(a[i]).hex() for a in arrays) for i in range(om.size)]


class TestNeffTable:
    @GEOMETRIES
    def test_matches_exact_solve_over_window(self, core_radius, fill):
        fiber = FiberSpec(core_radius=core_radius, air_fill_fraction=fill,
                          length=1.0)
        om = omega_from_um(window_wavelengths(4000))
        exact = kernels.he11_solve(om, core_radius, fill)[0]
        assert np.max(np.abs(effective_index(om, fiber) - exact)) <= 5e-14

    @GEOMETRIES
    def test_beta1_matches_stencil_of_exact_beta(self, core_radius, fill):
        fiber = FiberSpec(core_radius=core_radius, air_fill_fraction=fill,
                          length=1.0)
        om = omega_from_um(np.linspace(0.35, 2.2, 400))
        h = 1e-4 * om

        def exact_beta(x):
            return kernels.he11_solve(x, core_radius, fill)[0] * x / C

        stencil = (exact_beta(om - 2 * h) - 8 * exact_beta(om - h)
                   + 8 * exact_beta(om + h)
                   - exact_beta(om + 2 * h)) / (12 * h)
        assert np.max(np.abs(beta1(om, fiber) / stencil - 1)) <= 1e-10

    def test_beta2_is_derivative_of_beta1(self, fiber_b):
        om = omega_from_um(np.linspace(0.45, 1.3, 200))
        h = 1e-3 * om
        stencil = (beta1(om - 2 * h, fiber_b) - 8 * beta1(om - h, fiber_b)
                   + 8 * beta1(om + h, fiber_b)
                   - beta1(om + 2 * h, fiber_b)) / (12 * h)
        scale = np.max(np.abs(beta2(om, fiber_b)))
        assert np.max(np.abs(beta2(om, fiber_b) - stencil)) <= 1e-6 * scale

    def test_derivatives_do_not_depend_on_query_size(self, fiber_b):
        om = omega_from_um(np.linspace(0.4, 2.0, 37))
        b1, b2 = beta1(om, fiber_b), beta2(om, fiber_b)
        assert [beta1(float(x), fiber_b) for x in om] == list(b1)
        assert [beta2(float(x), fiber_b) for x in om] == list(b2)

    @pytest.mark.parametrize("query", [effective_index, beta, beta1, beta2])
    def test_query_keeps_the_shape(self, fiber_b, query):
        om = omega_from_um(np.linspace(0.4, 2.0, 12))
        got = query(om.reshape(3, 4), fiber_b)
        assert got.shape == (3, 4)
        assert got.tobytes() == query(om, fiber_b).tobytes()

    def test_scalars_and_short_arrays_stay_exact(self, fiber_b):
        om = omega_from_um(np.array([0.9, 1.1, 1.3]))
        exact = fiber_b.dispersion.exact(om)[0]
        assert [effective_index(float(x), fiber_b) for x in om] == list(exact)
        assert list(effective_index(om, fiber_b)) == list(exact)

    def test_keyed_on_geometry_and_deterministic(self, fiber_a):
        longer = FiberSpec(core_radius=fiber_a.core_radius,
                           air_fill_fraction=fiber_a.air_fill_fraction,
                           length=7.0, n2_kerr=3e-20)
        om = omega_from_um(np.linspace(0.5, 1.5, 9))
        before = fiber_a.dispersion.table
        assert longer.dispersion is fiber_a.dispersion
        assert list(beta1(om, longer)) == list(beta1(om, fiber_a))
        after = StepIndexDispersion(fiber_a.core_radius,
                                    fiber_a.air_fill_fraction).table
        assert after[:2] == before[:2]
        assert np.array_equal(after[2], before[2])


class TestColumnWiseTable:
    """The column-wise table sum has the bits of the row-wise one.

    The reference is the literal row-wise formula: gather each point's row
    of coefficients, times the Vandermonde row of its panel coordinate,
    summed by ``np.sum``.  A NumPy whose pairwise sum adds in another order
    fails here first.
    """

    @staticmethod
    def row_wise(om, fiber, order):
        om_lo, per_x, coeffs = fiber.dispersion.table
        rows = coeffs.transpose(0, 2, 1)          # [derivative, panel, power]
        s = np.log(om / om_lo) * per_x
        k = np.minimum(s.astype(np.intp), _TABLE_PANELS - 1)
        y = 2.0 * (s - k) - 1.0
        return (rows[:order + 1, k] * np.vander(y, 12, increasing=True)).sum(-1)

    @staticmethod
    def points(fiber, n):
        """The two window edges, then every panel edge, then random points."""
        om_lo, per_x, _ = fiber.dispersion.table
        window = omega_from_um(np.array(SELLMEIER_RANGE_UM[::-1]))
        edges = om_lo * np.exp(np.arange(1, _TABLE_PANELS) / per_x)
        fill = np.random.default_rng(n).uniform(window[0], window[1], n)
        return np.concatenate([window, edges, fill])[:n]

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 3, 4, 990, 5000])
    def test_bits_of_the_row_wise_sum(self, fiber_a, n, order):
        om = self.points(fiber_a, n)
        got = fiber_a.dispersion._table_eval(om, order)
        want = self.row_wise(om, fiber_a, order)
        assert got.shape == want.shape == (order + 1, n)
        assert got.tobytes() == want.tobytes()

    def test_nan_panel_is_a_cutoff(self, fiber_a, monkeypatch):
        model = fiber_a.dispersion
        om_lo, per_x, coeffs = model.table
        broken = coeffs.copy()
        broken[:, :, 5] = np.nan
        monkeypatch.setattr(model, "table", (om_lo, per_x, broken))
        om = om_lo * np.exp(np.array([2.5, 5.5, 7.5]) / per_x)
        assert np.isfinite(model._table_eval(om[[0, 2]], 1)).all()
        with pytest.raises(ModeCutoffError,
                           match=re.escape(f"omega={om[1]:.6e}")):
            model._table_eval(om, 1)


class TestZeroDispersion:
    def test_single_zdw_fiber(self, fiber_a):
        zdws = find_zero_dispersion(fiber_a, (0.5, 1.2))
        assert len(zdws) == 1
        assert zdws[0] == pytest.approx(0.715, rel=0.03)

    def test_two_zdw_fiber(self, fiber_b):
        zdws = find_zero_dispersion(fiber_b, (0.45, 1.3))
        assert len(zdws) == 2
        assert zdws[0] == pytest.approx(0.6592, rel=0.03)
        assert zdws[1] == pytest.approx(0.8595, rel=0.03)

    def test_range_clipped_to_sellmeier_window(self, fiber_b):
        zdws = find_zero_dispersion(fiber_b, (0.1, 5.0))
        assert len(zdws) == 3
        assert zdws[2] == pytest.approx(3.306, rel=1e-3)

    def test_taylor_constant_positive_gvd(self):
        fiber = taylor_fiber(omega_from_um(0.8), (7e6, 4.9e-9, 1e-26))
        assert find_zero_dispersion(fiber, (0.6, 1.1)) == []

    def test_pump_gvm_anchor(self, fiber_a):
        # back-solved from L_max = 0.263 m at sigma = 3e12: 4/(sigma L)
        d = abs(beta1(omega_from_um(0.521), fiber_a)
                - beta1(omega_from_um(1.042), fiber_a))
        assert d * 1e12 == pytest.approx(5.07, rel=0.25)


class TestTaylorModel:
    def test_beta1_exact(self):
        fiber = taylor_fiber(2.5e15, (1e7, 4.9e-9))
        om = np.array([2.4e15, 2.5e15, 2.62e15])
        assert np.allclose(beta1(om, fiber), 4.9e-9, rtol=0, atol=0)

    def test_beta2_exact(self):
        fiber = taylor_fiber(2.5e15, (1e7, 4.9e-9, -3e-26))
        assert beta2(2.55e15, fiber) == pytest.approx(-3e-26, rel=1e-12)

    def test_polynomial_evaluation(self):
        td = TaylorDispersion(reference_frequency=2.5e15,
                              beta_coefficients=(1e7, 5e-9, 2e-26, 6e-41))
        d = 3e13
        want = 1e7 + 5e-9 * d + 2e-26 * d * d / 2 + 6e-41 * d ** 3 / 6
        assert td.k(2.5e15 + d) == pytest.approx(want, rel=1e-14)

    def test_round_trip_against_pcf(self, fiber_a):
        om_ref = omega_from_um(0.708)
        coeffs = (beta(om_ref, fiber_a), beta1(om_ref, fiber_a),
                  beta2(om_ref, fiber_a))
        model = taylor_fiber(om_ref, coeffs)
        om = np.linspace(0.95 * om_ref, 1.05 * om_ref, 21)
        rel = np.abs(beta(om, model) - beta(om, fiber_a)) / beta(om, fiber_a)
        assert np.max(rel) < 0.01

    @staticmethod
    def factorial_horner(td, omega, deriv):
        # the evaluation k() replaced: coefficients rebuilt per call, and a
        # fresh array per Horner step
        d = np.asarray(omega, dtype=float) - td.reference_frequency
        b = td.beta_coefficients
        if len(b) - deriv <= 0:
            return float(d * 0.0) if d.ndim == 0 else d * 0.0
        coeffs = [b[m + deriv] / math.factorial(m)
                  for m in range(len(b) - deriv)]
        out = np.zeros_like(d)
        for c in reversed(coeffs):
            out = out * d + c
        return float(out) if out.ndim == 0 else out

    @pytest.mark.parametrize("coeffs", [
        (1e7, 4.9e-9),
        (1.2e7, 4.9e-9, -3e-26, 6e-41),
        (1.2e7, 4.9e-9, 2e-26, -6e-41, 1.5e-55, -2e-70),
    ])
    def test_k_equals_factorial_horner_bit_for_bit(self, coeffs):
        td = TaylorDispersion(reference_frequency=2.5e15,
                              beta_coefficients=coeffs)
        rng = np.random.default_rng(len(coeffs))
        flat = 2.5e15 + rng.uniform(-8e14, 8e14, 257)
        flat[:4] = [2.5e15, math.inf, -math.inf, math.nan]
        queries = [2.5e15, 2.5e15 + 3e13, 1.9e15, math.inf, math.nan, flat,
                   2.5e15 + rng.uniform(-8e14, 8e14, (7, 60, 15))]
        for deriv in range(len(coeffs) + 2):
            for om in queries:
                with np.errstate(invalid="ignore"):     # 0 * inf
                    got = td.k(om, deriv)
                    want = self.factorial_horner(td, om, deriv)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_k_of_a_scalar_is_a_float(self):
        td = TaylorDispersion(reference_frequency=2.5e15,
                              beta_coefficients=(1e7, 5e-9, 2e-26))
        for om in (2.6e15, np.float64(2.6e15), np.asarray(2.6e15)):
            for deriv in range(5):
                assert type(td.k(om, deriv)) is float

    def test_k_leaves_the_query_alone(self):
        td = TaylorDispersion(reference_frequency=2.5e15,
                              beta_coefficients=(1e7, 5e-9, 2e-26))
        om = np.linspace(2.4e15, 2.6e15, 9)
        kept = om.copy()
        for deriv in range(5):
            td.k(om, deriv)
        assert om.tobytes() == kept.tobytes()

    def test_equal_models_are_one_cache_key(self):
        a = TaylorDispersion(2.5e15, (1e7, 5e-9, 2e-26))
        b = TaylorDispersion(2.5e15, [1e7, 5e-9, 2e-26])
        assert a == b and hash(a) == hash(b)
        assert a != TaylorDispersion(2.5e15, (1e7, 5e-9, 3e-26))
        fa, fb = (taylor_fiber(2.5e15, (1e7, 5e-9, 2e-26)) for _ in range(2))
        assert fa == fb and hash(fa) == hash(fb)
        assert len({fa, fb}) == 1

    def test_negative_derivative_order_rejected(self):
        td = TaylorDispersion(reference_frequency=1e15,
                              beta_coefficients=(1.0, 2.0))
        with pytest.raises(ValueError):
            td.k(1e15, deriv=-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaylorDispersion(reference_frequency=1e15, beta_coefficients=(1.0,))
        for omega_ref in (math.inf, math.nan):
            with pytest.raises(ValueError, match="reference frequency"):
                TaylorDispersion(reference_frequency=omega_ref,
                                 beta_coefficients=(1.0, 2.0))
        with pytest.raises(ValueError):
            TaylorDispersion(reference_frequency=1e15,
                             beta_coefficients=(1.0, math.nan))


class TestModeProfile:
    def test_continuity_at_core_boundary(self, fiber_a):
        prof = mode_profile(omega_from_um(0.708), fiber_a)
        r = fiber_a.core_radius
        inside = prof.amplitude(r * (1 - 1e-9))
        outside = prof.amplitude(r * (1 + 1e-9))
        assert abs(inside - outside) / abs(inside) < 1e-6

    def test_normalization(self, fiber_a):
        from sfwmsim.numerics import integrate_1d
        prof = mode_profile(omega_from_um(0.708), fiber_a)
        r = fiber_a.core_radius
        f2 = lambda rho: prof.amplitude(rho) ** 2 * rho
        inner = integrate_1d(f2, 0.0, r)
        outer = integrate_1d(f2, r, prof.outer_extent)
        assert 2 * math.pi * (inner.value + outer.value) == \
            pytest.approx(1.0, abs=1e-6)

    def test_shared_by_fibers_of_one_geometry(self, fiber_a):
        longer = FiberSpec(core_radius=fiber_a.core_radius,
                           air_fill_fraction=fiber_a.air_fill_fraction,
                           length=3.0 * fiber_a.length)
        om = omega_from_um(0.708)
        assert mode_profile(om, longer) is mode_profile(om, fiber_a)

    def test_strong_confinement(self, fiber_a):
        prof = mode_profile(omega_from_um(0.5), fiber_a)   # large V
        r = fiber_a.core_radius
        peak = prof.amplitude(0.0)
        # 1/e radius of the field is inside the core
        rhos = np.linspace(0, r, 400)
        amps = prof.amplitude(rhos)
        assert np.any(amps < peak / math.e)


class TestEffectiveArea:
    def test_four_identical_reduces_to_quartic(self, fiber_a):
        from sfwmsim.numerics import integrate_1d
        om = omega_from_um(0.708)
        prof = mode_profile(om, fiber_a)
        a_eff = effective_area([prof] * 4)
        f4 = lambda rho: prof.amplitude(rho) ** 4 * rho
        quartic = 2 * math.pi * (
            integrate_1d(f4, 0.0, fiber_a.core_radius).value
            + integrate_1d(f4, fiber_a.core_radius, prof.outer_extent).value)
        assert a_eff == pytest.approx(1.0 / quartic, rel=1e-9)

    def test_permutation_invariance(self, fiber_a):
        profs = [mode_profile(omega_from_um(lam), fiber_a)
                 for lam in (0.708, 0.708, 0.5759, 0.9185)]
        base = effective_area(profs)
        shuffled = effective_area([profs[2], profs[0], profs[3], profs[1]])
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_hoelder_lower_bound(self, fiber_a):
        # generalized Hoelder: the four-mode overlap integral is at most the
        # geometric mean of the quartic overlaps, so the mixed effective
        # area is bounded below by the geometric mean of the single-mode
        # areas (not by their maximum, which the 708/576/919 nm carriers
        # already violate)
        profs = [mode_profile(omega_from_um(lam), fiber_a)
                 for lam in (0.708, 0.708, 0.5759, 0.9185)]
        mixed = effective_area(profs)
        singles = [effective_area([p] * 4) for p in profs]
        gmean = math.exp(sum(math.log(a) for a in singles) / 4.0)
        assert mixed >= gmean * (1 - 1e-12)


class TestGamma:
    def test_degenerate_config_anchor(self, fiber_a):
        om_p = omega_from_um(0.708)
        gam = gamma_sfwm(fiber_a, om_p, om_p, omega_from_um(0.5759),
                         omega_from_um(0.9185))
        assert gam * 1e3 == pytest.approx(137.0, rel=0.25)

    def test_nondegenerate_config_anchor(self, fiber_a):
        gam = gamma_sfwm(fiber_a, omega_from_um(0.521), omega_from_um(1.042),
                         omega_from_um(0.5826), omega_from_um(0.8600))
        assert gam * 1e3 == pytest.approx(131.0, rel=0.25)

    def test_geometric_mean_consistency(self, fiber_a):
        om1, om2 = omega_from_um(0.521), omega_from_um(1.042)
        oms, omi = omega_from_um(0.5826), omega_from_um(0.8600)
        gam = gamma_sfwm(fiber_a, om1, om2, oms, omi)
        gmean = math.sqrt(gamma_pump(fiber_a, om1) * gamma_pump(fiber_a, om2))
        assert 0.5 < gam / gmean < 2.0

    def test_bundle(self, fiber_a):
        om_p = omega_from_um(0.708)
        params = nonlinear_parameters(fiber_a, om_p, om_p,
                                      omega_from_um(0.5759),
                                      omega_from_um(0.9185))
        assert params.gamma_sfwm > 0
        assert params.gamma_pump_1 == params.gamma_pump_2
        assert params.a_eff > 0


# carrier sets [um] of the batched-area tests: degenerate and four distinct
AREA_SETS = {"degenerate_708": (0.708,) * 4, "degenerate_155": (1.55,) * 4,
             "distinct": (0.521, 1.042, 0.6, 0.9),
             "distinct2": (0.75, 0.75, 0.62, 0.95)}
AREA_GEOMETRY = {"A": (0.97e-6, 0.91), "B": (0.5e-6, 0.6),
                 "core20": (20e-6, 0.91)}
# float.hex of effective_area(profiles) and of gamma_pump at the set's
# first carrier, as one integrate_1d call per normalisation and overlap
# integral gave them
AREA_BITS = {
    ("A", "degenerate_708"): ("0x1.d463697ee9f29p-40",
                       "0x1.1bfa30dec46e8p-3"),
    ("A", "degenerate_155"): ("0x1.263510631e8dep-39",
                       "0x1.9d0454b644228p-5"),
    ("A", "distinct"): ("0x1.dc363a3129742p-40",
                 "0x1.93ba908736bd3p-3"),
    ("A", "distinct2"): ("0x1.db9b0ac79be06p-40",
                  "0x1.0957d327e9db0p-3"),
    ("B", "degenerate_708"): ("0x1.4d5c83d2432b0p-41",
                       "0x1.8f005b2036667p-2"),
    ("B", "degenerate_155"): ("0x1.c851cba4fc50dp-40",
                       "0x1.0a49d354c8790p-4"),
    ("B", "distinct"): ("0x1.6774b404fd4abp-41",
                 "0x1.3759f9d9f29bcp-1"),
    ("B", "distinct2"): ("0x1.60edf5fadbb73p-41",
                  "0x1.6c264de83707cp-2"),
    ("core20", "degenerate_708"): ("0x1.4bfd5e32b282dp-31",
                            "0x1.90a661a78589dp-12"),
    ("core20", "degenerate_155"): ("0x1.4f64a46be3ddcp-31",
                            "0x1.6a4c88cfc45f4p-13"),
    ("core20", "distinct"): ("0x1.4c38b6271f724p-31",
                      "0x1.10d7d40ba8d8ep-11"),
    ("core20", "distinct2"): ("0x1.4c3a6ba7c01f8p-31",
                       "0x1.7a05a57e1b8adp-12"),
}
# float.hex of the profile norm per (geometry, carrier [um])
NORM_BITS = {
    ("A", 0.708): "0x1.96dc1f37307b0p+16",
    ("A", 1.55): "0x1.88669a2e6defcp+17",
    ("A", 0.521): "0x1.333c94778379cp+16",
    ("A", 1.042): "0x1.1c6d14d8104acp+17",
    ("A", 0.6): "0x1.5e3ec58dc4d5ep+16",
    ("A", 0.9): "0x1.f62dc404c5acep+16",
    ("A", 0.75): "0x1.ac433c4537230p+16",
    ("A", 0.62): "0x1.68e91039d077dp+16",
    ("A", 0.95): "0x1.07005e343ea1fp+17",
    ("B", 0.708): "0x1.a913d1f483af8p+18",
    ("B", 1.55): "0x1.2b42e169d39b4p+19",
    ("B", 0.521): "0x1.4f89e9ae6889dp+18",
    ("B", 1.042): "0x1.0ed7986eff229p+19",
    ("B", 0.6): "0x1.7781643ee837fp+18",
    ("B", 0.9): "0x1.f30d0a01e8c25p+18",
    ("B", 0.75): "0x1.bacfcfddd70a7p+18",
    ("B", 0.62): "0x1.811ec6ffbb6cbp+18",
    ("B", 0.95): "0x1.01a309648a879p+19",
    ("core20", 0.708): "0x1.19d7633a8789dp+8",
    ("core20", 1.55): "0x1.3778ec2abcafep+9",
    ("core20", 0.521): "0x1.9b5e99cdbb44ep+7",
    ("core20", 1.042): "0x1.a0f2081930e0cp+8",
    ("core20", 0.6): "0x1.dbe64e0ecde90p+7",
    ("core20", 0.9): "0x1.678e8f275b2e5p+8",
    ("core20", 0.75): "0x1.2addbd011ee4dp+8",
    ("core20", 0.62): "0x1.ec2fd6745c553p+7",
    ("core20", 0.95): "0x1.7bc419faa9580p+8",
}


class TestScalarQueries:
    """A scalar frequency gives a Python float from both models."""

    @pytest.mark.parametrize("query", [effective_index, beta, beta1, beta2])
    @pytest.mark.parametrize("scalar", [float, np.float64, np.array],
                             ids=["float", "float64", "0-d array"])
    @pytest.mark.parametrize("model", ["step-index", "taylor"])
    def test_python_float(self, fiber_a, model, scalar, query):
        fiber = fiber_a if model == "step-index" else taylor_fiber(
            omega_from_um(0.708), (1.2e7, 4.9e-9, 3e-26, 1e-40))
        om = omega_from_um(0.8)
        got = query(scalar(om), fiber)
        assert type(got) is float
        assert got == query(om, fiber)


class TestGeometryMemos:
    """Each geometry keeps at most _MEMO_SIZE profiles and areas."""

    def test_least_recently_used_goes(self, monkeypatch):
        model = StepIndexDispersion(0.97e-6, 0.91)
        monkeypatch.setattr(dispersion, "_mode_profiles",
                            lambda oms, *geometry: [float(oms[0])])
        monkeypatch.setattr(dispersion, "effective_area",
                            lambda profiles: sum(profiles))
        carriers = (1e15 + np.arange(_MEMO_SIZE + 1)).tolist()
        for om in carriers[:-1]:
            model.area((om,) * 4)
        # touched, the first carrier becomes the most recent in both memos
        assert model.area((carriers[0],) * 4) == 4e15
        assert model.mode_profile(carriers[0]) == 1e15
        assert len(model.profiles) == len(model.areas) == _MEMO_SIZE
        model.area((carriers[-1],) * 4)
        for memo, key in ((model.profiles, float), (model.areas,
                                                    lambda om: (om,) * 4)):
            assert len(memo) == _MEMO_SIZE
            assert key(carriers[0]) in memo and key(carriers[-1]) in memo
            assert key(carriers[1]) not in memo


class TestExactArrayBeta:
    """beta_exact gives every point the bits of the scalar beta."""

    @pytest.mark.parametrize("core_radius, fill",
                             [(0.97e-6, 0.91), (0.5e-6, 0.6), (20e-6, 0.91)])
    def test_step_index_equals_scalar(self, core_radius, fill):
        fiber = FiberSpec(core_radius=core_radius, air_fill_fraction=fill,
                          length=1.0)
        om = omega_from_um(np.linspace(0.36, 2.1, 97))
        got = fiber.dispersion.beta_exact(om)
        assert [v.hex() for v in got.tolist()] == \
            [float(beta(float(x), fiber)).hex() for x in om]

    def test_taylor_equals_scalar(self):
        fiber = taylor_fiber(omega_from_um(0.708), (1.2e7, 4.9e-9, 3e-26, 1e-40))
        om = omega_from_um(np.linspace(0.5, 1.2, 41))
        assert [v.hex() for v in fiber.dispersion.beta_exact(om).tolist()] == \
            [beta(float(x), fiber).hex() for x in om]

    def test_range_checked(self, fiber_a):
        with pytest.raises(WavelengthRangeError):
            fiber_a.dispersion.beta_exact(
                np.array([omega_from_um(0.8), 1e13, 2e15, 3e15]))


class TestBatchedAreas:
    """Profiles, areas and gammas of many carriers in one lockstep batch."""

    @pytest.mark.parametrize("geom", sorted(AREA_GEOMETRY))
    def test_scalar_area_bits(self, geom):
        r, fill = AREA_GEOMETRY[geom]
        fiber = FiberSpec(core_radius=r, air_fill_fraction=fill, length=1.0)
        for name, lams in AREA_SETS.items():
            oms = [omega_from_um(lam) for lam in lams]
            area = effective_area([mode_profile(om, fiber) for om in oms])
            assert (area.hex(), gamma_pump(fiber, oms[0]).hex()) == \
                AREA_BITS[geom, name]

    @pytest.mark.parametrize("geom", sorted(AREA_GEOMETRY))
    def test_batch_equals_scalar_bits(self, geom):
        r, fill = AREA_GEOMETRY[geom]
        lams = sorted({lam for s in AREA_SETS.values() for lam in s})
        profiles = dict(zip(lams, _mode_profiles(
            [omega_from_um(lam) for lam in lams], r, fill)))
        for lam, p in profiles.items():
            assert p.norm.hex() == NORM_BITS[geom, lam]
        areas = _effective_areas([[profiles[lam] for lam in s]
                                  for s in AREA_SETS.values()])
        assert [a.hex() for a in areas] == \
            [AREA_BITS[geom, name][0] for name in AREA_SETS]
        fiber = FiberSpec(core_radius=r, air_fill_fraction=fill, length=1.0)
        gammas = gamma_pumps(fiber, [omega_from_um(s[0])
                                     for s in AREA_SETS.values()])
        assert [gm.hex() for gm in gammas] == \
            [AREA_BITS[geom, name][1] for name in AREA_SETS]

    def test_batch_of_one_is_the_scalar_profile(self, fiber_b):
        om = omega_from_um(0.8)
        (batch,) = _mode_profiles([om], fiber_b.core_radius,
                                  fiber_b.air_fill_fraction)
        assert batch == mode_profile(om, fiber_b)

    def test_amplitude_formula_shared(self, fiber_a):
        prof = mode_profile(omega_from_um(0.708), fiber_a)
        rho = np.linspace(0.0, 3 * fiber_a.core_radius, 301)
        rows = np.stack([rho, rho[::-1]])
        got = _amplitude(rows, fiber_a.core_radius, np.full((2, 1), prof.u),
                         np.full((2, 1), prof.w), np.full((2, 1), prof.norm))
        assert got.tobytes() == np.stack(
            [prof.amplitude(rho), prof.amplitude(rho[::-1])]).tobytes()

    def test_vanishing_overlap_raises(self, fiber_a):
        prof = mode_profile(omega_from_um(0.708), fiber_a)
        dead = replace(prof, norm=0.0)
        with pytest.raises(OverlapError):
            _effective_areas([[prof] * 4, [dead, prof, prof, prof]])


class TestFiberSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"core_radius": -1e-6}, {"air_fill_fraction": 0.0},
        {"air_fill_fraction": 1.0}, {"length": 0.0}, {"n2_kerr": 0.0},
        {"core_radius": math.inf}, {"length": math.inf}, {"n2_kerr": math.inf},
        {"core_radius": math.nan}, {"length": math.nan}, {"n2_kerr": math.nan},
    ])
    def test_invalid(self, kwargs):
        base = dict(core_radius=1e-6, air_fill_fraction=0.9, length=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FiberSpec(**base)
