import math

import numpy as np
import pytest

from conftest import taylor_fiber
from sfwmsim import _kernels_py
from sfwmsim.backend import kernels
from sfwmsim.constants import (C, SELLMEIER_RANGE_UM, omega_from_um,
                               um_from_omega)
from sfwmsim.dispersion import (FiberSpec, TaylorDispersion, beta, beta1,
                                beta2, effective_area, effective_index,
                                find_zero_dispersion, gamma_pump, gamma_sfwm,
                                mode_profile, nonlinear_parameters,
                                silica_index)
from sfwmsim.errors import WavelengthRangeError


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
                             [(0.97e-6, 0.91), (0.5e-6, 0.6), (0.4e-6, 0.5)],
                             ids=["fiber_a", "fiber_b", "core_0.4um"])
    def test_one_point_solve_matches_array_solve(self, core_radius, fill):
        # short queries take the plain-float ladder; it must give the bits
        # of the array ladder, or scalar and array n_eff would disagree
        om = omega_from_um(window_wavelengths(2000))
        arrays = kernels.he11_solve(om, core_radius, fill)
        for i, x in enumerate(om):
            one = kernels.he11_solve(om[i:i + 1], core_radius, fill)
            assert [float(v[0]) for v in one] == [float(v[i]) for v in arrays]

    def test_short_query_keeps_shape(self):
        om = omega_from_um(np.array([[0.8], [1.2]]))
        for out in kernels.he11_solve(om, 0.97e-6, 0.91):
            assert out.shape == (2, 1)


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

    def test_scalars_and_short_arrays_stay_exact(self, fiber_b):
        om = omega_from_um(np.array([0.9, 1.1, 1.3]))
        exact = kernels.he11_solve(om, fiber_b.core_radius,
                                   fiber_b.air_fill_fraction)[0]
        assert [effective_index(float(x), fiber_b) for x in om] == list(exact)
        assert list(effective_index(om, fiber_b)) == list(exact)

    def test_keyed_on_geometry_and_deterministic(self, fiber_a):
        from sfwmsim.dispersion import _neff_table
        longer = FiberSpec(core_radius=fiber_a.core_radius,
                           air_fill_fraction=fiber_a.air_fill_fraction,
                           length=7.0, n2_kerr=3e-20)
        om = omega_from_um(np.linspace(0.5, 1.5, 9))
        before = _neff_table(fiber_a.core_radius, fiber_a.air_fill_fraction)
        assert list(beta1(om, longer)) == list(beta1(om, fiber_a))
        _neff_table.cache_clear()
        after = _neff_table(fiber_a.core_radius, fiber_a.air_fill_fraction)
        assert after[:2] == before[:2]
        assert np.array_equal(after[2], before[2])


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

    def test_validation(self):
        with pytest.raises(ValueError):
            TaylorDispersion(reference_frequency=1e15, beta_coefficients=(1.0,))
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
        inner = integrate_1d(f2, 0.0, r, vectorized=True)
        outer = integrate_1d(f2, r, prof.outer_extent, vectorized=True)
        assert 2 * math.pi * (inner.value + outer.value) == \
            pytest.approx(1.0, abs=1e-6)

    def test_shared_by_fibers_of_one_geometry(self, fiber_a):
        longer = FiberSpec(core_radius=fiber_a.core_radius,
                           air_fill_fraction=fiber_a.air_fill_fraction,
                           length=3.0 * fiber_a.length)
        om = omega_from_um(0.708)
        assert mode_profile(om, longer) is mode_profile(om, fiber_a)

    def test_samples_are_read_only_arrays(self, fiber_a):
        prof = mode_profile(omega_from_um(0.708), fiber_a)
        for samples in (prof.radial_grid, prof.radial_amplitude):
            assert isinstance(samples, np.ndarray)
            assert samples.dtype == np.float64 and samples.shape == (257,)
            with pytest.raises(ValueError):
                samples[0] = 1.0

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
            integrate_1d(f4, 0.0, fiber_a.core_radius, vectorized=True).value
            + integrate_1d(f4, fiber_a.core_radius, prof.outer_extent,
                           vectorized=True).value)
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


class TestFiberSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"core_radius": -1e-6}, {"air_fill_fraction": 0.0},
        {"air_fill_fraction": 1.0}, {"length": 0.0}, {"n2_kerr": 0.0},
        {"model": "nonsense"},
    ])
    def test_invalid(self, kwargs):
        base = dict(core_radius=1e-6, air_fill_fraction=0.9, length=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FiberSpec(**base)

    def test_taylor_model_needs_data(self):
        with pytest.raises(ValueError):
            FiberSpec(core_radius=1e-6, air_fill_fraction=0.9, length=1.0,
                      model="taylor_coefficients")
