import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import taylor_fiber
from sfwmsim.constants import C, omega_from_um, um_from_omega
from sfwmsim.dispersion import _a_eff_cached, beta, beta1, beta2
from sfwmsim import sfwm
from sfwmsim.errors import NoPhasematchError, RegimeError
from sfwmsim.numerics import integrate_1d
from sfwmsim.sfwm import (_BLOCK_ELEMENTS, PumpSpec, SourceConfig,
                          _pump_convolution, _pump_rule, h_function, jsa,
                          jsa_grid, jsa_window, nonlinear_phase, peak_power,
                          phase_mismatch, phasematch_roots, pump_envelope,
                          solve_phasematch_center)

PEAK_POWER_REF = 4.488100654516117        # 300 uW, 3 THz, 80 MHz


class TestPeakPower:
    def test_reference_values(self):
        assert peak_power(PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)) == \
            pytest.approx(PEAK_POWER_REF, rel=1e-12)
        assert peak_power(PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)) == \
            pytest.approx(4.49, rel=0.01)

    def test_zero_power(self):
        assert peak_power(PumpSpec.from_units(0.708, 3.0, 0.0, 80.0)) == 0.0

    def test_narrowband_value(self):
        pump = PumpSpec(omega0=omega_from_um(0.708), sigma=1e11,
                        avg_power=300e-6, rep_rate=80e6)
        assert peak_power(pump) == pytest.approx(0.14960335515053724, rel=1e-12)

    def test_cw_rejected(self):
        with pytest.raises(RegimeError):
            peak_power(PumpSpec.from_units(0.708, 0.0, 0.3))

    @given(st.floats(0.05, 5.0), st.floats(0.2, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_linear_in_power_and_bandwidth(self, p_mw, sig_thz):
        base = PumpSpec.from_units(0.708, sig_thz, p_mw, 80.0)
        double_p = replace(base, avg_power=2 * base.avg_power)
        double_s = replace(base, sigma=2 * base.sigma)
        assert peak_power(double_p) == pytest.approx(2 * peak_power(base),
                                                     rel=1e-12)
        assert peak_power(double_s) == pytest.approx(2 * peak_power(base),
                                                     rel=1e-12)


class TestPumpEnvelope:
    def test_normalization(self):
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        res = integrate_1d(lambda om: pump_envelope(pump, om) ** 2,
                           pump.omega0 - 8 * pump.sigma,
                           pump.omega0 + 8 * pump.sigma)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_peak_value(self):
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        want = 2 ** 0.25 / (math.pi ** 0.25 * math.sqrt(pump.sigma))
        assert pump_envelope(pump, pump.omega0) == pytest.approx(want, rel=1e-14)

    def test_wavelength_fwhm_anchor(self):
        # 3 THz at 708 nm corresponds to a 0.94 nm intensity FWHM
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        fwhm_omega = pump.sigma * math.sqrt(2 * math.log(2))
        dlam_nm = (0.708e-6) ** 2 * fwhm_omega / (2 * math.pi * C) * 1e9
        assert dlam_nm == pytest.approx(0.94, rel=0.03)

    def test_cw_rejected(self):
        with pytest.raises(RegimeError):
            pump_envelope(PumpSpec.from_units(0.708, 0.0, 0.3), 2e15)


class TestPhaseMismatch:
    def test_pump_exchange_symmetry(self, cfg_ndp):
        om_s, om_i = omega_from_um(0.5826), omega_from_um(0.8600)
        om = cfg_ndp.pump1.omega0 + 2e12
        mirrored = om_s + om_i - om
        a = phase_mismatch(om, om_s, om_i, cfg_ndp)
        b = phase_mismatch(mirrored, om_s, om_i, cfg_ndp)
        assert a == pytest.approx(b, abs=1e-6 * max(1.0, abs(a)))

    def test_signal_idler_exchange(self, cfg_dp):
        om_s, om_i = omega_from_um(0.60), omega_from_um(0.88)
        om = cfg_dp.pump1.omega0
        assert phase_mismatch(om, om_s, om_i, cfg_dp) == pytest.approx(
            phase_mismatch(om, om_i, om_s, cfg_dp), rel=1e-9)

    def test_zero_at_solved_center(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        dk = phase_mismatch(cfg_dp.pump1.omega0, center.omega_s,
                            center.omega_i, cfg_dp)
        assert abs(dk) < 1e-6

    def test_nonlinear_term_additive(self, cfg_dp):
        bumped = replace(
            cfg_dp,
            pump1=replace(cfg_dp.pump1, avg_power=2 * cfg_dp.pump1.avg_power),
            pump2=replace(cfg_dp.pump2, avg_power=2 * cfg_dp.pump2.avg_power))
        om_s, om_i = omega_from_um(0.60), omega_from_um(0.88)
        om = cfg_dp.pump1.omega0
        shift = (phase_mismatch(om, om_s, om_i, cfg_dp)
                 - phase_mismatch(om, om_s, om_i, bumped))
        want = nonlinear_phase(bumped) - nonlinear_phase(cfg_dp)
        assert shift == pytest.approx(want, rel=1e-9)


class TestPhasematchCenter:
    def test_degenerate_anchor(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        lam_s, lam_i = center.wavelengths_um
        assert lam_s == pytest.approx(0.5759, rel=0.01)
        assert lam_i == pytest.approx(0.9185, rel=0.01)
        assert center.omega_s + center.omega_i == cfg_dp.omega_total
        assert abs(center.residual) < 1e-6

    def test_nondegenerate_anchor(self, cfg_ndp):
        center = solve_phasematch_center(cfg_ndp)
        lam_s, lam_i = center.wavelengths_um
        assert lam_s == pytest.approx(0.5826, rel=0.01)
        assert lam_i == pytest.approx(0.8600, rel=0.01)

    def test_signal_below_side(self, cfg_dp):
        above = solve_phasematch_center(cfg_dp, side="signal-above")
        below = solve_phasematch_center(cfg_dp, side="signal-below")
        assert below.omega_s == above.omega_i
        assert below.omega_i == above.omega_s

    def test_no_phasematch_signal(self):
        # normal dispersion everywhere: mismatch strictly negative
        fiber = taylor_fiber(omega_from_um(0.708), (1.2e7, 4.9e-9, 3e-26))
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        with pytest.raises(NoPhasematchError) as err:
            solve_phasematch_center(cfg)
        assert err.value.scanned_range is not None

    def test_inner_branch_missing_raises(self, cfg_dp):
        with pytest.raises(NoPhasematchError):
            solve_phasematch_center(cfg_dp, branch="inner")

    # float.hex of the roots as the per-interval scan loop and the
    # NumPy-scalar mode solve found them: a change that moves a bit of the
    # scalar path fails here
    @pytest.mark.parametrize("name, roots", [
        ("cfg_dp", ("0x1.727fa82d8dbfcp+51",)),
        ("cfg_ndp", ("0x1.6dfb349988560p+51",)),
        ("cfg_cw_dp", ("0x1.726ec45ebe5ffp+51",))])
    def test_roots_bits(self, request, name, roots):
        config = request.getfixturevalue(name)
        assert tuple(r.hex() for r in phasematch_roots(config)) == roots

    def test_loop_fiber_has_both_branches(self, cfg_loop):
        roots = phasematch_roots(cfg_loop)
        assert len(roots) >= 2
        outer = solve_phasematch_center(cfg_loop, branch="outer")
        inner = solve_phasematch_center(cfg_loop, branch="inner")
        half = 0.5 * cfg_loop.omega_total
        assert abs(outer.omega_s - half) > abs(inner.omega_s - half)


class TestHFunction:
    def test_symmetry(self, fiber_a):
        a, b = omega_from_um(0.60), omega_from_um(0.88)
        assert h_function(a, b, fiber_a) == pytest.approx(
            h_function(b, a, fiber_a), rel=1e-12)

    def test_positive(self, fiber_a):
        oms = np.linspace(omega_from_um(1.2), omega_from_um(0.5), 8)
        assert np.all(h_function(oms, oms[::-1], fiber_a) > 0)

    def test_taylor_reduction(self):
        # constant beta1 and n: h is proportional to omega_s * omega_i
        fiber = taylor_fiber(2.5e15, (1.2e7, 4.8e-9))
        a, b = 2.4e15, 2.7e15
        ratio = h_function(a, b, fiber) / h_function(2 * a, 0.5 * b, fiber)
        # note n = beta c / omega varies; compare against the full formula
        from sfwmsim.dispersion import beta1 as b1, effective_index as neff
        want = (a * b * b1(a, fiber) * b1(b, fiber)
                / (neff(a, fiber) ** 2 * neff(b, fiber) ** 2))
        assert h_function(a, b, fiber) == pytest.approx(want, rel=1e-12)


class TestJsa:
    def test_degenerate_exchange_symmetry(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        om_s = center.omega_s + 1.5e12
        om_i = center.omega_i - 0.7e12
        a = jsa(om_s, om_i, cfg_dp)
        b = jsa(om_i, om_s, cfg_dp)
        assert abs(a - b) / abs(a) < 1e-6

    def test_short_fiber_gaussian_limit(self, cfg_dp):
        cfg = replace(cfg_dp, fiber=replace(cfg_dp.fiber, length=1e-6))
        p = cfg.pump1
        sigma_c2 = 2 * p.sigma ** 2
        center = solve_phasematch_center(cfg)
        for delta in (0.0, 1e12, 3e12):
            om_s = center.omega_s + delta
            want = (math.sqrt(math.pi * p.sigma ** 2 / 2)
                    * math.sqrt(2) * p.sigma / math.sqrt(sigma_c2)
                    * math.exp(-delta ** 2 / sigma_c2))
            got = abs(jsa(om_s, center.omega_i, cfg))
            assert got == pytest.approx(want, rel=1e-5)

    def test_center_dominates_antidiagonal_detuning(self, cfg_dp):
        # the step (w_s + d, w_i - d) moves the mismatch by about
        # d |beta1(w_s) - beta1(w_i)| = 10 / (sqrt(2) L), so dk L / 2 = 3.5
        # lies past the first zero of the phasematching sinc
        center = solve_phasematch_center(cfg_dp)
        L = cfg_dp.fiber.length
        gvm = abs(beta1(center.omega_s, cfg_dp.fiber)
                  - beta1(center.omega_i, cfg_dp.fiber))
        d = 10.0 / (L * gvm) / math.sqrt(2)
        at_center = abs(jsa(center.omega_s, center.omega_i, cfg_dp))
        for sign in (1.0, -1.0):
            detuned = abs(jsa(center.omega_s + sign * d,
                              center.omega_i - sign * d, cfg_dp))
            assert detuned < 0.5 * at_center

    def test_cw_rejected(self, cfg_cw_dp):
        with pytest.raises(RegimeError):
            jsa(2.2e15, 2.0e15, cfg_cw_dp)

    def test_translation_invariance_pure_group_velocity(self):
        # beta2 = 0: shifting the pumps and the frequency sum together
        # leaves |f| unchanged.  Negligible power keeps the (weakly
        # frequency-dependent) nonlinear phase term from masking the
        # group-velocity form invariance under test.
        om0 = omega_from_um(0.708)
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9))
        pump = PumpSpec.from_units(0.708, 3.0, 1e-9, 80.0)
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        delta = 0.1 * pump.sigma
        shifted_pump = replace(pump, omega0=pump.omega0 + delta)
        cfg_shift = SourceConfig(fiber=fiber, pump1=shifted_pump,
                                 pump2=shifted_pump)
        om_s, om_i = om0 + 4e13, om0 - 3.7e13
        a = abs(jsa(om_s, om_i, cfg))
        b = abs(jsa(om_s + delta, om_i + delta, cfg_shift))
        assert a == pytest.approx(b, rel=1e-6)

    def test_mass_concentrates_as_sigma_shrinks(self, fiber_a):
        # |f|^2 mass moves onto the energy-conservation line as sigma -> 0
        fractions = []
        for sig_thz in (0.4, 0.2, 0.1):
            pump = PumpSpec.from_units(0.708, sig_thz, 0.3, 80.0)
            cfg = SourceConfig(fiber=fiber_a, pump1=pump, pump2=pump)
            center = solve_phasematch_center(cfg)
            off = 3e12
            s_ax = np.linspace(center.omega_s - off, center.omega_s + off, 41)
            i_ax = np.linspace(center.omega_i - off, center.omega_i + off, 41)
            grid = jsa_grid(cfg, window=(s_ax[0], s_ax[-1], i_ax[0], i_ax[-1]),
                            n_s=41, n_i=41)
            s_axis, i_axis, amp = grid.as_arrays()
            intens = np.abs(amp) ** 2
            total_sum = s_axis[:, None] + i_axis[None, :]
            on_line = np.abs(total_sum - cfg.omega_total) < 1.0e12
            frac_off = intens[~on_line].sum() / intens.sum()
            fractions.append(frac_off)
        assert fractions[0] > fractions[1] > fractions[2]


class TestJsaGrid:
    @pytest.mark.parametrize("n_i", [4, 17])
    @pytest.mark.parametrize("taylor", [False, True])
    @pytest.mark.parametrize("name", ["cfg_dp", "cfg_ndp"])
    def test_one_block_equals_per_row_assembly(self, name, taylor, n_i,
                                               request):
        # the grid is one block of rows for the pump convolution; each row
        # must equal the one-row call that assembled it before, across the
        # memory blocks
        cfg = request.getfixturevalue(name)
        window = jsa_window(cfg)
        if taylor:
            om = 0.5 * cfg.omega_total
            cfg = replace(cfg, fiber=taylor_fiber(
                om, (beta(om, cfg.fiber), beta1(om, cfg.fiber),
                     beta2(om, cfg.fiber))))
        per_block = _BLOCK_ELEMENTS // (_pump_rule(cfg)[0].size * n_i)
        n_s = 2 * per_block + 3
        grid = jsa_grid(cfg, window=window, n_s=n_s, n_i=n_i)
        f = _pump_convolution(cfg)
        i_axis = np.asarray(grid.omega_i_axis)
        rows = tuple(tuple(complex(v) for v in f(np.full(n_i, om_s), i_axis))
                     for om_s in grid.omega_s_axis)
        assert grid.amplitude == rows

    def test_values_finite_and_symmetric(self, cfg_dp):
        grid = jsa_grid(cfg_dp, n_s=24, n_i=24)
        s_axis, i_axis, amp = grid.as_arrays()
        assert np.all(np.isfinite(amp.real)) and np.all(np.isfinite(amp.imag))
        assert np.all(np.diff(s_axis) > 0)
        assert np.all(np.diff(i_axis) > 0)

    def test_max_near_center(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        half = 2.0e13
        grid = jsa_grid(cfg_dp, window=(center.omega_s - half,
                                        center.omega_s + half,
                                        center.omega_i - half,
                                        center.omega_i + half),
                        n_s=33, n_i=33)
        s_axis, i_axis, amp = grid.as_arrays()
        i_s, i_i = np.unravel_index(np.argmax(np.abs(amp)), amp.shape)
        cell_s = s_axis[1] - s_axis[0]
        cell_i = i_axis[1] - i_axis[0]
        assert abs(s_axis[i_s] - center.omega_s) <= 1.5 * cell_s
        assert abs(i_axis[i_i] - center.omega_i) <= 1.5 * cell_i

    def test_degenerate_transpose_symmetry(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        half = 1.0e13
        window = (center.omega_s - half, center.omega_s + half,
                  center.omega_i - half, center.omega_i + half)
        grid = jsa_grid(cfg_dp, window=window, n_s=17, n_i=17)
        mirror = jsa_grid(cfg_dp, window=(window[2], window[3],
                                          window[0], window[1]),
                          n_s=17, n_i=17)
        a = np.abs(grid.as_arrays()[2])
        b = np.abs(mirror.as_arrays()[2]).T
        assert np.max(np.abs(a - b)) / np.max(a) < 1e-6

    def test_independent_of_pump_order(self, cfg_ndp):
        swapped = SourceConfig(fiber=cfg_ndp.fiber, pump1=cfg_ndp.pump2,
                               pump2=cfg_ndp.pump1)
        window = jsa_window(cfg_ndp)
        assert jsa_window(swapped) == window
        # the gradient holds the 521 nm pump at its carrier (see
        # phasematch.orientation_angle); holding the 1042 nm pump would
        # start the window at 3.1328e15 rad/s
        assert window[0] == pytest.approx(3108854298555355.0, rel=1e-9)
        assert jsa_grid(swapped, n_s=9, n_i=9) == jsa_grid(cfg_ndp, n_s=9,
                                                           n_i=9)

    @pytest.mark.parametrize("n_s, n_i", [(0, 4), (4, 0), (-2, 4), (4, -1)])
    def test_fewer_than_one_point_per_axis_rejected(self, cfg_dp, n_s, n_i):
        # an explicit window: the check comes before any physics
        window = (2.0e15, 2.1e15, 3.0e15, 3.1e15)
        with pytest.raises(ValueError, match="n_s, n_i >= 1"):
            jsa_grid(cfg_dp, window=window, n_s=n_s, n_i=n_i)

    def test_one_point_per_axis(self, cfg_dp):
        window = (2.0e15, 2.1e15, 3.0e15, 3.1e15)
        grid = jsa_grid(cfg_dp, window=window, n_s=1, n_i=1)
        assert grid.omega_s_axis == (2.0e15,)
        assert grid.omega_i_axis == (3.0e15,)
        assert len(grid.amplitude) == 1 and len(grid.amplitude[0]) == 1


class TestConfigValidation:
    def test_mixed_regime_rejected(self, fiber_a):
        with pytest.raises(Exception):
            SourceConfig(fiber=fiber_a,
                         pump1=PumpSpec.from_units(0.708, 3.0, 0.3, 80.0),
                         pump2=PumpSpec.from_units(0.708, 0.0, 0.3))

    def test_degenerate_flag(self, cfg_dp, cfg_ndp):
        assert cfg_dp.degenerate
        assert not cfg_ndp.degenerate

    def test_pumps_stored_lower_frequency_first(self, fiber_a):
        p521 = PumpSpec.from_units(0.521, 3.0, 0.3, 80.0)
        p1042 = PumpSpec.from_units(1.042, 3.0, 0.3, 80.0)
        given = SourceConfig(fiber=fiber_a, pump1=p521, pump2=p1042)
        swapped = SourceConfig(fiber=fiber_a, pump1=p1042, pump2=p521)
        assert given == swapped
        assert (given.pump1, given.pump2) == (p1042, p521)

    @pytest.mark.parametrize("sigma_thz, low, high", [
        (3.0, {"sigma": 2e12}, {"sigma": 3e12}),
        (3.0, {"avg_power": 1e-4}, {"avg_power": 3e-4}),
        (3.0, {"sigma": 2e12, "avg_power": 3e-4},
         {"sigma": 3e12, "avg_power": 1e-4}),
        (0.0, {"rep_rate": 4e7}, {"rep_rate": 8e7}),
        (0.0, {"avg_power": 1e-4, "rep_rate": 8e7},
         {"avg_power": 3e-4, "rep_rate": 4e7})],
        ids=["sigma", "avg_power", "sigma_first", "cw_rep_rate",
             "cw_avg_power_first"])
    def test_equal_carriers_stored_in_field_order(self, fiber_a, sigma_thz,
                                                  low, high):
        # equal carriers sort on the remaining fields in declaration order,
        # the order of dataclasses.astuple
        base = PumpSpec.from_units(0.708, sigma_thz, 0.3, 80.0)
        lo, hi = replace(base, **low), replace(base, **high)
        assert astuple(lo) < astuple(hi)
        for pumps in ((lo, hi), (hi, lo)):
            config = SourceConfig(fiber=fiber_a, pump1=pumps[0],
                                  pump2=pumps[1])
            assert (config.pump1, config.pump2) == (lo, hi)

    def test_swapped_pumps_give_the_same_phasematch(self, cfg_ndp):
        # a config given its pumps in the other order stores them in the
        # same order, so everything computed from it is bit-identical
        swapped = replace(cfg_ndp, pump1=cfg_ndp.pump2, pump2=cfg_ndp.pump1)
        assert nonlinear_phase(swapped) == nonlinear_phase(cfg_ndp)
        assert phasematch_roots(swapped) == phasematch_roots(cfg_ndp)
        assert solve_phasematch_center(swapped) == \
            solve_phasematch_center(cfg_ndp)


def _repumped_loop(config, lams):
    return [replace(config, pump1=replace(config.pump1, omega0=omega_from_um(lam)),
                    pump2=replace(config.pump2, omega0=omega_from_um(lam)))
            for lam in lams]


class TestSignalSideRefinement:
    """Only crossings that can give a signal-above root are refined."""

    @pytest.mark.parametrize("name", ["cfg_dp", "cfg_ndp", "cfg_cw_dp",
                                      "cfg_loop"])
    def test_no_iterate_at_or_below_midpoint(self, request, monkeypatch, name):
        config = request.getfixturevalue(name)
        xs = []
        find_roots = sfwm.find_roots
        # every abscissa of every lane: bracket ends and Brent steps
        monkeypatch.setattr(sfwm, "find_roots", lambda f, brackets, tol: find_roots(
            lambda lanes, x: xs.extend(x) or f(lanes, x), brackets, tol))
        roots = sfwm.phasematch_roots(config)
        assert roots and xs
        assert min(xs) > 0.5 * config.omega_total

    def test_no_lockstep_iterate_at_or_below_midpoint(self, cfg_loop,
                                                      monkeypatch):
        configs = _repumped_loop(cfg_loop, np.linspace(0.68, 0.84, 6))
        seen = []
        exact = sfwm._exact_line_mismatch

        def record(fiber, om, total, s_pumps, nl):
            seen.append(np.asarray(om) - 0.5 * np.asarray(total))
            return exact(fiber, om, total, s_pumps, nl)

        monkeypatch.setattr(sfwm, "_exact_line_mismatch", record)
        assert all(sfwm.phasematch_roots_lockstep(configs))
        assert seen and min(d.min() for d in seen) > 0.0


class TestLockstepRoots:
    """phasematch_roots_lockstep equals phasematch_roots, bit for bit."""

    def check(self, configs):
        want = []
        for config in configs:
            try:
                want.append(tuple(r.hex() for r in phasematch_roots(config)))
            except NoPhasematchError as exc:
                want.append(type(exc))
        got = [tuple(r.hex() for r in roots)
               if isinstance(roots, tuple) else type(roots)
               for roots in sfwm.phasematch_roots_lockstep(configs)]
        assert got == want
        return want

    def test_loop_fiber(self, cfg_loop):
        want = self.check(_repumped_loop(cfg_loop, np.linspace(0.62, 0.88, 11)))
        assert {len(w) for w in want} >= {0, 2}

    def test_taylor_fiber(self):
        fiber = taylor_fiber(omega_from_um(0.708), (
            12709608.91856346, 4.972458401064144e-09, 1.7257388265561942e-27,
            6.591119073571425e-41, -5.586155955194142e-56, 9.39673010226559e-71,
            -1.7057484072930343e-85, 3.578548420376906e-100,
            -6.356628143533568e-115), length=0.3)
        pump = PumpSpec.from_units(0.7105, 2.0, 0.4, 80.0)
        config = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        want = self.check(_repumped_loop(config, np.linspace(0.69, 0.73, 7)))
        assert any(want)

    def test_cw_and_nondegenerate(self, cfg_cw_dp, cfg_ndp):
        self.check([cfg_cw_dp])
        self.check([cfg_ndp, replace(cfg_ndp, pump2=replace(
            cfg_ndp.pump2, omega0=omega_from_um(1.05)))])

    def test_empty_band_is_an_answer(self, cfg_loop):
        want = self.check(_repumped_loop(cfg_loop, [0.3, 0.75, 2.5, 0.8]))
        assert want[0] is want[2] is NoPhasematchError

    def test_one_exact_evaluation_per_step(self, cfg_loop, monkeypatch):
        configs = _repumped_loop(cfg_loop, np.linspace(0.68, 0.84, 9))
        steps, solves = [], []
        find_roots, exact = sfwm.find_roots, sfwm._beta_exact

        def counted(f, brackets, tol):
            return find_roots(lambda lanes, x: steps.append(len(x)) or f(lanes, x),
                              brackets, tol)

        monkeypatch.setattr(sfwm, "find_roots", counted)
        monkeypatch.setattr(sfwm, "_beta_exact",
                            lambda om, fiber: solves.append(om.size) or exact(om, fiber))
        sfwm.phasematch_roots_lockstep(configs)
        # one exact solve of the distinct pump carriers, then one of both
        # frequencies of every live lane per step
        assert solves == [len(configs)] + [2 * n for n in steps]
        assert len(steps) < sum(steps) / 4

    def test_one_config_fills_the_pump_caches(self, cfg_loop):
        # phasematch_roots takes the pump gamma from the per-carrier cache,
        # where nonlinear_phase reads it next; the lockstep fills no cache
        cfg, = _repumped_loop(cfg_loop, [0.7531])
        before = _a_eff_cached.cache_info()
        sfwm.phasematch_roots_lockstep([cfg])
        assert _a_eff_cached.cache_info() == before
        phasematch_roots(cfg)
        filled = _a_eff_cached.cache_info()
        assert filled.currsize == before.currsize + 1
        nonlinear_phase(cfg)
        after = _a_eff_cached.cache_info()
        assert (after.misses, after.hits) == (filled.misses, filled.hits + 2)

    def test_configs_share_the_fiber(self, cfg_dp, cfg_loop):
        with pytest.raises(ValueError):
            sfwm.phasematch_roots_lockstep([cfg_dp, cfg_loop])
