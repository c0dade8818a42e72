import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import taylor_fiber
from sfwmsim.constants import HBAR, omega_from_um
from sfwmsim.dispersion import FiberSpec
from sfwmsim.efficiency import (b_parameter, eta_cw, eta_dp_closed,
                                eta_ndp_closed, eta_pulsed_numeric, l_max,
                                operating_point, photons_per_pulse,
                                pump_photon_rate, sigma_max)
from sfwmsim.errors import DivergenceError, RegimeError
from sfwmsim.sfwm import (PumpSpec, SourceConfig, nonlinear_phase,
                          solve_phasematch_center)

PHOTONS_PER_PULSE_REF = 13365579.49501524   # sqrt(2 pi) P / (hbar w0 sigma)


def with_length(cfg, length):
    return replace(cfg, fiber=replace(cfg.fiber, length=length))


def with_power(cfg, p_mw):
    watts = p_mw * 1e-3
    return replace(cfg, pump1=replace(cfg.pump1, avg_power=watts),
                   pump2=replace(cfg.pump2, avg_power=watts))


class TestPhotonBookkeeping:
    def test_reference_value(self, cfg_dp):
        n = photons_per_pulse(cfg_dp.pump1)
        assert n == pytest.approx(PHOTONS_PER_PULSE_REF, rel=1e-10)

    def test_zero_power(self, cfg_dp):
        assert photons_per_pulse(replace(cfg_dp.pump1, avg_power=0.0)) == 0.0

    def test_doubling_power_doubles_photons(self, cfg_dp):
        n1 = photons_per_pulse(cfg_dp.pump1)
        n2 = photons_per_pulse(replace(cfg_dp.pump1,
                                       avg_power=2 * cfg_dp.pump1.avg_power))
        assert n2 == pytest.approx(2 * n1, rel=1e-12)

    def test_cw_rejected(self, cfg_cw_dp):
        with pytest.raises(RegimeError):
            photons_per_pulse(cfg_cw_dp.pump1)

    def test_cw_pump_rate(self, cfg_cw_dp):
        p = cfg_cw_dp.pump1
        want = 2 * p.avg_power / (HBAR * p.omega0)
        assert pump_photon_rate(cfg_cw_dp) == pytest.approx(want, rel=1e-12)

    def test_pair_rate_identity(self, cfg_dp):
        res = eta_dp_closed(cfg_dp)
        assert res.pairs_per_second == res.eta * pump_photon_rate(cfg_dp)


class TestBParameterAndScales:
    def test_degenerate_pumps_infinite(self, cfg_dp):
        assert b_parameter(cfg_dp).value == math.inf
        assert l_max(cfg_dp) == math.inf
        assert sigma_max(cfg_dp) == math.inf

    def test_b_halves_when_length_doubles(self, cfg_ndp):
        b1 = b_parameter(cfg_ndp).value
        b2 = b_parameter(with_length(cfg_ndp, 1.0)).value
        assert b2 == pytest.approx(0.5 * b1, rel=1e-9)

    def test_erf_argument_anchor(self, cfg_ndp):
        # at L = L_max the erf argument 1/(sqrt(2) B) equals 2 by definition
        cfg = with_length(cfg_ndp, 0.263)
        x = 1.0 / (math.sqrt(2) * b_parameter(cfg).value)
        assert x == pytest.approx(2.0, rel=0.25)

    def test_l_max_anchor(self, cfg_ndp):
        assert l_max(cfg_ndp) == pytest.approx(0.263, rel=0.25)

    def test_sigma_max_anchor(self, cfg_ndp):
        assert sigma_max(cfg_ndp) == pytest.approx(1.58e12, rel=0.25)

    def test_lmax_sigma_identity(self, cfg_ndp):
        sigma = cfg_ndp.pump1.sigma
        left = l_max(cfg_ndp) * sigma
        right = sigma_max(cfg_ndp) * cfg_ndp.fiber.length
        assert left == pytest.approx(right, rel=1e-12)

    def test_l_max_doubles_when_sigmas_halve(self, cfg_ndp):
        halved = replace(cfg_ndp,
                         pump1=replace(cfg_ndp.pump1,
                                       sigma=0.5 * cfg_ndp.pump1.sigma),
                         pump2=replace(cfg_ndp.pump2,
                                       sigma=0.5 * cfg_ndp.pump2.sigma))
        assert l_max(halved) == pytest.approx(2 * l_max(cfg_ndp), rel=1e-9)

    def test_sigma_max_halves_when_length_doubles(self, cfg_ndp):
        assert sigma_max(with_length(cfg_ndp, 1.0)) == \
            pytest.approx(0.5 * sigma_max(cfg_ndp), rel=1e-12)

    def test_paper_numbers_mutually_consistent(self):
        # 4 / (0.5 m * (4 / (3e12 * 0.263 m))) = 1.578e12 rad/s
        dbeta = 4.0 / (3e12 * 0.263)
        assert 4.0 / (0.5 * dbeta) == pytest.approx(1.578e12, rel=0.01)


class TestClosedForms:
    def test_dp_linear_in_length_and_bandwidth(self, cfg_dp):
        base = eta_dp_closed(cfg_dp).eta
        assert eta_dp_closed(with_length(cfg_dp, 1.0)).eta == \
            pytest.approx(2 * base, rel=1e-9)
        wider = replace(cfg_dp,
                        pump1=replace(cfg_dp.pump1, sigma=2 * cfg_dp.pump1.sigma),
                        pump2=replace(cfg_dp.pump2, sigma=2 * cfg_dp.pump2.sigma))
        assert eta_dp_closed(wider).eta == pytest.approx(2 * base, rel=0.02)

    def test_dp_requires_degenerate(self, cfg_ndp):
        with pytest.raises(RegimeError):
            eta_dp_closed(cfg_ndp)

    def test_dp_pairs_per_second_anchor(self, cfg_dp):
        res = eta_dp_closed(with_length(cfg_dp, 1.0))
        assert 5.3e8 / 2 < res.pairs_per_second < 5.3e8 * 2

    def test_ndp_plateau(self, cfg_ndp):
        at_lmax = eta_ndp_closed(with_length(cfg_ndp, 0.263)).eta
        at_half_m = eta_ndp_closed(with_length(cfg_ndp, 0.5)).eta
        assert 0.995 <= at_half_m / at_lmax <= 1.01

    def test_ndp_pairs_at_lmax_anchor(self, cfg_ndp):
        res = eta_ndp_closed(with_length(cfg_ndp, 0.263))
        assert 5.12e7 / 2 < res.pairs_per_second < 5.12e7 * 2

    def test_unbalanced_bandwidths_reduce_rate(self, fiber_a):
        equal = SourceConfig(fiber=fiber_a,
                             pump1=PumpSpec.from_units(0.521, 3.0, 1.0, 80.0),
                             pump2=PumpSpec.from_units(1.042, 3.0, 1.0, 80.0))
        skewed = SourceConfig(fiber=fiber_a,
                              pump1=PumpSpec.from_units(0.521, 0.1, 1.0, 80.0),
                              pump2=PumpSpec.from_units(1.042, 3.0, 1.0, 80.0))
        r_eq = eta_ndp_closed(equal).pairs_per_second
        r_sk = eta_ndp_closed(skewed).pairs_per_second
        assert r_sk < r_eq
        assert 1.1e8 / 2 < r_sk < 1.1e8 * 2

    def test_ndp_reduces_to_dp_at_carrier_degeneracy(self, cfg_dp):
        om = cfg_dp.pump1.omega0
        nearly = replace(cfg_dp,
                         pump2=replace(cfg_dp.pump2, omega0=om * (1 + 1e-6)))
        ndp = eta_ndp_closed(nearly).eta
        dp = eta_dp_closed(cfg_dp).eta
        assert abs(ndp - dp) / dp < 1e-4

    def test_signal_idler_degeneracy_raises(self):
        # Engineered so beta1(signal) is within ppm of beta1(idler) at the
        # phasematched root.  Exact equality would make the root a tangency
        # (the mismatch slope at the root IS the signal/idler walk-off), so
        # a small detuning epsilon keeps two scannable crossings while the
        # walk-off sits far below the divergence threshold.
        om0 = omega_from_um(0.708)
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        probe_fiber = taylor_fiber(om0, (1.2e7, 4.87e-9, -1e-26))
        probe = SourceConfig(fiber=probe_fiber, pump1=pump, pump2=pump)
        nl = nonlinear_phase(probe)
        delta = 3e13
        eps = 0.018   # sliver between the two crossings > scan spacing
        beta4 = 12 * nl / delta ** 4
        beta2 = -(1 + eps) * beta4 * delta ** 2 / 6
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9, beta2, 0.0, beta4))
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        center = solve_phasematch_center(cfg)
        assert abs(center.omega_s - om0) == pytest.approx(delta, rel=0.15)
        with pytest.raises(DivergenceError):
            eta_dp_closed(cfg)


class TestNumericEfficiency:
    def test_matches_closed_form(self, cfg_dp):
        num = eta_pulsed_numeric(cfg_dp)
        closed = eta_dp_closed(cfg_dp)
        assert abs(num.eta - closed.eta) / closed.eta < 0.05
        assert num.diagnostics["shell"] < 1e-2

    def test_pairs_anchor_one_meter(self, cfg_dp):
        res = eta_pulsed_numeric(with_length(cfg_dp, 1.0))
        assert 5.3e8 / 2 < res.pairs_per_second < 5.3e8 * 2

    def test_linear_in_length(self, cfg_dp):
        etas = {L: eta_pulsed_numeric(with_length(cfg_dp, L)).eta
                for L in (0.25, 0.5, 1.0)}
        slopes = [etas[L] / L for L in etas]
        assert max(slopes) / min(slopes) < 1.05

    def test_power_quadratic_rate(self, cfg_dp):
        lo = eta_pulsed_numeric(with_power(cfg_dp, 0.5))
        hi = eta_pulsed_numeric(with_power(cfg_dp, 1.0))
        ratio = hi.pairs_per_second / lo.pairs_per_second
        assert 3.8 <= ratio <= 4.2
        assert 2.89e9 / 2 < hi.pairs_per_second < 2.89e9 * 2

    def test_cw_config_rejected(self, cfg_cw_dp):
        with pytest.raises(RegimeError):
            eta_pulsed_numeric(cfg_cw_dp)

    def test_pump_exchange_exact(self, cfg_ndp):
        swapped = replace(cfg_ndp, pump1=cfg_ndp.pump2, pump2=cfg_ndp.pump1)
        a = eta_pulsed_numeric(cfg_ndp)
        b = eta_pulsed_numeric(swapped)
        assert a.eta == b.eta
        c = eta_ndp_closed(cfg_ndp)
        d = eta_ndp_closed(swapped)
        assert c.eta == d.eta
        assert l_max(cfg_ndp) == l_max(swapped)
        assert b_parameter(cfg_ndp).value == b_parameter(swapped).value


class TestCwEfficiency:
    def test_degenerate_anchor(self, cfg_cw_dp):
        res = eta_cw(cfg_cw_dp)
        assert 1.156e-11 / 2 < res.eta < 1.156e-11 * 2

    def test_nondegenerate_anchor(self, cfg_cw_ndp):
        res = eta_cw(cfg_cw_ndp)
        assert 8.7e-12 / 2 < res.eta < 8.7e-12 * 2

    def test_linear_in_length(self, cfg_cw_dp):
        full = eta_cw(cfg_cw_dp).eta
        half = eta_cw(with_length(cfg_cw_dp, 0.25)).eta
        assert 1.9 <= full / half <= 2.1

    def test_pulsed_config_rejected(self, cfg_dp):
        with pytest.raises(RegimeError):
            eta_cw(cfg_dp)

    def test_independent_of_table_build(self, cfg_cw_dp):
        # the dispersion table is built lazily; rebuilding it must not move
        # any result
        from sfwmsim.dispersion import _neff_table
        first = eta_cw(cfg_cw_dp).eta
        _neff_table.cache_clear()
        assert eta_cw(cfg_cw_dp).eta == first

    def test_pump_exchange_exact(self, cfg_cw_ndp):
        swapped = replace(cfg_cw_ndp, pump1=cfg_cw_ndp.pump2,
                          pump2=cfg_cw_ndp.pump1)
        assert eta_cw(cfg_cw_ndp).eta == eta_cw(swapped).eta

    def test_regime_continuity(self, fiber_a, cfg_cw_dp):
        # Narrowband pulsed pumping approaches the monochromatic limit once
        # the powers are compared like for like: the pair rate goes as the
        # instantaneous power squared and the pump photon number as the
        # power, so the long-pulse efficiency equals the CW efficiency at
        # the pulse's mean-square power P_peak/sqrt(2).  Equivalently, at
        # EQUAL average powers the ratio is sigma / (2 sqrt(pi) f_r).
        from sfwmsim.sfwm import peak_power
        pump = PumpSpec.from_units(0.708, 0.05, 0.3, 80.0)
        cfg = SourceConfig(fiber=fiber_a, pump1=pump, pump2=pump)
        pulsed = eta_pulsed_numeric(cfg).eta

        p_eff = peak_power(pump) / math.sqrt(2)
        cw_cfg = replace(cfg_cw_dp,
                         pump1=replace(cfg_cw_dp.pump1, avg_power=p_eff),
                         pump2=replace(cfg_cw_dp.pump2, avg_power=p_eff))
        cw_matched = eta_cw(cw_cfg).eta
        assert abs(pulsed - cw_matched) / cw_matched < 0.05

        # the equal-average-power ratio follows the analytic factor
        cw_same_avg = eta_cw(cfg_cw_dp).eta
        predicted = pump.sigma / (2 * math.sqrt(math.pi) * pump.rep_rate)
        assert pulsed / cw_same_avg == pytest.approx(predicted, rel=0.05)
