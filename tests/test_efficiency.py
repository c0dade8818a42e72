import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import pump_integral, taylor_fiber
from sfwmsim.constants import C, HBAR, omega_from_um, um_from_omega
from sfwmsim import efficiency, sfwm
from sfwmsim.dispersion import (FiberSpec, StepIndexDispersion, _signal_idler,
                                beta, beta1, beta2)
from sfwmsim.efficiency import (_rotated_integrand, _rotated_window,
                                eta_closed, eta_cw, eta_pulsed_numeric, l_max,
                                operating_point, photons_per_pulse,
                                pump_photon_rate, sigma_max)
from sfwmsim.errors import DivergenceError, RegimeError, WindowError
from sfwmsim.sfwm import (_BLOCK_ELEMENTS, _SEPARABLE_BLOCK_ELEMENTS, PumpSpec,
                          SourceConfig, _pump_rule, h_function, jsa,
                          nonlinear_phase, solve_phasematch_center)

PHOTONS_PER_PULSE_REF = 13365579.49501524   # sqrt(2 pi) P / (hbar w0 sigma)


def with_length(cfg, length):
    return replace(cfg, fiber=replace(cfg.fiber, length=length))


def erf_argument(cfg):
    """x of the closed form; the pump walk-off parameter B is 1/(sqrt(2) x),
    which is L_max/(2 sqrt(2) L)."""
    return eta_closed(cfg).diagnostics["erf_argument"]


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
        res = eta_closed(cfg_dp)
        assert res.pairs_per_second == res.eta * pump_photon_rate(cfg_dp)


class TestBParameterAndScales:
    def test_degenerate_pumps_infinite(self, cfg_dp):
        # x = 0: B = 1/(sqrt(2) x) is infinite
        assert erf_argument(cfg_dp) == 0.0
        assert l_max(cfg_dp) == math.inf
        assert sigma_max(cfg_dp) == math.inf

    def test_b_halves_when_length_doubles(self, cfg_ndp):
        b1 = 1.0 / (math.sqrt(2) * erf_argument(cfg_ndp))
        b2 = 1.0 / (math.sqrt(2) * erf_argument(with_length(cfg_ndp, 1.0)))
        assert b2 == pytest.approx(0.5 * b1, rel=1e-9)
        assert b1 == pytest.approx(
            l_max(cfg_ndp) / (2 * math.sqrt(2) * cfg_ndp.fiber.length),
            rel=1e-12)

    def test_erf_argument_anchor(self, cfg_ndp):
        # at L = L_max the erf argument 1/(sqrt(2) B) equals 2 by definition
        cfg = with_length(cfg_ndp, 0.263)
        x = erf_argument(cfg)
        assert x == pytest.approx(2.0, rel=0.25)
        assert x == pytest.approx(2.0 * 0.263 / l_max(cfg), rel=1e-12)

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
        base = eta_closed(cfg_dp).eta
        assert eta_closed(with_length(cfg_dp, 1.0)).eta == \
            pytest.approx(2 * base, rel=1e-9)
        wider = replace(cfg_dp,
                        pump1=replace(cfg_dp.pump1, sigma=2 * cfg_dp.pump1.sigma),
                        pump2=replace(cfg_dp.pump2, sigma=2 * cfg_dp.pump2.sigma))
        assert eta_closed(wider).eta == pytest.approx(2 * base, rel=0.02)

    def test_degenerate_pumps_give_the_paper_form(self, cfg_dp):
        # the paper's degenerate-pump closed form,
        # 2^4 hbar^2 c^2 n^2 L sigma N gamma^2 h / (sqrt(pi) |b1_s - b1_i|)
        op = operating_point(cfg_dp)
        pump = cfg_dp.pump1
        want = (2 ** 4 * HBAR ** 2 * C ** 2 * op.n1 ** 2 * cfg_dp.fiber.length
                * pump.sigma * photons_per_pulse(pump) * op.gamma ** 2
                * op.h_center / (math.sqrt(math.pi) * abs(op.b1_s - op.b1_i)))
        assert eta_closed(cfg_dp).eta == pytest.approx(want, rel=1e-14)

    def test_dp_pairs_per_second_anchor(self, cfg_dp):
        res = eta_closed(with_length(cfg_dp, 1.0))
        assert 5.3e8 / 2 < res.pairs_per_second < 5.3e8 * 2

    def test_ndp_plateau(self, cfg_ndp):
        at_lmax = eta_closed(with_length(cfg_ndp, 0.263)).eta
        at_half_m = eta_closed(with_length(cfg_ndp, 0.5)).eta
        assert 0.995 <= at_half_m / at_lmax <= 1.01

    def test_ndp_pairs_at_lmax_anchor(self, cfg_ndp):
        res = eta_closed(with_length(cfg_ndp, 0.263))
        assert 5.12e7 / 2 < res.pairs_per_second < 5.12e7 * 2

    def test_unbalanced_bandwidths_reduce_rate(self, fiber_a):
        equal = SourceConfig(fiber=fiber_a,
                             pump1=PumpSpec.from_units(0.521, 3.0, 1.0, 80.0),
                             pump2=PumpSpec.from_units(1.042, 3.0, 1.0, 80.0))
        skewed = SourceConfig(fiber=fiber_a,
                              pump1=PumpSpec.from_units(0.521, 0.1, 1.0, 80.0),
                              pump2=PumpSpec.from_units(1.042, 3.0, 1.0, 80.0))
        r_eq = eta_closed(equal).pairs_per_second
        r_sk = eta_closed(skewed).pairs_per_second
        assert r_sk < r_eq
        assert 1.1e8 / 2 < r_sk < 1.1e8 * 2

    def test_ndp_reduces_to_dp_at_carrier_degeneracy(self, cfg_dp):
        om = cfg_dp.pump1.omega0
        nearly = replace(cfg_dp,
                         pump2=replace(cfg_dp.pump2, omega0=om * (1 + 1e-6)))
        ndp = eta_closed(nearly).eta
        dp = eta_closed(cfg_dp).eta
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
            eta_closed(cfg)


class TestNumericEfficiency:
    def test_matches_closed_form(self, cfg_dp):
        num = eta_pulsed_numeric(cfg_dp)
        closed = eta_closed(cfg_dp)
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
        c = eta_closed(cfg_ndp)
        d = eta_closed(swapped)
        assert c.eta == d.eta
        assert l_max(cfg_ndp) == l_max(swapped)
        assert c.diagnostics["erf_argument"] == d.diagnostics["erf_argument"]


def as_taylor(cfg):
    """``cfg`` on the degree-2 Taylor fit of its fiber at half the pump sum."""
    om = 0.5 * cfg.omega_total
    return replace(cfg, fiber=taylor_fiber(
        om, (beta(om, cfg.fiber), beta1(om, cfg.fiber), beta2(om, cfg.fiber))))


class TestRotatedIntegrand:
    @pytest.mark.parametrize("name, taylor", [
        pytest.param("cfg_dp", False, id="cfg_dp"),
        pytest.param("cfg_ndp", False, id="cfg_ndp"),
        pytest.param("cfg_dp", True, id="cfg_dp-taylor"),
        pytest.param("cfg_ndp", True, id="cfg_ndp-taylor")])
    def test_matches_h_times_jsa_intensity(self, name, taylor, request):
        # the pulsed integrand factors the pump convolution over the
        # frequency sum u; slice by slice it is h |f|^2 of the joint
        # spectrum, f here from the pump integral by a fixed high-order
        # rule (conftest.pump_integral)
        cfg = request.getfixturevalue(name)
        op = operating_point(cfg)
        _, _, v_lo, v_hi = _rotated_window(cfg, op)
        if taylor:
            cfg = as_taylor(cfg)
        v = np.linspace(v_lo, v_hi, 101)
        rows = _rotated_integrand(cfg)
        sigma_c = math.hypot(cfg.pump1.sigma, cfg.pump2.sigma)
        for u in (cfg.omega_total, cfg.omega_total + sigma_c):
            om_s, om_i = 0.5 * (u + v), 0.5 * (u - v)
            want = (h_function(om_s, om_i, cfg.fiber)
                    * np.abs(pump_integral(cfg, om_s, om_i)) ** 2)
            got = rows(np.full((1, 1), u), v[None, :])[0]
            assert np.max(np.abs(got - want)) <= 1e-7 * np.max(want)

    @pytest.mark.parametrize("taylor", [False, True])
    @pytest.mark.parametrize("name", ["cfg_dp", "cfg_ndp"])
    def test_block_of_rows_equals_one_row_calls(self, name, taylor, request):
        # integrate_2d hands the integrand many panel rows at once; each row
        # must come out exactly as it would alone, across at least three
        # dispersion chunks and three kernel blocks
        cfg = request.getfixturevalue(name)
        u_lo, u_hi, v_lo, v_hi = _rotated_window(cfg, operating_point(cfg))
        if taylor:
            cfg = as_taylor(cfg)
        n = 15
        per_chunk = _BLOCK_ELEMENTS // (2 * n)
        per_block = _SEPARABLE_BLOCK_ELEMENTS // (_pump_rule(cfg)[0].size * n)
        p = 3 * max(per_chunk, per_block) + 2
        u = np.linspace(u_lo, u_hi, p)[:, None]
        v = np.linspace(v_lo, v_hi, p * n).reshape(p, n)
        rows = _rotated_integrand(cfg)
        block = rows(u, v)
        one_by_one = np.concatenate([rows(u[r:r + 1], v[r:r + 1])
                                     for r in range(p)])
        assert block.shape == (p, n)
        assert block.tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("taylor", [False, True])
    def test_pump_store_lives_one_call(self, cfg_dp, taylor, monkeypatch):
        # each call evaluates the pump terms of its new frequency sums u once,
        # in one batch, and keeps only the u of its own rows
        u_lo, u_hi, v_lo, v_hi = _rotated_window(cfg_dp, operating_point(cfg_dp))
        cfg = as_taylor(cfg_dp) if taylor else cfg_dp
        ua, ub, uc, ud = np.linspace(u_lo, u_hi, 4)
        v = np.linspace(v_lo, v_hi, 15)
        evaluated = {"pump_envelope": [], "beta": []}

        def counted(name, fn):
            def wrapper(arg, other):
                conj = other if name == "pump_envelope" else arg
                evaluated[name].append(conj.shape[0])
                return fn(arg, other)
            return wrapper

        rows = _rotated_integrand(cfg)
        for name in evaluated:    # the pump rows come from sfwm._pump_rows
            monkeypatch.setattr(sfwm, name, counted(name, getattr(sfwm, name)))

        calls = [(ua, ua, ub, uc, ub), (ub, uc, uc, ud), (ua, ud)]
        values = [rows(np.array(us)[:, None], np.tile(v, (len(us), 1)))
                  for us in calls]
        # call 1: a, b, c new; call 2: d new, a dropped; call 3: a again,
        # b and c dropped
        assert evaluated == {"pump_envelope": [3, 1, 1], "beta": [3, 1, 1]}
        monkeypatch.undo()
        for us, got in zip(calls, values):
            for r, u in enumerate(us):
                fresh = _rotated_integrand(cfg)(np.full((1, 1), u), v[None, :])
                assert got[r].tobytes() == fresh[0].tobytes()


class TestSignalIdlerQuery:
    """The integrands' one query has the bits of beta and h_function."""

    @pytest.mark.parametrize("taylor", [False, True], ids=["step", "taylor"])
    def test_matches_beta_and_h_function(self, cfg_dp, taylor):
        fiber = cfg_dp.fiber
        if taylor:
            fiber = taylor_fiber(omega_from_um(0.708), (
                12709608.91856346, 4.972458401064144e-09,
                1.7257388265561942e-27, 6.591119073571425e-41))
        center = solve_phasematch_center(cfg_dp)
        om_s = center.omega_s + np.linspace(-2e13, 2e13, 12).reshape(3, 4)
        om_i = cfg_dp.omega_total - om_s
        beta_s, beta_i, h = _signal_idler(om_s, om_i, fiber)
        assert beta_s.shape == beta_i.shape == h.shape == (3, 4)
        assert beta_s.tobytes() == beta(om_s, fiber).tobytes()
        assert beta_i.tobytes() == beta(om_i, fiber).tobytes()
        assert h.tobytes() == h_function(om_s, om_i, fiber).tobytes()


class TestWindowError:
    """A window that never settles raises WindowError with its last values."""

    def test_pulsed(self, cfg_dp, monkeypatch):
        # with a zero shell threshold the strips lose their absolute floor;
        # an absolute tolerance of about 3e-9 of the integral (3.5e64)
        # settles them fast.  The fourth ring adds exactly 0, which a
        # threshold of 0 does not accept
        cfg = replace(cfg_dp, quadrature=replace(cfg_dp.quadrature,
                                                 abs_tol=1e56))
        monkeypatch.setattr(efficiency, "SHELL_TOL", 0.0)
        with pytest.raises(WindowError,
                           match="pulsed efficiency window did not converge "
                                 "within 4 expansions") as info:
            eta_pulsed_numeric(cfg)
        before, last = info.value.last_values
        assert 0 < before == last < math.inf

    def test_cw(self, cfg_cw_dp, monkeypatch):
        # below L = 1 m the doubling window leaves the Sellmeier window
        # before its fourth expansion
        monkeypatch.setattr(efficiency, "SHELL_TOL", 0.0)
        with pytest.raises(WindowError,
                           match="cw window did not converge within 4 "
                                 "expansions") as info:
            eta_cw(with_length(cfg_cw_dp, 2.0))
        assert all(v > 0 and math.isfinite(v)
                   for v in info.value.last_values)


class TestPairwiseConvolutionBits:
    """Pinned bits of the separable pump convolution, each beside the value
    the pair-wise convolution it replaced gave.

    A pulsed eta, here on a Taylor fiber, takes the separable block of the
    rotated integrand, and ``jsa`` a row of one pair through the same core.
    """

    def test_taylor_pulsed_eta(self):
        # fiber A's Taylor fit at 708 nm, truncated at beta4, L = 0.3 m.
        # Pinned at the separable block's bits; the pair-wise block it
        # replaced gave eta 0x1.5f1ce41e5a25bp-24, about 1e-11 relative off
        fiber = taylor_fiber(omega_from_um(0.708), (
            12709608.91856346, 4.972458401064144e-09, 1.7257388265561942e-27,
            6.591119073571425e-41, -5.586155955194142e-56), length=0.3)
        pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
        res = eta_pulsed_numeric(SourceConfig(fiber=fiber, pump1=pump,
                                              pump2=pump))
        pairwise = float.fromhex("0x1.5f1ce41e5a25bp-24")
        assert abs(res.eta - pairwise) <= 1e-10 * pairwise
        assert res.eta.hex() == "0x1.5f1ce41e4bbadp-24"
        assert (res.diagnostics["quadrature_error"].hex()
                == "0x1.4072b8defc137p+204")
        assert res.diagnostics["shell"].hex() == "0x1.3c8ab78d99978p-12"

    def test_jsa_value(self, cfg_ndp):
        center = solve_phasematch_center(cfg_ndp)
        f = jsa(center.omega_s + 1e12, center.omega_i - 2e12, cfg_ndp)
        # the pair-wise convolution gave 0x1.13027cf13027ep+33 and
        # -0x1.4009d5c2c1a59p+38, about 9e-11 relative off
        pairwise = complex(float.fromhex("0x1.13027cf13027ep+33"),
                           float.fromhex("-0x1.4009d5c2c1a59p+38"))
        assert abs(f - pairwise) <= 1e-9 * abs(pairwise)
        assert f.real.hex() == "0x1.13027cee392dep+33"
        assert f.imag.hex() == "-0x1.4009d5c2470d9p+38"


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, cfg_ndp, cfg_cw_ndp):
        pulsed = [eta_pulsed_numeric(cfg_ndp) for _ in range(2)]
        cw = [eta_cw(cfg_cw_ndp) for _ in range(2)]
        for a, b in (pulsed, cw):
            assert a.eta == b.eta
            assert (a.diagnostics["quadrature_error"]
                    == b.diagnostics["quadrature_error"])
        assert (pulsed[0].diagnostics["shell_history"]
                == pulsed[1].diagnostics["shell_history"])


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

    @pytest.mark.parametrize("length", [0.01, 0.05, 0.1])
    def test_window_stays_inside_the_band(self, cfg_cw_dp, length):
        # a short fiber's doubling window once took the idler past the
        # Sellmeier window (3.7 um) and raised WavelengthRangeError
        cfg = with_length(cfg_cw_dp, length)
        res = eta_cw(cfg)
        assert math.isfinite(res.eta) and res.eta > 0
        lam_lo, lam_hi = cfg.fiber.dispersion.band_um
        lams = [um_from_omega(om) for edge in res.diagnostics["window"]
                for om in (edge, cfg.omega_total - edge)]
        assert all(lam_lo <= lam <= lam_hi for lam in lams)
        assert max(lams) == pytest.approx(lam_hi, rel=1e-12)
        assert res.diagnostics["band_capped"] is True

    @pytest.mark.parametrize("length", [0.5, 1.0])
    def test_window_inside_the_band_is_not_capped(self, cfg_cw_dp, length):
        res = eta_cw(with_length(cfg_cw_dp, length))
        assert res.diagnostics["band_capped"] is False

    @pytest.mark.parametrize("length", [0.1, 1.0])
    def test_taylor_band_never_caps(self, length):
        om0 = omega_from_um(0.708)
        pump = PumpSpec.from_units(0.708, 0.0, 0.3)
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9, -1e-26, 0.0, 1e-55),
                             length=length)
        res = eta_cw(SourceConfig(fiber=fiber, pump1=pump, pump2=pump))
        assert res.diagnostics["band_capped"] is False

    def test_independent_of_table_build(self, cfg_cw_dp, monkeypatch):
        # the dispersion table is built lazily; rebuilding it must not move
        # any result
        model = cfg_cw_dp.fiber.dispersion
        first = eta_cw(cfg_cw_dp).eta
        rebuilt = StepIndexDispersion(model.core_radius, model.fill).table
        assert rebuilt[:2] == model.table[:2]
        assert rebuilt[2].tobytes() == model.table[2].tobytes()
        monkeypatch.setattr(model, "table", rebuilt)
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
