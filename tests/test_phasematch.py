import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import package_lru_caches, taylor_fiber
from sfwmsim import _kernels_py as kernels
from sfwmsim import dispersion, phasematch, sfwm
from sfwmsim.constants import omega_from_um
from sfwmsim.errors import (ModeCutoffError, NoPhasematchError, RegimeError,
                            WavelengthRangeError)
from sfwmsim.phasematch import (ContourPoint, OrientationUndefinedError,
                                _orientation_angles, _repumped, contour,
                                orientation_angle)
from sfwmsim.sfwm import (PumpSpec, SourceConfig, nonlinear_phase,
                          phase_mismatch, solve_phasematch_center)

# 5-point contour of fiber B pumped at 0.75 um over 0.64-0.87 um
CONTOUR_BITS = [
    ("0x1.079095ee476aap+51", "0x1.ccc639f00e0f8p+48", "-0x1.ccc639f00e0f8p+48",
     "-0x1.146deda0c011ep+4", "outer"),
    ("0x1.079095ee476aap+51", "-0x1.ccc639f00e0f8p+48", "0x1.ccc639f00e0f8p+48",
     "-0x1.22e48497cffb9p+6", "outer"),
    ("0x1.079095ee476aap+51", "0x1.87a3e9824c480p+44", "-0x1.87a3e9824c480p+44",
     "0x1.85b2afc70878cp+5", "inner"),
    ("0x1.079095ee476aap+51", "-0x1.87a3e9824c480p+44", "0x1.87a3e9824c480p+44",
     "0x1.4a4d5038f7875p+5", "inner"),
    ("0x1.1ba339ee9fedbp+51", "0x1.5159f8b40b230p+49", "-0x1.5159f8b40b230p+49",
     "0x1.d436735637ccdp+1", "outer"),
    ("0x1.1ba339ee9fedbp+51", "-0x1.5159f8b40b230p+49", "0x1.5159f8b40b230p+49",
     "0x1.595e4c654e41ap+6", "outer"),
    ("0x1.1ba339ee9fedbp+51", "0x1.6c3d74c79e900p+44", "-0x1.6c3d74c79e900p+44",
     "0x1.64910cc4993b0p+5", "inner"),
    ("0x1.1ba339ee9fedbp+51", "-0x1.6c3d74c79e900p+44", "0x1.6c3d74c79e900p+44",
     "0x1.6b6ef33b66c4fp+5", "inner"),
    ("0x1.330519167b907p+51", "0x1.6ba443dc4bc88p+49", "-0x1.6ba443dc4bc88p+49",
     "0x1.2c4fb7972fe73p+6", "outer"),
    ("0x1.330519167b907p+51", "-0x1.6ba443dc4bc88p+49", "0x1.6ba443dc4bc88p+49",
     "0x1.dd82434680c60p+3", "outer"),
    ("0x1.330519167b907p+51", "0x1.fcb1593347f00p+44", "-0x1.fcb1593347f00p+44",
     "0x1.3c892376a0d74p+5", "inner"),
    ("0x1.330519167b907p+51", "-0x1.fcb1593347f00p+44", "0x1.fcb1593347f00p+44",
     "0x1.9376dc895f28bp+5", "inner"),
]


class TestOrientationAngle:
    def test_degenerate_config_anchor(self, cfg_dp):
        center = solve_phasematch_center(cfg_dp)
        theta = orientation_angle(center.omega_s, center.omega_i, cfg_dp)
        assert theta == pytest.approx(-40.0, abs=3.0)

    def test_nondegenerate_config_anchor(self, cfg_ndp):
        center = solve_phasematch_center(cfg_ndp)
        theta = orientation_angle(center.omega_s, center.omega_i, cfg_ndp)
        assert theta == pytest.approx(-41.0, abs=3.0)

    def test_nondegenerate_angle_holds_the_higher_frequency_pump(self,
                                                                 cfg_ndp):
        # the 521 nm pump stays at its carrier in either pump order; holding
        # the 1042 nm pump instead would give -40.457 degrees
        swapped = SourceConfig(fiber=cfg_ndp.fiber, pump1=cfg_ndp.pump2,
                               pump2=cfg_ndp.pump1)
        center = solve_phasematch_center(cfg_ndp)
        for cfg in (cfg_ndp, swapped):
            theta = orientation_angle(center.omega_s, center.omega_i, cfg)
            assert theta == -41.497891687477555

    def test_matched_group_velocities_give_minus_45(self):
        # pure beta1 dispersion: the mismatch gradient components are equal
        om0 = omega_from_um(0.708)
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9))
        pump = PumpSpec.from_units(0.708, 3.0, 1e-9, 80.0)
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        theta = orientation_angle(om0 + 3e13, om0 - 3e13, cfg)
        assert theta == pytest.approx(-45.0, abs=1e-6)

    def test_invariant_under_mismatch_rescaling(self):
        om0 = omega_from_um(0.708)
        pump = PumpSpec.from_units(0.708, 3.0, 1e-9, 80.0)
        coeffs = (1.2e7, 4.87e-9, -2.2e-27, 1e-42, 2.4e-55)
        base = SourceConfig(fiber=taylor_fiber(om0, coeffs),
                            pump1=pump, pump2=pump)
        scaled = SourceConfig(
            fiber=taylor_fiber(om0, tuple(3.0 * c for c in coeffs)),
            pump1=pump, pump2=pump)
        om_s, om_i = om0 + 4e13, om0 - 4.2e13
        a = orientation_angle(om_s, om_i, base)
        b = orientation_angle(om_s, om_i, scaled)
        assert a == pytest.approx(b, abs=1e-6)

    def test_unequal_gradient_below_floor_is_undefined(self):
        # beta2 = 1e-33 s^2/m gives g_s = -2e-20 and g_i = 1e-20 s/m here:
        # unequal, so the matched-velocity rule does not apply, and below
        # the 1e-18 s/m floor, so the direction is undefined
        om0 = omega_from_um(0.708)
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9, 1e-33))
        pump = PumpSpec.from_units(0.708, 3.0, 1e-9, 80.0)
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        with pytest.raises(OrientationUndefinedError):
            orientation_angle(om0 + 1e13, om0 - 2e13, cfg)


class TestContour:
    @pytest.fixture(scope="class")
    def points(self, cfg_loop):
        return contour(cfg_loop, (0.64, 0.87), 32)

    def test_band_edges(self, cfg_loop, points):
        lams = [p.pump_wavelength_um for p in points]
        # phasematching exists over roughly a 200 nm pump band
        assert min(lams) == pytest.approx(0.666, abs=0.015)
        assert max(lams) == pytest.approx(0.843, abs=0.015)

    def test_detuning_mirror_symmetry(self, points):
        for p in points:
            assert p.detuning_signal + p.detuning_idler == \
                pytest.approx(0.0, abs=1e-6 * abs(p.detuning_signal))

    def test_both_signs_present(self, points):
        ups = [p for p in points if p.detuning_signal > 0]
        downs = [p for p in points if p.detuning_signal < 0]
        assert len(ups) == len(downs)

    def test_outer_exceeds_inner(self, points):
        by_pump = {}
        for p in points:
            by_pump.setdefault(p.pump_frequency, []).append(p)
        checked = 0
        for group in by_pump.values():
            outer = [abs(p.detuning_signal) for p in group
                     if p.branch == "outer"]
            inner = [abs(p.detuning_signal) for p in group
                     if p.branch == "inner"]
            if outer and inner:
                assert min(outer) > max(inner)
                checked += 1
        assert checked > 0

    def test_points_rephasematch(self, cfg_loop, points):
        from sfwmsim.phasematch import _repumped
        for p in points[::7]:
            cfg = _repumped(cfg_loop, p.pump_frequency)
            om_s = p.pump_frequency + p.detuning_signal
            om_i = p.pump_frequency + p.detuning_idler
            dk = phase_mismatch(p.pump_frequency, om_s, om_i, cfg)
            assert abs(dk) < 1e-5

    def test_theta_span(self, points):
        thetas = [p.theta_si for p in points]
        assert min(thetas) < -85.0
        assert max(thetas) > 85.0

    def test_empty_outside_band(self, cfg_loop):
        assert contour(cfg_loop, (0.60, 0.63), 4) == []

    def test_requires_degenerate(self, cfg_ndp):
        with pytest.raises(RegimeError):
            contour(cfg_ndp, (0.6, 0.9), 4)

    def test_golden_bits(self, cfg_loop):
        # float.hex of (pump frequency, signal and idler detunings, angle)
        # as the per-interval scan loop and the NumPy-scalar mode solve
        # found them: a change that moves a bit of the scalar path fails here
        got = [(p.pump_frequency.hex(), p.detuning_signal.hex(),
                p.detuning_idler.hex(), p.theta_si.hex(), p.branch)
               for p in contour(cfg_loop, (0.64, 0.87), 5)]
        assert got == CONTOUR_BITS

    def test_sorted_by_pump_frequency(self, points):
        freqs = [p.pump_frequency for p in points]
        assert freqs == sorted(freqs)


def sequential_contour(config, lams):
    """Contour points one pump frequency after another (no lockstep).

    ``phasematch_roots`` and ``orientation_angle`` per frequency, as
    ``contour`` defines its answer and its errors.
    """
    points = []
    for lam in lams:
        cfg = _repumped(config, omega_from_um(float(lam)))
        try:
            roots = sfwm.phasematch_roots(cfg)
        except NoPhasematchError:
            continue
        for rank, om_s in enumerate(roots):
            for oms, omi in ((om_s, cfg.omega_total - om_s),
                             (cfg.omega_total - om_s, om_s)):
                try:
                    theta = orientation_angle(oms, omi, cfg)
                except OrientationUndefinedError:
                    continue
                points.append((cfg.pump1.omega0, oms - cfg.pump1.omega0,
                               theta, "outer" if rank == 0 else "inner"))
    return sorted(points, key=lambda p: (p[0], p[3] != "outer", -p[1]))


class TestContourErrorOrder:
    """contour answers and fails as a pump-by-pump run would."""

    LAMS = np.linspace(0.70, 0.80, 5)

    @pytest.mark.parametrize("lo, hi, n", [(0.3, 0.8, 11), (0.75, 2.5, 5)])
    def test_no_phasematch_frequency_is_skipped(self, cfg_loop, lo, hi, n):
        # 0.3 and 2.5 um pumps leave an empty scan band after mirroring
        for lam in (0.3, 2.5):
            with pytest.raises(NoPhasematchError):
                sfwm.phasematch_roots(_repumped(cfg_loop, omega_from_um(lam)))
        got = [(p.pump_frequency, p.detuning_signal, p.theta_si, p.branch)
               for p in contour(cfg_loop, (lo, hi), n)]
        assert got == sequential_contour(cfg_loop, np.linspace(lo, hi, n))
        assert got

    def iterates(self, cfg_loop, monkeypatch):
        """Abscissas at which phasematch_roots evaluates dk, per pump.

        Each crossing is a lane of ``find_roots``; its bracket ends and
        Brent steps, lane after lane, are the order of a crossing-by-
        crossing run.
        """
        out = []
        find_roots = sfwm.find_roots
        for lam in self.LAMS:
            lanes = {}

            def spy(f, brackets, tol):
                def record(ids, x):
                    for lane, xn in zip(ids, x):
                        lanes.setdefault(lane, []).append(xn)
                    return f(ids, x)
                return find_roots(record, brackets, tol)

            with monkeypatch.context() as m:
                m.setattr(sfwm, "find_roots", spy)
                sfwm.phasematch_roots(_repumped(cfg_loop, omega_from_um(lam)))
            out.append([x for lane in sorted(lanes) for x in lanes[lane]])
        return out

    def poison(self, monkeypatch, omegas):
        """Make the exact mode solve fail (NaN n_eff) at the given omegas."""
        solve = kernels.he11_solve

        def failing(omega, core_radius, fill):
            neff, u, w = solve(omega, core_radius, fill)
            return np.where(np.isin(omega, omegas), np.nan, neff), u, w

        monkeypatch.setattr(kernels, "he11_solve", failing)

    def test_lowest_pump_error_wins(self, cfg_loop, monkeypatch):
        xs = self.iterates(cfg_loop, monkeypatch)
        # pump 1 fails at its ninth evaluation (a late Brent step of its
        # first crossing), pump 3 at its first (a bracket end): in lockstep
        # pump 3 fails first, yet a pump-by-pump run raises pump 1's error
        late, early = xs[1][8], xs[3][0]
        self.poison(monkeypatch, [late, early])
        with pytest.raises(ModeCutoffError) as want:
            sequential_contour(cfg_loop, self.LAMS)
        with pytest.raises(ModeCutoffError) as got:
            contour(cfg_loop, (0.70, 0.80), 5)
        assert str(got.value) == str(want.value)
        assert f"{late:.6e}" in str(got.value)

    def test_single_failing_pump(self, cfg_loop, monkeypatch):
        xs = self.iterates(cfg_loop, monkeypatch)
        self.poison(monkeypatch, [xs[3][5]])
        with pytest.raises(ModeCutoffError) as want:
            sequential_contour(cfg_loop, self.LAMS)
        with pytest.raises(ModeCutoffError) as got:
            contour(cfg_loop, (0.70, 0.80), 5)
        assert str(got.value) == str(want.value)
        assert f"{xs[3][5]:.6e}" in str(got.value)

    def test_beta1_failure_wins_over_a_later_roots_failure(self, cfg_loop,
                                                           monkeypatch):
        xs = self.iterates(cfg_loop, monkeypatch)
        # the idler of pump 1's first point fails the mode solve, the signal
        # of pump 2's first point is out of range, and pump 3's roots fail
        # at their first evaluation
        cfgs = [_repumped(cfg_loop, omega_from_um(lam)) for lam in self.LAMS]
        cutoff = cfgs[1].omega_total - sfwm.phasematch_roots(cfgs[1])[0]
        out_of_range = sfwm.phasematch_roots(cfgs[2])[0]
        query = dispersion.beta1

        def beta1(omega, fiber):
            # the whole query's range check runs before its solves
            if np.any(np.isin(omega, out_of_range)):
                raise WavelengthRangeError(f"range at {out_of_range:.6e}")
            if np.any(np.isin(omega, cutoff)):
                raise ModeCutoffError(f"cutoff at {cutoff:.6e}")
            return query(omega, fiber)

        monkeypatch.setattr(phasematch, "beta1", beta1)
        self.poison(monkeypatch, [xs[3][0]])
        with pytest.raises(ModeCutoffError) as want:
            sequential_contour(cfg_loop, self.LAMS)
        with pytest.raises(ModeCutoffError) as got:
            contour(cfg_loop, (0.70, 0.80), 5)
        assert str(got.value) == str(want.value) == f"cutoff at {cutoff:.6e}"


def three_query_angle(omega_s, omega_i, config):
    """The angle from three one-point beta1 queries, or None if undefined."""
    fiber = config.fiber
    b1_conj = dispersion.beta1(omega_s + omega_i - config.pump2.omega0, fiber)
    g_s = b1_conj - dispersion.beta1(omega_s, fiber)
    g_i = b1_conj - dispersion.beta1(omega_i, fiber)
    return phasematch._angle(g_s, g_i)


def contour_bits(points):
    return [(p.pump_frequency.hex(), p.detuning_signal.hex(),
             p.detuning_idler.hex(), p.theta_si.hex(), p.branch)
            for p in points]


class TestOrientationAngles:
    """One beta1 query for every point, each angle as one point gives it."""

    def test_equal_to_one_point_queries_on_the_loop_contour(self, cfg_loop):
        points = [(p.pump_frequency + p.detuning_signal,
                   p.pump_frequency + p.detuning_idler, p.pump_frequency)
                  for p in contour(cfg_loop, (0.64, 0.87), 32)]
        want = []
        for oms, omi, om_p in points:
            cfg = _repumped(cfg_loop, om_p)
            assert orientation_angle(oms, omi, cfg).hex() == \
                three_query_angle(oms, omi, cfg).hex()
            want.append(three_query_angle(oms, omi, cfg).hex())
        got = _orientation_angles(cfg_loop.fiber, points)
        assert [t.hex() for t in got] == want
        assert len(want) > 50

    def test_equal_to_one_point_queries_at_the_anchor(self, cfg_ndp):
        center = solve_phasematch_center(cfg_ndp)
        oms, omi = center.omega_s, center.omega_i
        got, = _orientation_angles(cfg_ndp.fiber,
                                   [(oms, omi, cfg_ndp.pump2.omega0)])
        assert got == three_query_angle(oms, omi, cfg_ndp) \
            == orientation_angle(oms, omi, cfg_ndp) == -41.497891687477555

    def test_matched_and_undefined_points_in_one_query(self):
        # beta2 = 1e-33 s^2/m: equal signal and idler frequencies give equal
        # gradient components (-45 exactly); the second point is unequal and
        # below the floor, so undefined; the third is defined
        om0 = omega_from_um(0.708)
        fiber = taylor_fiber(om0, (1.2e7, 4.87e-9, 1e-33))
        pump = PumpSpec.from_units(0.708, 3.0, 1e-9, 80.0)
        cfg = SourceConfig(fiber=fiber, pump1=pump, pump2=pump)
        points = [(om0 + 3e13, om0 + 3e13), (om0 + 1e13, om0 - 2e13),
                  (om0 + 2e15, om0 - 9e14)]
        got = _orientation_angles(fiber, [(s, i, om0) for s, i in points])
        assert got[0] == -45.0 and got[1] is None
        assert got[2] == orientation_angle(*points[2], cfg) != -45.0
        with pytest.raises(OrientationUndefinedError):
            orientation_angle(*points[1], cfg)

    def test_undefined_point_is_skipped(self, cfg_loop, monkeypatch):
        # unequal gradient components far below the floor for the third
        # point of the query, the signal-above inner point of the highest
        # pump frequency (0.6975 um, the first to phasematch): the contour
        # drops that point only
        query = dispersion.beta1

        def beta1(omega, fiber):
            out = query(omega, fiber)
            if np.ndim(omega):
                out[6:9] = (0.0, 1e-20, 0.0)
            return out

        monkeypatch.setattr(phasematch, "beta1", beta1)
        got = contour_bits(contour(cfg_loop, (0.64, 0.87), 5))
        assert got == CONTOUR_BITS[:10] + CONTOUR_BITS[11:]

    def test_one_beta1_query_per_contour(self, cfg_loop, monkeypatch):
        calls = []
        query = dispersion.beta1
        monkeypatch.setattr(phasematch, "beta1", lambda omega, fiber: (
            calls.append(np.size(omega)) or query(omega, fiber)))
        got = contour_bits(contour(cfg_loop, (0.64, 0.87), 5))
        assert got == CONTOUR_BITS
        assert calls == [3 * len(CONTOUR_BITS)]

    def test_contour_fills_no_lru_cache(self, cfg_loop):
        # the warm-up fills what a geometry needs once (its n_eff table);
        # a contour over another range then adds nothing to any cache
        caches = package_lru_caches()
        assert contour(cfg_loop, (0.70, 0.80), 5)
        before = {name: c.cache_info().currsize for name, c in caches.items()}
        assert contour(cfg_loop, (0.655, 0.855), 9)
        assert {name: c.cache_info().currsize
                for name, c in caches.items()} == before

