"""The in-package Bessel functions and the table-seeded HE11 solve.

J0, J1, K0 and K1 are compared with scipy.special (a test dependency only),
whose Cephes algorithms they port.  The seeded solve is compared with the
ladder it replaces for exact queries, and its fallback to the ladder is
counted.
"""
import numpy as np
import pytest
from scipy import special

from sfwmsim import _kernels_py as kernels
from sfwmsim.constants import SELLMEIER_RANGE_UM, omega_from_um
from sfwmsim.dispersion import StepIndexDispersion

RNG = np.random.default_rng(20240)
# u over the ladder's bracket, below the first zero of J1, crowded near 0
U = np.concatenate([RNG.uniform(0.0, kernels.J1_FIRST_ZERO, 200_000),
                    np.geomspace(1e-12, kernels.J1_FIRST_ZERO, 2000),
                    [1e-5, kernels.J1_FIRST_ZERO]])
U = U[U > 0]
# w of the ladder (V sqrt(b) from thin cores to the 20 um core) and the
# amplitude's tail arguments w rho / r, out to w + 42; both sides of 2
W = np.concatenate([RNG.uniform(1e-3, 2.0, 100_000),
                    RNG.uniform(2.0, 200.0, 100_000),
                    np.geomspace(1e-9, 250.0, 3000), [2.0]])
GEOMETRIES = [(0.97e-6, 0.91), (0.5e-6, 0.6), (0.4e-6, 0.5), (0.3e-6, 0.6)]
GEOMETRY_IDS = ["fiber_a", "fiber_b", "core_0.4um", "core_0.3um"]


def window_omegas(n):
    """n angular frequencies spread over the open Sellmeier window."""
    lo, hi = SELLMEIER_RANGE_UM
    return omega_from_um(np.linspace(lo, hi, n + 2)[1:-1])


def ulps(a, b):
    return np.abs(a - b) / np.spacing(np.abs(b))


class TestBessel:
    def test_j_bit_for_bit_with_scipy(self):
        j0, j1 = kernels.j01(U)
        assert np.array_equal(j0, special.j0(U))
        assert np.array_equal(j1, special.j1(U))
        assert np.array_equal(kernels.j01(U, rows=1)[0], j0)

    def test_k_within_one_ulp_of_scipy(self):
        # exp and log come from libm, as in Cephes: on x86-64 glibc every
        # point matches bit for bit; one ULP is the stated bound
        k0, k1 = kernels.k01(W)
        assert ulps(k0, special.k0(W)).max() <= 1
        assert ulps(k1, special.k1(W)).max() <= 1
        assert np.array_equal(kernels.k01(W, rows=1)[0], k0)

    def test_float_path_has_the_array_bits(self):
        u, w = U[::20], W[::20]
        assert [kernels._j01_float(x) for x in u.tolist()] == \
            list(zip(*kernels.j01(u).tolist()))
        assert [kernels._k01_float(x) for x in w.tolist()] == \
            list(zip(*kernels.k01(w).tolist()))

    def test_keeps_the_shape(self):
        x = np.linspace(0.5, 3.5, 12).reshape(3, 4)
        assert kernels.j01(x).shape == kernels.k01(x).shape == (2, 3, 4)
        assert kernels.k01(x, rows=1).shape == (1, 3, 4)
        assert np.array_equal(kernels.k01(x)[:, 1, 2],
                              kernels.k01(x[1, 2]))


class TestSeededSolve:
    @pytest.mark.parametrize("core_radius, fill", GEOMETRIES,
                             ids=GEOMETRY_IDS)
    def test_float_seed_has_the_array_bits(self, core_radius, fill):
        # one-point queries seed in floats; the table's sum, its log and
        # the guidance must round as for an array
        model = StepIndexDispersion(core_radius, fill)
        om = np.append(window_omegas(3000), np.nan)
        with np.errstate(invalid="ignore"):
            floats = [model._seed(x) for x in om.tolist()]
            assert np.array(floats).tobytes() == model._seed(om).tobytes()
        assert all(type(b) is float for b in floats)

    @pytest.mark.parametrize("core_radius, fill", GEOMETRIES[:2],
                             ids=GEOMETRY_IDS[:2])
    def test_within_one_ulp_of_the_ladder(self, core_radius, fill):
        om = window_omegas(2000)
        om = om[om > omega_from_um(2.0)]
        seeded = StepIndexDispersion(core_radius, fill).exact(om)[0]
        ladder = kernels.he11_solve(om, core_radius, fill)[0]
        assert ulps(seeded, ladder).max() <= 1

    @pytest.mark.parametrize("core_radius, fill", GEOMETRIES,
                             ids=GEOMETRY_IDS)
    def test_a_root_as_good_as_the_ladder(self, core_radius, fill):
        # over the whole window: where the ladder stops at its residual
        # test (thin cores, far infrared) the two differ by up to about a
        # hundred ULP of n_eff, but the seeded root passes that test
        # wherever the ladder's does
        om = window_omegas(2000)
        model = StepIndexDispersion(core_radius, fill)
        with np.errstate(divide="ignore", invalid="ignore"):
            ladder = kernels.he11_solve(om, core_radius, fill)
            neff, _u, w = kernels.he11_solve_seeded(
                om, core_radius, fill, om, model._seed(om))
            _ncl, _na2, V, q = kernels._guidance(om, core_radius, fill)

            def residual_ok(w):
                g, gp = kernels._g_and_gprime((w / V) ** 2, V, q)
                return np.abs(g) <= 1e-13 * np.maximum(np.abs(gp), 1.0)

            assert np.array_equal(residual_ok(w), residual_ok(ladder[2]))
        assert np.array_equal(np.isnan(neff), np.isnan(ladder[0]))
        ok = np.isfinite(neff)
        assert np.abs(neff - ladder[0])[ok].max() <= 1e-13

    @pytest.mark.parametrize("core_radius, fill", GEOMETRIES,
                             ids=GEOMETRY_IDS)
    def test_one_point_solve_matches_array_solve(self, core_radius, fill):
        om = window_omegas(1000)
        b = StepIndexDispersion(core_radius, fill)._seed(om)
        with np.errstate(divide="ignore", invalid="ignore"):
            arrays = kernels.he11_solve_seeded(om, core_radius, fill, om, b)
            for i in range(om.size):
                one = kernels.he11_solve_seeded(om[i:i + 1], core_radius,
                                                fill, om[i:i + 1], b[i:i + 1])
                assert [v.tobytes() for v in one] == [v[i:i + 1].tobytes()
                                                      for v in arrays]

    @pytest.fixture
    def ladder_calls(self, monkeypatch):
        """Points of every ``he11_solve`` call; a test clears it once its
        table is built."""
        calls, solve = [], kernels.he11_solve

        def spy(omega, core_radius, fill):
            calls.append(np.size(omega))
            return solve(omega, core_radius, fill)

        monkeypatch.setattr(kernels, "he11_solve", spy)
        return calls

    @pytest.mark.parametrize("points", [2, 6], ids=["floats", "array"])
    def test_bad_seeds_take_the_ladder(self, ladder_calls, points):
        r, fill = GEOMETRIES[1]
        om = omega_from_um(np.linspace(0.6, 1.4, points))
        b = StepIndexDispersion(r, fill)._seed(om)
        # NaN (a NaN table panel), outside the guided bracket, far from
        # the root (fails the residual test), taken at another frequency
        bad = b.copy()
        bad[0] = np.nan
        bad[1:2] = 1.5
        if points > 2:
            bad[2], bad[3] = 0.5 * b[2], b[3] * (1 + 1e-9)
        seed_omega = om.copy()
        if points > 2:
            seed_omega[4] *= 1 + 1e-12
        ladder_calls.clear()
        got = kernels.he11_solve_seeded(om, r, fill, seed_omega, bad)
        assert ladder_calls == [min(points, 5)]
        ladder = kernels.he11_solve(om, r, fill)
        assert [v[:min(points, 5)].tobytes() for v in got] == \
            [v[:min(points, 5)].tobytes() for v in ladder]
        if points > 5:
            good = kernels.he11_solve_seeded(om[5:], r, fill, om[5:], b[5:])
            assert [v[5:].tobytes() for v in got] == \
                [v.tobytes() for v in good]

    def test_step_out_of_the_bracket_takes_the_ladder(self, ladder_calls,
                                                      monkeypatch):
        # a residual that passes the test with a flat G' sends the step far
        # outside the bracket
        r, fill = GEOMETRIES[0]
        om = omega_from_um(np.array([0.8]))
        b = StepIndexDispersion(r, fill)._seed(om)
        characteristic = kernels._g_and_gprime
        flat = iter([(1e-14, 1e-20)])
        monkeypatch.setattr(kernels, "_g_and_gprime", lambda *a, **k: next(
            flat, None) or characteristic(*a, **k))
        ladder_calls.clear()
        got = kernels.he11_solve_seeded(om, r, fill, om, b)
        assert ladder_calls == [1]
        assert [v.tobytes() for v in got] == [
            v.tobytes() for v in kernels.he11_solve(om, r, fill)]

    @pytest.mark.parametrize("points", [1, 5], ids=["float", "array"])
    def test_nan_table_panel_takes_the_ladder(self, ladder_calls, points):
        # a NaN panel fails table queries, but the exact query falls back
        r, fill = GEOMETRIES[1]
        model = StepIndexDispersion(r, fill)
        om_lo, per_x, coeffs = model.table
        om = omega_from_um(np.array([0.8, 0.7, 0.9, 1.0, 1.1])[:points])
        panel = int(np.log(om[0] / om_lo) * per_x)
        poisoned = coeffs.copy()
        poisoned[:, :, panel] = np.nan
        model.table = (om_lo, per_x, poisoned)
        ladder_calls.clear()
        got = model.exact(om)
        assert ladder_calls == [1]
        assert [v[0] for v in got] == [
            v[0] for v in kernels.he11_solve(om[:1], r, fill)]
