"""Fiber dispersion and nonlinearity.

The photonic-crystal fiber is reduced to an equivalent step-index fiber: a
fused-silica core of the given radius inside a uniform cladding whose index
is the volume-weighted mix of air and silica, n_cl = f + (1 - f) n_SiO2.
The propagation constant comes from the exact vectorial characteristic
equation of the fundamental mode (see ``_kernels_py``), which reproduces the
regression anchors of both reference fibers; the scalar weak-guidance
approximation is badly off at this index contrast and is not used.
``StepIndexDispersion`` lists which path serves which step-index query.

Scalars stay exact because they feed root finding, where the answers sit
at the solver's rounding floor: the phasematched frequencies and contour
detunings are Brent roots of a mismatch in which beta ~ 1e7 1/m cancels,
and a one-ulp shift of the scalar n_eff already moves the inner-branch
contour detunings of a thin-core fiber (r = 0.5 um, f = 0.6) by up to
5e-10 relative, where the table errs by about ten ulps.  Arrays only locate
sign changes for those roots or feed integrands, where the table's error is
far below the quadrature tolerance.

Transverse mode profiles use the zeroth-order Bessel shape of the
fundamental mode, evaluated at the exact (u, w) of the vectorial solve, and
are treated as frequency-independent within each carrier's bandwidth.

A fiber that carries ``taylor`` data takes k(omega) from that Taylor
polynomial around a reference frequency instead (coefficients beta_n in
s^n/m, factorial convention); a fiber without it is the step-index model
above.  Both models answer the same queries (``FiberSpec.dispersion``).
The polynomial decouples tests from the mode solver and allows engineered
dispersion.  Geometry-derived quantities (profiles, effective area, gamma)
still use the step-index machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import iadd, imul

import numpy as np

from . import _kernels_py as kernels
from .constants import (C, SELLMEIER_RANGE_UM, N2_SILICA_DEFAULT,
                        omega_from_um, um_from_omega)
from .errors import ModeCutoffError, OverlapError, WavelengthRangeError
from .numerics import (DEFAULT_QUADRATURE, _as_result, _levels, bracket_root,
                       find_root)

# n_eff table: equal panels in ln(omega) over the Sellmeier window, Chebyshev
# nodes and fitted polynomial degree per panel, and the smallest array query
# it serves
_TABLE_PANELS = 32
_TABLE_NODES = 16
_TABLE_DEGREE = 11
_TABLE_MIN_POINTS = 4
# entries each per-geometry memo (mode profiles, effective areas) keeps
_MEMO_SIZE = 4096


@dataclass(frozen=True)
class TaylorDispersion:
    """Polynomial k(omega) model: beta_n in s^n/m, factorial convention."""

    reference_frequency: float            # rad/s
    beta_coefficients: tuple              # (beta0, beta1, ...) at least two
    # per derivative order d, the Horner coefficients beta_{m+d} / m!,
    # highest m first; derived data, so not part of equality or hashing
    _horner: tuple = field(init=False, repr=False, compare=False)

    label = "taylor"
    band_um = (-math.inf, math.inf)       # no window of its own

    def __post_init__(self):
        b = tuple(float(v) for v in self.beta_coefficients)
        object.__setattr__(self, "beta_coefficients", b)
        if len(b) < 2:
            raise ValueError("need at least beta0 and beta1")
        if not all(math.isfinite(v) for v in b):
            raise ValueError("beta coefficients must be finite")
        if not (self.reference_frequency > 0
                and math.isfinite(self.reference_frequency)):
            raise ValueError("reference frequency must be positive")
        object.__setattr__(self, "_horner", tuple(
            tuple(b[m + d] / math.factorial(m)
                  for m in reversed(range(len(b) - d)))
            for d in range(len(b))))

    def k(self, omega, deriv=0):
        """deriv-th frequency derivative of k at omega (Horner evaluation)."""
        if deriv < 0:
            raise ValueError("deriv must be >= 0")
        d = np.asarray(omega, dtype=float) - self.reference_frequency
        if deriv >= len(self._horner):
            return _as_result(d * 0.0)
        out = np.zeros_like(d)
        for c in self._horner[deriv]:
            out *= d
            out += c
        return _as_result(out)

    beta_exact = k                        # the polynomial has no second path

    def effective_index(self, omega):
        """k c / omega (scalar or array omega)."""
        return _as_result(self.k(omega) * C / np.asarray(omega, dtype=float))

    def n_k_beta1(self, om):
        """(n, beta, beta1) at a flat array."""
        k = self.k(om)
        return k * C / om, k, self.k(om, 1)


@dataclass(frozen=True)
class FiberSpec:
    """Fiber geometry and nonlinearity; all lengths in SI meters.

    ``dispersion`` is the fiber's one k(omega) model: the ``taylor``
    polynomial if given, else the ``StepIndexDispersion`` of the geometry.
    """

    core_radius: float                    # m
    air_fill_fraction: float
    length: float                         # m
    n2_kerr: float = N2_SILICA_DEFAULT    # m^2/W
    taylor: TaylorDispersion | None = None

    def __post_init__(self):
        if not (self.core_radius > 0 and math.isfinite(self.core_radius)):
            raise ValueError("core_radius must be > 0")
        if not 0 < self.air_fill_fraction < 1:
            raise ValueError("air_fill_fraction must be in (0, 1)")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError("length must be > 0")
        if not (self.n2_kerr > 0 and math.isfinite(self.n2_kerr)):
            raise ValueError("n2_kerr must be > 0")

    @property
    def dispersion(self):
        """The ``taylor`` model, or the step-index model of the geometry."""
        return self.taylor if self.taylor is not None else _geometry(self)


@dataclass(frozen=True)
class ModeProfile:
    """Normalized radial profile of the fundamental mode at one carrier.

    amplitude(rho) is J0(u rho/r)/J0(u) inside the core and
    K0(w rho/r)/K0(w) outside, scaled so that the transverse integral of
    |f|^2 equals one.
    """

    carrier_frequency: float      # rad/s
    core_radius: float            # m
    u: float
    w: float
    norm: float                   # multiplies the raw piecewise shape

    def amplitude(self, rho):
        """Exact normalized amplitude at radius rho [m] (scalar or array)."""
        arr = np.asarray(rho, dtype=float)
        return _as_result(_amplitude(np.atleast_1d(arr), self.core_radius, self.u,
                                     self.w, self.norm).reshape(arr.shape))

    @property
    def outer_extent(self):
        """Radius beyond which the evanescent tail is negligible."""
        return self.core_radius * (1.0 + 42.0 / self.w)


@dataclass(frozen=True)
class NonlinearParameters:
    gamma_sfwm: float     # 1/(W m)
    gamma_pump_1: float   # 1/(W m)
    gamma_pump_2: float   # 1/(W m)
    a_eff: float          # m^2


def _amplitude(rho, r, u, w, norm):
    """norm J0(u rho/r)/J0(u) where rho < r, norm K0(w rho/r)/K0(w) elsewhere.

    The one amplitude formula of ``ModeProfile``, the normalisation and the
    overlap integrals.  ``r``, ``u``, ``w`` and ``norm`` are floats or
    arrays that broadcast against the array ``rho`` (one profile per row);
    J0(u) and K0(w) are evaluated once per entry, in the points' call.
    """
    shape = rho.shape
    inside = rho < r

    def ratio(fn, arg, at):
        """fn(arg rho / r) / fn(arg) at the points ``at``, in one fn call."""
        arg = np.asarray(arg, dtype=float)
        x = (np.broadcast_to(arg, shape)[at] * rho[at]
             / np.broadcast_to(r, shape)[at])
        both = fn(np.concatenate([x, arg.ravel()]), rows=1)[0]
        return both[:x.size] / np.broadcast_to(
            both[x.size:].reshape(arg.shape), shape)[at]

    out = np.empty_like(rho)
    out[inside] = ratio(kernels.j01, u, inside)
    out[~inside] = ratio(kernels.k01, w, ~inside)
    out *= norm
    return out


def silica_index(omega):
    """Fused-silica refractive index at angular frequency omega [rad/s]."""
    om = np.asarray(omega, dtype=float)
    lam_um = um_from_omega(_checked_omega(om)).reshape(om.shape)
    return _as_result(kernels.sellmeier_n(lam_um))


def _checked_omega(omega):
    """Frequencies as a flat array, after the Sellmeier range check."""
    om = np.ravel(np.asarray(omega, dtype=float))
    lam_um = um_from_omega(om)
    lo, hi = SELLMEIER_RANGE_UM
    bad = (lam_um < lo) | (lam_um > hi)
    if np.any(bad):
        raise WavelengthRangeError(
            f"wavelength {lam_um[bad][0]:.4f} um outside Sellmeier validity "
            f"[{lo}, {hi}] um")
    return om


def _require_guided(neff, om):
    if not np.all(np.isfinite(neff)):
        omega = om[~np.isfinite(neff)][0]
        raise ModeCutoffError(
            f"fundamental-mode solve failed at omega={omega:.6e} rad/s "
            f"(lambda={um_from_omega(omega):.4f} um)")


def _memo(memo, key, compute):
    """memo[key], else compute(key); past _MEMO_SIZE, the least recent goes."""
    memo[key] = memo.pop(key) if key in memo else compute(key)
    if len(memo) > _MEMO_SIZE:
        del memo[next(iter(memo))]
    return memo[key]


class StepIndexDispersion:
    """k(omega) of the step-index model of one geometry, and its state.

    One object per (core_radius, air_fill_fraction) (``_step_index``)
    builds the n_eff table on first use and memoises up to _MEMO_SIZE mode
    profiles and as many effective areas for every fiber of the geometry.

    Which path serves which query:

    * n_eff and beta at a scalar frequency, or at an array of fewer than
      _TABLE_MIN_POINTS frequencies, come from the exact solve (``exact``):
      one Newton step from the table's n_eff, ``kernels.he11_solve_seeded``,
      which falls back to the ladder ``kernels.he11_solve`` where the seed
      or the step fails.  Short queries take the seed and the step in
      Python floats, with the bits of the array path.  A scalar is the
      one-point case of that query, with its range and guidance checks, and
      is not cached.
    * n_eff and beta at larger arrays come from the table: a
      piecewise-Chebyshev fit of n_eff in x = ln omega over the whole
      Sellmeier window, sampled from the ladder (``table``).  It agrees
      with the exact solve to a few 1e-14 absolute.
    * ``beta_exact`` gives beta at every point of an array with the bits of
      the scalar query: one exact solve of the whole array (never the table).
      The lockstep root finding of the phase-matching contour evaluates each
      of its Brent steps, over all its brackets, this way.
    * beta1 = (n + n_x) / c and beta2 = (n_x + n_xx) / (c omega), with n_x and
      n_xx the x-derivatives of n_eff, come from the table's analytic
      derivatives for every input, scalars included.
    * The efficiency integrands take beta and the weight h at paired signal
      and idler arrays from one query, ``_signal_idler``: one table evaluation
      of n and n_x for both arrays (``n_k_beta1``), whatever their size.
    * Mode profiles take (u, w) from the exact solve.  Their normalisation
      integrals and the overlap integrals of the effective area share one
      integrand (``_overlap_integrals``, amplitudes from ``_amplitude``) and
      run many carriers in one lockstep quadrature: ``gamma_pumps`` batches
      the pump carriers of a contour without memoising them, and
      ``mode_profile`` and ``area`` are the one-carrier case, memoised here.
    """

    label = "step-index"
    # a rounding step inside the window, where lambda -> omega -> lambda
    # does not round-trip exactly
    band_um = (SELLMEIER_RANGE_UM[0] * (1 + 1e-12),
               SELLMEIER_RANGE_UM[1] * (1 - 1e-12))

    def __init__(self, core_radius, fill):
        self.core_radius, self.fill = core_radius, fill
        self.profiles, self.areas = {}, {}    # keyed on carriers [rad/s]

    @cached_property
    def table(self):
        """Piecewise-Chebyshev table of n_eff(x), x = ln omega.

        The Sellmeier window is cut into _TABLE_PANELS equal panels in x; on
        each, the ladder ``he11_solve`` is sampled at _TABLE_NODES Chebyshev
        points of the first kind, and the truncated discrete cosine transform
        gives the least-squares Chebyshev fit of degree _TABLE_DEGREE.  The
        coefficients the fit drops are at the solver's rounding level (about
        1e-15); kept, they are amplified by differentiation (beta1 then errs
        by 9e-12 relative instead of 2e-12).  The fit is stored in the power
        basis of the panel coordinate t in [-1, 1], together with its first
        two x derivatives.  It is (omega_lo, panels per unit x, coeffs) with
        coeffs[d, j, k] the coefficient of t^j in d^d n_eff / dx^d on panel
        k: the power index comes before the panel index, so ``_table_eval``
        gathers one power's coefficients for all its points with one
        ``take``.  A panel holding a failed solve holds NaN and fails the
        guidance check on query.
        """
        from numpy.polynomial import chebyshev, polynomial
        om_lo = omega_from_um(SELLMEIER_RANGE_UM[1])
        om_hi = omega_from_um(SELLMEIER_RANGE_UM[0])
        width = math.log(om_hi / om_lo) / _TABLE_PANELS
        theta = math.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
        x = width * (np.arange(_TABLE_PANELS)[:, None]
                     + 0.5 * (np.cos(theta) + 1.0))
        neff = kernels.he11_solve((om_lo * np.exp(x)).ravel(), self.core_radius,
                                  self.fill)[0].reshape(x.shape)
        # discrete cosine transform as a plain sum (no BLAS), so the table
        # does not depend on the linear-algebra library or its threading
        cos_kj = np.cos(np.outer(theta, np.arange(_TABLE_DEGREE + 1)))
        cheb = (neff[:, :, None] * cos_kj).sum(axis=1) * (2.0 / _TABLE_NODES)
        cheb[:, 0] *= 0.5
        coeffs = np.zeros((3, _TABLE_PANELS, _TABLE_DEGREE + 1))
        for k, c in enumerate(cheb):
            power = chebyshev.cheb2poly(c)          # trailing zeros come trimmed
            coeffs[0, k, :power.size] = power
        for d in (1, 2):
            coeffs[d, :, :-1] = polynomial.polyder(coeffs[d - 1],
                                                   scl=2.0 / width, axis=1)
        coeffs = np.ascontiguousarray(coeffs.transpose(0, 2, 1))
        coeffs.setflags(write=False)
        return om_lo, 1.0 / width, coeffs

    def _table_eval(self, om, order, guided=True):
        """n_eff and its first ``order`` x-derivatives, shape (order + 1, n).

        ``om`` is a checked flat array.  Each point is evaluated on its own,
        so a value does not depend on the other points of the query.  A NaN
        panel raises ModeCutoffError, or with ``guided=False`` gives NaN.  A
        float ``om`` gives (n_eff,) in floats with an array point's bits,
        unchecked.

        The sum over the powers t^j runs column by column: per term, one
        gathered coefficient per point times one power of t, so temporaries
        are O(n).  It has the bits of the row-wise sum, each point's row of
        panel coefficients times ``np.vander(t, 12, increasing=True)`` summed
        by ``np.sum`` (a test pins this): the powers are the same running
        product, and the terms are added in the order of NumPy's pairwise
        sum over 8 to 15 elements, the first eight as
        ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)), the rest one by
        one.
        """
        om_lo, per_x, coeffs = self.table
        point = type(om) is float
        if point:       # NumPy's log: math.log differs in the last bit
            s = float(np.log(om / om_lo)) * per_x
            k = min(int(s), _TABLE_PANELS - 1) if s == s else 0
            column = coeffs[0, :, k].tolist().__getitem__
        else:
            s = np.log(om / om_lo) * per_x
            k = np.minimum(s.astype(np.intp), _TABLE_PANELS - 1)
            coeffs = coeffs[:order + 1]
            column = lambda j: coeffs[:, j].take(k, axis=1, mode="clip")
        t = 2.0 * (s - k) - 1.0

        # terms and partial sums are formed in place: one new array per term
        def terms():
            yield column(0)                         # times t^0 = 1
            power = t
            for j in range(1, _TABLE_DEGREE + 1):
                if j > 1:
                    power = power * t
                yield imul(column(j), power)

        ts = terms()
        pair = lambda: iadd(next(ts), next(ts))
        out = iadd(pair(), pair())
        out += iadd(pair(), pair())
        for term in ts:
            out += term
        if point:
            return (out,)
        if guided:
            _require_guided(out[0], om)
        return out

    def _seed(self, om):
        """b = (n^2 - ncl^2) / na2 of the table's n_eff: the exact solve's
        seed, at a flat array or, in floats with the same bits, a float."""
        sqrt = math.sqrt if type(om) is float else np.sqrt
        ncl, na2 = kernels._guidance(om, self.core_radius, self.fill, sqrt)[:2]
        n = self._table_eval(om, 0, guided=False)[0]
        return (n * n - ncl * ncl) / na2

    def exact(self, omega):
        """Exact (neff, u, w) flat arrays, after the range and guidance checks."""
        om = _checked_omega(omega)
        with np.errstate(invalid="ignore"):   # NaN omega: NaN seed, panel 0
            seed = (self._seed(om) if om.size >= kernels._VECTOR_MIN_POINTS
                    else [self._seed(o) for o in om.tolist()])
        neff, u, w = kernels.he11_solve_seeded(om, self.core_radius, self.fill,
                                               om, seed)
        _require_guided(neff, om)
        return neff, u, w

    def effective_index(self, omega):
        """n_eff shaped like omega, from the table at _TABLE_MIN_POINTS up."""
        om = np.asarray(omega, dtype=float)
        n = (self._table_eval(_checked_omega(om), 0)[0]
             if om.size >= _TABLE_MIN_POINTS else self.exact(om)[0])
        return _as_result(n.reshape(om.shape))

    def k(self, omega, deriv=0):
        """Derivative ``deriv`` of k at omega: beta, then beta1 = (n + n_x) / c
        and beta2 = (n_x + n_xx) / (c omega) from the table."""
        om = np.asarray(omega, dtype=float)
        if deriv == 0:
            return _as_result(self.effective_index(om) * om / C)
        if deriv not in (1, 2):
            raise ValueError("deriv must be 0, 1 or 2")
        flat = _checked_omega(om)
        low, high = self._table_eval(flat, deriv)[-2:]
        scale = C * flat if deriv == 2 else C
        return _as_result(((low + high) / scale).reshape(om.shape))

    def beta_exact(self, omega):
        """beta of a flat array from one exact solve, with the scalar bits."""
        om = np.asarray(omega, dtype=float)
        return self.exact(om)[0] * om / C

    def n_k_beta1(self, om):
        """(n, beta, beta1) at a flat array, from one table evaluation."""
        n, n_x = self._table_eval(_checked_omega(om), 1)
        return n, n * om / C, (n + n_x) / C

    def mode_profile(self, omega):
        """Normalized fundamental-mode profile at one carrier [rad/s]."""
        return _memo(self.profiles, float(omega), lambda om: _mode_profiles(
            [om], self.core_radius, self.fill)[0])

    def area(self, carriers):
        """Effective area of four carriers [rad/s]."""
        return _memo(self.areas, tuple(map(float, carriers)), lambda key:
                     effective_area([self.mode_profile(om) for om in key]))


@lru_cache(maxsize=64)
def _step_index(core_radius, fill):
    """The one ``StepIndexDispersion`` of a geometry (the geometry registry)."""
    return StepIndexDispersion(core_radius, fill)


def _geometry(fiber):
    """Step-index model of the fiber's geometry, whatever its dispersion."""
    return _step_index(fiber.core_radius, fiber.air_fill_fraction)


def _solve_step_index(omega, fiber):
    """Flat n_eff array of the fiber's step-index geometry, with range checks."""
    return np.ravel(_geometry(fiber).effective_index(omega))


def _signal_idler(om_s, om_i, fiber):
    """(beta_s, beta_i, h) at signal and idler arrays of one shape.

    The one dispersion query of the efficiency integrands, one evaluation
    of both arrays; beta and n have the bits of the array ``beta`` and
    ``effective_index``, and h is ``sfwm.h_function``'s weight.
    """
    shape = np.shape(om_s)
    om = np.concatenate([np.ravel(om_s), np.ravel(om_i)])
    n, k, b1 = fiber.dispersion.n_k_beta1(om)
    m = om.size // 2
    h = om[:m] * om[m:] * b1[:m] * b1[m:] / (n[:m] ** 2 * n[m:] ** 2)
    return k[:m].reshape(shape), k[m:].reshape(shape), h.reshape(shape)


def effective_index(omega, fiber):
    """Effective index of the fundamental mode (scalar or array omega)."""
    return fiber.dispersion.effective_index(omega)


def beta(omega, fiber):
    """Propagation constant k(omega) [1/m]."""
    return fiber.dispersion.k(omega)


def beta1(omega, fiber):
    """First frequency derivative of k [s/m]: (n + dn/dx) / c, x = ln omega."""
    return fiber.dispersion.k(omega, 1)


def beta2(omega, fiber):
    """Second frequency derivative of k [s^2/m]: (n_x + n_xx) / (c omega)."""
    return fiber.dispersion.k(omega, 2)


def find_zero_dispersion(fiber, wavelength_range_um=(0.4, 1.6), points=240):
    """All zero crossings of beta2 in the range, ascending in wavelength [um].

    Sign-scan on an even wavelength grid, inside the model's ``band_um``,
    followed by bracketed root refinement in omega; grid points at 0 um or
    below are skipped.  An empty list means no zero-dispersion point.
    """
    lo_um, hi_um = wavelength_range_um
    band_lo, band_hi = fiber.dispersion.band_um
    lams = np.linspace(max(lo_um, band_lo), min(hi_um, band_hi), points)
    oms = 2e6 * np.pi * C / lams
    b2 = beta2(oms, fiber)

    zdws = []
    f = lambda om: beta2(om, fiber)
    for i in range(points - 1):
        if lams[i] <= 0:
            # no wavelength of 0 or below has a dispersion; a Taylor beta2
            # of odd degree changes sign across the pole at lambda = 0
            continue
        lo, hi = oms[i + 1], oms[i]          # omega decreasing with lambda
        if b2[i] == 0.0:
            zdws.append(lams[i])
        elif b2[i] * b2[i + 1] < 0:
            root = find_root(f, bracket_root(f, lo, hi), tol=1e-7 * lo)
            zdws.append(um_from_omega(root))
    return sorted(zdws)


def mode_profile(omega, fiber):
    """Normalized fundamental-mode profile at the carrier (memoised per geometry).

    The transverse structure always comes from the step-index geometry, also
    for a fiber with Taylor dispersion, so fibers that differ only in length,
    n2 or Taylor data share one profile object.
    """
    return _geometry(fiber).mode_profile(omega)


def _mode_profiles(omegas, core_radius, fill):
    """Normalized profiles at many carriers [rad/s] of one geometry.

    One exact solve gives every (u, w); the raw shapes (norm 1) go through
    ``_overlap_integrals`` as pairs, so the two normalisation integrals of
    every carrier run in one lockstep call.
    """
    _neff, u, w = _step_index(core_radius, fill).exact(omegas)
    raw = [ModeProfile(carrier_frequency=float(om), core_radius=core_radius,
                       u=uk, w=wk, norm=1.0)
           for om, uk, wk in zip(np.ravel(omegas), u.tolist(), w.tolist())]
    sums = _overlap_integrals([(p, p) for p in raw])
    return [replace(p, norm=1.0 / math.sqrt(2 * math.pi * (n_in + n_out)))
            for p, (n_in, n_out) in zip(raw, sums)]


def _overlap_integrals(sets):
    """Int f_1 ... f_m rho drho over the core and over the cladding, per set.

    ``sets`` holds tuples of m profiles.  For set s with r its first
    profile's core radius, integral 2s runs over [0, r] and 2s + 1 over
    [r, the smallest outer_extent], all in one ``_levels`` call at the
    default quadrature spec.  The integrand is ones * f_1 * ... * f_m *
    rho, each f from ``_amplitude`` with the profile's own parameters, so
    each integral has the bits of its own ``integrate_1d`` call.  Returns
    an array (sets, 2).
    """
    n = len(sets)
    # (set, profile, [u, w, norm, core radius])
    params = np.array([[(p.u, p.w, p.norm, p.core_radius) for p in profiles]
                       for profiles in sets], dtype=float)
    r = params[:, 0, 3]
    rho_max = np.array([min(p.outer_extent for p in profiles)
                        for profiles in sets])

    def integrand(owner, rho):
        # per profile slot: u, w, norm and radius of each row's set, (rows, 1);
        # one _amplitude call for all slots, where a slot equal to the one
        # before it shares that slot's amplitudes
        slots = params[owner // 2].transpose(1, 2, 0)[..., None]
        fresh = [k == 0 or not np.array_equal(slots[k], slots[k - 1])
                 for k in range(len(slots))]
        u, w, norm, radius = slots[fresh].transpose(1, 0, 2, 3)
        f = _amplitude(np.broadcast_to(rho, (len(u),) + rho.shape), radius, u,
                       w, norm)
        out = np.ones_like(rho)
        for k in np.cumsum(fresh) - 1:
            out = out * f[k]
        return out * rho

    value, _error, _subdivisions = _levels(
        integrand, 2 * n, np.stack([np.zeros(n), r], axis=1).ravel(),
        np.stack([r, rho_max], axis=1).ravel(), DEFAULT_QUADRATURE)
    return value.reshape(n, 2)


def effective_area(profiles):
    """Effective interaction area [m^2] of four normalized mode profiles.

    1 / (2 pi Int f1 f2 f3 f4 rho drho); the order of the profiles does not
    matter because the integrand is a plain product.
    """
    return _effective_areas([profiles])[0]


def _effective_areas(sets):
    """``effective_area`` of many sets of four profiles, in one batch.

    All the overlap integrals run in one ``_overlap_integrals`` call; the
    first set with a vanishing overlap raises OverlapError.
    """
    for profiles in sets:
        if len(profiles) != 4:
            raise ValueError("effective_area takes exactly four profiles")
        r = profiles[0].core_radius
        if any(abs(p.core_radius - r) > 1e-12 * r for p in profiles):
            raise ValueError("profiles must share the fiber geometry")
    areas = []
    for inner, outer in _overlap_integrals(sets):
        overlap = 2 * math.pi * (inner + outer)
        if not (overlap > 0 and math.isfinite(overlap)):
            raise OverlapError(f"vanishing four-mode overlap: {overlap}")
        areas.append(1.0 / overlap)
    return areas


def gamma_pump(fiber, omega):
    """Self/cross-phase nonlinear coefficient of one pump [1/(W m)]."""
    a = _geometry(fiber).area((omega,) * 4)
    return fiber.n2_kerr * float(omega) / (C * a)


def gamma_pumps(fiber, omegas):
    """``gamma_pump`` at many pump carriers [rad/s], bit for bit, in one batch.

    One ``_mode_profiles`` and one ``_effective_areas`` call serve every
    carrier, without the per-geometry memos.
    """
    profiles = _mode_profiles(omegas, fiber.core_radius,
                              fiber.air_fill_fraction)
    areas = _effective_areas([(p,) * 4 for p in profiles])
    return [fiber.n2_kerr * float(om) / (C * a)
            for om, a in zip(omegas, areas)]


def gamma_sfwm(fiber, omega_p1, omega_p2, omega_s, omega_i):
    """Four-wave-mixing nonlinear coefficient [1/(W m)] (pairwise carriers)."""
    a = _geometry(fiber).area((omega_p1, omega_p2, omega_s, omega_i))
    return fiber.n2_kerr * math.sqrt(float(omega_p1) * float(omega_p2)) / (C * a)


def nonlinear_parameters(fiber, omega_p1, omega_p2, omega_s, omega_i):
    """Bundle of gamma coefficients and the four-field effective area."""
    return NonlinearParameters(
        gamma_sfwm=gamma_sfwm(fiber, omega_p1, omega_p2, omega_s, omega_i),
        gamma_pump_1=gamma_pump(fiber, omega_p1),
        gamma_pump_2=gamma_pump(fiber, omega_p2),
        a_eff=_geometry(fiber).area((omega_p1, omega_p2, omega_s, omega_i)))
