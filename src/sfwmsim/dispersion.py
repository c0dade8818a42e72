"""Fiber dispersion and nonlinearity.

The photonic-crystal fiber is reduced to an equivalent step-index fiber: a
fused-silica core of the given radius inside a uniform cladding whose index
is the volume-weighted mix of air and silica, n_cl = f + (1 - f) n_SiO2.
The propagation constant comes from the exact vectorial characteristic
equation of the fundamental mode (see ``_kernels_py``), which reproduces the
regression anchors of both reference fibers; the scalar weak-guidance
approximation is badly off at this index contrast and is not used.

Which path serves which step-index query:

* n_eff and beta at a scalar frequency, or at an array of fewer than
  _TABLE_MIN_POINTS frequencies, come from the exact solve,
  ``kernels.he11_solve``, which runs such short queries in Python floats
  with the bits of its array ladder.  A scalar is the one-point case of
  that query, with its range and guidance checks, and is not cached.
* n_eff and beta at larger arrays come from a per-geometry table: a
  piecewise-Chebyshev fit of n_eff in x = ln omega over the whole
  Sellmeier window, sampled from the exact solve (``_neff_table``).  It is
  keyed on (core_radius, air_fill_fraction), because length and n2 do not
  enter the dispersion, built on first use, and agrees with the exact solve
  to a few 1e-14 absolute.
* ``_beta_exact`` gives beta at every point of an array with the bits of
  the scalar query: one exact solve of the whole array (never the table).
  The lockstep root finding of the phase-matching contour evaluates each
  of its Brent steps, over all its brackets, this way.
* beta1 = (n + n_x) / c and beta2 = (n_x + n_xx) / (c omega), with n_x and
  n_xx the x-derivatives of n_eff, come from the table's analytic
  derivatives for every input, scalars included.
* The efficiency integrands take beta and the weight h at paired signal
  and idler arrays from one query, ``_signal_idler``: one table evaluation
  of n and n_x for both arrays, whatever their size.
* Mode profiles take (u, w) from the exact solve.  Their normalisation
  integrals and the overlap integrals of the effective area share one
  integrand (``_overlap_integrals``, amplitudes from ``_amplitude``) and
  run many carriers in one lockstep quadrature: ``gamma_pumps`` batches
  the pump carriers of a contour without caching them, and the scalar
  ``mode_profile`` and effective-area queries are the one-carrier case,
  cached per geometry.

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
above.  The polynomial decouples tests from the mode solver and allows
engineered dispersion.  Geometry-derived quantities (profiles, effective
area, gamma) still use the step-index machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import _kernels_py as kernels
from .constants import (C, SELLMEIER_RANGE_UM, N2_SILICA_DEFAULT,
                        omega_from_um, um_from_omega)
from .errors import ModeCutoffError, OverlapError, WavelengthRangeError
from .numerics import DEFAULT_QUADRATURE, _levels, bracket_root, find_root

# n_eff table: equal panels in ln(omega) over the Sellmeier window, Chebyshev
# nodes and fitted polynomial degree per panel, and the smallest array query
# it serves
_TABLE_PANELS = 32
_TABLE_NODES = 16
_TABLE_DEGREE = 11
_TABLE_MIN_POINTS = 4


@dataclass(frozen=True)
class TaylorDispersion:
    """Polynomial k(omega) model: beta_n in s^n/m, factorial convention."""

    reference_frequency: float            # rad/s
    beta_coefficients: tuple              # (beta0, beta1, ...) at least two
    # per derivative order d, the Horner coefficients beta_{m+d} / m!,
    # highest m first; derived data, so not part of equality or hashing
    _horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = tuple(float(v) for v in self.beta_coefficients)
        object.__setattr__(self, "beta_coefficients", b)
        if len(b) < 2:
            raise ValueError("need at least beta0 and beta1")
        if not all(math.isfinite(v) for v in b):
            raise ValueError("beta coefficients must be finite")
        if not self.reference_frequency > 0:
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
            return float(d * 0.0) if d.ndim == 0 else d * 0.0
        out = np.zeros_like(d)
        for c in self._horner[deriv]:
            out *= d
            out += c
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class FiberSpec:
    """Fiber geometry and nonlinearity; all lengths in SI meters.

    Giving ``taylor`` data replaces k(omega), and with it n_eff, beta1 and
    beta2, by that polynomial; without it the dispersion comes from the
    step-index model of the geometry.
    """

    core_radius: float                    # m
    air_fill_fraction: float
    length: float                         # m
    n2_kerr: float = N2_SILICA_DEFAULT    # m^2/W
    taylor: TaylorDispersion | None = None

    def __post_init__(self):
        if not self.core_radius > 0:
            raise ValueError("core_radius must be > 0")
        if not 0 < self.air_fill_fraction < 1:
            raise ValueError("air_fill_fraction must be in (0, 1)")
        if not self.length > 0:
            raise ValueError("length must be > 0")
        if not self.n2_kerr > 0:
            raise ValueError("n2_kerr must be > 0")


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
        arr = np.atleast_1d(np.asarray(rho, dtype=float))
        out = _amplitude(arr, self.core_radius, self.u, self.w, self.norm)
        if np.asarray(rho).ndim == 0:
            return float(out[0])
        return out

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
    J0(u) and K0(w) are evaluated once per entry of ``u`` and ``w``.
    """
    from scipy.special import j0 as _j0, k0 as _k0
    shape = rho.shape
    inside = rho < r
    outside = ~inside
    out = np.empty_like(rho)
    out[inside] = (_j0(np.broadcast_to(u, shape)[inside] * rho[inside]
                       / np.broadcast_to(r, shape)[inside])
                   / np.broadcast_to(_j0(u), shape)[inside])
    out[outside] = (_k0(np.broadcast_to(w, shape)[outside] * rho[outside]
                        / np.broadcast_to(r, shape)[outside])
                    / np.broadcast_to(_k0(w), shape)[outside])
    out *= norm
    return out


def silica_index(omega):
    """Fused-silica refractive index at angular frequency omega [rad/s]."""
    lam_um = um_from_omega(np.asarray(omega, dtype=float))
    _check_sellmeier_range(lam_um)
    n = kernels.sellmeier_n(lam_um)
    if n.ndim == 0:
        return float(n)
    return n


def _check_sellmeier_range(lam_um):
    lo, hi = SELLMEIER_RANGE_UM
    bad = (lam_um < lo) | (lam_um > hi)
    if np.any(bad):
        lam = np.atleast_1d(lam_um)[np.atleast_1d(bad)][0]
        raise WavelengthRangeError(
            f"wavelength {lam:.4f} um outside Sellmeier validity "
            f"[{lo}, {hi}] um")


def _checked_omega(omega):
    """Frequencies as a flat array, after the Sellmeier range check."""
    om = np.ravel(np.asarray(omega, dtype=float))
    _check_sellmeier_range(um_from_omega(om))
    return om


def _require_guided(neff, om):
    if not np.all(np.isfinite(neff)):
        omega = om[~np.isfinite(neff)][0]
        raise ModeCutoffError(
            f"fundamental-mode solve failed at omega={omega:.6e} rad/s "
            f"(lambda={um_from_omega(omega):.4f} um)")


@lru_cache(maxsize=64)
def _neff_table(core_radius, fill):
    """Piecewise-Chebyshev table of n_eff(x), x = ln omega (one per geometry).

    The Sellmeier window is cut into _TABLE_PANELS equal panels in x; on
    each, the exact ``he11_solve`` is sampled at _TABLE_NODES Chebyshev
    points of the first kind, and the truncated discrete cosine transform
    gives the least-squares Chebyshev fit of degree _TABLE_DEGREE.  The
    coefficients the fit drops are at the solver's rounding level (about
    1e-15); kept, they are amplified by differentiation (beta1 then errs
    by 9e-12 relative instead of 2e-12).  The fit is stored in the power
    basis of the panel coordinate t in [-1, 1], together with its first two
    x derivatives.  Returns (omega_lo, panels per unit x, coeffs) with
    coeffs[d, j, k] the coefficient of t^j in d^d n_eff / dx^d on panel k:
    the power index comes before the panel index, so ``_table_eval``
    gathers one power's coefficients for all its points with one ``take``.
    A panel holding a failed solve holds NaN and fails the guidance check
    on query.
    """
    from numpy.polynomial import chebyshev, polynomial
    om_lo = omega_from_um(SELLMEIER_RANGE_UM[1])
    om_hi = omega_from_um(SELLMEIER_RANGE_UM[0])
    width = math.log(om_hi / om_lo) / _TABLE_PANELS
    theta = math.pi * (np.arange(_TABLE_NODES) + 0.5) / _TABLE_NODES
    x = width * (np.arange(_TABLE_PANELS)[:, None]
                 + 0.5 * (np.cos(theta) + 1.0))
    neff = kernels.he11_solve((om_lo * np.exp(x)).ravel(), core_radius,
                              fill)[0].reshape(x.shape)
    # discrete cosine transform as a plain sum (no BLAS), so the table does
    # not depend on the linear-algebra library or its threading
    cos_kj = np.cos(np.outer(theta, np.arange(_TABLE_DEGREE + 1)))
    cheb = (neff[:, :, None] * cos_kj).sum(axis=1) * (2.0 / _TABLE_NODES)
    cheb[:, 0] *= 0.5
    coeffs = np.zeros((3, _TABLE_PANELS, _TABLE_DEGREE + 1))
    for k, c in enumerate(cheb):
        power = chebyshev.cheb2poly(c)          # trailing zeros come trimmed
        coeffs[0, k, :power.size] = power
    for d in (1, 2):
        coeffs[d, :, :-1] = polynomial.polyder(coeffs[d - 1], scl=2.0 / width,
                                               axis=1)
    coeffs = np.ascontiguousarray(coeffs.transpose(0, 2, 1))
    coeffs.setflags(write=False)
    return om_lo, 1.0 / width, coeffs


def _table_eval(om, fiber, order):
    """n_eff and its first ``order`` x-derivatives, shape (order + 1, n).

    ``om`` is a checked flat array.  Each point is evaluated on its own, so
    a value does not depend on the other points of the query.

    The sum over the powers t^j runs column by column: per term, one
    gathered coefficient per point times one power of t, so temporaries
    are O(n).  It has the bits of the row-wise sum, each point's row of
    panel coefficients times ``np.vander(t, 12, increasing=True)`` summed
    by ``np.sum`` (a test pins this): the powers are the same running
    product, and the terms are added in the order of NumPy's pairwise sum
    over 8 to 15 elements, the first eight as
    ((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)), the rest one by one.
    """
    om_lo, per_x, coeffs = _neff_table(fiber.core_radius,
                                       fiber.air_fill_fraction)
    s = np.log(om / om_lo) * per_x
    k = np.minimum(s.astype(np.intp), _TABLE_PANELS - 1)
    t = 2.0 * (s - k) - 1.0
    coeffs = coeffs[:order + 1]

    def terms():
        yield coeffs[:, 0].take(k, axis=1)       # times t^0 = 1
        power = t
        for j in range(1, _TABLE_DEGREE + 1):
            if j > 1:
                power = power * t
            term = coeffs[:, j].take(k, axis=1)
            term *= power
            yield term

    def pair(ts):
        first = next(ts)
        first += next(ts)
        return first

    ts = terms()
    out = pair(ts)
    out += pair(ts)
    high = pair(ts)
    high += pair(ts)
    out += high
    for term in ts:
        out += term
    _require_guided(out[0], om)
    return out


def _exact_solve(omega, core_radius, fill):
    """Exact (neff, u, w) flat arrays, after the range and guidance checks."""
    om = _checked_omega(omega)
    neff, u, w = kernels.he11_solve(om, core_radius, fill)
    _require_guided(neff, om)
    return neff, u, w


def _beta_exact(omega, fiber):
    """beta at every point of a flat array, each as the scalar ``beta`` gives it.

    The Taylor polynomial, or the exact solve of the whole array (never the
    table) with the range and guidance checks.
    """
    if fiber.taylor is not None:
        return fiber.taylor.k(omega)
    om = np.asarray(omega, dtype=float)
    return _exact_solve(om, fiber.core_radius, fiber.air_fill_fraction)[0] * om / C


def _solve_step_index(omega, fiber):
    """Flat n_eff array of the step-index model, with range checks.

    Queries of _TABLE_MIN_POINTS or more points read the per-geometry
    table; smaller ones take the exact solve.
    """
    if np.size(omega) >= _TABLE_MIN_POINTS:
        return _table_eval(_checked_omega(omega), fiber, 0)[0]
    return _exact_solve(omega, fiber.core_radius, fiber.air_fill_fraction)[0]


def _table_derivatives(omega, fiber, order):
    """Table n_eff and x-derivatives, each shaped like omega."""
    om = np.asarray(omega, dtype=float)
    out = _table_eval(_checked_omega(om), fiber, order)
    return out.reshape((order + 1,) + om.shape)


def _signal_idler(om_s, om_i, fiber):
    """(beta_s, beta_i, h) at signal and idler arrays of one shape.

    The one dispersion query of the efficiency integrands, one evaluation
    of both arrays; beta and n have the bits of the array ``beta`` and
    ``effective_index``, and h is ``sfwm.h_function``'s weight.
    """
    shape = np.shape(om_s)
    om = np.concatenate([np.ravel(om_s), np.ravel(om_i)])
    if fiber.taylor is not None:
        k = fiber.taylor.k(om)
        n, b1 = k * C / om, fiber.taylor.k(om, deriv=1)
    else:
        n, n_x = _table_eval(_checked_omega(om), fiber, 1)
        k, b1 = n * om / C, (n + n_x) / C
    m = om.size // 2
    h = om[:m] * om[m:] * b1[:m] * b1[m:] / (n[:m] ** 2 * n[m:] ** 2)
    return k[:m].reshape(shape), k[m:].reshape(shape), h.reshape(shape)


def _as_result(x):
    return float(x) if np.ndim(x) == 0 else x


def effective_index(omega, fiber):
    """Effective index of the fundamental mode (scalar or array omega)."""
    if fiber.taylor is not None:
        k = fiber.taylor.k(omega)
        return k * C / omega
    om = np.asarray(omega, dtype=float)
    return _as_result(_solve_step_index(om, fiber).reshape(om.shape))


def beta(omega, fiber):
    """Propagation constant k(omega) [1/m]."""
    if fiber.taylor is not None:
        return fiber.taylor.k(omega)
    return effective_index(omega, fiber) * np.asarray(omega, dtype=float) / C


def beta1(omega, fiber):
    """First frequency derivative of k [s/m]: (n + dn/dx) / c, x = ln omega."""
    if fiber.taylor is not None:
        return fiber.taylor.k(omega, deriv=1)
    n, n_x = _table_derivatives(omega, fiber, 1)
    return _as_result((n + n_x) / C)


def beta2(omega, fiber):
    """Second frequency derivative of k [s^2/m]: (n_x + n_xx) / (c omega)."""
    if fiber.taylor is not None:
        return fiber.taylor.k(omega, deriv=2)
    _n, n_x, n_xx = _table_derivatives(omega, fiber, 2)
    return _as_result((n_x + n_xx) / (C * np.asarray(omega, dtype=float)))


def find_zero_dispersion(fiber, wavelength_range_um=(0.4, 1.6), points=240):
    """All zero crossings of beta2 in the range, ascending in wavelength [um].

    Sign-scan on an even wavelength grid followed by bracketed root
    refinement in omega; grid points at 0 um or below are skipped.  An
    empty list means no zero-dispersion point.
    """
    lo_um, hi_um = wavelength_range_um
    if fiber.taylor is None:
        # a rounding step inside the window, where lambda -> omega -> lambda
        # does not round-trip exactly
        lo_um = max(lo_um, SELLMEIER_RANGE_UM[0] * (1 + 1e-12))
        hi_um = min(hi_um, SELLMEIER_RANGE_UM[1] * (1 - 1e-12))
    lams = np.linspace(lo_um, hi_um, points)
    oms = 2e6 * np.pi * C / lams
    b2 = beta2(oms, fiber)

    zdws = []
    f = lambda om: float(beta2(float(om), fiber))
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
    """Normalized fundamental-mode profile at the carrier (cached per geometry).

    The transverse structure always comes from the step-index geometry, also
    for a fiber with Taylor dispersion, so fibers that differ only in length,
    n2 or Taylor data share one profile object.
    """
    return _mode_profile(float(omega), fiber.core_radius,
                         fiber.air_fill_fraction)


@lru_cache(maxsize=4096)
def _mode_profile(omega, core_radius, fill):
    return _mode_profiles([omega], core_radius, fill)[0]


def _mode_profiles(omegas, core_radius, fill):
    """Normalized profiles at many carriers [rad/s] of one geometry.

    One exact solve gives every (u, w); the raw shapes (norm 1) go through
    ``_overlap_integrals`` as pairs, so the two normalisation integrals of
    every carrier run in one lockstep call.
    """
    _neff, u, w = _exact_solve(omegas, core_radius, fill)
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
        out = np.ones_like(rho)
        # per profile slot: u, w, norm and radius of each row's set, (rows, 1)
        for u, w, norm, radius in params[owner // 2].transpose(1, 2, 0)[..., None]:
            out = out * _amplitude(rho, radius, u, w, norm)
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


def _a_eff(fiber, *carriers):
    """Effective area of four carriers [rad/s], cached per geometry."""
    return _a_eff_cached(tuple(float(om) for om in carriers),
                         fiber.core_radius, fiber.air_fill_fraction)


@lru_cache(maxsize=4096)
def _a_eff_cached(carriers, core_radius, fill):
    return effective_area([_mode_profile(om, core_radius, fill)
                           for om in carriers])


def gamma_pump(fiber, omega):
    """Self/cross-phase nonlinear coefficient of one pump [1/(W m)]."""
    a = _a_eff(fiber, omega, omega, omega, omega)
    return fiber.n2_kerr * float(omega) / (C * a)


def gamma_pumps(fiber, omegas):
    """``gamma_pump`` at many pump carriers [rad/s], bit for bit, in one batch.

    One ``_mode_profiles`` and one ``_effective_areas`` call serve every
    carrier, without the per-carrier caches.
    """
    profiles = _mode_profiles(omegas, fiber.core_radius,
                              fiber.air_fill_fraction)
    areas = _effective_areas([(p,) * 4 for p in profiles])
    return [fiber.n2_kerr * float(om) / (C * a)
            for om, a in zip(omegas, areas)]


def gamma_sfwm(fiber, omega_p1, omega_p2, omega_s, omega_i):
    """Four-wave-mixing nonlinear coefficient [1/(W m)] (pairwise carriers)."""
    a = _a_eff(fiber, omega_p1, omega_p2, omega_s, omega_i)
    return fiber.n2_kerr * math.sqrt(float(omega_p1) * float(omega_p2)) / (C * a)


def nonlinear_parameters(fiber, omega_p1, omega_p2, omega_s, omega_i):
    """Bundle of gamma coefficients and the four-field effective area."""
    a = _a_eff(fiber, omega_p1, omega_p2, omega_s, omega_i)
    return NonlinearParameters(
        gamma_sfwm=fiber.n2_kerr * math.sqrt(omega_p1 * omega_p2) / (C * a),
        gamma_pump_1=gamma_pump(fiber, omega_p1),
        gamma_pump_2=gamma_pump(fiber, omega_p2),
        a_eff=a)
