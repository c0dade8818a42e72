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
  _TABLE_MIN_POINTS frequencies, come from the exact solve, which runs
  such short queries in plain floats.  Scalars are cached per geometry
  (core_radius, air_fill_fraction) in a bounded LRU cache of
  _SCALAR_CACHE_SIZE entries.
* n_eff and beta at larger arrays come from a per-geometry table: a
  piecewise-Chebyshev fit of n_eff in x = ln omega over the whole
  Sellmeier window, sampled from the exact solve (``_neff_table``).  It is
  keyed on (core_radius, air_fill_fraction), because length and n2 do not
  enter the dispersion, built on first use, and agrees with the exact solve
  to a few 1e-14 absolute.
* beta1 = (n + n_x) / c and beta2 = (n_x + n_xx) / (c omega), with n_x and
  n_xx the x-derivatives of n_eff, come from the table's analytic
  derivatives for every input, scalars included.
* Mode profiles take (u, w) from the exact solve; they and the effective
  areas built from them are cached per geometry too.

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

A ``taylor_coefficients`` model replaces k(omega) by a Taylor polynomial
around a reference frequency (coefficients beta_n in s^n/m, factorial
convention); it decouples tests from the mode solver and allows engineered
dispersion.  Geometry-derived quantities (profiles, effective area, gamma)
still use the step-index machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backend import kernels
from .constants import (C, SELLMEIER_RANGE_UM, N2_SILICA_DEFAULT,
                        omega_from_um, um_from_omega)
from .errors import ModeCutoffError, OverlapError, WavelengthRangeError
from .numerics import bracket_root, find_root, integrate_1d

# n_eff table: equal panels in ln(omega) over the Sellmeier window, Chebyshev
# nodes and fitted polynomial degree per panel, and the smallest array query
# it serves
_TABLE_PANELS = 32
_TABLE_NODES = 16
_TABLE_DEGREE = 11
_TABLE_MIN_POINTS = 4
# entries of the per-geometry cache of exact scalar n_eff
_SCALAR_CACHE_SIZE = 4096


@dataclass(frozen=True)
class TaylorDispersion:
    """Polynomial k(omega) model: beta_n in s^n/m, factorial convention."""

    reference_frequency: float            # rad/s
    beta_coefficients: tuple              # (beta0, beta1, ...) at least two

    def __post_init__(self):
        object.__setattr__(self, "beta_coefficients",
                           tuple(float(b) for b in self.beta_coefficients))
        if len(self.beta_coefficients) < 2:
            raise ValueError("need at least beta0 and beta1")
        if not all(math.isfinite(b) for b in self.beta_coefficients):
            raise ValueError("beta coefficients must be finite")
        if not self.reference_frequency > 0:
            raise ValueError("reference frequency must be positive")

    def k(self, omega, deriv=0):
        """deriv-th frequency derivative of k at omega (Horner evaluation)."""
        d = np.asarray(omega, dtype=float) - self.reference_frequency
        n_terms = len(self.beta_coefficients) - deriv
        if n_terms <= 0:
            return float(d * 0.0) if d.ndim == 0 else d * 0.0
        coeffs = [self.beta_coefficients[m + deriv] / math.factorial(m)
                  for m in range(n_terms)]
        out = np.zeros_like(d)
        for c in reversed(coeffs):
            out = out * d + c
        if out.ndim == 0:
            return float(out)
        return out


@dataclass(frozen=True)
class FiberSpec:
    """Fiber geometry and nonlinearity; all lengths in SI meters."""

    core_radius: float                    # m
    air_fill_fraction: float
    length: float                         # m
    n2_kerr: float = N2_SILICA_DEFAULT    # m^2/W
    model: str = "step_index_pcf"         # or "taylor_coefficients"
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
        if self.model not in ("step_index_pcf", "taylor_coefficients"):
            raise ValueError(f"unknown dispersion model: {self.model}")
        if self.model == "taylor_coefficients" and self.taylor is None:
            raise ValueError("taylor_coefficients model needs taylor data")


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
    # read-only float64 samples for inspection/plots, left out of eq/hash
    radial_grid: np.ndarray = field(compare=False)        # [m]
    radial_amplitude: np.ndarray = field(compare=False)   # at radial_grid

    def amplitude(self, rho):
        """Exact normalized amplitude at radius rho [m] (scalar or array)."""
        from scipy.special import j0 as _j0, k0 as _k0
        arr = np.atleast_1d(np.asarray(rho, dtype=float))
        r = self.core_radius
        inside = arr < r
        out = np.empty_like(arr)
        out[inside] = _j0(self.u * arr[inside] / r) / _j0(self.u)
        out[~inside] = _k0(self.w * arr[~inside] / r) / _k0(self.w)
        out *= self.norm
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
        offending = np.atleast_1d(lam_um)[np.atleast_1d(bad)][0]
        raise WavelengthRangeError(
            f"wavelength {offending:.4f} um outside Sellmeier validity "
            f"[{lo}, {hi}] um")


def _checked_omega(omega):
    """Frequencies as a flat array, after the Sellmeier range check."""
    om = np.ravel(np.asarray(omega, dtype=float))
    _check_sellmeier_range(um_from_omega(om))
    return om


def _require_guided(neff, om):
    if not np.all(np.isfinite(neff)):
        bad = om[~np.isfinite(neff)][0]
        raise ModeCutoffError(
            f"fundamental-mode solve failed at omega={bad:.6e} rad/s "
            f"(lambda={um_from_omega(bad):.4f} um)")


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
    coeffs[d, k] the coefficients of d^d n_eff / dx^d on panel k.  A panel
    holding a failed solve holds NaN and fails the guidance check on query.
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
    coeffs.setflags(write=False)
    return om_lo, 1.0 / width, coeffs


def _table_eval(om, fiber, order):
    """n_eff and its first ``order`` x-derivatives, shape (order + 1, n).

    ``om`` is a checked flat array.  Each point is evaluated on its own, so
    a value does not depend on the other points of the query.
    """
    om_lo, per_x, coeffs = _neff_table(fiber.core_radius,
                                       fiber.air_fill_fraction)
    s = np.log(om / om_lo) * per_x
    k = np.minimum(s.astype(np.intp), _TABLE_PANELS - 1)
    powers = np.vander(2.0 * (s - k) - 1.0, _TABLE_DEGREE + 1,
                       increasing=True)
    out = (coeffs[:order + 1, k] * powers).sum(axis=-1)
    _require_guided(out[0], om)
    return out


def _exact_solve(omega, core_radius, fill):
    """Exact (neff, u, w) flat arrays, after the range and guidance checks."""
    om = _checked_omega(omega)
    neff, u, w = kernels.he11_solve(om, core_radius, fill)
    _require_guided(neff, om)
    return neff, u, w


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


def _index_and_group_slowness(omega, fiber):
    """(n_eff, beta1) of the step-index model from the table."""
    n, n_x = _table_derivatives(omega, fiber, 1)
    return n, (n + n_x) / C


@lru_cache(maxsize=_SCALAR_CACHE_SIZE)
def _neff_scalar_cached(omega, core_radius, fill):
    return float(_exact_solve(omega, core_radius, fill)[0][0])


def effective_index(omega, fiber):
    """Effective index of the fundamental mode (scalar or array omega)."""
    if fiber.model == "taylor_coefficients":
        k = fiber.taylor.k(omega)
        return k * C / omega
    om = np.asarray(omega, dtype=float)
    if om.ndim == 0:
        return _neff_scalar_cached(float(om), fiber.core_radius,
                                   fiber.air_fill_fraction)
    return _solve_step_index(om, fiber).reshape(om.shape)


def beta(omega, fiber):
    """Propagation constant k(omega) [1/m]."""
    if fiber.model == "taylor_coefficients":
        return fiber.taylor.k(omega)
    return effective_index(omega, fiber) * np.asarray(omega, dtype=float) / C


def _as_result(x):
    return float(x) if np.ndim(x) == 0 else x


def beta1(omega, fiber):
    """First frequency derivative of k [s/m]: (n + dn/dx) / c, x = ln omega."""
    if fiber.model == "taylor_coefficients":
        return fiber.taylor.k(omega, deriv=1)
    return _as_result(_index_and_group_slowness(omega, fiber)[1])


def beta2(omega, fiber):
    """Second frequency derivative of k [s^2/m]: (n_x + n_xx) / (c omega)."""
    if fiber.model == "taylor_coefficients":
        return fiber.taylor.k(omega, deriv=2)
    _n, n_x, n_xx = _table_derivatives(omega, fiber, 2)
    return _as_result((n_x + n_xx) / (C * np.asarray(omega, dtype=float)))


def find_zero_dispersion(fiber, wavelength_range_um=(0.4, 1.6), points=240):
    """All zero crossings of beta2 in the range, ascending in wavelength [um].

    Sign-scan on an even wavelength grid followed by bracketed root
    refinement in omega.  An empty list means no zero-dispersion point.
    """
    lo_um, hi_um = wavelength_range_um
    if fiber.model != "taylor_coefficients":
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
    under the Taylor dispersion model, so fibers that differ only in length,
    n2 or dispersion model share one profile object.
    """
    return _mode_profile(float(omega), fiber.core_radius,
                         fiber.air_fill_fraction)


@lru_cache(maxsize=4096)
def _mode_profile(omega, core_radius, fill):
    _neff, u, w = _exact_solve(omega, core_radius, fill)
    u, w = float(u[0]), float(w[0])
    r = core_radius

    from scipy.special import j0 as _j0, k0 as _k0
    raw_in = lambda rho: _j0(u * rho / r) / _j0(u)
    raw_out = lambda rho: _k0(w * rho / r) / _k0(w)
    rho_max = r * (1.0 + 42.0 / w)
    n_in = integrate_1d(lambda rho: raw_in(rho) ** 2 * rho, 0.0, r,
                        vectorized=True)
    n_out = integrate_1d(lambda rho: raw_out(rho) ** 2 * rho, r, rho_max,
                         vectorized=True)
    norm2 = 2 * math.pi * (n_in.value + n_out.value)
    norm = 1.0 / math.sqrt(norm2)

    grid = np.linspace(0.0, rho_max, 257)
    inside = grid < r
    samples = np.empty_like(grid)
    samples[inside] = raw_in(grid[inside])
    samples[~inside] = raw_out(grid[~inside])
    samples *= norm
    grid.setflags(write=False)
    samples.setflags(write=False)
    return ModeProfile(carrier_frequency=omega, core_radius=r, u=u, w=w,
                       norm=norm, radial_grid=grid, radial_amplitude=samples)


def effective_area(profiles):
    """Effective interaction area [m^2] of four normalized mode profiles.

    1 / (2 pi Int f1 f2 f3 f4 rho drho); the order of the profiles does not
    matter because the integrand is a plain product.
    """
    if len(profiles) != 4:
        raise ValueError("effective_area takes exactly four profiles")
    r = profiles[0].core_radius
    if any(abs(p.core_radius - r) > 1e-12 * r for p in profiles):
        raise ValueError("profiles must share the fiber geometry")
    rho_max = min(p.outer_extent for p in profiles)

    def product(rho):
        out = np.ones_like(rho)
        for p in profiles:
            out = out * p.amplitude(rho)
        return out * rho

    inner = integrate_1d(product, 0.0, r, vectorized=True)
    outer = integrate_1d(product, r, rho_max, vectorized=True)
    overlap = 2 * math.pi * (inner.value + outer.value)
    if not (overlap > 0 and math.isfinite(overlap)):
        raise OverlapError(f"vanishing four-mode overlap: {overlap}")
    return 1.0 / overlap


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
