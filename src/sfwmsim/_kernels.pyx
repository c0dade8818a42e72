# cython: boundscheck=False, wraparound=False, cdivision=True, language_level=3
"""Compiled compute kernels (scalar loops over frequency batches).

Mirror of ``_kernels_py``: identical algorithms, iteration counts and
update formulas, so both backends agree to rounding error.  Keep any
algorithmic change synchronized between the two files.
"""
import numpy as np

cimport numpy as cnp
from libc.math cimport ceil, fabs, sqrt, INFINITY
from scipy.special.cython_special cimport j0 as cj0, j1 as cj1
from scipy.special.cython_special cimport k0 as ck0, k1 as ck1

cnp.import_array()

cdef double C = 299792458.0
cdef double PI = 3.141592653589793
J1_FIRST_ZERO = 3.8317059702075125
cdef double J11 = 3.8317059702075125

cdef int BISECT_STEPS = 10
cdef int NEWTON_STEPS = 6
cdef int POLISH_STEPS = 48


cdef inline double _sellmeier_one(double lam_um) nogil:
    cdef double l2 = lam_um * lam_um
    cdef double s = (0.6961663 * l2 / (l2 - 0.0684043 * 0.0684043)
                     + 0.4079426 * l2 / (l2 - 0.1162414 * 0.1162414)
                     + 0.8974794 * l2 / (l2 - 9.896161 * 9.896161))
    return sqrt(1.0 + s)


def sellmeier_n(lam_um):
    """Fused-silica refractive index (three-term Sellmeier fit)."""
    arr = np.atleast_1d(np.asarray(lam_um, dtype=np.float64))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] x = np.ascontiguousarray(arr.ravel())
    cdef cnp.ndarray[cnp.float64_t, ndim=1] out = np.empty_like(x)
    cdef Py_ssize_t i, n = x.shape[0]
    with nogil:
        for i in range(n):
            out[i] = _sellmeier_one(x[i])
    res = out.reshape(arr.shape)
    if np.asarray(lam_um).ndim == 0:
        return res[()]
    return res


cdef inline void _g_gp_one(double b, double V, double q,
                           double *g_out, double *gp_out) nogil:
    cdef double u = V * sqrt(1.0 - b)
    cdef double w = V * sqrt(b)
    cdef double ju0 = cj0(u)
    cdef double ju1 = cj1(u)
    cdef double kw0 = ck0(w)
    cdef double kw1 = ck1(w)
    cdef double X = (ju0 - ju1 / u) / (u * ju1)
    cdef double Y = -(kw0 + kw1 / w) / (w * kw1)
    cdef double t1 = 1.0 / (u * u)
    cdef double t2 = 1.0 / (w * w)
    cdef double A = X + Y
    cdef double Bf = X + q * Y
    cdef double R = (t1 + t2) * (t1 + q * t2)
    g_out[0] = A * Bf - R

    cdef double Xp = -2.0 * X / u - u * X * X - 1.0 / u + 1.0 / (u * u * u)
    cdef double Yp = -2.0 * Y / w - w * Y * Y + 1.0 / w + 1.0 / (w * w * w)
    cdef double V2 = V * V
    cdef double dX_db = Xp * (-V2 / (2.0 * u))
    cdef double dY_db = Yp * (V2 / (2.0 * w))
    cdef double dA = dX_db + dY_db
    cdef double dB = dX_db + q * dY_db
    cdef double dt1 = V2 * t1 * t1
    cdef double dt2 = -V2 * t2 * t2
    cdef double dR = (dt1 + dt2) * (t1 + q * t2) + (t1 + t2) * (dt1 + q * dt2)
    gp_out[0] = dA * Bf + A * dB - dR


cdef inline bint _converged_one(double g, double gp) nogil:
    """Residual test shared by both solvers: |G| <= 1e-13 max(|G'|, 1)."""
    return fabs(g) <= 1e-13 * (fabs(gp) if fabs(gp) > 1.0 else 1.0)


cdef inline double _solve_full_one(double omega, double core_radius,
                                   double fill, double *nco_out,
                                   double *ncl_out, double *V_out) nogil:
    """Bisection, safeguarded Newton and rtsafe polish; returns b."""
    cdef double lam_um = 2.0e6 * PI * C / omega
    cdef double nco = _sellmeier_one(lam_um)
    cdef double ncl = fill + (1.0 - fill) * nco
    cdef double na2 = nco * nco - ncl * ncl
    cdef double V = omega / C * core_radius * sqrt(na2)
    cdef double q = (ncl / nco) * (ncl / nco)

    cdef double u_hi = V if V < J11 else J11
    cdef double b_lo = 1.0 - (u_hi / V) * (u_hi / V) + 1e-12
    cdef double b_hi = 1.0 - 1e-12
    cdef double bm, g, gp, step
    cdef int it
    for it in range(BISECT_STEPS):
        bm = 0.5 * (b_lo + b_hi)
        _g_gp_one(bm, V, q, &g, &gp)
        if g > 0.0:
            b_lo = bm
        else:
            b_hi = bm
    cdef double b = 0.5 * (b_lo + b_hi)
    for it in range(NEWTON_STEPS):
        _g_gp_one(b, V, q, &g, &gp)
        if g > 0.0:
            b_lo = b
        else:
            b_hi = b
        step = b - g / gp
        if step >= b_lo and step <= b_hi:
            b = step
        else:
            b = 0.5 * (b_lo + b_hi)

    # rtsafe polish of a b the fixed steps left short of the residual test
    cdef double dx, dx_old = b_hi - b_lo
    for it in range(POLISH_STEPS):
        _g_gp_one(b, V, q, &g, &gp)
        if _converged_one(g, gp):
            break
        if g > 0.0:
            b_lo = b
        else:
            b_hi = b
        dx = g / gp
        step = b - dx
        if not (step >= b_lo and step <= b_hi
                and fabs(2.0 * dx) <= fabs(dx_old)):
            step = 0.5 * (b_lo + b_hi)
        dx_old = step - b
        b = step
    nco_out[0] = nco
    ncl_out[0] = ncl
    V_out[0] = V
    return b


def he11_solve(omega, core_radius, fill):
    """Fundamental-mode solve for an array of angular frequencies.

    Returns (neff, u, w) arrays.  Caller guarantees the Sellmeier range.
    """
    arr = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] om = np.ascontiguousarray(arr.ravel())
    cdef Py_ssize_t i, n = om.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] neff = np.empty(n)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] uu = np.empty(n)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] ww = np.empty(n)
    cdef double r = core_radius, f = fill
    cdef double b, nco, ncl, V
    with nogil:
        for i in range(n):
            b = _solve_full_one(om[i], r, f, &nco, &ncl, &V)
            uu[i] = V * sqrt(1.0 - b)
            ww[i] = V * sqrt(b)
            neff[i] = sqrt(ncl * ncl + b * (nco * nco - ncl * ncl))
    shape = arr.shape
    return neff.reshape(shape), uu.reshape(shape), ww.reshape(shape)


def he11_solve_seeded(omega, core_radius, fill, seed_omega, seed_b):
    """Fundamental-mode solve seeded from a precomputed b(omega) table.

    Same contract as the NumPy version: linear-interpolated seed, four
    clipped Newton steps, residual check with full-ladder fallback.
    """
    arr = np.atleast_1d(np.asarray(omega, dtype=np.float64))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] om = np.ascontiguousarray(arr.ravel())
    cdef cnp.ndarray[cnp.float64_t, ndim=1] som = np.ascontiguousarray(
        np.asarray(seed_omega, dtype=np.float64))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] sb = np.ascontiguousarray(
        np.asarray(seed_b, dtype=np.float64))
    cdef Py_ssize_t i, n = om.shape[0], m = som.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] neff = np.empty(n)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] uu = np.empty(n)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] ww = np.empty(n)
    cdef double r = core_radius, f = fill
    cdef double lam_um, nco, ncl, na2, V, q, seed, clip_lo, clip_hi
    cdef double b, g, gp, x
    cdef Py_ssize_t lo, hi, mid
    cdef int it
    with nogil:
        for i in range(n):
            x = om[i]
            lam_um = 2.0e6 * PI * C / x
            nco = _sellmeier_one(lam_um)
            ncl = f + (1.0 - f) * nco
            na2 = nco * nco - ncl * ncl
            V = x / C * r * sqrt(na2)
            q = (ncl / nco) * (ncl / nco)

            # np.interp semantics: clamp outside the table
            if x <= som[0]:
                seed = sb[0]
            elif x >= som[m - 1]:
                seed = sb[m - 1]
            else:
                lo = 0
                hi = m - 1
                while hi - lo > 1:
                    mid = (lo + hi) >> 1
                    if som[mid] <= x:
                        lo = mid
                    else:
                        hi = mid
                seed = sb[lo] + (sb[hi] - sb[lo]) * (x - som[lo]) / (som[hi] - som[lo])

            clip_lo = seed - 0.02
            if clip_lo < 1e-12:
                clip_lo = 1e-12
            clip_hi = seed + 0.02
            if clip_hi > 1.0 - 1e-12:
                clip_hi = 1.0 - 1e-12
            b = seed
            if b < clip_lo:
                b = clip_lo
            if b > clip_hi:
                b = clip_hi
            for it in range(4):
                _g_gp_one(b, V, q, &g, &gp)
                b = b - g / gp
                if b < clip_lo:
                    b = clip_lo
                if b > clip_hi:
                    b = clip_hi
            _g_gp_one(b, V, q, &g, &gp)
            if not _converged_one(g, gp):
                b = _solve_full_one(x, r, f, &nco, &ncl, &V)
            uu[i] = V * sqrt(1.0 - b)
            ww[i] = V * sqrt(b)
            neff[i] = sqrt(ncl * ncl + b * (nco * nco - ncl * ncl))
    shape = arr.shape
    return neff.reshape(shape), uu.reshape(shape), ww.reshape(shape)
