"""Mode-solve kernels in NumPy and plain floats.

``he11_solve`` finds the fundamental-mode effective index of a step-index
fiber from the exact vectorial characteristic equation (azimuthal order 1).
Writing X = J1'(u)/(u J1(u)), Y = K1'(w)/(w K1(w)) and q = (ncl/nco)^2:

    G(b) = (X + Y)(X + qY) - (1/u^2 + 1/w^2)(1/u^2 + q/w^2) = 0

with u = V sqrt(1-b), w = V sqrt(b).  The fundamental root is the unique
zero with u below the first zero of J1, where G runs from +inf (at the low-b
edge) to -inf (at b -> 1); 10 bisection steps localize it and 6 safeguarded
Newton steps (analytic dG/db, no extra Bessel evaluations) polish to machine
precision.  Near b -> 0 (thin cores in the far infrared, e.g. r = 0.5 um,
f = 0.6 beyond about 2.9 um) Newton creeps up from a tiny b and those steps
stop short, so every element that still fails the residual test
|G| <= 1e-13 max(|G'|, 1) continues with up to _POLISH_STEPS rtsafe steps
(Press et al., Numerical Recipes): Newton while it stays inside the bracket
and at least halves the previous step, bisection otherwise.  Elements that
pass the test after the fixed steps are left untouched.

Queries of fewer than _VECTOR_MIN_POINTS frequencies (scalar root finding,
mode profiles) run the same ladder one point at a time in plain floats
(``_solve_one``), because on a one-element array each NumPy call costs more
than its arithmetic; larger queries run it element-wise on arrays.  Both
evaluate G through the one ``_g_and_gprime``, and the ladder uses only
IEEE-exact arithmetic (+, -, *, /, sqrt) besides the Bessel functions, so
a point gets the same bits either way: cubes are written as products,
because NumPy may evaluate an array ``x ** 3`` with a SIMD pow that
differs in the last bit from the libm pow of a scalar, and on the CPU.

``he11_solve_seeded`` (Newton seeded from a b(omega) table, with a checked
fallback to ``he11_solve``) is not used by the package, whose array
queries read a Chebyshev table built from ``he11_solve`` (see
``dispersion``).  It is kept because benchmark tracing binds it by name.
"""
import math

import numpy as np
from scipy.special import j0, j1, k0, k1

C = 299792458.0
J1_FIRST_ZERO = 3.8317059702075125

_BISECT_STEPS = 10
_NEWTON_STEPS = 6
_POLISH_STEPS = 48
_VECTOR_MIN_POINTS = 4


def sellmeier_n(lam_um):
    """Fused-silica refractive index (three-term Sellmeier fit)."""
    lam_um = np.asarray(lam_um, dtype=float)
    l2 = lam_um * lam_um
    s = (0.6961663 * l2 / (l2 - 0.0684043 ** 2)
         + 0.4079426 * l2 / (l2 - 0.1162414 ** 2)
         + 0.8974794 * l2 / (l2 - 9.896161 ** 2))
    return np.sqrt(1.0 + s)


def _g_and_gprime(b, V, q):
    """Characteristic function G(b) and its analytic derivative.

    Takes arrays or floats; only IEEE-exact arithmetic besides the Bessel
    functions, so a float and an array element get the same bits.
    """
    u = V * np.sqrt(1.0 - b)
    w = V * np.sqrt(b)
    ju0 = j0(u)
    ju1 = j1(u)
    kw0 = k0(w)
    kw1 = k1(w)
    X = (ju0 - ju1 / u) / (u * ju1)
    Y = -(kw0 + kw1 / w) / (w * kw1)
    t1 = 1.0 / (u * u)
    t2 = 1.0 / (w * w)
    A = X + Y
    Bf = X + q * Y
    R = (t1 + t2) * (t1 + q * t2)
    G = A * Bf - R

    # dX/du and dY/dw via the Bessel ODEs; du/db = -V^2/(2u), dw/db = V^2/(2w)
    Xp = -2.0 * X / u - u * X * X - 1.0 / u + 1.0 / (u * u * u)
    Yp = -2.0 * Y / w - w * Y * Y + 1.0 / w + 1.0 / (w * w * w)
    V2 = V * V
    dX_db = Xp * (-V2 / (2.0 * u))
    dY_db = Yp * (V2 / (2.0 * w))
    dA = dX_db + dY_db
    dB = dX_db + q * dY_db
    dt1 = V2 * t1 * t1
    dt2 = -V2 * t2 * t2
    dR = (dt1 + dt2) * (t1 + q * t2) + (t1 + t2) * (dt1 + q * dt2)
    Gp = dA * Bf + A * dB - dR
    return G, Gp


def _converged(g, gp):
    """Residual test shared by both solvers: |G| <= 1e-13 max(|G'|, 1)."""
    return np.abs(g) <= 1e-13 * np.maximum(np.abs(gp), 1.0)


def _guidance(omega, core_radius, fill):
    """(ncl, na2, V, q) of the equivalent step-index fiber (floats or arrays)."""
    lam_um = 2.0e6 * np.pi * C / omega
    nco = sellmeier_n(lam_um)
    ncl = fill + (1.0 - fill) * nco
    na2 = nco * nco - ncl * ncl
    V = omega / C * core_radius * np.sqrt(na2)
    ratio = ncl / nco
    return ncl, na2, V, ratio * ratio


def he11_solve(omega, core_radius, fill):
    """Fundamental-mode solve for an array of angular frequencies.

    Returns (neff, u, w) arrays shaped like omega.  Caller guarantees the
    Sellmeier range.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.size < _VECTOR_MIN_POINTS:
        sol = [_solve_one(om, core_radius, fill) for om in omega.ravel().tolist()]
        out = np.array(sol, dtype=float).reshape(omega.shape + (3,))
        return out[..., 0], out[..., 1], out[..., 2]

    ncl, na2, V, q = _guidance(omega, core_radius, fill)
    u_hi = np.minimum(V, J1_FIRST_ZERO)
    t = u_hi / V
    b_lo = 1.0 - t * t + 1e-12
    b_hi = np.full_like(b_lo, 1.0 - 1e-12)

    for _ in range(_BISECT_STEPS):
        bm = 0.5 * (b_lo + b_hi)
        g, _gp = _g_and_gprime(bm, V, q)
        pos = g > 0.0
        b_lo = np.where(pos, bm, b_lo)
        b_hi = np.where(pos, b_hi, bm)

    b = 0.5 * (b_lo + b_hi)
    for _ in range(_NEWTON_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        pos = g > 0.0
        b_lo = np.where(pos, b, b_lo)
        b_hi = np.where(pos, b_hi, b)
        step = b - g / gp
        inside = (step >= b_lo) & (step <= b_hi)
        b = np.where(inside, step, 0.5 * (b_lo + b_hi))

    # rtsafe polish of the elements the fixed steps left short of the
    # residual test (see the module docstring); 48 steps cover plain
    # bisection of the unit bracket down to 4e-15
    dx_old = b_hi - b_lo
    for _ in range(_POLISH_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        todo = ~_converged(g, gp)
        if not np.any(todo):
            break
        pos = g > 0.0
        b_lo = np.where(pos, b, b_lo)
        b_hi = np.where(pos, b_hi, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = g / gp
        step = b - dx
        newton = ((step >= b_lo) & (step <= b_hi)
                  & (np.abs(2.0 * dx) <= np.abs(dx_old)))
        b_new = np.where(newton, step, 0.5 * (b_lo + b_hi))
        dx_old = np.where(todo, b_new - b, dx_old)
        b = np.where(todo, b_new, b)

    u = V * np.sqrt(1.0 - b)
    w = V * np.sqrt(b)
    neff = np.sqrt(ncl * ncl + b * na2)
    return neff, u, w


def _solve_one(omega, core_radius, fill):
    """(neff, u, w) of one frequency: ``he11_solve``'s ladder in floats.

    Every branch mirrors the element-wise ``np.where`` of the array ladder,
    so the result has the same bits as the array solve of that point.  G and
    G' stay NumPy float64, so a zero G' gives inf and a warning as there.
    """
    ncl, na2, V, q = (float(x) for x in _guidance(omega, core_radius, fill))
    t = min(V, J1_FIRST_ZERO) / V
    b_lo = 1.0 - t * t + 1e-12
    b_hi = 1.0 - 1e-12

    for _ in range(_BISECT_STEPS):
        bm = 0.5 * (b_lo + b_hi)
        if _g_and_gprime(bm, V, q)[0] > 0.0:
            b_lo = bm
        else:
            b_hi = bm

    b = 0.5 * (b_lo + b_hi)
    for _ in range(_NEWTON_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        if g > 0.0:
            b_lo = b
        else:
            b_hi = b
        step = b - g / gp
        b = step if b_lo <= step <= b_hi else 0.5 * (b_lo + b_hi)

    dx_old = b_hi - b_lo
    for _ in range(_POLISH_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        if _converged(g, gp):
            break
        if g > 0.0:
            b_lo = b
        else:
            b_hi = b
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = g / gp
        step = b - dx
        if b_lo <= step <= b_hi and abs(2.0 * dx) <= abs(dx_old):
            b_new = step
        else:
            b_new = 0.5 * (b_lo + b_hi)
        dx_old = b_new - b
        b = b_new

    return (math.sqrt(ncl * ncl + b * na2), V * math.sqrt(1.0 - b),
            V * math.sqrt(b))


def he11_solve_seeded(omega, core_radius, fill, seed_omega, seed_b):
    """Fundamental-mode solve seeded from a precomputed b(omega) table.

    The seed table (built once per fiber with the full ladder) provides a
    Newton starting point accurate to ~1e-4, so four clipped Newton steps
    reach machine precision; the clip window of +-0.02 around the seed is
    far narrower than the separation to the next mode branch.  Elements
    failing the residual check fall back to ``he11_solve``, so results are
    independent of the seeding and match the full ladder to rounding error.
    """
    omega = np.asarray(omega, dtype=float)
    ncl, na2, V, q = _guidance(omega, core_radius, fill)

    seed = np.interp(omega, seed_omega, seed_b)
    clip_lo = np.maximum(seed - 0.02, 1e-12)
    clip_hi = np.minimum(seed + 0.02, 1.0 - 1e-12)
    b = np.clip(seed, clip_lo, clip_hi)
    for _ in range(4):
        g, gp = _g_and_gprime(b, V, q)
        b = np.clip(b - g / gp, clip_lo, clip_hi)

    g, gp = _g_and_gprime(b, V, q)
    bad = ~_converged(g, gp)
    if np.any(bad):
        neff_b, _u, _w = he11_solve(omega[bad], core_radius, fill)
        b = np.array(b, copy=True)
        b[bad] = (neff_b ** 2 - ncl[bad] ** 2) / na2[bad]

    u = V * np.sqrt(1.0 - b)
    w = V * np.sqrt(b)
    neff = np.sqrt(ncl * ncl + b * na2)
    return neff, u, w
