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

One ladder body (``_ladder``) serves every query, with one of two sets
of element-wise operations: NumPy's functions for arrays, and a small set
for one Python float (a conditional for ``np.where``, ``min``/``max``,
``math.sqrt``).  ``he11_solve`` runs queries of fewer than
_VECTOR_MIN_POINTS frequencies (scalar root finding, mode profiles) one
point at a time in floats, because on a one-element array each NumPy call
costs more than its arithmetic.  Both evaluate G through the one formula
of ``_g_and_gprime``.  The guidance, math.sqrt and the Bessel ufuncs'
values converted with ``float`` give floats, which round exactly like
NumPy float64, at a fraction of the cost of NumPy-scalar arithmetic.  The
ladder uses only IEEE-exact arithmetic (+, -, *, /, sqrt) besides the
Bessel functions, so a point gets the same bits either way: cubes are
written as products, because NumPy may evaluate an array ``x ** 3`` with a
SIMD pow that differs in the last bit from the libm pow of a scalar, and
on the CPU.  Where a float raises and NumPy does not (a zero divisor, the
root of a negative number), the float path evaluates again in np.float64,
and its Newton quotient g / gp is taken in np.float64, so inf, NaN and
their warnings stay NumPy's.  The bisection steps need only the sign of G
and skip G'.

``he11_solve_seeded`` is ``he11_solve``: the package never calls it, and
it is kept only because benchmark tracing binds it by name.

This is the package's only kernel implementation; ``dispersion`` calls it
directly and ``active_backend`` names it in run manifests.
"""
import math
import operator

import numpy as np
from scipy.special import j0, j1, k0, k1

C = 299792458.0
J1_FIRST_ZERO = 3.8317059702075125

_BISECT_STEPS = 10
_NEWTON_STEPS = 6
_POLISH_STEPS = 48
_VECTOR_MIN_POINTS = 4

# (sqrt, J0, J1, K0, K1) for Python floats and for NumPy arguments; a
# ufunc of a float returns np.float64, so the float path converts back
_FLOAT_FNS = (math.sqrt, lambda x: float(j0(x)), lambda x: float(j1(x)),
              lambda x: float(k0(x)), lambda x: float(k1(x)))
_NUMPY_FNS = (np.sqrt, j0, j1, k0, k1)

# the ladder's element-wise operations (where, minimum, maximum, any,
# logical_not, full_like, sqrt, g / G') for one Python float and for arrays;
# the float quotient is NumPy's, so inf, NaN and their warnings stay NumPy's
_FLOAT_OPS = (lambda cond, x, y: x if cond else y, min, max, bool,
              operator.not_, lambda like, value: value, math.sqrt,
              lambda g, gp: float(np.float64(g) / gp))
_ARRAY_OPS = (np.where, np.minimum, np.maximum, np.any, np.logical_not,
              np.full_like, np.sqrt, np.divide)


def active_backend():
    """Name of the kernel implementation in use (always 'python')."""
    return "python"


def _sellmeier_sum(lam_um):
    """Sum of the three Sellmeier terms, n^2 - 1 (floats or arrays)."""
    l2 = lam_um * lam_um
    return (0.6961663 * l2 / (l2 - 0.0684043 ** 2)
            + 0.4079426 * l2 / (l2 - 0.1162414 ** 2)
            + 0.8974794 * l2 / (l2 - 9.896161 ** 2))


def sellmeier_n(lam_um):
    """Fused-silica refractive index (three-term Sellmeier fit)."""
    return np.sqrt(1.0 + _sellmeier_sum(np.asarray(lam_um, dtype=float)))


def _characteristic(b, V, q, gprime, fns):
    """G(b), and G'(b) or None: the formula of ``_g_and_gprime``.

    ``fns`` is (sqrt, J0, J1, K0, K1) for the argument type at hand.
    """
    sqrt, bj0, bj1, bk0, bk1 = fns
    u = V * sqrt(1.0 - b)
    w = V * sqrt(b)
    ju0 = bj0(u)
    ju1 = bj1(u)
    kw0 = bk0(w)
    kw1 = bk1(w)
    X = (ju0 - ju1 / u) / (u * ju1)
    Y = -(kw0 + kw1 / w) / (w * kw1)
    t1 = 1.0 / (u * u)
    t2 = 1.0 / (w * w)
    A = X + Y
    Bf = X + q * Y
    R = (t1 + t2) * (t1 + q * t2)
    G = A * Bf - R
    if not gprime:
        return G, None

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


def _g_and_gprime(b, V, q, gprime=True):
    """Characteristic function G(b) and its analytic derivative.

    Takes arrays, or a float b with float V and q; the latter runs in
    Python floats (see the module docstring), and falls back to
    np.float64 where a float would raise, so a zero divisor or a negative
    root gives NumPy's inf or NaN.  With ``gprime=False`` (the bisection
    steps, which need only G's sign) G' is skipped and None returned for
    it.
    """
    if type(b) is float:
        try:
            return _characteristic(b, V, q, gprime, _FLOAT_FNS)
        except (ZeroDivisionError, ValueError):
            b = np.float64(b)
    return _characteristic(b, V, q, gprime, _NUMPY_FNS)


def _guidance(omega, core_radius, fill, sqrt=np.sqrt):
    """(ncl, na2, V, q) of the equivalent step-index fiber.

    Arrays by default; ``sqrt=math.sqrt`` keeps a float omega in floats.
    """
    lam_um = 2.0e6 * np.pi * C / omega
    nco = sqrt(1.0 + _sellmeier_sum(lam_um))
    ncl = fill + (1.0 - fill) * nco
    na2 = nco * nco - ncl * ncl
    V = omega / C * core_radius * sqrt(na2)
    ratio = ncl / nco
    return ncl, na2, V, ratio * ratio


def _ladder(omega, core_radius, fill, ops):
    """(neff, u, w) of a float omega or an array, by one set of operations.

    ``ops`` is _FLOAT_OPS or _ARRAY_OPS; the steps are the same, so a point
    gets the same bits from either (see the module docstring).
    """
    where, minimum, maximum, any_, logical_not, full_like, sqrt, quotient = ops
    try:
        ncl, na2, V, q = _guidance(omega, core_radius, fill, sqrt)
    except (ZeroDivisionError, ValueError):
        # a float omega where a float raises: NumPy's inf or NaN, as floats
        ncl, na2, V, q = (float(x) for x in
                          _guidance(np.float64(omega), core_radius, fill))
    u_hi = minimum(V, J1_FIRST_ZERO)
    t = u_hi / V
    b_lo = 1.0 - t * t + 1e-12
    b_hi = full_like(b_lo, 1.0 - 1e-12)

    for _ in range(_BISECT_STEPS):
        bm = 0.5 * (b_lo + b_hi)
        g, _ = _g_and_gprime(bm, V, q, gprime=False)
        pos = g > 0.0
        b_lo = where(pos, bm, b_lo)
        b_hi = where(pos, b_hi, bm)

    b = 0.5 * (b_lo + b_hi)
    for _ in range(_NEWTON_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        pos = g > 0.0
        b_lo = where(pos, b, b_lo)
        b_hi = where(pos, b_hi, b)
        step = b - quotient(g, gp)
        inside = (step >= b_lo) & (step <= b_hi)
        b = where(inside, step, 0.5 * (b_lo + b_hi))

    # rtsafe polish of the elements the fixed steps left short of the
    # residual test |G| <= 1e-13 max(|G'|, 1) (see the module docstring);
    # 48 steps cover plain bisection of the unit bracket down to 4e-15
    dx_old = b_hi - b_lo
    for _ in range(_POLISH_STEPS):
        g, gp = _g_and_gprime(b, V, q)
        todo = logical_not(abs(g) <= 1e-13 * maximum(abs(gp), 1.0))
        if not any_(todo):
            break
        pos = g > 0.0
        b_lo = where(pos, b, b_lo)
        b_hi = where(pos, b_hi, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = quotient(g, gp)
        step = b - dx
        newton = ((step >= b_lo) & (step <= b_hi)
                  & (abs(2.0 * dx) <= abs(dx_old)))
        b_new = where(newton, step, 0.5 * (b_lo + b_hi))
        dx_old = where(todo, b_new - b, dx_old)
        b = where(todo, b_new, b)

    u = V * sqrt(1.0 - b)
    w = V * sqrt(b)
    neff = sqrt(ncl * ncl + b * na2)
    return neff, u, w


def he11_solve(omega, core_radius, fill):
    """Fundamental-mode solve for an array of angular frequencies.

    Returns (neff, u, w) arrays shaped like omega.  Caller guarantees the
    Sellmeier range.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.size >= _VECTOR_MIN_POINTS:
        return _ladder(omega, core_radius, fill, _ARRAY_OPS)
    sol = [_ladder(om, core_radius, fill, _FLOAT_OPS)
           for om in omega.ravel().tolist()]
    out = np.array(sol, dtype=float).reshape(omega.shape + (3,))
    return out[..., 0], out[..., 1], out[..., 2]


def he11_solve_seeded(omega, core_radius, fill, seed_omega, seed_b):
    """``he11_solve`` of omega; the b(omega) seed table is not used.

    Kept because benchmark tracing binds the name (see the module
    docstring).
    """
    return he11_solve(omega, core_radius, fill)
