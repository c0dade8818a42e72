"""Mode-solve kernels in NumPy and plain floats.

``he11_solve`` finds the fundamental-mode effective index of a step-index
fiber from the exact vectorial characteristic equation (azimuthal order 1).
Writing X = J1'(u)/(u J1(u)), Y = K1'(w)/(w K1(w)) and q = (ncl/nco)^2:

    G(b) = (X + Y)(X + qY) - (1/u^2 + 1/w^2)(1/u^2 + q/w^2) = 0

with u = V sqrt(1-b), w = V sqrt(b).  The fundamental root is the unique
zero with u below the first zero of J1, where G runs from +inf (at the low-b
edge) to -inf (at b -> 1); 10 bisection steps localize it and 6 safeguarded
Newton steps (analytic dG/db, no extra Bessel evaluations) polish to machine
precision.  Near b -> 0 (thin cores in the far infrared) Newton creeps up
from a tiny b and those steps stop short, so every element that still fails
the residual test |G| <= 1e-13 max(|G'|, 1) continues with up to
_POLISH_STEPS rtsafe steps (Press et al., Numerical Recipes).

``he11_solve_seeded`` answers the same query with one Newton step from a
seed of b (the n_eff table's, in ``dispersion``): 1 evaluation of G and G'
in place of 17.  A point whose seed is NaN or outside the guided bracket,
fails the residual test, or steps out of the bracket takes the ladder.  On
fibers A and B below 2 um the step lands within one ULP of the ladder's
n_eff; where the ladder stops at its residual test they agree to that test.

The ladder and the seeded step (one body, ``_ladder``) run on one of two
sets of element-wise operations: NumPy's for arrays, and floats for queries
of fewer than _VECTOR_MIN_POINTS points (``_each``), where each NumPy call
would cost more than its arithmetic.  Besides exp and log they use only
IEEE-exact arithmetic (+, -, *, /, sqrt; cubes written as products), so a
point gets the same bits either way.  Where a float raises and NumPy does
not, the float path evaluates again in np.float64, and its Newton quotient
is NumPy's, so inf, NaN and their warnings stay NumPy's.

J0, J1, K0 and K1 are the Cephes algorithms that scipy.special wraps, with
its bits: rational forms for J0 and J1 (x <= 5 holds u < 3.8317 and the
core amplitude's u rho / r) and Chebyshev series for K0 and K1, in floats
(``_j01_float``, ``_k01_float``) and for arrays (``j01``, ``k01``).  Both
take exp and log from libm: ``math``, and for arrays NumPy's complex exp
and math.log per element, because NumPy's real exp and log take SIMD paths
that differ from libm in the last bit on some arguments.

``dispersion`` calls this module directly; ``active_backend`` names it in
run manifests.
"""
import math
import operator

import numpy as np

C = 299792458.0
J1_FIRST_ZERO = 3.8317059702075125

_BISECT_STEPS = 10
_NEWTON_STEPS = 6
_POLISH_STEPS = 48
_VECTOR_MIN_POINTS = 4


def _hex(block):
    return tuple(map(float.fromhex, block.split()))


# Coefficients of the Cephes library (S. L. Moshier, Methods and Programs
# for Mathematical Functions, 1989).  For x <= 5, J0 and J1 are rational in
# z = x^2: numerator RP, denominator RQ (stored with its leading 1), times
# (z - DR1)(z - DR2) for J0 and x (z - Z1)(z - Z2) for J1.  K0 and K1 are
# Chebyshev series: A in x^2 - 2, with I0 and I1 from their series A in
# x/2 - 2, for x <= 2, and B in 8/x - 2 above.
_J0_RP = _hex("""-0x1.1dc53ad1c8325p+32 0x1.c7751c772990dp+40
    -0x1.c5614e0d900f7p+47 0x1.13ef869ff5fb4p+53""")
_J0_RQ = (1.0,) + _hex("""0x1.f3902a696b78cp+8 0x1.536cb36a21a67p+17
    0x1.719342eac0634p+25 0x1.4d5b009444914p+33 0x1.ebeb372182e46p+40
    0x1.1a6a28c9748e9p+48 0x1.c41417e7b2e9cp+54 0x1.7be34c7b662ccp+60""")
_J0_DR1, _J0_DR2 = _hex("0x1.721fb80462bbbp+2 0x1.e78a4a621dd6fp+4")
_J1_RP = _hex("""-0x1.ad23c4cda4fc5p+29 0x1.a52ba0d438c6bp+38
    -0x1.08a92e6ccf175p+46 0x1.a2b42a697c482p+51""")
_J1_RQ = (1.0,) + _hex("""0x1.366b11b7086e7p+9 0x1.f5eda0dd701b2p+17
    0x1.3e954dc92a1b1p+26 0x1.4a13f7befeac1p+34 0x1.146fb8076ffa8p+42
    0x1.64b0a3eccf45fp+49 0x1.3e0bff4653f81p+56 0x1.2779576702939p+62""")
_J1_Z1, _J1_Z2 = _hex("0x1.d5d2b4189822cp+3 0x1.89bf66072a432p+5")
_K0_A = _hex("""0x1.3cee1e6a7fd77p-53 0x1.7fb0ac384c2aap-45
    0x1.6c25c47512144p-37 0x1.05c1367e58a13p-29 0x1.102bce7f95efcp-22
    0x1.7f900fe8cfca0p-16 0x1.4b82e75633d73p-10 0x1.26bf6554a9085p-5
    0x1.608d881213db9p-2 -0x1.12166e9d2f61fp-1""")
_K1_A = _hex("""-0x1.032283d3cda56p-57 -0x1.5dd517a0399e0p-49
    -0x1.77502ddd0e045p-41 -0x1.3663bb84626cap-33 -0x1.7c41d145c31d0p-26
    -0x1.469b32c832e3ap-19 -0x1.6ade2e5a3bd02p-13 -0x1.c92939d7d4192p-8
    -0x1.f637243c1db74p-4 -0x1.69a1b757b0dd4p-2 0x1.867a1361008cap+0""")
_K0_B = _hex("""0x1.871a5cf8c9ee1p-58 -0x1.2fecc93812603p-56
    0x1.e092e41a8cdf4p-55 -0x1.82f9474d77641p-53 0x1.3dbf96b94785bp-51
    -0x1.0a690ecfadd36p-49 0x1.c8d9c4a7ddc98p-48 -0x1.9145ebb056fc2p-46
    0x1.69c4ecd94cfe2p-44 -0x1.4f87721a470d1p-42 0x1.40fa32fccfc25p-40
    -0x1.3dafc3f005143p-38 0x1.46808475fbcc7p-36 -0x1.5df95d2e7c935p-34
    0x1.8956c819ff608p-32 -0x1.d29d5f22bf5dbp-30 0x1.269a0033f428ep-27
    -0x1.905541b54f2afp-25 0x1.2915981e3e46fp-22 -0x1.ebb547f18d3a9p-20
    0x1.d413fcc7470a9p-17 -0x1.0d797e7889f42p-13 0x1.9b891fca79342p-10
    -0x1.019f72d4ff71ep-5 0x1.385bd9f4e6907p+1""")
_K1_B = _hex("""-0x1.a8c5d42c43a08p-58 0x1.4af1a838f5ed3p-56
    -0x1.0661517771d52p-54 0x1.a7d5e44ee2c0bp-53 -0x1.5d2a3d8758ef2p-51
    0x1.25cedefee81bdp-49 -0x1.f9d52364185abp-48 0x1.be3e959151f65p-46
    -0x1.94465d4cbcfb3p-44 0x1.78ffa040ab0b1p-42 -0x1.6adec61fc88f8p-40
    0x1.69ab846c04f10p-38 -0x1.76b539401ce7bp-36 0x1.956d008a42f6ap-34
    -0x1.ccbc00365cf27p-32 0x1.14f242a73d24ep-29 -0x1.637a49fe1e088p-27
    0x1.ed27c668fc461p-25 -0x1.780528fada5c6p-22 0x1.42fe31752d1b6p-19
    -0x1.44d711dcdb2e5p-16 0x1.9965888f6908ep-13 -0x1.76946be66b48ap-9
    0x1.a9abef9e023fbp-4 0x1.5c3d7aa062c8ap+1""")
_I0_A = _hex("""-0x1.45cb72134d0efp-58 0x1.33362977da589p-55
    -0x1.184eb721ebbb4p-52 0x1.ee6d893f65ebap-50 -0x1.a5022c297fbebp-47
    0x1.59b464b262627p-44 -0x1.1164c62ee1af0p-41 0x1.9fe2fe19bd324p-39
    -0x1.2fc957a946abcp-36 0x1.a98becc743c10p-34 -0x1.1d4fe13ae9556p-31
    0x1.6d903a454cb34p-29 -0x1.beaf68c0b30abp-27 0x1.03b769d4d6435p-24
    -0x1.1ec638f227f8dp-22 0x1.2bf24978cf4acp-20 -0x1.2866fcba56427p-18
    0x1.13f58be9a2859p-16 -0x1.e2b2659c41d5ap-15 0x1.8b51b74107cabp-13
    -0x1.2e2fd1f15eb52p-11 0x1.adc758a12100ep-10 -0x1.1b65e201aa849p-8
    0x1.59961f3dde3ddp-7 -0x1.84e9ef121b6f0p-6 0x1.93e8acea8a32dp-5
    -0x1.84b70342d06eap-4 0x1.5f7ac77ac88c0p-3 -0x1.37febc057cd8dp-2
    0x1.5a84e9035a22ap-1""")
_I1_A = _hex("""0x1.99f2a0c3c4014p-59 -0x1.857d0c38a0576p-56
    0x1.663e3e593bfacp-53 -0x1.3eaaa7e0d1573p-50 0x1.11d7f0615290cp-47
    -0x1.c628e1c8f0b3bp-45 0x1.6af784779d955p-42 -0x1.173835fb70366p-39
    0x1.9cee2b21d3154p-37 -0x1.2510397eb07dep-34 0x1.8ea34b43fdf6cp-32
    -0x1.0361b28ea67e6p-29 0x1.4258e02395010p-27 -0x1.7dd3e24b8c3e8p-25
    0x1.ae344b347d108p-23 -0x1.cc0798363992ap-21 0x1.d1c4ed511afc5p-19
    -0x1.bd5f9b8debbcfp-17 0x1.911b542c70d0bp-15 -0x1.533cad3d694fep-13
    0x1.0c95db6c6df7dp-11 -0x1.8cc620b3cd4a4p-10 0x1.1065349d3a1b4p-8
    -0x1.5a29f7913a26ap-7 0x1.951e3e7bb2349p-6 -0x1.b1bbc537c9ebcp-5
    0x1.a46dad536f53cp-4 -0x1.694d10469192ep-3 0x1.02a63724a7ffap-2""")


def _columns(*series):
    """Coefficient k of every series as row k, shape (terms, series, 1); a
    shorter series is led by zeros, which keep Horner's and Clenshaw's bits."""
    n = max(map(len, series))
    return np.array([(0.0,) * (n - len(s)) + s for s in series]).T[..., None]


# series of an array evaluation, stacked; the first two serve J0 or K0 alone
_J_PQ = _columns(_J0_RP, _J0_RQ, _J1_RP, _J1_RQ)
_K_AI = _columns(_K0_A, _I0_A, _K1_A, _I1_A)         # at x^2 - 2, x/2 - 2
_K_B = _columns(_K0_B, _K1_B)


def _polevl(x, coeffs):
    """Horner's sum, highest power first (Cephes polevl; p1evl with a 1)."""
    p = coeffs[0]
    for c in coeffs[1:]:
        p = p * x + c
    return p


def _chbevl(x, coeffs):
    """Clenshaw's sum of a Chebyshev series at x (Cephes chbevl)."""
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b0, b1, b2 = x * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def _j01_float(x):
    """(J0(x), J1(x)) of a float 0 <= x <= 5."""
    z = x * x
    j0 = ((z - _J0_DR1) * (z - _J0_DR2) * _polevl(z, _J0_RP)
          / _polevl(z, _J0_RQ))
    j1 = (_polevl(z, _J1_RP) / _polevl(z, _J1_RQ) * x * (z - _J1_Z1)
          * (z - _J1_Z2))
    return (1.0 - z / 4.0 if x < 1e-5 else j0), j1


def _k01_float(x):
    """(K0(x), K1(x)) of a float x > 0."""
    if x <= 2.0:
        y, t = x * x - 2.0, x / 2.0 - 2.0
        e, lg = math.exp(x), math.log(0.5 * x)
        return (_chbevl(y, _K0_A) - lg * (e * _chbevl(t, _I0_A)),
                lg * (_chbevl(t, _I1_A) * x * e) + _chbevl(y, _K1_A) / x)
    z, e, s = 8.0 / x - 2.0, math.exp(-x), math.sqrt(x)
    return e * _chbevl(z, _K0_B) / s, e * _chbevl(z, _K1_B) / s


def j01(x, rows=2):
    """J0 and, if rows == 2, J1 of an array 0 <= x <= 5, shape (rows,) +
    x.shape: ``_j01_float`` of every element, bit for bit."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    z = flat * flat
    pq = _polevl(z, _J_PQ[:, :2 * rows])
    out = [np.where(flat < 1e-5, 1.0 - z / 4.0,
                    (z - _J0_DR1) * (z - _J0_DR2) * pq[0] / pq[1])]
    if rows == 2:
        out.append(pq[2] / pq[3] * flat * (z - _J1_Z1) * (z - _J1_Z2))
    return np.array(out).reshape((rows,) + x.shape)


def _k01_small(x, rows):
    a = _chbevl(np.array([x * x - 2.0, x / 2.0 - 2.0] * rows),
                _K_AI[:, :2 * rows])
    e = np.exp(x + 0j).real                 # libm's exp (module docstring)
    lg = np.array([math.log(v) if v > 0 else np.log(v)
                   for v in (0.5 * x).tolist()])
    out = [a[0] - lg * (e * a[1])]
    return out if rows == 1 else out + [lg * (a[3] * x * e) + a[2] / x]


def _k01_large(x, rows):
    return (_chbevl(8.0 / x - 2.0, _K_B[:, :rows]) * np.exp(-x + 0j).real
            / np.sqrt(x))


def k01(x, rows=2):
    """K0 and, if rows == 2, K1 of an array x > 0, shape (rows,) + x.shape:
    ``_k01_float`` of every element, bit for bit."""
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty((rows, x.size))
    small = flat <= 2.0
    for part, branch in ((small, _k01_small), (~small, _k01_large)):
        if part.all():
            out = np.asarray(branch(flat, rows))
        elif part.any():
            out[:, part] = branch(flat[part], rows)
    return out.reshape((rows,) + x.shape)


# (sqrt, (J0, J1), (K0, K1)) for Python floats and for NumPy arguments
_FLOAT_FNS = (math.sqrt, _j01_float, _k01_float)
_NUMPY_FNS = (np.sqrt, j01, k01)

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

    ``fns`` is (sqrt, (J0, J1), (K0, K1)) for the argument type at hand.
    """
    sqrt, j01_, k01_ = fns
    u = V * sqrt(1.0 - b)
    w = V * sqrt(b)
    ju0, ju1 = j01_(u)
    kw0, kw1 = k01_(w)
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


def _ladder(omega, core_radius, fill, ops, seed=None):
    """(neff, u, w) of a float omega or an array, by one set of operations.

    ``ops`` is _FLOAT_OPS or _ARRAY_OPS; the steps are the same, so a point
    gets the same bits from either (see the module docstring).  With a
    ``seed`` of b, one Newton step from it instead, and (neff, u, w, ok):
    ok is False where the seed is NaN or outside the guided bracket, fails
    the residual test |G| <= 1e-13 max(|G'|, 1), or steps out of the
    bracket; such a point keeps an unchecked b inside the bracket.
    """
    where, minimum, maximum, any_, logical_not, full_like, sqrt, quotient = ops
    try:
        ncl, na2, V, q = _guidance(omega, core_radius, fill, sqrt)
    except (ZeroDivisionError, ValueError):
        # a float omega where a float raises: NumPy's inf or NaN, as floats
        ncl, na2, V, q = (float(x) for x in
                          _guidance(np.float64(omega), core_radius, fill))
    u_hi = minimum(V, J1_FIRST_ZERO)
    t = quotient(u_hi, V)
    b_lo = 1.0 - t * t + 1e-12
    b_hi = full_like(b_lo, 1.0 - 1e-12)
    mode = lambda b: (sqrt(ncl * ncl + b * na2), V * sqrt(1.0 - b),
                      V * sqrt(b))

    if seed is not None:
        ok = (seed > b_lo) & (seed < b_hi)
        b = where(ok, seed, 0.5 * (b_lo + b_hi))
        g, gp = _g_and_gprime(b, V, q)
        step = b - quotient(g, gp)
        ok = (ok & (abs(g) <= 1e-13 * maximum(abs(gp), 1.0))
              & (step >= b_lo) & (step <= b_hi))
        return mode(where(ok, step, b)) + (ok,)

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

    return mode(b)


def _each(omega, core_radius, fill, *seed):
    """``_ladder``'s outputs shaped like omega: one array call, or one float
    call per point below _VECTOR_MIN_POINTS points."""
    omega = np.asarray(omega, dtype=float)
    if not 0 < omega.size < _VECTOR_MIN_POINTS:
        return _ladder(omega, core_radius, fill, _ARRAY_OPS, *seed)
    out = np.array([_ladder(om, core_radius, fill, _FLOAT_OPS, *more)
                    for om, *more in zip(omega.ravel().tolist(),
                                         *(np.ravel(a).tolist()
                                           for a in seed))], dtype=float)
    return tuple(out.T.reshape((-1,) + omega.shape))


def he11_solve(omega, core_radius, fill):
    """Fundamental-mode solve for an array of angular frequencies.

    Returns (neff, u, w) arrays shaped like omega.  Caller guarantees the
    Sellmeier range.
    """
    return _each(omega, core_radius, fill)


def he11_solve_seeded(omega, core_radius, fill, seed_omega, seed_b):
    """``he11_solve`` of omega by one Newton step from a seed of b.

    ``seed_b`` holds b = (n^2 - ncl^2) / na2 at the frequencies
    ``seed_omega``, which are omega's own: a seed taken at another
    frequency is not used.  A point that ``_ladder``'s Newton step from its
    seed does not pass takes ``he11_solve`` (see the module docstring).
    """
    omega = np.asarray(omega, dtype=float)
    seed_b = np.where(np.equal(seed_omega, omega), seed_b, np.nan)
    *sol, ok = _each(omega, core_radius, fill, seed_b)
    miss = ~np.asarray(ok, dtype=bool)
    if miss.any():
        for v, ladder in zip(sol, he11_solve(omega[miss], core_radius, fill)):
            v[miss] = ladder
    return tuple(sol)
