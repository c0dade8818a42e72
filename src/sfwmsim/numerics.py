"""Deterministic numerical kernel.

Adaptive Gauss-Legendre quadrature with dyadic panel splitting, nested 2-D
quadrature, bracketed root finding and stable small-argument special
functions.  Everything here is a pure function of its arguments: identical
inputs give bit-identical outputs, panels are processed and accumulated in a
fixed order, and no randomness is used anywhere.

The quadrature evaluates one refinement level per integrand call, because
the integrands pay a large fixed cost per Python call.  One level engine
(``_levels``) keeps every live panel of any number of integrals as rows of
arrays, so a level is one integrand call, one stacked Gauss sum and one
accept/split mask.  ``integrate_1d`` runs one integral and calls ``f`` with
the flat nodes of every panel of a level (values of shape ``(n, *k)``;
array-valued integrands share one refinement, driven by the max-norm).
``integrate_2d_windows`` runs the outer integrals of several windows as one
``_levels`` run, and the inner integrals of all the (window, outer node)
pairs of one outer level together, calling ``f(x, y)`` with one panel per
row (``x`` of shape (panels, 1), ``y`` of shape (panels, order));
``integrate_2d`` is its one-window case.  Batching moves no bits: each
panel sum and running sum rounds as for one integral on its own.  When an
integral of several windows fails to converge, the windows are redone one
at a time, so the error raised is the one a sequential run meets first.

``_levels`` takes one interval per integral, so integrals over different
ranges (the mode-profile normalisations and overlaps of many carriers)
share its levels too.

Root finding has one Brent body, ``_brent``, written as a generator that
yields each abscissa and is sent f there.  ``find_root`` drives one;
``find_roots`` advances many brackets in lockstep, one call of a
vectorised f per step for all of them, and each lane gets the bits of its
own ``find_root``.

``_sinc_phasor_sum`` is the one pump-convolution kernel: it contracts the
phase-matching factor sinc(x) e^{ix} over the pump nodes on rows of
constant frequency sum, where x separates into a per-node phase minus a
per-pair phase.  The joint spectral amplitude (``jsa``, ``jsa_grid``, a
row per pair) and the pulsed integrand of either fiber model take it: one
reciprocal per element, formed in place, with ``_sinc_phasor`` (one sin
and one cos) only for the elements within 1e-3 of x = 0; the caller forms
the per-node phasors once per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, NonConvergenceError

_EPS = float(np.finfo(float).eps)
_NOISE = 64 * _EPS         # relative rounding floor of a split

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and panel policy for the adaptive quadrature."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-30
    max_subdivisions: int = 2000
    panel_order: int = 15

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if not self.abs_tol >= 0:      # rejects NaN too
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.panel_order < 2:
            raise ValueError("panel_order must be >= 2")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: object          # float, complex or ndarray
    error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class RootBracket:
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise BracketError(f"bracket endpoints not ordered: [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0:
            raise BracketError(
                f"no sign change on bracket [{self.lo}, {self.hi}]: "
                f"f(lo)={self.f_lo}, f(hi)={self.f_hi}")


def bracket_root(f, lo, hi):
    """Evaluate ``f`` at the endpoints and build a validated RootBracket."""
    return RootBracket(lo, hi, f(lo), f(hi))


# The default 15-point Gauss-Legendre rule (QuadratureSpec.panel_order),
# as float.hex of np.polynomial.legendre.leggauss(15) gives it (a test pins
# the bits).  As constants, the default integrals depend on no LAPACK build
# and make no eigen-solve, which costs about 0.75 MB of resident memory on
# first use; other orders (the pump rule's) still come from leggauss.
_GAUSS_15_NODES = (
    "-0x1.f9da27c32e6d0p-1", "-0x1.dfe24c4f8b447p-1", "-0x1.b248221fffd63p-1",
    "-0x1.72e6e181ab3c4p-1", "-0x1.245676f08f3a4p-1", "-0x1.939c69257d6b6p-2",
    "-0x1.9c0ba62ef04b5p-3", "0x0.0p+0", "0x1.9c0ba62ef04b5p-3",
    "0x1.939c69257d6b6p-2", "0x1.245676f08f3a4p-1", "0x1.72e6e181ab3c4p-1",
    "0x1.b248221fffd63p-1", "0x1.dfe24c4f8b447p-1", "0x1.f9da27c32e6d0p-1",
)
_GAUSS_15_WEIGHTS = (
    "0x1.f7dc7227a2908p-6", "0x1.2038260b5d03ap-4", "0x1.b6ec9635f1120p-4",
    "0x1.1dd73b4963165p-3", "0x1.5484f30a86ed3p-3", "0x1.7d41fa76dc267p-3",
    "0x1.96633f1fd02cfp-3", "0x1.9ee1575f9c980p-3", "0x1.96633f1fd02cfp-3",
    "0x1.7d41fa76dc267p-3", "0x1.5484f30a86ed3p-3", "0x1.1dd73b4963165p-3",
    "0x1.b6ec9635f1120p-4", "0x1.2038260b5d03ap-4", "0x1.f7dc7227a2908p-6",
)


@lru_cache(maxsize=32)
def _gauss_nodes(order):
    if order == 15:
        return (np.array([float.fromhex(h) for h in _GAUSS_15_NODES]),
                np.array([float.fromhex(h) for h in _GAUSS_15_WEIGHTS]))
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _sin_over(s, x):
    """s / x, with 1 where |x| <= 1e-150 (NaN stays NaN)."""
    return np.divide(s, x, out=np.ones_like(x),
                     where=~(np.abs(x) <= 1e-150))


def _as_result(x):
    return float(x) if np.ndim(x) == 0 else x


def sinc(x):
    """sin(x)/x with the removable singularity filled in (sinc(0) = 1)."""
    x = np.asarray(x, dtype=float)
    return _as_result(_sin_over(np.sin(x), x))


def _sinc_phasor(x, scale):
    """scale * sinc(x) * e^{ix} as one complex array, from one sin and one cos.

    Serves the near-zero terms of ``_sinc_phasor_sum``, where its two
    reciprocal sums cancel.  Bit for bit the same product formed with NumPy's
    complex exp: that exp gives (cos x, sin x) exactly, and a real times a
    complex rounds each part once, so the real factor scale * sinc(x),
    formed first, times cos x and sin x rounds alike, without a second sin,
    complex temporaries or a complex multiply.
    """
    s = np.sin(x)
    t = scale * _sin_over(s, x)
    out = np.empty(t.shape, dtype=complex)
    np.multiply(t, np.cos(x), out=out.real)
    np.multiply(t, s, out=out.imag)
    return out


# |x| below which _sinc_phasor_sum takes sinc(x) e^{ix} directly: the two
# reciprocal terms cancel there, to about eps/|x| of the element
_NEAR_ZERO = 1e-3


def _sinc_phasor_sum(st, q, phi):
    """F[p, j] = sum_k amp[p, k] sinc(x) e^{ix}, x = q[p, k] - phi[p, j].

    ``q`` has shape (P, K) and ``phi`` (P, n); ``st`` (P, 3, K) holds the
    caller's phasor rows [Re(amp e^{2iq}), Im(amp e^{2iq}), amp].  Separable
    through sinc(x) e^{ix} = (e^{2ix} - 1) / (2ix):

        F = [e^{-2i phi} sum_k amp e^{2iq} / x - sum_k amp / x] / (2i),

    so each element costs one subtraction and one reciprocal, formed in
    place.  Both sums are one real stacked ``matmul`` of the phasor rows
    against 1/x, so each row is contracted on its own and equals a one-row
    call bit for bit.  Where |x| < _NEAR_ZERO the two terms cancel; those
    elements take amp sinc(x) e^{ix}, then drop out of the sums (1/x = 0).
    """
    x = q[:, :, None] - phi[:, None, :]
    near = np.abs(x) < _NEAR_ZERO
    any_near = near.any()
    if any_near:
        p, k, j = np.nonzero(near)
        terms = _sinc_phasor(x[p, k, j], st[p, 2, k])
        x[near] = np.inf
    sums = np.matmul(st, np.divide(1.0, x, out=x))
    w = np.exp(-2j * phi)
    F = 0.5j * (sums[:, 2] - w * (sums[:, 0] + 1j * sums[:, 1]))
    if any_near:
        np.add.at(F, (p, j), terms)
    return F


def erf_ratio(x):
    """erf(x)/x, continuous through x = 0.

    Below 1e-4 the Maclaurin series 2/sqrt(pi) (1 - x^2/3 + x^4/10) is used;
    at the switchover it agrees with the direct ratio to well below 1e-12.
    """
    if x < 0:
        raise ValueError("erf_ratio requires x >= 0")
    if x < 1e-4:
        x2 = x * x
        return TWO_OVER_SQRT_PI * (1.0 - x2 / 3.0 + x2 * x2 / 10.0)
    return math.erf(x) / x


def _maxnorm(v):
    """Max-norm of each row of ``v`` (|v| itself for scalar rows)."""
    v = np.abs(v)
    return v if v.ndim == 1 else v.reshape(len(v), -1).max(axis=1)


def _runs(group):
    """First row of each run of equal ``group`` values, and each row's run."""
    first = np.concatenate(([True], group[1:] != group[:-1]))
    return np.flatnonzero(first), np.cumsum(first) - 1


def _take(mask, *arrays):
    return tuple(a[mask] for a in arrays)


def _fold(first, run, rows, init=0.0):
    """``init + r0 + r1 + ...`` over each run of ``rows``, left to right.

    Python's ``sum``, as one sequential ``np.add.accumulate`` over a table
    zero-padded on the right (+0.0 changes no sum that starts from +0.0);
    ``np.sum`` and ``np.add.reduceat`` add pairwise and round differently.
    The result is contiguous: as an outer integrand value with a stride it
    would take BLAS's strided dot, which rounds differently.
    """
    pos = np.arange(run.size) - first[run] + 1
    table = np.zeros((first.size, pos.max() + 1) + rows.shape[1:], rows.dtype)
    table[:, 0] = init
    table[run, pos] = rows
    return np.add.accumulate(table, axis=1)[:, -1].copy()


def _panel_sums(half, vals, w):
    """Gauss sum ``half * (w . v)`` of each panel; row p of ``vals`` is panel p.

    A stacked ``np.matmul`` of one (1, order) row per panel is one BLAS dot
    per panel, bit for bit the per-panel ``h * np.tensordot(w, v, axes=(0,
    0))`` for real, complex and vector values (a test pins this).  The one
    gemv ``vals @ w`` blocks the sums otherwise and moves the last bits of
    about two panels in three.
    """
    if vals.shape[:2] != (half.size, w.size):
        raise ValueError("integrand must return one value per node")
    if vals.ndim == 2:
        return half * np.matmul(vals[:, None, :], w[:, None])[:, 0, 0]
    sums = np.matmul(w, vals.reshape(vals.shape[:2] + (-1,)))
    return (half[:, None] * sums).reshape((half.size,) + vals.shape[2:])


def _levels(f, count, a, b, spec):
    """``count`` adaptive Gauss-Legendre integrals, a level at a time.

    Integral i runs over [a[i], b[i]]; ``a`` and ``b`` are floats shared
    by all the integrals or sequences of ``count`` bounds.  Each level
    makes one call ``f(owner, nodes)``: row r of ``nodes`` (panels, order)
    holds the Gauss nodes of one panel of integral ``owner[r]``; ``f``
    returns their values, shape (panels, order, *k).  Returns values
    (count, *k), errors and subdivisions (count,), or raises the
    NonConvergenceError (with its best estimate) of the lowest-numbered
    integral to reach the subdivision cap, as a sequential run would: the
    integrals below it run to the end, the ones above it are dropped.  A
    level that would pass ``max_subdivisions`` splits only the leftmost
    panels up to it, so a failure counts exactly the cap.

    Live panels are rows of arrays (edges, owner, value, error of the split
    that made them), grouped by owner.  A split is accepted on the global
    tolerance prorated by the panel's share of its integral's interval;
    ``max(rel_tol * |estimate|, abs_tol)`` is NaN for a NaN estimate and
    then accepts nothing.  Sums are sequential (``_fold``): the estimate
    adds the pending values in level order to the accepted ones in
    acceptance order; the result sums the accepted (on failure, also the
    pending) panels left to right.  Each integral rounds exactly as it
    would on its own, so any grouping of integrals into one call gives the
    bits of separate ``integrate_1d`` calls.
    """
    lo, hi = np.empty(count), np.empty(count)
    lo[:], hi[:] = a, b
    ordered = lo < hi
    if not ordered.all():
        bad = int(np.argmin(ordered))
        raise ValueError("integration bounds must satisfy a < b, "
                         f"got [{lo[bad]}, {hi[bad]}]")
    span = hi - lo
    x, w = _gauss_nodes(spec.panel_order)

    def gauss_sums(owner, lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        vals = np.asarray(f(owner, mid[:, None] + half[:, None] * x))
        return _panel_sums(half, vals, w)

    owner = np.arange(count)
    val = gauss_sums(owner, lo, hi)
    err = np.full(val.shape, math.inf)
    accepted_sum = np.zeros_like(val)
    subdivisions = np.zeros(count, dtype=int)
    finished = []          # (owner, lo, value, error) chunks of final panels
    failed = count         # the lowest failing integral, if any
    while owner.size:
        first, run = _runs(owner)
        estimate = _fold(first, run, val) + accepted_sum[owner[first]]
        tol = np.maximum(spec.rel_tol * _maxnorm(estimate), spec.abs_tol)
        # accepted panels met their local budgets, which sum to <= tol, so
        # the stop weighs the pending errors, per value component
        stop = (_maxnorm(_fold(first, run, err)) <= tol)[run]
        finished.append(_take(stop, owner, lo, val, err))
        owner, lo, hi, val, err, tol = _take(~stop, owner, lo, hi, val, err,
                                             tol[run])
        if not owner.size:
            break
        # at most the remaining budget of splits, leftmost first
        if owner.size > spec.max_subdivisions - subdivisions.max():
            first, run = _runs(owner)
            held = (np.arange(owner.size) - first[run]
                    >= spec.max_subdivisions - subdivisions[owner])
            if held.any():
                finished.append(_take(held, owner, lo, val, err))
                failed = min(failed, int(owner[held].min()))
                owner, lo, hi, val, tol = _take(~held, owner, lo, hi, val, tol)
        mid = 0.5 * (lo + hi)
        twin = np.repeat(owner, 2)
        twin_lo = np.stack([lo, mid], axis=1).ravel()
        twin_hi = np.stack([mid, hi], axis=1).ravel()
        twin_val = gauss_sums(twin, twin_lo, twin_hi)
        left, right = twin_val[0::2], twin_val[1::2]
        subdivisions += np.bincount(owner, minlength=count)
        split_err = np.abs(left + right - val)
        err_max = _maxnorm(split_err)
        width = hi - lo
        accept = np.repeat(
            (err_max <= tol * width / span[owner])
            # a split error at the children's rounding cannot be refined away
            | (err_max <= _NOISE * (_maxnorm(left) + _maxnorm(right)))
            | (width < _NOISE * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)),
            2)
        twin_err = np.repeat(0.5 * split_err, 2, axis=0)
        if accept.any():
            finished.append(_take(accept, twin, twin_lo, twin_val, twin_err))
            first, run = _runs(twin[accept])
            ids = twin[accept][first]
            accepted_sum[ids] = _fold(first, run, twin_val[accept], accepted_sum[ids])
        owner, lo, hi, val, err = _take(~accept, twin, twin_lo, twin_hi, twin_val, twin_err)
        capped = subdivisions[owner] >= spec.max_subdivisions
        if capped.any():
            finished.append(_take(capped, owner, lo, val, err))
            failed = min(failed, int(owner[capped].min()))
        # once one has failed, later integrals cannot change the error raised
        owner, lo, hi, val, err = _take(~capped & (owner < failed), owner, lo, hi, val, err)

    owner, lo, val, err = (np.concatenate(parts) for parts in zip(*finished))
    if failed < count:
        owner, lo, val, err = _take(owner == failed, owner, lo, val, err)
    order = np.lexsort((lo, owner))
    first, run = _runs(owner[order])
    value = _fold(first, run, val[order])
    error = _maxnorm(_fold(first, run, err[order]))
    if failed < count:
        n = int(subdivisions[failed])
        raise NonConvergenceError(
            f"quadrature did not converge in {n} subdivisions",
            best=value[0], error_estimate=float(error[0]), subdivisions=n)
    return value, error, subdivisions


def integrate_1d(f, a, b, spec=DEFAULT_QUADRATURE):
    """Adaptive Gauss-Legendre integration of ``f`` on [a, b].

    ``f`` is called once per refinement level, with the nodes of all the
    panels of that level as one flat array of shape (panels * order,), in
    panel order, and returns values of shape (panels * order, *k) (real or
    complex).  The refinement itself (splitting, acceptance, summation
    order) is that of ``_levels``.

    Raises NonConvergenceError carrying the best estimate when the
    subdivision cap is reached.
    """
    def panels(_owner, nodes):
        vals = np.asarray(f(nodes.ravel()))
        if vals.shape[:1] != (nodes.size,):
            raise ValueError("integrand must return one value per node")
        return vals.reshape(nodes.shape + vals.shape[1:])

    value, error, subdivisions = _levels(panels, 1, a, b, spec)
    return QuadratureResult(value=value[0], error_estimate=float(error[0]),
                            subdivisions=int(subdivisions[0]))


def integrate_2d(f, window, spec=DEFAULT_QUADRATURE, *, inner_spec=None):
    """Iterated integral of f(x, y) over a rectangle.

    ``window`` is (x_lo, x_hi, y_lo, y_hi).  The one-window case of
    ``integrate_2d_windows``, which says how ``f`` is called.  Convergence
    is controlled independently per axis; ``inner_spec`` lets the inner
    axis run tighter than the outer (useful when inner results feed the
    outer integrand with their own error floor).  Every inner integral
    refines exactly as it would on its own, so the result equals nested
    ``integrate_1d`` calls bit for bit.

    Inner non-convergence raises the error of the first failing outer node
    in node order (its own best estimate, error and subdivisions), with
    ``axis='y'``; outer non-convergence raises the outer error with
    ``axis='x'``.
    """
    return integrate_2d_windows(f, [window], spec, inner_spec=inner_spec)[0]


def integrate_2d_windows(f, windows, spec=DEFAULT_QUADRATURE, *, inner_spec=None):
    """``integrate_2d`` over several windows in lockstep, one result each.

    The outer (x) integrals of all the windows are one ``_levels`` run, and
    the inner (y) integrals of every (window, outer node) of one outer
    level run together in another: ``f`` is called once per inner
    refinement level as ``f(x, y)``, with ``x`` of shape (panels, 1) and
    ``y`` of shape (panels, order), one panel of one outer node per row,
    and returns one value per node, shape (panels, order).  Each integral
    rounds as it would on its own, so window w's result is that of
    ``integrate_2d(f, windows[w])`` bit for bit, value, error estimate and
    subdivisions alike.

    Errors are those of a sequential run over the windows: when any
    integral fails to converge, the windows are redone one at a time, and
    the first error met is raised.
    """
    windows = [tuple(window) for window in windows]
    for window in windows:
        x_lo, x_hi, y_lo, y_hi = window
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError(f"window must have positive area, got {window}")
    x_lo, x_hi, y_lo, y_hi = np.array(windows, dtype=float).T
    count = len(windows)
    spec_y = inner_spec if inner_spec is not None else spec

    inner_err = np.zeros(count)
    inner_sub = np.zeros(count, dtype=int)

    def inner(owner, nodes):
        xs = nodes.ravel()
        win = np.repeat(owner, nodes.shape[1])
        try:
            value, error, subdivisions = _levels(
                lambda node, y: f(xs[node, None], y), xs.size,
                y_lo[win], y_hi[win], spec_y)
        except NonConvergenceError as exc:
            raise NonConvergenceError(str(exc), best=exc.best,
                                      error_estimate=exc.error_estimate,
                                      subdivisions=exc.subdivisions, axis="y") from exc
        np.maximum.at(inner_err, win, error)
        np.add.at(inner_sub, win, subdivisions)
        return value.reshape(nodes.shape)

    try:
        value, error, subdivisions = _levels(inner, count, x_lo, x_hi, spec)
    except NonConvergenceError as exc:
        if count > 1:
            # a sequential run raises the error of the first failing window
            return [integrate_2d(f, window, spec, inner_spec=spec_y)
                    for window in windows]
        if exc.axis is None:
            raise NonConvergenceError(str(exc), best=exc.best,
                                      error_estimate=exc.error_estimate,
                                      subdivisions=exc.subdivisions, axis="x") from exc
        raise
    err = error + inner_err * (x_hi - x_lo)
    return [QuadratureResult(value=value[w], error_estimate=float(err[w]),
                             subdivisions=int(subdivisions[w] + inner_sub[w]))
            for w in range(count)]


def _brent(bracket, tol):
    """Brent's method on a validated bracket, as a generator.

    Yields each abscissa at which it needs f, is sent f there, and returns
    the root.  This is the one Brent body: ``find_root`` drives one such
    generator and ``find_roots`` many in lockstep.  It only compares and
    combines the values it is sent, so a lane's iterates depend on nothing
    but its own bracket and values.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b

    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            return b
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            d = e = m          # bisection
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q      # accept interpolation
            else:
                d = e = m      # fall back to bisection
        a, fa = b, fb
        b = b + (d if abs(d) > tol1 else math.copysign(tol1, m))
        fb = yield b
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a


def find_root(f, bracket, tol):
    """Root of ``f`` inside a bracket (Brent with bisection fallback).

    ``bracket`` is a RootBracket or a (lo, hi) pair, whose ends are
    evaluated first.  The returned value always lies inside the original
    bracket and the final bracket width is at most ``tol``.  The steps are
    those of ``_brent``, with one call ``f(x)`` per step.
    """
    steps = _bracketed(bracket, tol)
    value = None           # starts the generator
    try:
        while True:
            value = f(steps.send(value))
    except StopIteration as done:
        return done.value


def _bracketed(bracket, tol):
    """``_brent`` on a RootBracket, or on a (lo, hi) pair evaluated first.

    A pair's ends are asked for in ``bracket_root``'s order, lo then hi,
    and validated before ``tol`` is.
    """
    if not isinstance(bracket, RootBracket):
        lo, hi = bracket
        f_lo = yield lo
        bracket = RootBracket(lo, hi, f_lo, (yield hi))
    return (yield from _brent(bracket, tol))


def find_roots(f, brackets, tol):
    """Roots of many brackets, their Brent steps taken in lockstep.

    Each bracket (a RootBracket, or a (lo, hi) pair, as ``find_root``
    takes it) is a lane with its own ``_brent`` generator, and each step
    makes one call ``f(lanes, x)`` for all the lanes still refining:
    ``x[j]`` is the next abscissa of lane ``lanes[j]`` (lanes ascending),
    and ``f`` returns one value per lane, the float f there or, in its
    place, the exception that evaluating it raised.  A lane ends with the
    root ``find_root`` gives its bracket, bit for bit, whatever the other
    lanes do, or with the exception ``find_root`` would raise there.  As a
    sequential run stops at its first error, the lanes below the lowest
    failed lane run to the end and the ones above it are dropped: their
    entries are None, also where they had ended.

    Returns one entry per bracket: root, exception or None.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    outcomes = [None] * len(brackets)
    failed = len(brackets)
    live = {lane: _bracketed(bracket, tol)
            for lane, bracket in enumerate(brackets)}
    values = dict.fromkeys(live)   # None starts each generator
    while live:
        x = {}
        for lane, steps in live.items():
            value = values[lane]
            try:
                x[lane] = (steps.throw(value) if isinstance(value, Exception)
                           else steps.send(value))
            except StopIteration as done:
                outcomes[lane] = done.value
            except Exception as exc:
                outcomes[lane] = exc
                failed = min(failed, lane)
        live = {lane: live[lane] for lane in x if lane < failed}
        if live:
            values = dict(zip(live, f(list(live), [x[lane] for lane in live])))
    outcomes[failed + 1:] = [None] * len(outcomes[failed + 1:])
    return outcomes
