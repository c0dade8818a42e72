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
``integrate_2d`` runs the inner integrals of all the nodes of one outer
level together, calling ``f(x, y)`` with one panel per row (``x`` of shape
(panels, 1), ``y`` of shape (panels, order)).  Batching moves no bits: each
panel sum and running sum rounds as for one integral on its own.

``_sinc_phasor`` forms the phase-matching factor sinc(x) e^{ix} of the pump
convolution for both the pulsed integrand and the joint spectral amplitude,
at one sin and one cos per element.
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


@lru_cache(maxsize=32)
def _gauss_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _sin_over(s, x):
    """s / x, with 1 where |x| <= 1e-150 (NaN stays NaN)."""
    return np.divide(s, x, out=np.ones_like(x),
                     where=~(np.abs(x) <= 1e-150))


def sinc(x):
    """sin(x)/x with the removable singularity filled in (sinc(0) = 1)."""
    x = np.asarray(x, dtype=float)
    out = _sin_over(np.sin(x), x)
    if out.ndim == 0:
        return float(out)
    return out


def _sinc_phasor(x, scale=None):
    """scale * sinc(x) * e^{ix} as one complex array, from one sin and one cos.

    Bit for bit the same product formed with NumPy's complex exp: that exp
    gives (cos x, sin x) exactly, and a real times a complex rounds each
    part once, so the real factor scale * sinc(x), formed first, times
    cos x and sin x rounds alike, without a second sin, complex
    temporaries or a complex multiply.
    """
    s = np.sin(x)
    t = _sin_over(s, x)
    if scale is not None:
        t = scale * t
    out = np.empty(t.shape, dtype=complex)
    np.multiply(t, np.cos(x), out=out.real)
    np.multiply(t, s, out=out.imag)
    return out


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
    """``count`` adaptive Gauss-Legendre integrals over [a, b], a level at a time.

    Each level makes one call ``f(owner, nodes)``: row r of ``nodes``
    (panels, order) holds the Gauss nodes of one panel of integral
    ``owner[r]``; ``f`` returns their values, shape (panels, order, *k).
    Returns values (count, *k), errors and subdivisions (count,), or raises
    the NonConvergenceError (with its best estimate) of the lowest-numbered
    integral to reach the subdivision cap, as a sequential run would.

    Live panels are rows of arrays (edges, owner, value, error of the split
    that made them), grouped by owner.  A split is accepted on the global
    tolerance prorated by panel width; ``max(rel_tol * |estimate|,
    abs_tol)`` is NaN for a NaN estimate and then accepts nothing.  Sums
    are sequential (``_fold``): the estimate adds the pending values in
    level order to the accepted ones in acceptance order; the result sums
    the accepted (on failure, also the pending) panels left to right.
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    a, b = float(a), float(b)
    span = b - a
    x, w = _gauss_nodes(spec.panel_order)

    def gauss_sums(owner, lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        vals = np.asarray(f(owner, mid[:, None] + half[:, None] * x))
        return _panel_sums(half, vals, w)

    owner = np.arange(count)
    lo, hi = np.full(count, a), np.full(count, b)
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
        owner, lo, hi, val, tol = _take(~stop, owner, lo, hi, val, tol[run])
        if not owner.size:
            break
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
            (err_max <= tol * width / span)
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

    ``window`` is (x_lo, x_hi, y_lo, y_hi).  The outer (x) integral is an
    ``integrate_1d`` whose integrand runs the inner (y) integrals of all
    the outer nodes of one outer level together (``_levels``): ``f`` is
    called once per inner refinement level as ``f(x, y)``, with ``x`` of
    shape (panels, 1) and ``y`` of shape (panels, order), one panel of one
    outer node per row, and returns one value per node, shape
    (panels, order).  Every inner integral refines exactly as it would on
    its own, so the result equals nested ``integrate_1d`` calls bit for
    bit.  Convergence is controlled independently per axis; ``inner_spec``
    lets the inner axis run tighter than the outer (useful when inner
    results feed the outer integrand with their own error floor).

    Inner non-convergence raises the error of the first failing outer node
    in node order (its own best estimate, error and subdivisions), with
    ``axis='y'``; outer non-convergence is re-raised with ``axis='x'``.
    """
    x_lo, x_hi, y_lo, y_hi = window
    if not (x_lo < x_hi and y_lo < y_hi):
        raise ValueError(f"window must have positive area, got {window}")
    spec_y = inner_spec if inner_spec is not None else spec

    inner_err = [0.0]
    inner_sub = [0]

    def inner(xs):
        try:
            value, error, subdivisions = _levels(
                lambda owner, y: f(xs[owner, None], y), len(xs), y_lo, y_hi, spec_y)
        except NonConvergenceError as exc:
            raise NonConvergenceError(str(exc), best=exc.best,
                                      error_estimate=exc.error_estimate,
                                      subdivisions=exc.subdivisions, axis="y") from exc
        inner_err[0] = max(inner_err[0], *error.tolist())
        inner_sub[0] += int(subdivisions.sum())
        return value

    try:
        outer = integrate_1d(inner, x_lo, x_hi, spec)
    except NonConvergenceError as exc:
        if exc.axis is None:
            raise NonConvergenceError(str(exc), best=exc.best,
                                      error_estimate=exc.error_estimate,
                                      subdivisions=exc.subdivisions, axis="x") from exc
        raise
    err = outer.error_estimate + inner_err[0] * (x_hi - x_lo)
    return QuadratureResult(value=outer.value, error_estimate=float(err),
                            subdivisions=outer.subdivisions + inner_sub[0])


def find_root(f, bracket, tol):
    """Root of ``f`` inside a validated bracket (Brent with bisection fallback).

    The returned value always lies inside the original bracket and the final
    bracket width is at most ``tol``.
    """
    if isinstance(bracket, (tuple, list)):
        bracket = bracket_root(f, bracket[0], bracket[1])
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
        fb = f(b)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
