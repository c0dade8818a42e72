"""Deterministic numerical kernel.

Adaptive Gauss-Legendre quadrature with dyadic panel splitting, nested 2-D
quadrature, bracketed root finding and stable small-argument special
functions.  Everything here is a pure function of its arguments: identical
inputs give bit-identical outputs, panels are processed and accumulated in a
fixed order, and no randomness is used anywhere.

The quadrature evaluates one refinement level per integrand call, because
the integrands pay a large fixed cost per Python call.  One refinement
algorithm (``_refinement``, one integral) and one driver (``_lockstep``,
any number of integrals a level at a time) serve both entry points:
``integrate_1d`` calls ``f`` with the flat nodes of every panel of a level
(values of shape ``(n, *k)``; array-valued integrands share one adaptive
refinement, driven by the max-norm), and ``integrate_2d`` runs the inner
integrals of all the nodes of one outer level in lockstep, calling
``f(x, y)`` with one panel per row (``x`` of shape (panels, 1), ``y`` of
shape (panels, order)).  Each panel's Gauss sum is its own contraction, so
batching moves no bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, NonConvergenceError

_EPS = float(np.finfo(float).eps)

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
        if self.abs_tol < 0:
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


def sinc(x):
    """sin(x)/x with the removable singularity filled in (sinc(0) = 1)."""
    x = np.asarray(x, dtype=float)
    out = np.divide(np.sin(x), x, out=np.ones_like(x),
                    where=np.abs(x) > 1e-150)
    if out.ndim == 0:
        return float(out)
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
    return float(np.max(np.abs(v)))


def _refinement(a, b, spec):
    """One adaptive Gauss-Legendre integral on [a, b], as a coroutine.

    Yields the (lo, hi) edges of the panels of the next refinement level (the
    root panel first, then two children per pending panel, left child
    first) and is sent back their Gauss sums in the same order.  It returns
    the QuadratureResult, or raises NonConvergenceError carrying the best
    estimate when the subdivision cap is reached.

    Panels split dyadically; a panel is accepted when the difference between
    its Gauss estimate and the sum of its two children meets the local error
    budget (the global tolerance prorated by panel width).  Accepted
    contributions are summed in left-to-right panel order, so the result
    does not depend on how a driver batches the integrand calls.
    """
    if not a < b:
        raise ValueError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    span = b - a

    (root_val,) = yield [(a, b)]
    # pending: (left, right, value, per-component error from the parent split)
    pending = [(a, b, root_val, np.full_like(np.abs(np.asarray(root_val)),
                                             math.inf, dtype=float))]
    accepted = []          # (left_edge, value, err_components)
    subdivisions = 0

    def _finish(extra_pending):
        accepted.extend((lo, v, e) for (lo, _, v, e) in extra_pending)
        accepted.sort(key=lambda t: t[0])
        value = sum(v for (_, v, _) in accepted)
        err_total = _maxnorm(sum(e for (_, _, e) in accepted))
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value[()]
        return value, float(err_total)

    while pending:
        estimate = sum(t[2] for t in pending) + sum(v for (_, v, _) in accepted)
        tol_global = max(spec.rel_tol * _maxnorm(estimate), spec.abs_tol)
        # accepted panels met their local budgets (which sum to <= tol_global
        # by construction), so the global stop weighs the pending provisional
        # errors, per value component
        pending_err = _maxnorm(sum(t[3] for t in pending))
        if pending_err <= tol_global:
            value, err_total = _finish(pending)
            return QuadratureResult(value=value, error_estimate=err_total,
                                    subdivisions=subdivisions)
        edges = []
        for (lo, hi, _parent, _parent_err) in pending:
            m = 0.5 * (lo + hi)
            edges += [(lo, m), (m, hi)]
        sums = yield edges
        next_pending = []
        for k, (lo, hi, parent, _parent_err) in enumerate(pending):
            m = edges[2 * k][1]
            left, right = sums[2 * k], sums[2 * k + 1]
            subdivisions += 1
            err_vec = np.abs(np.asarray(left + right - parent))
            err = float(np.max(err_vec))
            # a split error at rounding level of the panel's own magnitude
            # cannot be improved by further refinement
            noise_floor = 64 * _EPS * (_maxnorm(left) + _maxnorm(right))
            if (err <= tol_global * (hi - lo) / span or err <= noise_floor
                    or (hi - lo) < 64 * _EPS * max(abs(lo), abs(hi), 1.0)):
                accepted.append((lo, left, 0.5 * err_vec))
                accepted.append((m, right, 0.5 * err_vec))
            else:
                next_pending.append((lo, m, left, 0.5 * err_vec))
                next_pending.append((m, hi, right, 0.5 * err_vec))
        pending = next_pending
        if pending and subdivisions >= spec.max_subdivisions:
            best, err_total = _finish(pending)
            raise NonConvergenceError(
                f"quadrature did not converge in {subdivisions} subdivisions",
                best=best, error_estimate=err_total, subdivisions=subdivisions)

    value, err_total = _finish([])
    return QuadratureResult(value=value, error_estimate=err_total,
                            subdivisions=subdivisions)


def _panel_nodes(edges, order):
    """Half-widths (P,) and Gauss nodes (P, order) of (lo, hi) panels."""
    x, _ = _gauss_nodes(order)
    lo, hi = np.asarray(edges, dtype=float).T
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half, mid[:, None] + half[:, None] * x


def _panel_sums(half, vals, order):
    """Gauss sum of each panel; ``vals`` holds one row of values per panel.

    One ``tensordot`` per panel: a single contraction over all panels would
    change the summation (BLAS blocking) and so the last bits.
    """
    _, w = _gauss_nodes(order)
    if vals.shape[:2] != (half.size, order):
        raise ValueError("integrand must return one value per node")
    return [h * np.tensordot(w, v, axes=(0, 0)) for h, v in zip(half, vals)]


def _lockstep(f, count, a, b, spec):
    """``count`` adaptive integrals over [a, b], refined in lockstep.

    Each refinement level makes one call ``f(owner, nodes)``: row r of
    ``nodes`` (panels, order) holds the Gauss nodes of one panel of
    integral ``owner[r]``, and ``f`` returns their values, shape
    (panels, order, *k).  Every integral refines exactly as it would on its
    own.  Returns the QuadratureResults in integral order, or raises the
    NonConvergenceError of the lowest-numbered failing integral, which is
    what running them one after the other would raise.
    """
    order = spec.panel_order
    results = [None] * count
    live = []              # (index, refinement, its next panel edges)
    for i in range(count):
        refinement = _refinement(a, b, spec)
        live.append((i, refinement, next(refinement)))
    failed = None          # (index, error) of the lowest failing integral
    while live:
        owner = np.repeat([i for i, _, _ in live],
                          [len(e) for _, _, e in live])
        half, nodes = _panel_nodes([p for _, _, e in live for p in e], order)
        sums = _panel_sums(half, np.asarray(f(owner, nodes)), order)
        still, start = [], 0
        for i, refinement, edges in live:
            n = len(edges)
            try:
                still.append((i, refinement,
                              refinement.send(sums[start:start + n])))
            except StopIteration as done:
                results[i] = done.value
            except NonConvergenceError as exc:
                if failed is None or i < failed[0]:
                    failed = (i, exc)
            start += n
        # once one has failed, later integrals cannot change the error raised
        live = [t for t in still if failed is None or t[0] < failed[0]]
    if failed is not None:
        raise failed[1]
    return results


def integrate_1d(f, a, b, spec=DEFAULT_QUADRATURE):
    """Adaptive Gauss-Legendre integration of ``f`` on [a, b].

    ``f`` is called once per refinement level, with the nodes of all the
    panels of that level as one flat array of shape (panels * order,), in
    panel order, and returns values of shape (panels * order, *k) (real or
    complex).  The refinement itself (splitting, acceptance, summation
    order) is that of ``_refinement``.

    Raises NonConvergenceError carrying the best estimate when the
    subdivision cap is reached.
    """
    def panels(_owner, nodes):
        vals = np.asarray(f(nodes.ravel()))
        if vals.shape[:1] != (nodes.size,):
            raise ValueError("integrand must return one value per node")
        return vals.reshape(nodes.shape + vals.shape[1:])

    return _lockstep(panels, 1, a, b, spec)[0]


def integrate_2d(f, window, spec=DEFAULT_QUADRATURE, *, inner_spec=None):
    """Iterated integral of f(x, y) over a rectangle.

    ``window`` is (x_lo, x_hi, y_lo, y_hi).  The outer (x) integral is an
    ``integrate_1d`` whose integrand runs the inner (y) integrals of all
    the outer nodes of one outer level in lockstep: ``f`` is called once
    per inner refinement level as ``f(x, y)``, with ``x`` of shape
    (panels, 1) and ``y`` of shape (panels, order), one panel of one outer
    node per row, and returns one value per node, shape (panels, order).
    Every inner integral refines exactly as it would on its own, so the
    result equals nested ``integrate_1d`` calls bit for bit.  Convergence
    is controlled independently per axis; ``inner_spec`` lets the inner
    axis run tighter than the outer (useful when inner results feed the
    outer integrand with their own error floor).

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
            results = _lockstep(lambda owner, y: f(xs[owner, None], y),
                                len(xs), y_lo, y_hi, spec_y)
        except NonConvergenceError as exc:
            raise NonConvergenceError(str(exc), best=exc.best,
                                      error_estimate=exc.error_estimate,
                                      subdivisions=exc.subdivisions, axis="y") from exc
        for res in results:
            inner_err[0] = max(inner_err[0], res.error_estimate)
            inner_sub[0] += res.subdivisions
        return np.asarray([res.value for res in results])

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
