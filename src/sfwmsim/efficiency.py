"""Conversion efficiency: numeric pulsed, one closed analytic form and CW.

All efficiencies share one bookkeeping convention, eta = emitted signal
photons / launched pump photons, with pairs_per_second = eta * pump photon
rate.  The open-domain integrals integrate a single phasematched peak (the
signal-side outer solution); near-degenerate emission around the pumps is a
different band and is never counted.  Windows auto-expand (doubling per
step) until the newly added shell contributes less than SHELL_TOL of the
total, with hard caps that keep the window away from the pump region and
the mirrored peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .constants import C, HBAR, TWO_PI
from .dispersion import (_index_and_group_slowness, beta, beta1,
                         effective_index, gamma_sfwm)
from .errors import DivergenceError, RegimeError, WindowError
from .numerics import (_sinc_phasor_sum, erf_ratio, integrate_1d,
                       integrate_2d, sinc)
from .sfwm import (_BLOCK_ELEMENTS, _SEPARABLE_BLOCK_ELEMENTS, _SINC_EXTENT,
                   PhasematchCenter, _in_row_blocks, _line_mismatch,
                   _pump_convolution, _pump_rule, h_function, nonlinear_phase,
                   peak_power, pump_envelope, solve_phasematch_center)

# Convergence threshold on the relative contribution of a freshly added
# boundary shell.  The joint intensity falls off as 1/x^2 along the
# phasematched line (sinc tails), so demanding much less than a percent
# would force the window to grow by more than an order of magnitude for a
# sub-percent change in the answer; 1e-2 keeps >= 99% of the mass, two
# orders below the physics tolerances.
SHELL_TOL = 1e-2
MAX_EXPANSIONS = 4
# Signal/idler group-slowness match threshold for the closed form.  At a
# relative walk-off this small, the mismatch crosses zero so flatly that the
# phasematched center itself is barely defined and the linearized closed
# form is far past its validity; the numeric route remains available.
_GV_DEGENERATE_REL = 1e-5


@dataclass(frozen=True, eq=False)
class EfficiencyResult:
    eta: float
    pairs_per_second: float
    method: str              # numeric_pulsed | closed | cw
    diagnostics: dict = field(default_factory=dict)


def photons_per_pulse(pump):
    """Photons per pulse, N = sqrt(2 pi) P / (hbar omega0 sigma)."""
    if pump.is_cw:
        raise RegimeError("photons per pulse undefined for a monochromatic pump")
    return math.sqrt(TWO_PI) * peak_power(pump) / (HBAR * pump.omega0 * pump.sigma)


def pump_photon_rate(config):
    """Launched pump photons per second (pulsed or CW bookkeeping)."""
    if config.is_cw:
        p1, p2 = config.pump1, config.pump2
        return ((p1.avg_power * p2.omega0 + p2.avg_power * p1.omega0)
                / (HBAR * p1.omega0 * p2.omega0))
    return ((photons_per_pulse(config.pump1) + photons_per_pulse(config.pump2))
            * config.pump1.rep_rate)


@dataclass(frozen=True)
class _OperatingPoint:
    center: PhasematchCenter
    gamma: float
    n1: float
    n2: float
    b1_p1: float
    b1_p2: float
    b1_s: float
    b1_i: float
    h_center: float


@lru_cache(maxsize=1024)
def operating_point(config):
    """Phasematched center and the coefficients every efficiency needs."""
    center = solve_phasematch_center(config)
    fiber = config.fiber
    om1, om2 = config.pump1.omega0, config.pump2.omega0
    return _OperatingPoint(
        center=center,
        gamma=gamma_sfwm(fiber, om1, om2, center.omega_s, center.omega_i),
        n1=effective_index(om1, fiber),
        n2=effective_index(om2, fiber),
        b1_p1=beta1(om1, fiber),
        b1_p2=beta1(om2, fiber),
        b1_s=beta1(center.omega_s, fiber),
        b1_i=beta1(center.omega_i, fiber),
        h_center=h_function(center.omega_s, center.omega_i, fiber))


def _require_pulsed(config, what):
    if config.is_cw:
        raise RegimeError(f"{what} requires pulsed pumps (sigma > 0)")


def _signal_idler_walkoff(op):
    dbsi = abs(op.b1_i - op.b1_s)
    if dbsi < _GV_DEGENERATE_REL * max(abs(op.b1_s), abs(op.b1_i)):
        raise DivergenceError(
            "signal and idler group velocities coincide; the linearized "
            "closed form diverges (use the numeric efficiency)")
    return dbsi


def b_parameter(config):
    """Pump walk-off parameter B (dimensionless) of the closed-form pulsed
    efficiency; math.inf for group-velocity-degenerate pumps."""
    _require_pulsed(config, "b_parameter")
    op = operating_point(config)
    s1, s2 = config.pump1.sigma, config.pump2.sigma
    db12 = abs(op.b1_p1 - op.b1_p2)
    if db12 == 0.0:
        return math.inf
    return math.sqrt(s1 * s1 + s2 * s2) / (s1 * s2 * config.fiber.length * db12)


def l_max(config):
    """Fiber length where the pump pulses stop overlapping [m]."""
    _require_pulsed(config, "l_max")
    op = operating_point(config)
    s1, s2 = config.pump1.sigma, config.pump2.sigma
    db12 = abs(op.b1_p1 - op.b1_p2)
    if db12 == 0.0:
        return math.inf
    return 2.0 * math.sqrt(2.0) * math.sqrt(s1 * s1 + s2 * s2) / (s1 * s2 * db12)


def sigma_max(config):
    """Pump bandwidth where the efficiency saturates [rad/s] (equal sigmas)."""
    _require_pulsed(config, "sigma_max")
    op = operating_point(config)
    db12 = abs(op.b1_p1 - op.b1_p2)
    if db12 == 0.0:
        return math.inf
    return 4.0 / (config.fiber.length * db12)


def eta_closed(config):
    """Closed-form pulsed efficiency.

    One form serves every pump pair.  It is evaluated through erf(x)/x so
    the degenerate-pump limit is smooth: with
    x = sigma1 sigma2 L |beta1_1 - beta1_2| / (sqrt(2) sqrt(sigma1^2+sigma2^2))
    the pump walk-off factor erf(x)/|beta1_1 - beta1_2| becomes
    erf_ratio(x) * sigma1 sigma2 L / (sqrt(2) sqrt(sigma1^2+sigma2^2)), free
    of cancellation as the carriers merge.  For identical pumps
    (erf(x)/x -> 2/sqrt(pi), N1 N2/(N1 + N2) -> N/2) it is the paper's
    degenerate form 2^4 hbar^2 c^2 n^2 L sigma N gamma^2 h
    / (sqrt(pi) |beta1_s - beta1_i|).
    """
    _require_pulsed(config, "eta_closed")
    op = operating_point(config)
    dbsi = _signal_idler_walkoff(op)
    s1, s2 = config.pump1.sigma, config.pump2.sigma
    L = config.fiber.length
    n1, n2 = photons_per_pulse(config.pump1), photons_per_pulse(config.pump2)
    sig_c = math.sqrt(s1 * s1 + s2 * s2)
    x = s1 * s2 * L * abs(op.b1_p1 - op.b1_p2) / (math.sqrt(2.0) * sig_c)
    walkoff = erf_ratio(x) * s1 * s2 * L / (math.sqrt(2.0) * sig_c)
    eta = (2 ** 5 * HBAR ** 2 * C ** 2 * op.n1 * op.n2 * op.gamma ** 2
           * n1 * n2 / (n1 + n2) * walkoff * op.h_center / dbsi)
    return EfficiencyResult(
        eta=eta, pairs_per_second=eta * pump_photon_rate(config),
        method="closed",
        diagnostics={"center": op.center, "gamma": op.gamma,
                     "erf_argument": x})


def _rotated_integrand(config):
    """h |f|^2 in rotated coordinates u = omega_s + omega_i, v = s - i.

    Returns ``rows(u, v)``, the integrand ``integrate_2d`` calls: ``u`` of
    shape (P, 1) holds the frequency sum of each row and ``v`` of shape
    (P, n) its frequency differences; the values have v's shape.  Rows are
    evaluated ``_in_row_blocks``, which bounds the working set, and each
    row is contracted over the pump nodes on its own (a stacked
    ``matmul``), so a row's values equal those of a one-row call bit for
    bit.  Algebraically identical to ``h_function * |f|^2`` with f from
    ``_pump_convolution`` (a property the tests assert).

    On the step-index path the mismatch phase separates on a row: x_k =
    q_k(u) - phi(v), with q_k = L/2 (beta(omega_k) + beta(u - omega_k) -
    nl) over the pump nodes and phi = L/2 (beta_s + beta_i).  The
    amplitudes a_k and phases q_k depend on u only; they are evaluated
    once per distinct u, for all new rows of a block in one vectorised
    call, and kept for the later levels.  Since sinc(x) e^{ix} =
    (e^{2ix} - 1)/(2ix),

        f = [e^{-2i phi} sum_k a_k e^{2i q_k} / x_k - sum_k a_k / x_k] / (2i)

    (``_sinc_phasor_sum``): the exponentials are per (row, k) and per
    (row, v), and each (pump node, v) element costs one reciprocal in
    place of a sin and a cos.  Where |x| < 1e-3 the two sums cancel, so
    those elements take sinc(x) e^{ix} directly.  The block holds about
    four real arrays per element, so it takes twice the elements of the
    pair-wise one (``_SEPARABLE_BLOCK_ELEMENTS``).  The Taylor path keeps
    the pair-wise ``_pump_convolution`` and its bits, because several
    Taylor benchmark references report a quadrature error equal to the
    one they are checked against, so any rounding change there fails them
    at random.
    """
    fiber = config.fiber
    L = fiber.length
    p1, p2 = config.pump1, config.pump2
    nl = nonlinear_phase(config)
    pref2 = math.pi * p1.sigma * p2.sigma / 2.0
    pump_nodes, weights, beta_nodes, env1 = _pump_rule(config)

    if fiber.taylor is not None:
        jsa_pairs = _pump_convolution(config)
        elements = _BLOCK_ELEMENTS

        def block(u, v):
            om_s = 0.5 * (u + v)
            om_i = 0.5 * (u - v)
            f = jsa_pairs(om_s, om_i)
            return h_function(om_s, om_i, fiber) * np.abs(f) ** 2
    else:
        # u -> (amplitudes, phases) over the pump nodes: an outer node's rows
        # recur at every level of its inner integral
        pump_terms = {}
        elements = _SEPARABLE_BLOCK_ELEMENTS

        def block(u, v):
            keys = u[:, 0].tolist()
            new = [k for k in dict.fromkeys(keys) if k not in pump_terms]
            if new:
                conj = np.asarray(new)[:, None] - pump_nodes
                amp = weights * env1 * pump_envelope(p2, conj)
                q_u = 0.5 * L * (beta_nodes + beta(conj, fiber) - nl)
                pump_terms.update(zip(new, zip(amp, q_u)))
            terms = [pump_terms[k] for k in keys]
            amp = np.asarray([a for a, _ in terms])
            q_u = np.asarray([q for _, q in terms])

            m = len(v)
            om = np.concatenate([0.5 * (u + v), 0.5 * (u - v)])
            neff, b1 = _index_and_group_slowness(om, fiber)
            bet = neff * om / C
            om_s, n_s, beta_s, b1_s = om[:m], neff[:m], bet[:m], b1[:m]
            om_i, n_i, beta_i, b1_i = om[m:], neff[m:], bet[m:], b1[m:]

            F = _sinc_phasor_sum(amp, q_u, 0.5 * L * (beta_s + beta_i))
            h = om_s * om_i * b1_s * b1_i / (n_s ** 2 * n_i ** 2)
            return h * pref2 * (F.real ** 2 + F.imag ** 2)

    return lambda u, v: _in_row_blocks(block, pump_nodes.size, u, v,
                                       elements)


def _ring_strips(inner, outer):
    """Rectangles covering outer minus inner (left, right, bottom, top)."""
    s_lo0, s_hi0, i_lo0, i_hi0 = inner
    s_lo1, s_hi1, i_lo1, i_hi1 = outer
    strips = []
    if s_lo1 < s_lo0:
        strips.append((s_lo1, s_lo0, i_lo1, i_hi1))
    if s_hi0 < s_hi1:
        strips.append((s_hi0, s_hi1, i_lo1, i_hi1))
    if i_lo1 < i_lo0:
        strips.append((s_lo0, s_hi0, i_lo1, i_lo0))
    if i_hi0 < i_hi1:
        strips.append((s_lo0, s_hi0, i_hi0, i_hi1))
    return strips


def _rotated_window(config, op):
    """Initial (u, v) window: u = omega_s + omega_i, v = omega_s - omega_i.

    The pump envelope confines u to a few combined bandwidths around the
    carrier sum; the sinc tails confine v to a mismatch-phase argument of
    about _SINC_EXTENT around the phasematched separation.
    """
    sigma_c = math.hypot(config.pump1.sigma, config.pump2.sigma)
    dbsi = max(abs(op.b1_i - op.b1_s), 1e-30)
    u0 = config.omega_total
    v0 = op.center.omega_s - op.center.omega_i
    u_half = 4.0 * sigma_c
    v_half = 4.0 * _SINC_EXTENT / (config.fiber.length * dbsi)
    return _clamp_uv((u0 - u_half, u0 + u_half, v0 - v_half, v0 + v_half),
                     u0, v0)


def _clamp_uv(window, u0, v0):
    """Keep the v range clear of the degenerate line v = 0.

    The mirror peak sits at -v0, and the region around v = 0 is the
    near-degenerate emission band around the pumps (nearly phasematched on
    its own, and increasingly wide for short fibers); staying at least half
    way keeps both out of the integral.
    """
    u_lo, u_hi, v_lo, v_hi = window
    v_lo = max(v_lo, v0 - 0.5 * abs(v0))
    v_hi = min(v_hi, v0 + 0.9 * abs(v0))
    u_lo = max(u_lo, 0.8 * u0)
    u_hi = min(u_hi, 1.2 * u0)
    return (u_lo, u_hi, v_lo, v_hi)


def _grow_uv(window, u0, v0):
    """Window of twice the width around (u0, v0), clamped."""
    u_lo, u_hi, v_lo, v_hi = window
    u_half = u_hi - u_lo
    v_half = v_hi - v_lo
    return _clamp_uv((u0 - u_half, u0 + u_half, v0 - v_half, v0 + v_half),
                     u0, v0)


def eta_pulsed_numeric(config):
    """Pulsed conversion efficiency by direct integration of h |f|^2.

    The double integral runs in rotated coordinates (frequency sum and
    difference), where the pump convolution depends on the sum only; the
    window grows by doubling until the freshly added boundary shell
    contributes under SHELL_TOL of the running total (at most
    MAX_EXPANSIONS doublings, else WindowError carrying the last two
    values).  Shells are integrated incrementally as rings, so the interior
    is never recomputed.  h is evaluated pointwise, not frozen at the
    center.
    """
    _require_pulsed(config, "eta_pulsed_numeric")
    op = operating_point(config)
    fiber = config.fiber
    p1, p2 = config.pump1, config.pump2
    n1, n2 = photons_per_pulse(p1), photons_per_pulse(p2)
    pref = (2 ** 8 * HBAR ** 2 * C ** 2 * op.n1 * op.n2 / TWO_PI ** 3
            * fiber.length ** 2 * op.gamma ** 2 * n1 * n2
            / (p1.sigma * p2.sigma * (n1 + n2)))

    integrand = _rotated_integrand(config)

    # tiered tolerances above the fixed-rule pump integral: the inner axis
    # runs 100x and the outer axis 1000x the configured relative tolerance,
    # so no level chases the error floor of the level below (the
    # beta-cancellation noise on the integrand sits near 1e-8 relative)
    rel = config.quadrature.rel_tol
    inner_rel = replace(config.quadrature, rel_tol=100 * rel)
    outer_spec = replace(config.quadrature, rel_tol=1000 * rel)

    u0 = config.omega_total
    v0 = op.center.omega_s - op.center.omega_i
    window = _rotated_window(config, op)

    # probe the peak slice once to anchor an absolute floor for the inner
    # integrals: slices carrying none of the mass (window edges) must not be
    # resolved relative to their own vanishing value
    def peak_slice(vs):
        vs = vs.reshape(-1, inner_rel.panel_order)    # one panel per row
        return integrand(np.full((len(vs), 1), u0), vs).ravel()

    probe = integrate_1d(peak_slice, window[2], window[3], inner_rel).value
    inner_spec = replace(inner_rel,
                         abs_tol=max(config.quadrature.abs_tol,
                                     1e-3 * inner_rel.rel_tol * abs(probe)))

    res = integrate_2d(integrand, window, outer_spec, inner_spec=inner_spec)
    total = res.value
    quad_err = res.error_estimate
    shells = []
    for _expansion in range(1, MAX_EXPANSIONS + 1):
        grown = _grow_uv(window, u0, v0)
        strips = _ring_strips(window, grown)
        if not strips:
            shells.append(0.0)      # fully clamped: the band edge is reached
            window = grown
            break
        # a strip resolved to well below the shell threshold's resolution is
        # settled; without this floor, strips carrying none of the mass
        # would be refined relative to their own vanishing value
        strip_spec = replace(outer_spec,
                             abs_tol=max(outer_spec.abs_tol,
                                         1e-3 * SHELL_TOL * abs(total)))
        ring = 0.0
        for strip in strips:
            sres = integrate_2d(integrand, strip, strip_spec,
                                inner_spec=inner_spec)
            ring += sres.value
            quad_err += sres.error_estimate
        new_total = total + ring
        shell = abs(ring) / abs(new_total) if new_total != 0 else 0.0
        shells.append(shell)
        prev_total, total, window = total, new_total, grown
        if shell < SHELL_TOL:
            break
    else:
        raise WindowError(
            f"pulsed efficiency window did not converge within "
            f"{MAX_EXPANSIONS} expansions",
            last_values=(pref * 0.5 * prev_total, pref * 0.5 * total))

    # Jacobian of (omega_s, omega_i) -> (u, v) is 1/2
    eta = pref * 0.5 * total
    return EfficiencyResult(
        eta=eta, pairs_per_second=eta * pump_photon_rate(config),
        method="numeric_pulsed",
        diagnostics={"center": op.center, "gamma": op.gamma,
                     "window_uv": window, "expansions": len(shells),
                     "shell": shells[-1] if shells else 0.0,
                     "shell_history": tuple(shells),
                     "quadrature_error": quad_err, "integral": total})


def eta_cw(config):
    """Monochromatic-pump conversion efficiency.

    Integrates h sinc^2(L dk/2) over a window centered on the signal-side
    phasematched root.  The window never crosses the energy-conservation
    midpoint (the mirror peak lives on the other side) and keeps at least
    half the distance to either pump carrier (near-degenerate emission
    around the pumps is phasematched too, but it is a different emission
    band and is not counted).
    """
    if not config.is_cw:
        raise RegimeError("eta_cw requires monochromatic pumps (sigma = 0); "
                          "use eta_pulsed_numeric or eta_closed")
    p1, p2 = config.pump1, config.pump2
    if not (p1.avg_power > 0 and p2.avg_power > 0):
        raise RegimeError("eta_cw requires positive average powers")
    op = operating_point(config)
    fiber = config.fiber
    L = fiber.length
    pref = (2 ** 5 * HBAR * C ** 2 * op.n1 * op.n2 / math.pi
            * L ** 2 * op.gamma ** 2 * p1.avg_power * p2.avg_power
            / (p1.avg_power * p2.omega0 + p2.avg_power * p1.omega0))
    total = config.omega_total
    half = 0.5 * total
    om_c = op.center.omega_s
    dk = _line_mismatch(config)

    slope = abs(op.b1_i - op.b1_s)
    h_lo = h_up = 400.0 / (L * slope)

    def clamp(lo_half, up_half):
        lo_cap = om_c - half
        for om_pump in (p1.omega0, p2.omega0):
            if om_pump < om_c:
                lo_cap = min(lo_cap, 0.5 * (om_c - om_pump))
            else:
                up_half = min(up_half, 0.5 * (om_pump - om_c))
        return min(lo_half, lo_cap), up_half

    def integrand(om):
        return h_function(om, total - om, fiber) * sinc(0.5 * L * dk(om)) ** 2

    value_prev = None
    quad_err = 0.0
    window = None
    for expansion in range(MAX_EXPANSIONS + 1):
        lo_half, up_half = clamp(h_lo, h_up)
        window = (om_c - lo_half, om_c + up_half)
        res = integrate_1d(integrand, window[0], window[1], config.quadrature)
        value = res.value
        quad_err = res.error_estimate
        if value_prev is not None:
            shell = abs(value - value_prev) / abs(value) if value != 0 else 0.0
            if shell < SHELL_TOL:
                break
        if expansion == MAX_EXPANSIONS:
            raise WindowError(
                f"cw window did not converge within {MAX_EXPANSIONS} expansions",
                last_values=(pref * value_prev if value_prev is not None else None,
                             pref * value))
        h_lo, h_up = 2.0 * h_lo, 2.0 * h_up
        value_prev = value

    eta = pref * value
    return EfficiencyResult(
        eta=eta, pairs_per_second=eta * pump_photon_rate(config), method="cw",
        diagnostics={"center": op.center, "gamma": op.gamma, "window": window,
                     "expansions": expansion, "quadrature_error": quad_err,
                     "integral": value})
