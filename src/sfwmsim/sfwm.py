"""Four-wave-mixing physics: pumps, phase mismatch and the joint spectrum.

Conventions:
  * a pump with sigma = 0 encodes the monochromatic (CW) limit; peak power
    is undefined there and the average power enters the nonlinear phase;
  * degenerate pumping is represented as two identical pump entries, so the
    nonlinear phase term gamma1 P1 + gamma2 P2 automatically reduces to the
    standard 2 gamma P;
  * the pumps are an interchangeable pair, stored lower carrier frequency
    first (see ``SourceConfig``), so no result depends on the order given;
  * the phasematched center always satisfies omega_s + omega_i =
    omega_1 + omega_2 exactly (the idler is defined by energy conservation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .constants import TWO_PI, um_from_omega, omega_from_um
from .dispersion import (FiberSpec, beta, beta1, beta2, effective_index,
                         gamma_pump, gamma_pumps)
from .errors import ConfigError, NoPhasematchError, RegimeError, SfwmError
from .numerics import (QuadratureSpec, _as_result, _gauss_nodes,
                       _sinc_phasor_sum, find_roots)

# band scanned for phasematched frequencies [um]
SCAN_BAND_UM = (0.35, 2.2)
_SCAN_POINTS = 1200
# bracket width [rad/s] to which the phasematched frequencies are refined
_ROOT_TOL = 1e2


@dataclass(frozen=True)
class PumpSpec:
    """One pump field: carrier, Gaussian bandwidth, average power, rep rate."""

    omega0: float        # rad/s
    sigma: float         # rad/s; 0 encodes the monochromatic limit
    avg_power: float     # W
    rep_rate: float      # Hz (ignored in the CW regime)

    def __post_init__(self):
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValueError("omega0 must be > 0")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be >= 0")
        if not (self.avg_power >= 0 and math.isfinite(self.avg_power)):
            raise ValueError("avg_power must be >= 0")
        if not (self.rep_rate >= 0 and math.isfinite(self.rep_rate)):
            raise ValueError("rep_rate must be >= 0")
        if self.sigma > 0 and not self.rep_rate > 0:
            raise ValueError("pulsed pump needs a repetition rate")

    @classmethod
    def from_units(cls, wavelength_um, sigma_thz, avg_power_mw, rep_rate_mhz=0.0):
        """Build from user-facing units (um, THz = 1e12 rad/s, mW, MHz)."""
        return cls(omega0=omega_from_um(wavelength_um),
                   sigma=sigma_thz * 1e12,
                   avg_power=avg_power_mw * 1e-3,
                   rep_rate=rep_rate_mhz * 1e6)

    @property
    def wavelength_um(self):
        return um_from_omega(self.omega0)

    @property
    def is_cw(self):
        return self.sigma == 0.0


# Default tolerance for the physics integrals.  The four-way cancellation in
# the phase mismatch leaves ~3e-9 relative noise on the joint-amplitude
# integrand (propagation constants are ~1e7 1/m known to machine epsilon),
# so 1e-6 keeps a two-decade margin above the noise floor while sitting far
# below every physics tolerance in use.
CONFIG_QUADRATURE = QuadratureSpec(rel_tol=1e-6)

# the stored pump order: PumpSpec's fields in declaration order
_PUMP_ORDER = attrgetter("omega0", "sigma", "avg_power", "rep_rate")


@dataclass(frozen=True)
class SourceConfig:
    """Everything one analysis needs: fiber, two pumps, quadrature policy.

    The pumps are stored in ascending (omega0, sigma, avg_power, rep_rate)
    order, whatever order they are given in: ``pump1`` has the lower
    carrier frequency, and swapping the pumps gives an equal config.
    """

    fiber: FiberSpec
    pump1: PumpSpec
    pump2: PumpSpec
    quadrature: QuadratureSpec = CONFIG_QUADRATURE

    def __post_init__(self):
        if (self.pump1.sigma == 0.0) != (self.pump2.sigma == 0.0):
            raise ConfigError("pumps must share a regime: both pulsed or both CW",
                              field="pump2")
        if not self.is_cw and self.pump1.rep_rate != self.pump2.rep_rate:
            raise ConfigError("pulsed pumps must share the repetition rate",
                              field="pump2.rep_rate_MHz")
        pumps = sorted((self.pump1, self.pump2), key=_PUMP_ORDER)
        object.__setattr__(self, "pump1", pumps[0])
        object.__setattr__(self, "pump2", pumps[1])

    @property
    def degenerate(self):
        return self.pump1 == self.pump2

    @property
    def is_cw(self):
        return self.pump1.is_cw and self.pump2.is_cw

    @property
    def omega_total(self):
        return self.pump1.omega0 + self.pump2.omega0


@dataclass(frozen=True)
class PhasematchCenter:
    omega_s: float       # rad/s
    omega_i: float       # rad/s
    residual: float      # 1/m, phase mismatch re-evaluated at the center

    @property
    def wavelengths_um(self):
        return (um_from_omega(self.omega_s), um_from_omega(self.omega_i))


@dataclass(frozen=True)
class JointSpectrumGrid:
    omega_s_axis: tuple
    omega_i_axis: tuple
    amplitude: tuple     # row-major: amplitude[row s][col i]

    def as_arrays(self):
        return (np.asarray(self.omega_s_axis), np.asarray(self.omega_i_axis),
                np.asarray(self.amplitude))


def peak_power(pump):
    """Pulse peak power [W]: P = p sigma / (f_r sqrt(2 pi))."""
    if pump.is_cw:
        raise RegimeError("peak power undefined for a monochromatic pump; "
                          "use avg_power")
    return pump.avg_power * pump.sigma / (pump.rep_rate * math.sqrt(TWO_PI))


def pump_envelope(pump, omega):
    """Gaussian spectral amplitude, unit-normalized in |.|^2 over omega."""
    if pump.is_cw:
        raise RegimeError("spectral envelope undefined for a monochromatic pump")
    om = np.asarray(omega, dtype=float)
    pref = 2.0 ** 0.25 / (math.pi ** 0.25 * math.sqrt(pump.sigma))
    return _as_result(pref * np.exp(-((om - pump.omega0) / pump.sigma) ** 2))


def nonlinear_phase(config):
    """gamma1 P1 + gamma2 P2 [1/m]; average powers in the CW regime."""
    return _nonlinear_phase(config, gamma_pump(config.fiber, config.pump1.omega0),
                            gamma_pump(config.fiber, config.pump2.omega0))


def _nonlinear_phase(config, g1, g2):
    if config.is_cw:
        return g1 * config.pump1.avg_power + g2 * config.pump2.avg_power
    return g1 * peak_power(config.pump1) + g2 * peak_power(config.pump2)


def phase_mismatch(omega, omega_s, omega_i, config):
    """Wavenumber mismatch including the self/cross-phase nonlinear shift.

    ``omega`` is one pump frequency; the other is omega_s + omega_i - omega.
    Symmetric under exchange of the two pump frequencies and under
    signal/idler exchange.
    """
    fiber = config.fiber
    om = np.asarray(omega, dtype=float)
    conj = np.asarray(omega_s, dtype=float) + np.asarray(omega_i, dtype=float) - om
    return _as_result(beta(om, fiber) + beta(conj, fiber) - beta(omega_s, fiber)
                      - beta(omega_i, fiber) - nonlinear_phase(config))


def _pump_terms(config):
    """(beta(omega_1) + beta(omega_2), nonlinear phase) at the pump carriers."""
    fiber = config.fiber
    return (beta(config.pump1.omega0, fiber) + beta(config.pump2.omega0, fiber),
            nonlinear_phase(config))


def _pump_terms_batch(configs):
    """``_pump_terms`` of many configs of one fiber, bit for bit, uncached.

    The betas of all their distinct pump carriers come from one exact
    evaluation (the model's ``beta_exact``), and their gammas from one
    ``gamma_pumps`` batch.
    """
    fiber = configs[0].fiber
    carriers = list(dict.fromkeys(om for c in configs
                                  for om in (c.pump1.omega0, c.pump2.omega0)))
    b = dict(zip(carriers,
                 fiber.dispersion.beta_exact(np.array(carriers)).tolist()))
    g = dict(zip(carriers, gamma_pumps(fiber, carriers)))
    return [(b[c.pump1.omega0] + b[c.pump2.omega0],
             _nonlinear_phase(c, g[c.pump1.omega0], g[c.pump2.omega0]))
            for c in configs]


def _exact_line_mismatch(fiber, om, total, s_pumps, nl):
    """Phase mismatch on the energy-conservation line at a flat array om.

    dk(om) = s_pumps - beta(om) - beta(total - om) - nl (``_pump_terms``),
    total = omega_1 + omega_2; ``total``, ``s_pumps`` and ``nl`` are per
    point or shared.  beta comes from one exact evaluation of all 2n
    frequencies (``beta_exact``), so each value has the bits of the exact
    scalar solve at that point.  The scan and the CW integrand take the
    same terms through the array ``beta``.
    """
    om = np.asarray(om, dtype=float)
    b = fiber.dispersion.beta_exact(np.concatenate([om, total - om]))
    return s_pumps - b[:om.size] - b[om.size:] - nl


def _near_pump(config, om):
    """True where om or its mirror total - om lies near a pump carrier.

    The neighbourhood is +-3 sigma for pulsed pumps, and always a small
    relative margin: the nonlinear phase term creates a genuine but
    physically near-degenerate crossing within ~gamma p / |pump group
    walk-off| of each carrier, which must not masquerade as a signal band
    (it matters in the CW regime, where sigma = 0 excludes nothing).
    """
    om = np.asarray(om, dtype=float)
    mirror = config.omega_total - om
    near = np.zeros(om.shape, dtype=bool)
    for pump in (config.pump1, config.pump2):
        margin = max(3 * pump.sigma, 1e-4 * pump.omega0)
        near |= np.abs(om - pump.omega0) <= margin
        near |= np.abs(mirror - pump.omega0) <= margin
    return near


def _scan_band(config):
    """(lo, hi) [rad/s] of the scan: SCAN_BAND_UM, with mirrors in band too."""
    total = config.omega_total
    lo = omega_from_um(SCAN_BAND_UM[1])
    hi = omega_from_um(SCAN_BAND_UM[0])
    # the mirrored frequency must stay in band too
    lo = max(lo, total - hi)
    hi = min(hi, total - lo)
    if not lo < hi:
        raise NoPhasematchError("scan band is empty after mirroring",
                                scanned_range=SCAN_BAND_UM)
    return lo, hi


def _crossings(config, s_pumps, nl, band):
    """Scan of ``band`` with the array mismatch: (lo, hi, dk(lo) == 0) of
    each interval to refine (``_signal_crossings``), in scan order."""
    fiber = config.fiber
    grid = np.linspace(*band, _SCAN_POINTS)
    vals = (s_pumps - beta(grid, fiber) - beta(config.omega_total - grid, fiber)
            - nl)
    return [(grid[i], grid[i + 1], vals[i] == 0.0)
            for i in _signal_crossings(config, grid, vals)]


def _signal_crossings(config, grid, vals):
    """Indexes i of the scan intervals [grid[i], grid[i + 1]] to refine.

    Both ends kept (``_near_pump``), a zero at the start or a sign change,
    and an end above the midpoint: a root refined inside an interval that
    ends at or below it cannot be a signal-above root.
    """
    keep = ~_near_pump(config, grid)
    crossing = (keep[:-1] & keep[1:]
                & ((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
                & (grid[1:] > 0.5 * config.omega_total))
    return np.flatnonzero(crossing).tolist()


def _signal_roots(config, roots):
    """Distinct roots above the midpoint and off the pumps, outer first."""
    half = 0.5 * config.omega_total
    above = sorted((om for om in roots
                    if not _near_pump(config, om) and om > half),
                   key=lambda om: abs(om - half), reverse=True)
    distinct = []
    for om in above:
        if all(abs(om - o) > 1e-6 * om for o in distinct):
            distinct.append(om)
    return tuple(distinct)


def phasematch_roots(config):
    """Distinct signal-above phasematched frequencies, outer first.

    The one-config case of ``phasematch_roots_lockstep``, raising the error
    it would return, with the pump terms from the per-carrier caches
    (``_pump_terms``), where ``nonlinear_phase`` and ``gamma_sfwm`` read them.
    """
    roots = _roots_lockstep([config], cached=True)[0]
    if isinstance(roots, Exception):
        raise roots
    return roots


def phasematch_roots_lockstep(configs):
    """``phasematch_roots`` of many configs of one fiber, refined in lockstep.

    This is the one phase-matching path.  Per config, it sign-scans
    SCAN_BAND_UM (excluding each pump's neighbourhood, see ``_near_pump``)
    with the array mismatch, refines each crossing on the signal side of
    the energy-conservation midpoint by Brent's method on the exact scalar
    mismatch, from a bracket evaluated there too, and keeps the distinct
    roots above the midpoint, largest detuning (outer branch) first.
    Mirror roots follow by energy conservation.  dk is symmetric under
    om <-> total - om, so the scan skips every interval that ends at or
    below the midpoint: the root refined in it would be dropped.

    Returns one entry per config: its tuple of roots (empty if none), or
    the exception it raises.  The configs run these stages in their order
    (scan grid, pump betas and nonlinear phase, scan, then each crossing in
    scan order), two of them batched, without the per-carrier caches:

    * the pump beta sums and nonlinear phases come from one batch over
      the distinct pump carriers (``_pump_terms_batch``);
    * every crossing of every config is one lane of ``find_roots``; each
      Brent step of all the live lanes is one exact array evaluation of
      the mismatch (``_exact_line_mismatch``: one mode solve per step).

    Each root has the bits of ``find_root`` on the exact mismatch of one
    point.  Where a batch raises a package error (SfwmError), its configs
    or lanes are evaluated one at a time, so each gets the error it raises
    there.  A NoPhasematchError is one config's answer.
    Any other package error ends the run where a sequential run over the
    configs would end: the configs below it finish, and the entries above
    it are None.
    """
    return _roots_lockstep(configs, cached=False)


def _roots_lockstep(configs, cached):
    """``phasematch_roots_lockstep``, with the pump terms from the caches
    (``_pump_terms``) if ``cached``, else from one uncached batch."""
    fiber = configs[0].fiber if configs else None
    if any(c.fiber != fiber for c in configs):
        raise ValueError("configs must share the fiber")
    out = [None] * len(configs)
    failed = len(configs)

    def fail(k, exc):
        nonlocal failed
        out[k] = exc
        if not isinstance(exc, NoPhasematchError):
            failed = min(failed, k)

    def each(keys, stage):
        """{k: stage(k)} in config order; a config that raises ends there."""
        done = {}
        for k in keys:
            try:
                done[k] = stage(k)
            except SfwmError as exc:
                fail(k, exc)
            if failed <= k:
                break
        return done

    bands = each(range(len(configs)), lambda k: _scan_band(configs[k]))
    pumps = None
    if bands and not cached:
        try:
            pumps = dict(zip(bands, _pump_terms_batch([configs[k] for k in bands])))
        except SfwmError:
            pass       # redone one config at a time below
    if pumps is None:
        pumps = each(bands, lambda k: _pump_terms(configs[k]))
    # one scan at a time, so only its crossings are kept
    scans = each(pumps, lambda k: _crossings(configs[k], *pumps[k], bands[k]))

    # one lane per crossing, in sequential order: its config and outcome
    # (the root where the scan hit a zero, else refined below)
    lanes, outcome, brackets, refine = [], [], [], []
    for k, found in scans.items():
        for lo, hi, on_zero in found:
            if not on_zero:
                refine.append(len(lanes))
                brackets.append((lo, hi))
            lanes.append(k)
            outcome.append(float(lo) if on_zero else None)
    # per refined lane: total, pump beta sum and nonlinear phase
    owner = [lanes[j] for j in refine]
    terms = np.array([(configs[k].omega_total, *pumps[k])
                      for k in owner]).reshape(-1, 3).T

    def mismatch(ids, x):
        """dk of refined lane ids[n] at x[n], or the exception it raises."""
        try:
            return _exact_line_mismatch(fiber, x, *terms[:, ids]).tolist()
        except SfwmError:
            values = []
            for n, xn in zip(ids, x):
                try:
                    values.append(_exact_line_mismatch(
                        fiber, [xn], *terms[:, n]).item())
                except SfwmError as exc:
                    values.append(exc)
            return values

    for j, value in zip(refine, find_roots(mismatch, brackets, _ROOT_TOL)):
        outcome[j] = value

    roots = {k: [] for k in scans}
    for k, value in zip(lanes, outcome):
        if isinstance(value, Exception):
            fail(k, value)
            break
        roots[k].append(value)
    for k, found in roots.items():
        if k < failed:
            out[k] = _signal_roots(configs[k], found)
    return out


def solve_phasematch_center(config, branch="outer", side="signal-above"):
    """Signal/idler carriers with zero phase mismatch at the pump carriers.

    Picks the requested branch by detuning magnitude; energy conservation
    fixes the idler exactly.
    """
    if branch not in ("outer", "inner"):
        raise ValueError("branch must be 'outer' or 'inner'")
    if side not in ("signal-above", "signal-below"):
        raise ValueError("side must be 'signal-above' or 'signal-below'")
    total = config.omega_total
    distinct = phasematch_roots(config)
    if not distinct:
        raise NoPhasematchError(
            f"no phasematched frequency in {SCAN_BAND_UM} um band",
            scanned_range=SCAN_BAND_UM)
    index = 0 if branch == "outer" else 1
    if index >= len(distinct):
        raise NoPhasematchError(
            f"no {branch}-branch solution in {SCAN_BAND_UM} um band "
            f"({len(distinct)} branch(es) found)", scanned_range=SCAN_BAND_UM)
    om_sig = distinct[index]
    om_s, om_i = (om_sig, total - om_sig) if side == "signal-above" \
        else (total - om_sig, om_sig)
    residual = _exact_line_mismatch(config.fiber, [om_sig], total,
                                    *_pump_terms(config)).item()
    return PhasematchCenter(omega_s=om_s, omega_i=om_i, residual=residual)


def h_function(omega_s, omega_i, fiber):
    """Spectral weight omega_s omega_i beta1_s beta1_i / (n_s^2 n_i^2)."""
    oms = np.asarray(omega_s, dtype=float)
    omi = np.asarray(omega_i, dtype=float)
    return _as_result(oms * omi * beta1(oms, fiber) * beta1(omi, fiber)
                      / (effective_index(oms, fiber) ** 2
                         * effective_index(omi, fiber) ** 2))


def _pump_rule(config):
    """Fixed composite Gauss-Legendre rule for the pump integral.

    The pump integral runs on a FIXED rule rather than feedback-driven
    refinement, so the joint amplitude is an exactly smooth function of
    (omega_s, omega_i) and the surrounding adaptive integrals never chase
    panelization jumps.  The window is the intersection of the two
    envelopes' +-5 sigma supports at the nominal carriers (pump-symmetric
    by construction); the panel count comes from an a-priori bound on the
    mismatch-phase variation across it (group-velocity walk-off plus a
    curvature term) at one 15-node panel per 8 radians.  The nodes sample
    the frequency of ``pump1``, the lower-frequency pump.

    Returns (nodes, weights, beta_at_nodes, envelope1_at_nodes).
    """
    p1, p2 = config.pump1, config.pump2
    fiber = config.fiber
    m = min(p1.sigma, p2.sigma)
    lo, hi = p1.omega0 - 5.0 * m, p1.omega0 + 5.0 * m
    width = hi - lo
    gvm = abs(beta1(p1.omega0, fiber) - beta1(p2.omega0, fiber))
    curv = abs(beta2(p1.omega0, fiber)) + abs(beta2(p2.omega0, fiber))
    phase_var = 0.5 * fiber.length * (gvm * width + 0.5 * curv * width * width)
    # a single Gauss panel: order 32 nails the Gaussian envelope, plus one
    # node per radian of mismatch-phase variation
    order = int(min(180, max(32, math.ceil(32 + 1.2 * phase_var))))

    xg, wg = _gauss_nodes(order)
    half = 0.5 * width
    mid = 0.5 * (lo + hi)
    nodes = mid + half * xg
    weights = half * wg
    return nodes, weights, beta(nodes, fiber), pump_envelope(p1, nodes)


def _pump_rows(config):
    """(K, rows): the K ``_pump_rule`` nodes, and the pump terms of rows of
    constant frequency sum u, for the joint amplitude and the pulsed integrand.

    On such a row L dk/2 = q_k(u) - phi, with q_k = L/2 (beta(omega_k) +
    beta(u - omega_k) - nl) over the pump nodes and phi = L/2 (beta_s +
    beta_i).  ``rows(u)`` gives, for a flat array of sums, the phasor rows
    st (P, 3, K) = [Re, Im of a_k e^{2i q_k}, a_k], with amplitudes
    a_k = w_k alpha1(omega_k) alpha2(u - omega_k), and q (P, K): what
    ``_sinc_phasor_sum`` takes.
    """
    fiber = config.fiber
    L = fiber.length
    nl = nonlinear_phase(config)
    nodes, weights, beta_nodes, env1 = _pump_rule(config)

    def rows(u):
        conj = u[:, None] - nodes
        amp = weights * env1 * pump_envelope(config.pump2, conj)
        q = 0.5 * L * (beta_nodes + beta(conj, fiber) - nl)
        amp_e = amp * np.exp(2j * q)
        return np.stack([amp_e.real, amp_e.imag, amp], axis=1), q

    return nodes.size, rows


# Largest dispersion query, made once per chunk of rows (the integrand's
# signal and idler points, 273 rows of 15 nodes; the joint amplitude's pump
# terms), so that the chunk rather than the call sets its memory.  The kernel
# (``_sinc_phasor_sum``) runs in blocks of (row, pump node, pair) elements:
# it peaks at about 17 bytes per element (x, whose 1/x is formed in place, a
# transient |x| and the near-zero mask; tracemalloc), so it takes twice the
# elements: on step-index sweep rows 2 ** 14 ran about 20% faster than
# 2 ** 13 at the same peak RSS, and 2 ** 15 no faster than 2 ** 14.
# On Taylor sweep rows 2 ** 13 ran slower than 2 ** 14, and 2 ** 15 won
# 15 of 20 interleaved benchmark pairs by less than their spread.
_BLOCK_ELEMENTS = 2 ** 13
_SEPARABLE_BLOCK_ELEMENTS = 2 * _BLOCK_ELEMENTS


def _in_row_blocks(fn, n_nodes, a, b, elements=_BLOCK_ELEMENTS):
    """``fn(a, b)`` over the rows of ``a`` and ``b`` (shape (P, n)) in blocks
    of as many whole rows as fit in ``elements`` with ``n_nodes`` values
    (pump nodes, or query points) per element of ``b``, joined in order."""
    step = max(1, elements // (n_nodes * b.shape[1]))
    return np.concatenate([fn(a[r:r + step], b[r:r + step])
                           for r in range(0, len(b), step)])


def jsa(omega_s, omega_i, config):
    """Joint spectral amplitude f(omega_s, omega_i): a one-pair jsa_grid."""
    return jsa_grid(config, (omega_s, omega_s, omega_i, omega_i),
                    1, 1).amplitude[0][0]


# main-region size of the mismatch-phase argument covered by the default
# window along the anti-diagonal sinc tail (captures ~99% of the sinc mass)
_SINC_EXTENT = 48.0


def jsa_window(config, center=None):
    """Default rectangular window for sampling the joint spectrum.

    Per-axis half-width around the phasematched center: the largest of the
    sinc main-region scale 6/(L |d(mismatch)/d omega|), three combined pump
    bandwidths, the envelope-limited extent of the phasematched line, and
    the anti-diagonal sinc-tail extent (mismatch argument up to
    ``_SINC_EXTENT``).  Clamped to stay clear of the degenerate point (the
    mirror peak lies beyond it) and inside the guidance band.
    The gradient holds ``pump2`` at its carrier, as ``orientation_angle``
    does: d(mismatch)/d omega_s = beta1(omega_1) - beta1(omega_s) here.
    """
    if center is None:
        center = solve_phasematch_center(config)
    fiber = config.fiber
    L = fiber.length
    g_s = beta1(config.pump1.omega0, fiber) - beta1(center.omega_s, fiber)
    g_i = beta1(config.pump1.omega0, fiber) - beta1(center.omega_i, fiber)
    sigma_c = math.hypot(config.pump1.sigma, config.pump2.sigma)

    theta = math.atan2(-g_s, g_i)
    along = 3 * sigma_c / max(abs(math.cos(theta) + math.sin(theta)), 0.05)
    sinc_tail = 2.0 * _SINC_EXTENT / (L * max(abs(g_s - g_i), 1e-30))
    w_s = max(6.0 / (L * abs(g_s)), 3 * sigma_c,
              along * abs(math.cos(theta)), sinc_tail)
    w_i = max(6.0 / (L * abs(g_i)), 3 * sigma_c,
              along * abs(math.sin(theta)), sinc_tail)
    return _clamp_window(
        (center.omega_s - w_s, center.omega_s + w_s,
         center.omega_i - w_i, center.omega_i + w_i), center, config)


def _clamp_window(window, center, config):
    """Keep a window clear of the degenerate point and the band edges."""
    s_lo, s_hi, i_lo, i_hi = window
    half = 0.5 * config.omega_total
    band_lo = omega_from_um(SCAN_BAND_UM[1])
    band_hi = omega_from_um(SCAN_BAND_UM[0])
    cap_s = 0.9 * abs(center.omega_s - half)
    cap_i = 0.9 * abs(center.omega_i - half)
    s_lo = max(s_lo, center.omega_s - cap_s, band_lo)
    s_hi = min(s_hi, center.omega_s + cap_s, band_hi)
    i_lo = max(i_lo, center.omega_i - cap_i, band_lo)
    i_hi = min(i_hi, center.omega_i + cap_i, band_hi)
    return (s_lo, s_hi, i_lo, i_hi)


def jsa_grid(config, window=None, n_s=64, n_i=64):
    """Sample the joint amplitude on a rectangular grid (row s, column i).

    Each pair is a one-element row of constant frequency sum for
    ``_sinc_phasor_sum``, with beta from one query of both axes.  The pairs
    go ``_in_row_blocks``, a chunk of pairs querying their ``_pump_rows``
    at once, each pair on its own, so a row equals a one-row call bit for
    bit.  Raises ValueError unless ``n_s`` and ``n_i`` are at least 1.
    """
    if n_s < 1 or n_i < 1:
        raise ValueError(f"jsa_grid needs n_s, n_i >= 1, got {n_s}, {n_i}")
    if config.is_cw:
        raise RegimeError("joint spectral amplitude requires pulsed pumps")
    if window is None:
        window = jsa_window(config)
    s_lo, s_hi, i_lo, i_hi = window
    s_axis = np.linspace(s_lo, s_hi, n_s)
    i_axis = np.linspace(i_lo, i_hi, n_i)
    fiber = config.fiber
    beta_si = beta(np.concatenate([s_axis, i_axis]), fiber)
    phi = 0.5 * fiber.length * (beta_si[:n_s, None] + beta_si[n_s:])
    size, pump_rows = _pump_rows(config)
    pref = math.sqrt(math.pi * config.pump1.sigma * config.pump2.sigma / 2.0)

    def kernel(u, phi):
        return _sinc_phasor_sum(*pump_rows(u), phi)

    u = (s_axis[:, None] + i_axis).ravel()
    amp = pref * _in_row_blocks(kernel, size, u, phi.reshape(-1, 1))
    amp = amp.reshape(n_s, n_i)
    return JointSpectrumGrid(omega_s_axis=tuple(float(v) for v in s_axis),
                             omega_i_axis=tuple(float(v) for v in i_axis),
                             amplitude=tuple(tuple(complex(v) for v in row)
                                             for row in amp))
