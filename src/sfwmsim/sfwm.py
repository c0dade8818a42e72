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
from dataclasses import astuple, dataclass

import numpy as np

from .constants import TWO_PI, um_from_omega, omega_from_um
from .dispersion import (FiberSpec, beta, beta1, beta2, effective_index,
                         gamma_pump)
from .errors import ConfigError, NoPhasematchError, RegimeError
from .numerics import (QuadratureSpec, _gauss_nodes, _sinc_phasor,
                       bracket_root, find_root)

# band scanned for phasematched frequencies [um]
SCAN_BAND_UM = (0.35, 2.2)
_SCAN_POINTS = 1200


@dataclass(frozen=True)
class PumpSpec:
    """One pump field: carrier, Gaussian bandwidth, average power, rep rate."""

    omega0: float        # rad/s
    sigma: float         # rad/s; 0 encodes the monochromatic limit
    avg_power: float     # W
    rep_rate: float      # Hz (ignored in the CW regime)

    def __post_init__(self):
        if not self.omega0 > 0:
            raise ValueError("omega0 must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.avg_power < 0:
            raise ValueError("avg_power must be >= 0")
        if self.rep_rate < 0:
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
        pumps = sorted((self.pump1, self.pump2), key=astuple)
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
    out = pref * np.exp(-((om - pump.omega0) / pump.sigma) ** 2)
    if out.ndim == 0:
        return float(out)
    return out


def nonlinear_phase(config):
    """gamma1 P1 + gamma2 P2 [1/m]; average powers in the CW regime."""
    g1 = gamma_pump(config.fiber, config.pump1.omega0)
    g2 = gamma_pump(config.fiber, config.pump2.omega0)
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
    out = (beta(om, fiber) + beta(conj, fiber)
           - beta(omega_s, fiber) - beta(omega_i, fiber) - nonlinear_phase(config))
    if np.asarray(out).ndim == 0:
        return float(out)
    return out


def _line_mismatch(config):
    """Callable: phase mismatch on the energy-conservation line.

    dk(om) = beta(omega_1) + beta(omega_2) - beta(om) - beta(total - om)
    - nonlinear phase, with both pumps at their carriers, om the signal
    frequency and total = omega_1 + omega_2.  A scalar gives a float through
    the exact scalar solve; an array goes through the array path.  The scan,
    the root refinement, the centre residual and the CW integrand all use
    this one function.
    """
    fiber = config.fiber
    total = config.omega_total
    s_pumps = beta(config.pump1.omega0, fiber) + beta(config.pump2.omega0, fiber)
    nl = nonlinear_phase(config)

    def dk(om):
        if np.ndim(om) == 0:
            return float(s_pumps - beta(float(om), fiber)
                         - beta(float(total - om), fiber) - nl)
        om = np.asarray(om, dtype=float)
        return s_pumps - beta(om, fiber) - beta(total - om, fiber) - nl

    return dk


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


def phasematch_roots(config):
    """Distinct signal-above phasematched frequencies, outer first.

    Sign-scans SCAN_BAND_UM (excluding each pump's neighbourhood, see
    ``_near_pump``), refines every crossing by bracketed root finding, and
    returns the roots above the energy-conservation midpoint ordered by
    detuning magnitude, largest (outer branch) first.  Mirror roots follow
    by energy conservation.  Empty tuple when nothing phasematches.
    """
    total = config.omega_total
    lo = omega_from_um(SCAN_BAND_UM[1])
    hi = omega_from_um(SCAN_BAND_UM[0])
    # the mirrored frequency must stay in band too
    lo = max(lo, total - hi)
    hi = min(hi, total - lo)
    if not lo < hi:
        raise NoPhasematchError("scan band is empty after mirroring",
                                scanned_range=SCAN_BAND_UM)
    grid = np.linspace(lo, hi, _SCAN_POINTS)
    f = _line_mismatch(config)
    vals = f(grid)
    keep = ~_near_pump(config, grid)

    roots = []
    for i in range(len(grid) - 1):
        if not (keep[i] and keep[i + 1]):
            continue
        if vals[i] == 0.0:
            root = float(grid[i])
        elif vals[i] * vals[i + 1] < 0:
            root = find_root(f, bracket_root(f, grid[i], grid[i + 1]),
                             tol=1e2)
        else:
            continue
        if not _near_pump(config, root):
            roots.append(root)
    above = sorted((om for om in roots if om > 0.5 * total),
                   key=lambda om: abs(om - 0.5 * total), reverse=True)
    distinct = []
    for om in above:
        if all(abs(om - o) > 1e-6 * om for o in distinct):
            distinct.append(om)
    return tuple(distinct)


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
    return PhasematchCenter(omega_s=om_s, omega_i=om_i,
                            residual=_line_mismatch(config)(om_sig))


def h_function(omega_s, omega_i, fiber):
    """Spectral weight omega_s omega_i beta1_s beta1_i / (n_s^2 n_i^2)."""
    oms = np.asarray(omega_s, dtype=float)
    omi = np.asarray(omega_i, dtype=float)
    out = (oms * omi * beta1(oms, fiber) * beta1(omi, fiber)
           / (effective_index(oms, fiber) ** 2 * effective_index(omi, fiber) ** 2))
    if out.ndim == 0:
        return float(out)
    return out


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


# Largest block (rows x pump nodes x columns) the pair-wise pump
# convolution evaluates at once.  It bounds the working set (a dozen arrays
# of this size, 128 KiB each when complex) while amortizing the per-call
# cost; on the Taylor pulsed integrand 2 ** 14 ran slower and peaked about
# 1 MB higher.  The step-index pulsed integrand's separable block holds
# about four real arrays per element, so twice the elements keep a like
# working set: on step-index sweep rows 2 ** 14 ran about 20% faster than
# 2 ** 13 at the same peak RSS, and 2 ** 15 no faster than 2 ** 14.
_BLOCK_ELEMENTS = 2 ** 13
_SEPARABLE_BLOCK_ELEMENTS = 2 * _BLOCK_ELEMENTS


def _in_row_blocks(fn, n_nodes, a, b, elements=_BLOCK_ELEMENTS):
    """``fn(a, b)`` over the rows of ``a`` and ``b`` (shape (P, n)) in blocks.

    A block holds as many whole rows as fit in ``elements`` with
    ``n_nodes`` pump nodes per element of ``b``; the results are joined in
    row order.
    """
    step = max(1, elements // (n_nodes * b.shape[1]))
    return np.concatenate([fn(a[r:r + step], b[r:r + step])
                           for r in range(0, len(b), step)])


def _pump_convolution(config):
    """Joint spectral amplitude f(omega_s, omega_i) for paired arrays.

    Builds the nonlinear phase and the fixed ``_pump_rule`` once; each call
    evaluates every pair in one pump integral, whose envelope product
    suppresses pairs far from energy conservation.  The pairs are a flat
    array or a block of rows (P, n); each row is contracted over the pump
    nodes on its own (a stacked ``matmul``), so a row's values do not
    depend on the other rows of the block, and rows are evaluated
    ``_in_row_blocks``, which bounds the working set.  Each (pump node,
    pair) element costs one sin and one cos (``_sinc_phasor``); the complex
    exp of sinc times e^{ix} took a second sin for the same bits.  The
    contraction stays one complex ``matmul``, because two real ones round
    differently.
    """
    if config.is_cw:
        raise RegimeError("joint spectral amplitude requires pulsed pumps")
    fiber = config.fiber
    L = fiber.length
    p1, p2 = config.pump1, config.pump2
    nl = nonlinear_phase(config)
    om_nodes, weights, beta_nodes, env1 = _pump_rule(config)
    pref = math.sqrt(math.pi * p1.sigma * p2.sigma / 2.0)

    def block(oms, omi):
        total = oms + omi
        beta_s = beta(oms, fiber)
        beta_i = beta(omi, fiber)
        # pump nodes on the second-to-last axis: (..., nodes, pairs)
        conj = total[..., None, :] - om_nodes[:, None]
        dk = (beta_nodes[:, None]
              + beta(conj.ravel(), fiber).reshape(conj.shape)
              - beta_s[..., None, :] - beta_i[..., None, :] - nl)
        x = 0.5 * L * dk
        amp = env1[:, None] * pump_envelope(p2, conj)
        return np.matmul(weights, _sinc_phasor(x, amp))

    def f(omega_s, omega_i):
        oms = np.atleast_1d(np.asarray(omega_s, dtype=float))
        omi = np.atleast_1d(np.asarray(omega_i, dtype=float))
        if oms.ndim == 1:
            return pref * block(oms, omi)
        return pref * _in_row_blocks(block, om_nodes.size, oms, omi)

    return f


def jsa(omega_s, omega_i, config):
    """Joint spectral amplitude f(omega_s, omega_i) (complex scalar)."""
    return complex(_pump_convolution(config)(float(omega_s), float(omega_i))[0])


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

    The whole grid is one block of rows for the pump convolution; each row
    is contracted on its own, so a row equals a one-row call bit for bit.
    Raises ValueError unless ``n_s`` and ``n_i`` are at least 1.
    """
    if n_s < 1 or n_i < 1:
        raise ValueError(f"jsa_grid needs n_s, n_i >= 1, got {n_s}, {n_i}")
    if window is None:
        window = jsa_window(config)
    s_lo, s_hi, i_lo, i_hi = window
    s_axis = np.linspace(s_lo, s_hi, n_s)
    i_axis = np.linspace(i_lo, i_hi, n_i)
    om_s, om_i = np.meshgrid(s_axis, i_axis, indexing="ij")
    amp = _pump_convolution(config)(om_s, om_i)
    return JointSpectrumGrid(omega_s_axis=tuple(float(v) for v in s_axis),
                             omega_i_axis=tuple(float(v) for v in i_axis),
                             amplitude=tuple(tuple(complex(v) for v in row)
                                             for row in amp))
