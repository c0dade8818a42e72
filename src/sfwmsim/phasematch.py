"""Phase-matching cartography for degenerate pumping.

``contour`` maps the zero-mismatch contour in (pump frequency, detuning)
space over a pump-wavelength sweep, labels the outer/inner solution
branches and gives each point the angle of the phasematched level curve in
(omega_s, omega_i) space, ``orientation_angle``.  A -45 degree orientation
corresponds to matched signal/idler group velocities, beta1(omega_s) ==
beta1(omega_i), and is where the conversion efficiency peaks.  The
contour's answer is defined per pump frequency by ``phasematch_roots`` and
``orientation_angle``; it is computed in one array pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import omega_from_um, um_from_omega
from .errors import (ConfigError, DivergenceError, NoPhasematchError,
                     RegimeError, SfwmError)
from .dispersion import beta1
from .sfwm import phasematch_roots_lockstep

_GRAD_FLOOR = 1e-18     # s/m; below this the level-curve direction is undefined


class OrientationUndefinedError(DivergenceError):
    """Mismatch gradient too small to define a level-curve direction."""


@dataclass(frozen=True)
class ContourPoint:
    pump_frequency: float      # rad/s
    detuning_signal: float     # rad/s, omega_s - omega_p
    detuning_idler: float      # rad/s, omega_i - omega_p
    theta_si: float            # degrees in (-90, 90]
    branch: str                # 'outer' | 'inner'

    @property
    def pump_wavelength_um(self):
        return um_from_omega(self.pump_frequency)


def orientation_angle(omega_s, omega_i, config):
    """Angle of the zero-mismatch level curve at (omega_s, omega_i) [deg].

    With the higher-frequency pump (``pump2``) held at its carrier omega_2,
    the gradient of the mismatch is taken from the group slowness beta1
    directly:

        g_s = beta1(omega_s + omega_i - omega_2) - beta1(omega_s)
        g_i = beta1(omega_s + omega_i - omega_2) - beta1(omega_i)

    (the nonlinear phase is constant and drops out).  The angle is measured
    from the omega_s axis and folded into (-90, 90].  It depends only on
    the ratio g_s / g_i, so equal components -- matched signal/idler group
    velocities -- give exactly -45 degrees whatever their size, zero
    included.  OrientationUndefinedError is raised only when the components
    are unequal and their norm is below ``_GRAD_FLOOR``.
    Which pump is held is a physics choice: pumping the 0.97 um, 0.91-fill
    PCF at 521/1042 nm, holding the 521 nm pump gives the -41.50 degree
    anchor and holding the 1042 nm pump -40.46.  Read from the stored pump
    order, the angle does not depend on the order the pumps were given in.
    This is the one-point case of ``_orientation_angles``.
    """
    theta, = _orientation_angles(config.fiber,
                                 [(omega_s, omega_i, config.pump2.omega0)])
    if theta is None:
        raise OrientationUndefinedError(
            f"mismatch gradient below {_GRAD_FLOOR} s/m at "
            f"({omega_s:.4e}, {omega_i:.4e})")
    return theta


def _orientation_angles(fiber, points):
    """``orientation_angle`` of many (omega_s, omega_i, omega_2) points, None
    where undefined, from one beta1 query over the (omega_s + omega_i -
    omega_2, omega_s, omega_i) of each point in turn.  beta1 evaluates each
    frequency on its own, so the angles have the bits of one-point queries.
    If the query raises an SfwmError, one query per frequency in that order
    raises the error of the first failing one."""
    omegas = [om for s, i, held in points for om in (s + i - held, s, i)]
    try:
        b1 = beta1(np.array(omegas, dtype=float), fiber).tolist()
    except SfwmError:
        b1 = [beta1(om, fiber) for om in omegas]
    return [_angle(c - s, c - i) for c, s, i in zip(b1[::3], b1[1::3], b1[2::3])]


def _angle(g_s, g_i):
    """Angle [deg] in (-90, 90] of the level curve with mismatch gradient
    (g_s, g_i): -45 where the components are equal, None where undefined."""
    if g_s == g_i:
        return -45.0
    if math.hypot(g_s, g_i) < _GRAD_FLOOR:
        return None
    th = math.degrees(math.atan2(-g_s, g_i))
    while th <= -90.0:
        th += 180.0
    while th > 90.0:
        th -= 180.0
    return th


def _repumped(config, omega_p):
    """Config with the (degenerate) pumps re-centered at omega_p."""
    return replace(config,
                   pump1=replace(config.pump1, omega0=omega_p),
                   pump2=replace(config.pump2, omega0=omega_p))


def contour(config, pump_wavelength_range_um, n_points):
    """Zero-mismatch contour over a pump-wavelength sweep.

    For every pump frequency on the grid all signal-side solutions are
    found; each contributes two points (signal above and below the pump).
    Branch labels follow detuning magnitude per pump frequency: the largest
    detuning is the outer branch, anything else inner.  Frequencies with no
    solution and points with an undefined orientation are skipped.  Points
    are ordered by pump frequency, outer branch first within a frequency.

    The answer, and the error raised, are those of ``phasematch_roots`` and
    then ``orientation_angle`` at one pump frequency after another, bit for
    bit, from one array pass: the roots of every frequency in lockstep
    (``phasematch_roots_lockstep``), then one beta1 query for the angles of
    all points below the first frequency whose roots raised
    (``_orientation_angles``), and only then that roots error.
    """
    if not config.degenerate:
        raise RegimeError("the pump-detuning contour is defined for "
                          "degenerate pumps")
    lo_um, hi_um = pump_wavelength_range_um
    lams = np.linspace(lo_um, hi_um, n_points)
    configs, error = [], None
    for lam in lams:
        try:
            configs.append(_repumped(config, omega_from_um(float(lam))))
        except (ConfigError, ValueError, ArithmeticError) as exc:
            error = exc        # an invalid wavelength: raised after the ones below
            break
    # (signal, idler, pump frequency, branch) of every point, pump by pump
    candidates = []
    for cfg, roots in zip(configs, phasematch_roots_lockstep(configs)):
        if isinstance(roots, NoPhasematchError):
            continue
        if isinstance(roots, Exception):
            error = roots      # raised after the angles of the ones below
            break
        om_p = cfg.pump1.omega0
        for rank, om_s in enumerate(roots):
            om_i = cfg.omega_total - om_s
            branch = "outer" if rank == 0 else "inner"
            candidates += [(om_s, om_i, om_p, branch), (om_i, om_s, om_p, branch)]
    thetas = _orientation_angles(config.fiber, [c[:3] for c in candidates])
    points = [ContourPoint(om_p, oms - om_p, omi - om_p, theta, branch)
              for (oms, omi, om_p, branch), theta in zip(candidates, thetas)
              if theta is not None]
    if error is not None:
        raise error
    points.sort(key=lambda p: (p.pump_frequency, p.branch != "outer",
                               -p.detuning_signal))
    return points
