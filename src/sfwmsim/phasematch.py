"""Phase-matching cartography for degenerate pumping.

Two entry points, both behind the ``contour`` subcommand:

* ``contour`` maps the zero-mismatch contour in (pump frequency, detuning)
  space over a pump-wavelength sweep and labels the outer/inner solution
  branches;
* ``orientation_angle`` gives the angle of the phasematched level curve in
  (omega_s, omega_i) space at one point of it.  A -45 degree orientation
  corresponds to matched signal/idler group velocities, beta1(omega_s) ==
  beta1(omega_i), and is where the conversion efficiency peaks; the angle
  is exactly -45 degrees there, also when the mismatch gradient vanishes.
  It holds the higher-frequency pump at its carrier, which the -41 degree
  anchor of 521/1042 nm pumping decides.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import omega_from_um, um_from_omega
from .errors import DivergenceError, NoPhasematchError, RegimeError
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


def _fold_angle_deg(theta_rad):
    th = math.degrees(theta_rad)
    while th <= -90.0:
        th += 180.0
    while th > 90.0:
        th -= 180.0
    return th


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
    """
    fiber = config.fiber
    b1_conj = beta1(omega_s + omega_i - config.pump2.omega0, fiber)
    g_s = b1_conj - beta1(omega_s, fiber)
    g_i = b1_conj - beta1(omega_i, fiber)
    if g_s == g_i:
        return -45.0
    if math.hypot(g_s, g_i) < _GRAD_FLOOR:
        raise OrientationUndefinedError(
            f"mismatch gradient below {_GRAD_FLOOR} s/m at "
            f"({omega_s:.4e}, {omega_i:.4e})")
    return _fold_angle_deg(math.atan2(-g_s, g_i))


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
    detuning is the outer branch, anything else inner; frequencies with no
    solution are skipped.  Points are ordered by pump frequency, outer
    branch first within a frequency.

    The roots of all the pump frequencies are found in lockstep
    (``phasematch_roots_lockstep``): the pump betas and nonlinear phases in
    one batch, and each Brent step of every bracket in one exact mode
    solve.  The answer is bit for bit that of ``phasematch_roots`` at one
    pump frequency after another, and so is the error raised: a
    NoPhasematchError skips its frequency, and any other error is the one
    the lowest-index pump frequency raises, after the frequencies below it
    have given their points (orientation angles included).
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
        except (ValueError, ArithmeticError) as exc:
            error = exc        # an invalid wavelength: raised after the ones below
            break
    points = []
    for cfg, roots in zip(configs, phasematch_roots_lockstep(configs)):
        if isinstance(roots, NoPhasematchError):
            continue
        if isinstance(roots, Exception):
            raise roots
        om_p = cfg.pump1.omega0
        for rank, om_s in enumerate(roots):
            om_i = cfg.omega_total - om_s
            branch = "outer" if rank == 0 else "inner"
            for s_sign in (+1, -1):
                oms, omi = (om_s, om_i) if s_sign > 0 else (om_i, om_s)
                try:
                    theta = orientation_angle(oms, omi, cfg)
                except OrientationUndefinedError:
                    continue
                points.append(ContourPoint(
                    pump_frequency=om_p,
                    detuning_signal=oms - om_p,
                    detuning_idler=omi - om_p,
                    theta_si=theta,
                    branch=branch))
    if error is not None:
        raise error
    points.sort(key=lambda p: (p.pump_frequency, p.branch != "outer",
                               -p.detuning_signal))
    return points
