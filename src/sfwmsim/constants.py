"""Physical constants (SI) and unit conversions used across the package.

All internal computation is in SI with angular frequencies in rad/s.
User-facing units (um, THz, mW, MHz) are converted at the boundary; the
bandwidth convention is 1 THz = 1e12 rad/s (validated against the pulsed
pump anchors: 3 THz at 708 nm gives a 0.94 nm intensity FWHM and a 4.5 W
peak power for 300 uW average at 80 MHz).
"""
import math

import numpy as np

from .errors import ConfigError

C = 299792458.0                # speed of light [m/s]
HBAR = 1.054571817e-34         # reduced Planck constant [J s]
TWO_PI = 2.0 * math.pi

RADS_PER_THZ = 1.0e12          # sigma unit: "THz" means 1e12 rad/s
N2_SILICA_DEFAULT = 2.6e-20    # Kerr nonlinear index of fused silica [m^2/W]

SELLMEIER_RANGE_UM = (0.21, 3.7)   # validity window of the fused-silica fit


def omega_from_um(wavelength_um):
    """Angular frequency [rad/s] from vacuum wavelength [um].

    Raises ConfigError unless every wavelength is positive.
    """
    if not np.all(np.greater(wavelength_um, 0)):
        raise ConfigError(f"wavelength must be > 0 um, got {wavelength_um!r}")
    return TWO_PI * C / (wavelength_um * 1e-6)


def um_from_omega(omega):
    """Vacuum wavelength [um] from angular frequency [rad/s]."""
    return TWO_PI * C / omega * 1e6
