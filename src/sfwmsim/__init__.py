"""Design and simulation of co-polarized spontaneous four-wave-mixing
photon-pair sources in single-mode fiber.

Given fiber geometry and pump parameters the package computes dispersion,
phase matching, joint spectra and photon-pair conversion efficiency in the
pulsed and monochromatic regimes, with numerical integration validated
against closed-form limits.
"""

__version__ = "0.1.0"

from ._kernels_py import active_backend
from .dispersion import (FiberSpec, ModeProfile, NonlinearParameters,
                         TaylorDispersion, beta, beta1, beta2,
                         effective_area, effective_index,
                         find_zero_dispersion, gamma_pump, gamma_sfwm,
                         mode_profile, nonlinear_parameters, silica_index)
from .efficiency import (EfficiencyResult, eta_closed, eta_cw,
                         eta_pulsed_numeric, l_max, photons_per_pulse,
                         pump_photon_rate, sigma_max)
from .errors import (BracketError, ConfigError, DivergenceError,
                     ModeCutoffError, NonConvergenceError, NoPhasematchError,
                     OverlapError, RegimeError, SfwmError,
                     WavelengthRangeError, WindowError)
from .numerics import (QuadratureResult, QuadratureSpec, RootBracket,
                       bracket_root, erf_ratio, find_root, integrate_1d,
                       integrate_2d, sinc)
from .phasematch import ContourPoint, contour, orientation_angle
from .sfwm import (JointSpectrumGrid, PhasematchCenter, PumpSpec,
                   SourceConfig, h_function, jsa, jsa_grid, jsa_window,
                   peak_power, phase_mismatch, phasematch_roots,
                   pump_envelope, solve_phasematch_center)
from .config_io import load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
