"""Exception hierarchy.

Every failure mode that callers are expected to handle gets its own class;
the CLI maps each to exit code 2 or 3 (see ``cli``).
"""


class SfwmError(Exception):
    """Base class for all package errors."""


class ConfigError(SfwmError):
    """Invalid configuration (schema violation or physical invariant)."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class WavelengthRangeError(SfwmError):
    """Wavelength outside the validity window of the material model."""


class ModeCutoffError(SfwmError):
    """No guided fundamental mode at the requested frequency."""


class BracketError(SfwmError):
    """Root bracket endpoints do not straddle a sign change."""


class NonConvergenceError(SfwmError):
    """Adaptive quadrature hit the subdivision cap before converging.

    Carries the best available estimate so callers can decide whether the
    partial answer is still usable.
    """

    def __init__(self, message, best=None, error_estimate=None,
                 subdivisions=None, axis=None):
        self.best = best
        self.error_estimate = error_estimate
        self.subdivisions = subdivisions
        self.axis = axis
        if axis is not None:
            message = f"{message} (axis={axis})"
        super().__init__(message)


class RegimeError(SfwmError):
    """Operation called in the wrong pump regime (pulsed vs monochromatic)."""


class NoPhasematchError(SfwmError):
    """No phasematched frequency found in the scanned band."""

    def __init__(self, message, scanned_range=None):
        self.scanned_range = scanned_range
        super().__init__(message)


class DivergenceError(SfwmError):
    """Closed-form efficiency undefined: signal/idler group velocities equal."""


class WindowError(SfwmError):
    """Integration window failed to converge within the expansion budget.

    Carries the last two window values so the trend is visible.
    """

    def __init__(self, message, last_values=None):
        self.last_values = last_values
        super().__init__(message)


class OverlapError(SfwmError):
    """Transverse mode overlap vanishes; effective area undefined."""
