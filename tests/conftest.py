import numpy as np
import pytest

from sfwmsim.constants import omega_from_um
from sfwmsim.dispersion import FiberSpec, TaylorDispersion
from sfwmsim.sfwm import PumpSpec, SourceConfig


@pytest.fixture(scope="session")
def fiber_a():
    """Reference fiber with one zero-dispersion point near 0.715 um."""
    return FiberSpec(core_radius=0.97e-6, air_fill_fraction=0.91, length=0.5)


@pytest.fixture(scope="session")
def fiber_b():
    """Two-ZDW fiber used for the phasematching loop."""
    return FiberSpec(core_radius=0.5e-6, air_fill_fraction=0.6, length=1.0)


@pytest.fixture(scope="session")
def cfg_dp(fiber_a):
    """Degenerate pumping at 708 nm, 3 THz, 300 uW, 80 MHz."""
    pump = PumpSpec.from_units(0.708, 3.0, 0.3, 80.0)
    return SourceConfig(fiber=fiber_a, pump1=pump, pump2=pump)


@pytest.fixture(scope="session")
def cfg_ndp(fiber_a):
    """Fundamental + second-harmonic pumping (521 / 1042 nm)."""
    return SourceConfig(fiber=fiber_a,
                        pump1=PumpSpec.from_units(0.521, 3.0, 0.3, 80.0),
                        pump2=PumpSpec.from_units(1.042, 3.0, 0.3, 80.0))


@pytest.fixture(scope="session")
def cfg_cw_dp(fiber_a):
    pump = PumpSpec.from_units(0.708, 0.0, 0.3)
    return SourceConfig(fiber=fiber_a, pump1=pump, pump2=pump)


@pytest.fixture(scope="session")
def cfg_cw_ndp(fiber_a):
    return SourceConfig(fiber=fiber_a,
                        pump1=PumpSpec.from_units(0.521, 0.0, 0.3),
                        pump2=PumpSpec.from_units(1.042, 0.0, 0.3))


@pytest.fixture(scope="session")
def cfg_loop(fiber_b):
    """Degenerate pumping of the two-ZDW fiber (750 nm, 5 THz, 1 m)."""
    pump = PumpSpec.from_units(0.75, 5.0, 0.3, 80.0)
    return SourceConfig(fiber=fiber_b, pump1=pump, pump2=pump)


def taylor_fiber(omega_ref, coeffs, core_radius=0.97e-6, fill=0.91,
                 length=0.5):
    """Fiber with polynomial dispersion (geometry kept for profiles)."""
    return FiberSpec(core_radius=core_radius, air_fill_fraction=fill,
                     length=length,
                     taylor=TaylorDispersion(reference_frequency=omega_ref,
                                             beta_coefficients=tuple(coeffs)))


def linear_fit_r2(x, y):
    """R^2 of an ordinary least-squares line through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
