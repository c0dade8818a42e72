import importlib
import pkgutil

import numpy as np
import pytest

from sfwmsim.constants import omega_from_um
from sfwmsim.dispersion import FiberSpec, TaylorDispersion, beta
from sfwmsim.sfwm import PumpSpec, SourceConfig, nonlinear_phase


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


def pump_integral(cfg, omega_s, omega_i, panels=32, order=48):
    """Joint amplitude f at the pairs (omega_s, omega_i), from its definition.

    f = sqrt(pi s1 s2 / 2) int dw a1(w) a2(u - w) sinc(x) e^{ix}, with
    u = omega_s + omega_i, x = L/2 (beta(w) + beta(u - w) - beta(omega_s)
    - beta(omega_i) - nl) and the Gaussian amplitudes
    a(w) = (2/pi)^(1/4) sigma^(-1/2) exp(-((w - w0)/sigma)^2), by a fixed
    composite Gauss-Legendre rule of ``panels`` x ``order`` nodes over
    pump 1's carrier +- 8 sigma1, where a1 falls to e^-64 of its peak.
    It shares only beta and the nonlinear phase with the package.
    """
    p1, p2 = cfg.pump1, cfg.pump2
    fiber = cfg.fiber
    oms = np.asarray(omega_s, dtype=float)[..., None]    # pairs x nodes
    omi = np.asarray(omega_i, dtype=float)[..., None]
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(p1.omega0 - 8 * p1.sigma, p1.omega0 + 8 * p1.sigma,
                        panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (0.5 * (edges[:-1, None] + edges[1:, None]) + half * x).ravel()
    weights = (half * w).ravel()
    conj = oms + omi - nodes
    phase = 0.5 * fiber.length * (beta(nodes, fiber) + beta(conj, fiber)
                                  - beta(oms, fiber) - beta(omi, fiber)
                                  - nonlinear_phase(cfg))

    def amplitude(pump, om):
        return ((2 / np.pi) ** 0.25 / np.sqrt(pump.sigma)
                * np.exp(-((om - pump.omega0) / pump.sigma) ** 2))

    integrand = (amplitude(p1, nodes) * amplitude(p2, conj)
                 * np.sinc(phase / np.pi) * np.exp(1j * phase))
    return np.sqrt(np.pi * p1.sigma * p2.sigma / 2) * (integrand @ weights)


def linear_fit_r2(x, y):
    """R^2 of an ordinary least-squares line through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def package_lru_caches():
    """Every functools cache the sfwmsim modules define, by qualified name.

    Found by walking the package, so a cache added anywhere in it, also on
    a class, is included.
    """
    import sfwmsim
    caches = {}
    for info in pkgutil.iter_modules(sfwmsim.__path__, "sfwmsim."):
        module = importlib.import_module(info.name)
        owners = [module] + [obj for obj in vars(module).values()
                             if isinstance(obj, type)]
        for owner in owners:
            for obj in vars(owner).values():
                if (hasattr(obj, "cache_info")
                        and obj.__module__ == module.__name__):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return caches
