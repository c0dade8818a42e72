"""Kernel module binding.

The package has one kernel implementation, ``_kernels_py`` (NumPy for
arrays, plain floats for short queries).  ``kernels`` names it for the
modules that solve modes, and ``active_backend`` reports it in run
manifests.
"""
from . import _kernels_py as kernels


def active_backend():
    """Name of the kernel implementation in use (always 'python')."""
    return "python"
