"""Numerical laboratory for scattering maps of compactly perturbed
time-dependent Schrodinger operators: classical bicharacteristic scattering,
the quantum scattering map on asymptotic data, and the property suite tying
the two together.

The command-line module `shell` is imported on demand (`from cusplab import
shell`), so that `python -m cusplab.shell` runs it only once."""

from . import errors, flow, phasespace, quantum, symbols, verify

__all__ = ["errors", "flow", "phasespace", "quantum", "symbols", "verify", "shell"]

__version__ = "0.1.0"
