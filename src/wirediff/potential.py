"""Beam kinematics and unit handling.

Natural units (hbar = c = 1) are used internally, so momenta are inverse
meters and the momentum-radius product p*R is dimensionless.  The wire, a
cylindrical barrier of radius R, enters every density only through p*R, so
the densities take that product and no wire object.  The barrier height
only rescales the overall constant of the transition probability, never a
normalized angular shape, so it is not modeled.  Public constructors accept
SI quantities (nm, eV) and convert at the boundary.

It also holds what the command line parses beside the beam: the string
spellings of the mode, the spin channel and the normalization, and the
default grid, so that the parser, like this module, needs no numpy;
:mod:`~wirediff.electron` and :mod:`~wirediff.patterns` import them back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import DomainError, _is_real

HBARC_EV_M = 1.973269804e-7
"""hbar * c in eV * m (CODATA)."""

ELECTRON_MASS_EV = 510_998.95
"""Electron rest energy in eV."""

# the spellings of ``electron.amplitudes``' mode and channel (a final spin, or
# "sum" over both) and of ``patterns.sample_pattern``' normalization, which the
# CLI's --mode, --spin and --normalization offer
_MODES = ("low-energy", "full")
_CHANNELS = ("flip", "no-flip", "sum")
_NORMALIZATIONS = ("peak-one", "raw", "unit-area")

# (theta min [rad], theta max [rad], points) of patterns.default_grid and of
# the CLI's --theta-min, --theta-max and --theta-points defaults
_DEFAULT_GRID = (-0.15, 0.15, 2001)


@dataclass(frozen=True)
class BeamParams:
    """Incident beam kinematics: momentum [1/m] and rest mass [eV].

    Energy is derived, E = sqrt((pc)^2 + (mc^2)^2), so the mass-shell
    relation holds to machine precision by construction.
    """

    momentum: float
    mass_ev: float = ELECTRON_MASS_EV

    def __post_init__(self):
        if not (_is_real(self.momentum) and math.isfinite(self.momentum) and self.momentum > 0.0):
            raise DomainError(f"beam momentum must be positive and finite, got {self.momentum!r}")
        if not (_is_real(self.mass_ev) and math.isfinite(self.mass_ev) and self.mass_ev >= 0.0):
            raise DomainError(f"beam mass must be non-negative and finite, got {self.mass_ev!r}")

    @classmethod
    def from_wavelength_m(cls, wavelength_m: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        if not (_is_real(wavelength_m) and math.isfinite(wavelength_m) and wavelength_m > 0.0):
            raise DomainError(f"wavelength must be positive and finite, got {wavelength_m!r}")
        return cls(momentum=math.tau / wavelength_m, mass_ev=mass_ev)

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        if not _is_real(wavelength_nm):  # before the product, which text would make a TypeError
            raise DomainError(f"wavelength must be positive and finite, got {wavelength_nm!r}")
        return cls.from_wavelength_m(wavelength_nm * 1e-9, mass_ev=mass_ev)

    @property
    def pc_ev(self) -> float:
        """Momentum as an energy, p*c in eV."""
        return self.momentum * HBARC_EV_M

    @property
    def energy_ev(self) -> float:
        """Total energy E = sqrt((pc)^2 + (mc^2)^2) in eV."""
        return math.hypot(self.pc_ev, self.mass_ev)

