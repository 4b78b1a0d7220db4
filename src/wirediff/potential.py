"""Beam kinematics and unit handling.

Natural units (hbar = c = 1) are used internally, so momenta are inverse
meters and the momentum-radius product p*R is dimensionless.  The wire, a
cylindrical barrier of radius R, enters every density only through p*R, so
the densities take that product and no wire object.  The barrier height
only rescales the overall constant of the transition probability, never a
normalized angular shape, so it is not modeled.  Public constructors accept
SI quantities (nm, eV) and convert at the boundary.

It also holds what the command line parses beside the beam: the string
spellings of the mode, the spin channel and the normalization, so that the
parser, like this module, needs no numpy; :mod:`~wirediff.electron` and
:mod:`~wirediff.patterns` import them back.  ``BeamParams`` is a named tuple, which needs no import
beyond ``collections``, one that ``functools`` has already made.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .numerics import DomainError, _is_real, _require_positive

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


class BeamParams(namedtuple("BeamParams", "momentum mass_ev")):
    """Incident beam kinematics: momentum [1/m] and rest mass [eV].

    An immutable value, compared and hashed by its two fields.  Energy is
    derived, E = sqrt((pc)^2 + (mc^2)^2), so the mass-shell relation holds
    to machine precision by construction.
    """

    __slots__ = ()

    def __new__(cls, momentum: float, mass_ev: float = ELECTRON_MASS_EV):
        _require_positive("beam momentum", momentum)
        if not (_is_real(mass_ev) and math.isfinite(mass_ev) and mass_ev >= 0.0):
            raise DomainError(f"beam mass must be non-negative and finite, got {mass_ev!r}")
        return super().__new__(cls, momentum, mass_ev)

    # namedtuple's _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def from_wavelength_m(cls, wavelength_m: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        _require_positive("wavelength", wavelength_m)
        return cls(momentum=math.tau / wavelength_m, mass_ev=mass_ev)

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        # before the product, which text would make a TypeError
        _require_positive("wavelength", wavelength_nm)
        return cls.from_wavelength_m(wavelength_nm * 1e-9, mass_ev=mass_ev)

    @property
    def pc_ev(self) -> float:
        """Momentum as an energy, p*c in eV."""
        return self.momentum * HBARC_EV_M

    @property
    def energy_ev(self) -> float:
        """Total energy E = sqrt((pc)^2 + (mc^2)^2) in eV."""
        return math.hypot(self.pc_ev, self.mass_ev)

