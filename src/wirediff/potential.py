"""Cylindrical-barrier wire model, beam kinematics, and unit handling.

Natural units (hbar = c = 1) are used internally, so momenta are inverse
meters and the momentum-radius product p*R is dimensionless.  Public
constructors accept SI quantities (nm, um, eV) and convert at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, disk_amplitude

TWO_PI = 2.0 * math.pi

HBARC_EV_M = 1.973269804e-7
"""hbar * c in eV * m (CODATA)."""

ELECTRON_MASS_EV = 510_998.95
"""Electron rest energy in eV."""


@dataclass(frozen=True)
class WirePotential:
    """Cylindrical barrier of radius ``radius`` [m] and height ``height_ev`` [eV].

    The height only rescales the overall constant of the transition
    probability; it never enters any normalized angular shape.  It is
    carried as metadata so configurations remain self-describing.
    """

    radius: float
    height_ev: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"wire radius must be positive and finite, got {self.radius!r}")
        if not math.isfinite(self.height_ev):
            raise ValueError(f"wire height must be finite, got {self.height_ev!r}")

    @classmethod
    def from_diameter_um(cls, diameter_um: float, height_ev: float = 1.0) -> "WirePotential":
        """Build from a diameter in micrometers (the usual reporting convention)."""
        return cls(radius=0.5 * diameter_um * 1e-6, height_ev=height_ev)

    @property
    def diameter_um(self) -> float:
        return 2.0 * self.radius * 1e6


@dataclass(frozen=True)
class BeamParams:
    """Incident beam kinematics: momentum [1/m] and rest mass [eV].

    Energy is derived, E = sqrt((pc)^2 + (mc^2)^2), so the mass-shell
    relation holds to machine precision by construction.
    """

    momentum: float
    mass_ev: float = ELECTRON_MASS_EV

    def __post_init__(self):
        if not (math.isfinite(self.momentum) and self.momentum > 0.0):
            raise ValueError(f"beam momentum must be positive and finite, got {self.momentum!r}")
        if not (math.isfinite(self.mass_ev) and self.mass_ev >= 0.0):
            raise ValueError(f"beam mass must be non-negative and finite, got {self.mass_ev!r}")

    @classmethod
    def from_wavelength_m(cls, wavelength_m: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        if not (math.isfinite(wavelength_m) and wavelength_m > 0.0):
            raise ValueError(f"wavelength must be positive and finite, got {wavelength_m!r}")
        return cls(momentum=TWO_PI / wavelength_m, mass_ev=mass_ev)

    @classmethod
    def from_wavelength_nm(cls, wavelength_nm: float, mass_ev: float = ELECTRON_MASS_EV) -> "BeamParams":
        return cls.from_wavelength_m(wavelength_nm * 1e-9, mass_ev=mass_ev)

    @property
    def wavelength_m(self) -> float:
        return TWO_PI / self.momentum

    @property
    def pc_ev(self) -> float:
        """Momentum as an energy, p*c in eV."""
        return self.momentum * HBARC_EV_M

    @property
    def energy_ev(self) -> float:
        """Total energy E = sqrt((pc)^2 + (mc^2)^2) in eV."""
        return math.sqrt(self.pc_ev**2 + self.mass_ev**2)


def momentum_transfer_single(p: float, theta):
    """Elastic momentum transfer q = 2 p |sin(theta/2)| for one beam [1/m] (q*R given p*R).

    ``theta`` is a scalar or an array of angles; the result has its shape.
    """
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError(f"momentum_transfer_single: p > 0 required, got {p!r}")
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"momentum_transfer_single: theta must be finite, got {theta!r}")
    return 2.0 * p * np.abs(np.sin(0.5 * theta))


def form_factor(wire: WirePotential, q: float) -> float:
    """Normalized disk transform of the barrier at momentum transfer q >= 0.

    Returns 0F1(2, -(q R)^2 / 4), i.e. 2 J1(qR)/(qR): 1 at q = 0, first
    dark zero where qR equals the first positive zero of J1.  Independent
    of the barrier height by construction.
    """
    if not (math.isfinite(q) and q >= 0.0):
        raise DomainError(f"form_factor: q >= 0 required, got {q!r}")
    return disk_amplitude(q * wire.radius)
