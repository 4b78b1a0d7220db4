"""Electron scattering amplitudes and angular probability distributions.

The full-energy spinor matrix elements are kept exactly as modeled,
including the sin(theta) numerator of the spin-flip channel; textbook
spin-flip elements usually carry sin(theta/2) instead, so the flip channel
here should be read as part of this model's definition rather than as a
general result.  At optical momenta (pc ~ eV against mc^2 ~ 0.5 MeV) the
flip channel is negligible either way and the no-flip channel reduces to a
constant, leaving the squared disk form factor as the whole distribution.

The overall constant multiplying every distribution is fixed by the chosen
normalization mode and never computed from the barrier height or the
normalization volume: only normalized shapes are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .numerics import DomainError, disk_amplitude
from .patterns import Normalization, Pattern, sample_pattern
from .potential import BeamParams, WirePotential, momentum_transfer_single


class Spin(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class SpinChannel:
    """Initial/final spin pair; classified as flip or no-flip."""

    initial: Spin
    final: Spin

    @property
    def is_flip(self) -> bool:
        return self.initial is not self.final


NO_FLIP = SpinChannel(Spin.UP, Spin.UP)
FLIP = SpinChannel(Spin.UP, Spin.DOWN)


def spinor_element(beam: BeamParams, theta, channel: SpinChannel = NO_FLIP):
    """Electron-current factor between spin states, in eV.

    Flip channel:    (pc)^2 sin(theta) / (E + mc^2)
    No-flip channel: ((E + mc^2)^2 + (pc)^2 cos(theta)) / (E + mc^2)

    Valid at all energies.  In the low-energy limit the flip element
    vanishes and the no-flip element tends to the constant 2 mc^2.  ``theta``
    is a scalar or an array of angles.
    """
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"spinor_element: theta must be finite, got {theta!r}")
    pc = beam.pc_ev
    e_plus_m = beam.energy_ev + beam.mass_ev
    if channel.is_flip:
        return pc * pc * np.sin(theta) / e_plus_m
    return (e_plus_m * e_plus_m + pc * pc * np.cos(theta)) / e_plus_m


def unit_spinor(theta: float) -> float:
    """Low-energy spinor factor: exactly 1.0, so 1.0 * F == F bit for bit."""
    return 1.0


def spinor_factors(beam: BeamParams, mode: str, channel: SpinChannel | None = NO_FLIP):
    """Spinor factors of theta (scalar or array) whose squared amplitudes ``mode`` sums.

    Low-energy mode is full mode with :func:`unit_spinor`, where the flip
    element vanishes: it takes the no-flip channel or the spin sum, and a
    flip channel raises DomainError.  Full mode takes the spinor element of
    ``channel``, or of both channels if it is None (spin sum).
    """
    if mode == "low-energy":
        if channel is not None and channel.is_flip:
            raise DomainError("low-energy mode has no flip channel (its element vanishes "
                              "there); use mode 'full' for the flip density")
        return (unit_spinor,)
    if mode != "full":
        raise DomainError(f"unknown mode {mode!r}; expected 'low-energy' or 'full'")
    channels = (NO_FLIP, FLIP) if channel is None else (channel,)
    return tuple(partial(spinor_element, beam, channel=c) for c in channels)


def amplitudes(p_radius: float, theta, spinors=(unit_spinor,)) -> list:
    """Amplitudes spinor(theta) * F(qR), qR = 2 pR |sin(theta/2)|, one per spinor factor.

    ``theta`` is a scalar or an array of angles; so is each amplitude.
    """
    f = disk_amplitude(momentum_transfer_single(p_radius, theta))
    return [spinor(theta) * f for spinor in spinors]


def _density(p_radius: float, theta: float, spinors) -> float:
    return sum(a * a for a in amplitudes(p_radius, theta, spinors))


def dsigma_dtheta_full(
    beam: BeamParams,
    wire: WirePotential,
    theta: float,
    channel: SpinChannel | None = NO_FLIP,
) -> float:
    """Full-energy angular density |spinor|^2 * F(qR)^2, constant C = 1.

    ``channel`` None sums over final spins (flip + no-flip).  Elastic and
    planar by construction: theta enters only through the momentum transfer
    q = 2 p |sin(theta/2)|.
    """
    return _density(beam.momentum * wire.radius, theta, spinor_factors(beam, "full", channel))


def dsigma_dtheta_low_energy(p_radius: float, theta: float) -> float:
    """Low-energy angular density {0F1(2, -(pR)^2 sin^2(theta/2))}^2, C = 1.

    ``p_radius`` is the dimensionless momentum-radius product p*R.
    """
    return _density(p_radius, theta, (unit_spinor,))


def sample_beam_pattern(density, beam: BeamParams, wire: WirePotential, thetas, mode: str,
                        channel: SpinChannel | None, normalization, **metadata) -> Pattern:
    """Sample ``density(p_radius, theta, spinors)`` with the beam's provenance.

    Shared by the single- and two-beam patterns: ``mode`` and ``channel``
    only choose the spinor factors (see :func:`spinor_factors`).
    """
    spinors = spinor_factors(beam, mode, channel)
    p_radius = beam.momentum * wire.radius
    return sample_pattern(
        lambda theta: density(p_radius, theta, spinors), thetas, normalization, mode=mode,
        channel="summed" if channel is None else ("flip" if channel.is_flip else "no-flip"),
        wavelength_nm=beam.wavelength_m * 1e9, mass_ev=beam.mass_ev,
        diameter_um=wire.diameter_um, **metadata)


def pattern_single(
    beam: BeamParams,
    wire: WirePotential,
    thetas: np.ndarray | None = None,
    mode: str = "low-energy",
    channel: SpinChannel | None = NO_FLIP,
    normalization: Normalization = Normalization.RAW,
) -> Pattern:
    """Sample the single-beam distribution over an angular grid.

    mode "low-energy" uses the squared form factor alone and takes no flip
    ``channel``; mode "full" uses the full-energy spinor elements for
    ``channel`` (None means summed over final spins).  Grid evaluation is
    pure and order-independent.
    """
    return sample_beam_pattern(_density, beam, wire, thetas, mode, channel, normalization,
                               kind="single-beam")
