"""Electron scattering amplitudes and the single-beam density over an amplitude.

A channel, "no-flip", "flip" or "sum", picks one final spin or their sum.
Mode "full" keeps the full-energy spinor matrix elements u'^dagger u, with
both spins quantized along the incident beam: in that basis sin(theta) is the
flip element's angular factor, and the sin(theta/2) of textbook flip
elements belongs to the helicity basis, whose final spin follows the
scattered momentum.  Each channel's density depends on that basis; their
sum, the Mott trace 2 (E^2 + m^2 + p^2 cos(theta)), does not.  At optical
momenta (pc ~ eV against mc^2 ~ 0.5 MeV) the flip channel is negligible
either way and the no-flip channel reduces to a constant, leaving the
squared disk form factor alone: mode "low-energy".

The overall constant multiplying every distribution is fixed by the chosen
normalization mode and never computed from the barrier height or the
normalization volume: only normalized shapes are compared.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, _choice, _is_real, disk_amplitude
from .potential import _CHANNELS, _MODES, BeamParams

# largest pc and mc^2 [eV]: (E + mc^2)^2 <= 5.8e300, so no density overflows
_MAX_SPINOR_EV = 1e150


def spinor_elements(beam: BeamParams, theta, channel: str = "no-flip") -> list:
    """Electron-current factors u'^dagger u in eV, one per final spin of ``channel``.

    No-flip: ((E + mc^2)^2 + (pc)^2 cos(theta)) / (E + mc^2)
    Flip:    (pc)^2 sin(theta) / (E + mc^2)

    Returns [no-flip], [flip], or [no-flip, flip] under "sum".  Valid
    at all energies.  In the low-energy limit the flip element vanishes and
    the no-flip element tends to the constant 2 mc^2.  ``theta`` is a scalar
    or an array of angles, and so is each element.  pc or mc^2 above
    1e150 eV raises DomainError, as does a channel outside those three.
    """
    channel = _choice("channel", channel, _CHANNELS)
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"spinor_elements: theta must be finite, got {theta!r}")
    pc = beam.pc_ev
    if not (pc <= _MAX_SPINOR_EV and beam.mass_ev <= _MAX_SPINOR_EV):
        raise DomainError(f"full mode needs pc and mc^2 <= {_MAX_SPINOR_EV:g} eV, got "
                          f"pc = {pc:g} eV, mc^2 = {beam.mass_ev:g} eV")
    e_plus_m = beam.energy_ev + beam.mass_ev
    elements = []
    if channel != "flip":
        elements.append((e_plus_m * e_plus_m + pc * pc * np.cos(theta)) / e_plus_m)
    if channel != "no-flip":
        elements.append(pc * pc * np.sin(theta) / e_plus_m)
    return elements


def amplitudes(beam: BeamParams, p_radius: float, theta, mode: str = "low-energy",
               channel: str = "no-flip") -> list:
    """Amplitudes whose squares ``mode`` sums over ``channel``, one per final spin.

    F = disk_amplitude(qR), qR = 2 pR |sin(theta/2)|, is computed once.
    Low-energy mode is [F]: the no-flip element there is a constant, absorbed
    into C = 1, and the flip element vanishes, so the no-flip channel and the
    spin sum are both [F] and the flip channel raises DomainError.  Full mode
    is [element * F] for each of ``spinor_elements(beam, theta, channel)``.
    ``p_radius`` is the wire's pR; ``theta`` is a scalar or an array of
    angles, and so is each amplitude.  ``mode`` is "low-energy" or "full";
    another spelling of it or of ``channel`` raises DomainError.
    """
    if not (_is_real(p_radius) and math.isfinite(p_radius) and p_radius > 0.0):
        raise DomainError(f"p_radius > 0 required, got {p_radius!r}")
    channel = _choice("channel", channel, _CHANNELS)
    mode = _choice("mode", mode, _MODES)
    if mode == "low-energy" and channel == "flip":
        raise DomainError("low-energy mode has no flip channel (its element vanishes "
                          "there); use mode 'full' for the flip density")
    # theta first, as np.sin warns on inf; disk_amplitude rechecks qR, which overflows near pR 1e308,
    # and in full mode the public spinor_elements rechecks theta once
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"amplitudes: theta must be finite, got {theta!r}")
    f = disk_amplitude(2.0 * p_radius * np.abs(np.sin(0.5 * theta)))
    if mode == "low-energy":
        return [f]
    return [element * f for element in spinor_elements(beam, theta, channel)]


def dsigma_dtheta(amplitude, theta):
    """Single-beam density: the squares of ``amplitude(theta)`` summed, C = 1.

    ``amplitude`` maps an angle, or an array of them, to a list of real
    amplitudes, one per final spin: the quantum one,
    ``partial(amplitudes, beam, pR, mode=..., channel=...)``, or the
    classical ``partial(fraunhofer_amplitudes, pR)``.  Over the quantum one
    in mode "low-energy" the density is {0F1(2, -(pR)^2 sin^2(theta/2))}^2;
    mode "full" weights it with the squared spinor elements.
    """
    return sum(a * a for a in amplitude(theta))
