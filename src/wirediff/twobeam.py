"""Two-beam interference-plus-diffraction distributions.

Two beams crossing at angle alpha produce amplitudes at the shifted
momentum transfers q_pm = 2 p |sin(theta/2 +/- alpha/4)|; the relative
phase Phi shifts the interference pattern (scanning Phi plays the role of
translating the wire across the fringes, though the quantitative mapping
from a physical displacement to Phi is deliberately not modeled here).

:func:`dsigma_dtheta_two_beam` is the one two-beam density, in either mode
and spin channel; :func:`pattern_two_beam` and :func:`phi_theta_scan` sample it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .electron import Channel, amplitudes
from .numerics import DomainError, disk_amplitude
from .patterns import Normalization, Pattern, sample_pattern, validate_grid
from .potential import BeamParams, WirePotential, momentum_transfer_single


@dataclass(frozen=True)
class TwoBeamConfig:
    """Beam intersection angle alpha [rad] and interference phase phi [rad]."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise DomainError(f"alpha >= 0 required, got {self.alpha!r}")
        if not math.isfinite(self.phi):
            raise DomainError(f"phi must be finite, got {self.phi!r}")


@dataclass(eq=False)
class ScanResult:
    """Density sampled on a (phi, theta) grid; density[i, j] = d(phis[i], thetas[j])."""

    phis: np.ndarray
    thetas: np.ndarray
    density: np.ndarray


def _interference_density(a_minus, a_plus, phi: float):
    # |a_minus + e^{i phi} a_plus|^2 for real amplitudes or arrays of them,
    # composed from squares so the result is non-negative in floating point
    # even under exact cancellation; the IEEE-remainder-reduced phase makes
    # the 2*pi periodicity exact.
    phi_r = math.remainder(phi, math.tau)
    re = a_minus + a_plus * math.cos(phi_r)
    im = a_plus * math.sin(phi_r)
    return re * re + im * im


def dsigma_dtheta_two_beam(
    beam: BeamParams,
    wire: WirePotential,
    cfg: TwoBeamConfig,
    theta,
    mode: str = "low-energy",
    channel: Channel = Channel.NO_FLIP,
):
    """Two-beam density |A_- + e^{i Phi} A_+|^2 summed over ``channel``, C = 1, hence >= 0.

    A_pm is the single-beam amplitude (see :func:`~wirediff.electron.dsigma_dtheta`)
    at each beam's own scattering angle theta -/+ alpha/2, i.e. at
    q_pm R = 2 pR |sin(theta/2 -/+ alpha/4)|.  Both beams carry the same spin
    labels (polarized source).  ``theta`` is a scalar or an array of angles.
    """
    minus = amplitudes(beam, wire, theta - 0.5 * cfg.alpha, mode, channel)
    plus = amplitudes(beam, wire, theta + 0.5 * cfg.alpha, mode, channel)
    return sum(_interference_density(a, b, cfg.phi) for a, b in zip(minus, plus))


def pattern_two_beam(
    beam: BeamParams,
    wire: WirePotential,
    cfg: TwoBeamConfig,
    thetas: np.ndarray | None = None,
    mode: str = "low-energy",
    channel: Channel = Channel.NO_FLIP,
    normalization: Normalization = Normalization.RAW,
) -> Pattern:
    """Sample :func:`dsigma_dtheta_two_beam` over an angular grid.

    Modes, channels and normalizations as in :func:`~wirediff.electron.pattern_single`.
    """
    return sample_pattern(
        lambda theta: dsigma_dtheta_two_beam(beam, wire, cfg, theta, mode, channel),
        thetas, normalization)


def phi_theta_scan(
    p_radius: float,
    alpha: float,
    phi_grid: np.ndarray,
    theta_grid: np.ndarray,
) -> ScanResult:
    """Low-energy two-beam density on the (phi, theta) tensor grid.

    Equivalent to scanning the wire across the beam intersection: the
    per-phi integrated intensity rises and falls as the wire crosses
    bright and dark fringes.
    """
    TwoBeamConfig(alpha=alpha)  # rejects a negative or non-finite alpha
    phis = validate_grid(phi_grid)
    thetas = validate_grid(theta_grid)
    # phi enters only through the combiner: the form factors F_-, F_+ are
    # computed once over the theta grid and every phi row combines them
    f_minus = disk_amplitude(momentum_transfer_single(p_radius, thetas - 0.5 * alpha))
    f_plus = disk_amplitude(momentum_transfer_single(p_radius, thetas + 0.5 * alpha))
    density = np.array([_interference_density(f_minus, f_plus, phi) for phi in phis.tolist()])
    return ScanResult(phis=phis, thetas=thetas, density=density)
