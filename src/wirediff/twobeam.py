"""Two-beam interference-plus-diffraction distributions.

Two beams crossing at angle alpha produce amplitudes at the shifted
momentum transfers q_pm = 2 p |sin(theta/2 +/- alpha/4)|; the relative
phase Phi shifts the interference pattern (scanning Phi plays the role of
translating the wire across the fringes, though the quantitative mapping
from a physical displacement to Phi is deliberately not modeled here).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .electron import (NO_FLIP, SpinChannel, amplitudes, sample_beam_pattern, spinor_factors,
                       unit_spinor)
from .numerics import DomainError
from .patterns import Normalization, Pattern, validate_grid
from .potential import BeamParams, WirePotential


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


def _density(p_radius: float, cfg: TwoBeamConfig, theta: float, spinors) -> float:
    # each beam's amplitudes are the single-beam ones at its own scattering
    # angle theta -/+ alpha/2, i.e. at q_pm R = 2 pR |sin(theta/2 -/+ alpha/4)|
    minus = amplitudes(p_radius, theta - 0.5 * cfg.alpha, spinors)
    plus = amplitudes(p_radius, theta + 0.5 * cfg.alpha, spinors)
    return sum(_interference_density(a, b, cfg.phi) for a, b in zip(minus, plus))


def dsigma_dtheta_low_energy(p_radius: float, cfg: TwoBeamConfig, theta: float) -> float:
    """Low-energy two-beam density F_-^2 + 2 F_- F_+ cos(Phi) + F_+^2, C = 1.

    F_pm = 0F1(2, -(pR sin(theta/2 +/- alpha/4))^2); computed as the squared
    magnitude of the superposed amplitudes, hence guaranteed >= 0.
    """
    return _density(p_radius, cfg, theta, (unit_spinor,))


def dsigma_dtheta_full(
    beam: BeamParams,
    wire: WirePotential,
    cfg: TwoBeamConfig,
    theta: float,
    channel: SpinChannel | None = NO_FLIP,
) -> float:
    """Full-energy two-beam density |A_- + e^{i Phi} A_+|^2, C = 1.

    A_pm couples the spinor element at the relative scattering angle
    theta +/- alpha/2 of the respective incoming beam with the form factor
    at q_pm.  Both beams carry the same spin labels (polarized source);
    ``channel`` None sums the flip and no-flip densities.  Reduces to the
    low-energy form when pc << mc^2.
    """
    return _density(beam.momentum * wire.radius, cfg, theta,
                    spinor_factors(beam, "full", channel))


def pattern_two_beam(
    beam: BeamParams,
    wire: WirePotential,
    cfg: TwoBeamConfig,
    thetas: np.ndarray | None = None,
    mode: str = "low-energy",
    channel: SpinChannel | None = NO_FLIP,
    normalization: Normalization = Normalization.RAW,
) -> Pattern:
    """Sample the two-beam distribution over an angular grid.

    Modes, channels and normalizations as in :func:`~wirediff.electron.pattern_single`.
    """
    return sample_beam_pattern(
        lambda p_radius, theta, spinors: _density(p_radius, cfg, theta, spinors),
        beam, wire, thetas, mode, channel, normalization,
        kind="two-beam", alpha=cfg.alpha, phi=cfg.phi)


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
    (f_minus,) = amplitudes(p_radius, thetas - 0.5 * alpha)
    (f_plus,) = amplitudes(p_radius, thetas + 0.5 * alpha)
    density = np.array([_interference_density(f_minus, f_plus, phi) for phi in phis.tolist()])
    return ScanResult(phis=phis, thetas=thetas, density=density)
