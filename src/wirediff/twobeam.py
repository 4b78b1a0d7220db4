"""Two-beam interference-plus-diffraction distributions.

Two beams crossing at angle alpha produce amplitudes at the shifted
momentum transfers q_pm = 2 p |sin(theta/2 +/- alpha/4)|; the relative
phase Phi shifts the interference pattern (scanning Phi plays the role of
translating the wire across the fringes, though the quantitative mapping
from a physical displacement to Phi is deliberately not modeled here).

Phase-sign convention: the low-energy and full-energy electron densities
attach e^{+i Phi} to the plus-beam amplitude.  For real amplitudes the
density is insensitive to that sign; :func:`superpose_amplitudes` takes
complex amplitudes, defaults to e^{-i phi}, and exposes the sign as an
explicit argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .electron import (NO_FLIP, SpinChannel, amplitudes, sample_beam_pattern, spinor_factors,
                       unit_spinor)
from .numerics import DomainError
from .patterns import Normalization, Pattern, validate_grid
from .potential import BeamParams, WirePotential, momentum_transfer_single

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class TwoBeamConfig:
    """Beam intersection angle alpha [rad] and interference phase phi [rad]."""

    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha >= 0 required, got {self.alpha!r}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")


@dataclass(eq=False)
class ScanResult:
    """Density sampled on a (phi, theta) grid; density[i, j] = d(phis[i], thetas[j])."""

    phis: np.ndarray
    thetas: np.ndarray
    density: np.ndarray


def momentum_transfer_pair(p: float, theta: float, alpha: float) -> tuple[float, float]:
    """Momentum transfers (q_minus, q_plus) = 2 p |sin(theta/2 -/+ alpha/4)| [1/m]."""
    return (momentum_transfer_single(p, theta - 0.5 * alpha),
            momentum_transfer_single(p, theta + 0.5 * alpha))


def _interference_density(a_minus, a_plus, phi: float):
    # |a_minus + e^{i phi} a_plus|^2 for real amplitudes or arrays of them,
    # composed from squares so the result is non-negative in floating point
    # even under exact cancellation; the IEEE-remainder-reduced phase makes
    # the 2*pi periodicity exact.
    phi_r = math.remainder(phi, _TAU)
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
    channel: SpinChannel = NO_FLIP,
) -> float:
    """Full-energy two-beam density |A_- + e^{i Phi} A_+|^2, C = 1.

    A_pm couples the spinor element at the relative scattering angle
    theta +/- alpha/2 of the respective incoming beam with the form factor
    at q_pm.  Both beams carry the same spin labels (polarized source).
    Reduces to the low-energy form when pc << mc^2.
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


def superpose_amplitudes(a_minus: complex, a_plus: complex, phi: float,
                         phase_sign: int = -1) -> float:
    """|a_minus + a_plus * e^{i * phase_sign * phi}|^2 for complex amplitudes.

    Generic two-amplitude superposition: any pair of caller-supplied
    amplitudes (e.g. numerically evaluated photon amplitudes) can be
    combined.  The default phase sign is -1; pass +1 for the opposite
    convention.  For real amplitudes of equal magnitude the two signs give
    identical densities.
    """
    a_minus = complex(a_minus)
    a_plus = complex(a_plus)
    if not all(map(math.isfinite, (a_minus.real, a_minus.imag, a_plus.real, a_plus.imag, phi))):
        raise DomainError("superpose_amplitudes: amplitudes and phi must be finite")
    if phase_sign not in (-1, 1):
        raise ValueError(f"phase_sign must be +1 or -1, got {phase_sign!r}")
    phi_r = math.remainder(phi, _TAU)
    w = a_minus + a_plus * complex(math.cos(phi_r), phase_sign * math.sin(phi_r))
    return w.real * w.real + w.imag * w.imag


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
