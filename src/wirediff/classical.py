"""Classical Fraunhofer comparator distributions.

The single-beam density is sinc^2(scale * pR * sin(theta)), with the
argument written exactly in that sin(theta) form.  The two-beam comparator
is the quantum two-beam density with sinc in place of 2 J1(x)/x: each
beam's amplitude is sinc of its momentum transfer 2 scale pR |sin(theta/2
-/+ alpha/4)| at its own angle theta -/+ alpha/2, and the two go through
the same interference combiner.  That q-form argument differs from the
sin(theta) form only at O(theta^3).

``radius_scale`` multiplies the wire radius and exists for the rescaling
experiment in which the classical curve is stretched until its first dark
point lines up with the quantum one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, sinc
from .patterns import Normalization, Pattern, sample_pattern
from .potential import momentum_transfer_single
from .twobeam import TwoBeamConfig, _interference_density


@dataclass(frozen=True)
class ClassicalConfig:
    """Dimensionless momentum-radius product p*R and a radius multiplier."""

    p_radius: float
    radius_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p_radius) and self.p_radius > 0.0):
            raise DomainError(f"p_radius must be positive and finite, got {self.p_radius!r}")
        if not (math.isfinite(self.radius_scale) and self.radius_scale > 0.0):
            raise DomainError(f"radius_scale must be positive and finite, got {self.radius_scale!r}")


def fraunhofer_single(cfg: ClassicalConfig, theta):
    """Single-beam Fraunhofer density sinc^2(scale * pR * sin(theta)).

    Zeros sit exactly at sin(theta) = n*pi / (scale * pR).  ``theta`` is a
    scalar or an array of angles.
    """
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"fraunhofer_single: theta must be finite, got {theta!r}")
    s = sinc(cfg.radius_scale * cfg.p_radius * np.sin(theta))
    return s * s


def fraunhofer_two_beam(cfg: ClassicalConfig, beams: TwoBeamConfig, theta):
    """Two-beam Fraunhofer density |sinc(a_minus) + e^{i phi} sinc(a_plus)|^2.

    a_pm = 2 * scale * pR * |sin(theta/2 +/- alpha/4)|.  ``theta`` is a
    scalar or an array of angles; a sequence of phases in ``beams.phi`` adds
    a leading axis, one row per phase, as in
    :func:`~wirediff.twobeam.dsigma_dtheta_two_beam`.
    """
    scaled = cfg.radius_scale * cfg.p_radius
    return _interference_density(
        sinc(momentum_transfer_single(scaled, theta - 0.5 * beams.alpha)),
        sinc(momentum_transfer_single(scaled, theta + 0.5 * beams.alpha)), beams.phi)


def pattern_classical(
    cfg: ClassicalConfig,
    thetas: np.ndarray | None = None,
    normalization: Normalization = Normalization.RAW,
) -> Pattern:
    """Sample the single-beam Fraunhofer density over an angular grid."""
    return sample_pattern(lambda theta: fraunhofer_single(cfg, theta), thetas, normalization)
