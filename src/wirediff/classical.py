"""Classical Fraunhofer comparator distributions.

The single-beam density is sinc^2(scale * pR * sin(theta)), with the
argument written exactly in that sin(theta) form.  The two-beam comparator
superposes the single-beam amplitudes at the shifted transfers q(theta/2
+/- alpha/4); its default argument uses the q-form 2 pR sin(theta/2 +/-
alpha/4), which differs from the sin(theta) form only at O(theta^3).  Both
forms are available because the choice is a convention, not physics.

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
from .twobeam import _interference_density


@dataclass(frozen=True)
class ClassicalConfig:
    """Dimensionless momentum-radius product p*R and a radius multiplier."""

    p_radius: float
    radius_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p_radius) and self.p_radius > 0.0):
            raise ValueError(f"p_radius must be positive and finite, got {self.p_radius!r}")
        if not (math.isfinite(self.radius_scale) and self.radius_scale > 0.0):
            raise ValueError(f"radius_scale must be positive and finite, got {self.radius_scale!r}")


def fraunhofer_single(cfg: ClassicalConfig, theta: float) -> float:
    """Single-beam Fraunhofer density sinc^2(scale * pR * sin(theta)).

    Zeros sit exactly at sin(theta) = n*pi / (scale * pR).
    """
    if not math.isfinite(theta):
        raise DomainError(f"fraunhofer_single: theta must be finite, got {theta!r}")
    s = sinc(cfg.radius_scale * cfg.p_radius * math.sin(theta))
    return s * s


def fraunhofer_two_beam(
    cfg: ClassicalConfig,
    alpha: float,
    phi: float,
    theta: float,
    argument_form: str = "q",
) -> float:
    """Two-beam Fraunhofer density |sinc(a_minus) + e^{i phi} sinc(a_plus)|^2.

    argument_form "q" (default): a_pm = 2 * scale * pR * sin(theta/2 +/- alpha/4).
    argument_form "sin-theta":   a_pm = scale * pR * sin(theta +/- alpha/2).
    """
    if not math.isfinite(theta) or not math.isfinite(alpha) or not math.isfinite(phi):
        raise DomainError("fraunhofer_two_beam: alpha, phi, theta must be finite")
    if alpha < 0.0:
        raise DomainError(f"fraunhofer_two_beam: alpha >= 0 required, got {alpha!r}")
    scaled = cfg.radius_scale * cfg.p_radius
    if argument_form == "q":
        a_minus = sinc(2.0 * scaled * math.sin(0.5 * theta - 0.25 * alpha))
        a_plus = sinc(2.0 * scaled * math.sin(0.5 * theta + 0.25 * alpha))
    elif argument_form == "sin-theta":
        a_minus = sinc(scaled * math.sin(theta - 0.5 * alpha))
        a_plus = sinc(scaled * math.sin(theta + 0.5 * alpha))
    else:
        raise ValueError(f"unknown argument_form {argument_form!r}; expected 'q' or 'sin-theta'")
    return _interference_density(a_minus, a_plus, phi)


def pattern_classical(
    cfg: ClassicalConfig,
    thetas: np.ndarray | None = None,
    normalization: Normalization = Normalization.RAW,
) -> Pattern:
    """Sample the single-beam Fraunhofer density over an angular grid."""
    return sample_pattern(lambda theta: fraunhofer_single(cfg, theta), thetas, normalization,
                          kind="classical", p_radius=cfg.p_radius,
                          radius_scale=cfg.radius_scale)
