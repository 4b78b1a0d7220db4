"""Classical Fraunhofer comparator distributions.

The single-beam density is sinc^2(pR sin(theta)), with the argument
written exactly in that sin(theta) form.  The two-beam comparator is the
quantum two-beam density with sinc in place of 2 J1(x)/x: each beam's
amplitude is sinc of its momentum transfer 2 pR |sin(theta/2 -/+ alpha/4)|
at its own angle theta -/+ alpha/2, and the two go through the same
interference combiner.  That q-form argument differs from the sin(theta)
form only at O(theta^3).

``p_radius`` is the classical curve's own pR: a curve whose wire radius is
rescaled, as when it is stretched until its first dark point lines up with
the quantum one, takes scale * pR, as ``analysis.first_dark_points`` does.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, sinc
from .potential import momentum_transfer_single
from .twobeam import TwoBeamConfig, _interference_density


def fraunhofer_single(p_radius: float, theta):
    """Single-beam Fraunhofer density sinc^2(pR sin(theta)).

    Zeros sit exactly at sin(theta) = n*pi / pR.  ``theta`` is a scalar or
    an array of angles.
    """
    if not (math.isfinite(p_radius) and p_radius > 0.0):
        raise DomainError(f"fraunhofer_single: p_radius > 0 required, got {p_radius!r}")
    if not np.all(np.isfinite(theta)):
        raise DomainError(f"fraunhofer_single: theta must be finite, got {theta!r}")
    s = sinc(p_radius * np.sin(theta))
    return s * s


def fraunhofer_two_beam(p_radius: float, beams: TwoBeamConfig, theta):
    """Two-beam Fraunhofer density |sinc(a_minus) + e^{i phi} sinc(a_plus)|^2.

    a_pm = 2 pR |sin(theta/2 +/- alpha/4)|.  ``theta`` is a scalar or an
    array of angles; a sequence of phases in ``beams.phi`` adds a leading
    axis, one row per phase, as in
    :func:`~wirediff.twobeam.dsigma_dtheta_two_beam`.
    """
    if not (math.isfinite(p_radius) and p_radius > 0.0):
        raise DomainError(f"fraunhofer_two_beam: p_radius > 0 required, got {p_radius!r}")
    return _interference_density(
        sinc(momentum_transfer_single(p_radius, theta - 0.5 * beams.alpha)),
        sinc(momentum_transfer_single(p_radius, theta + 0.5 * beams.alpha)), beams.phi)
