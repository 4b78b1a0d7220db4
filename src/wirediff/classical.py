"""The classical Fraunhofer amplitude of one beam.

The classical model has one amplitude, sinc(pR sin(theta')), at the beam's
own scattering angle theta'.  It is the Fraunhofer amplitude of an obstacle
2R wide across the beam, and a cylinder is 2R wide across every beam, so
the single-beam curve, each beam of the two-beam curve and the classical
dark points pR sin(theta) = k pi all use this one form.  The densities are
the package's two, :func:`~wirediff.electron.dsigma_dtheta` and
:func:`~wirediff.twobeam.dsigma_dtheta_two_beam`, over
``partial(fraunhofer_amplitudes, pR)``.

``p_radius`` is the classical curve's own pR: a curve whose wire radius is
rescaled, as when it is stretched until its first dark point lines up with
the quantum one, takes scale * pR, as ``analysis.first_dark_points`` does.
"""

from __future__ import annotations

import numpy as np

from .numerics import _require_finite, _require_positive, sinc


def fraunhofer_amplitudes(p_radius: float, theta) -> list:
    """The Fraunhofer amplitude [sinc(pR sin(theta))], one entry as there is no spin.

    Its zeros sit exactly at sin(theta) = n*pi / pR.  ``theta`` is a real
    scalar or array-like of angles, and the amplitude a float or an array as it is.
    """
    _require_positive("fraunhofer_amplitudes: p_radius", p_radius)
    # theta before np.sin, which warns on inf; sinc checks its argument as any caller's
    return [sinc(p_radius * np.sin(_require_finite("fraunhofer_amplitudes: theta", theta)))]
