"""Two-beam interference-plus-diffraction distributions.

Two beams crossing at angle alpha scatter into theta at their own angles
theta -/+ alpha/2, and each contributes its single-beam amplitude there;
the relative phase Phi shifts the interference pattern (scanning Phi plays
the role of translating the wire across the fringes, though the
quantitative mapping from a physical displacement to Phi is deliberately
not modeled here).

:func:`dsigma_dtheta_two_beam` is the one two-beam density.  It takes the
per-beam amplitude as a callable and the geometry, alpha and phi, as plain
numbers, so one function serves the quantum model, in either mode and spin
channel, and the classical one, at one phase or along an axis of phases (a
phase scan); :func:`~wirediff.patterns.sample_pattern` samples it, one
pattern per row.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .numerics import DomainError


def _interference_density(a_minus, a_plus, cos, sin):
    # |a_minus + e^{i phi} a_plus|^2 for real amplitudes or arrays of them,
    # given cos(phi) and sin(phi), composed from squares so the result is
    # non-negative in floating point even under exact cancellation; the
    # in-place steps keep the temporaries to two arrays of the result's size.
    re = a_plus * cos
    re += a_minus
    re *= re
    im = a_plus * sin
    im *= im
    re += im
    return re


def dsigma_dtheta_two_beam(amplitude, alpha, phi, theta):
    """Two-beam density |A_- + e^{i Phi} A_+|^2 summed over the final spins, C = 1, hence >= 0.

    A_pm is ``amplitude`` (see :func:`~wirediff.electron.dsigma_dtheta`) at
    each beam's own scattering angle theta -/+ alpha/2: for the quantum
    amplitude, at q_pm R = 2 pR |sin(theta/2 -/+ alpha/4)|.  Both beams carry
    the same spin labels (polarized source).  ``alpha``, the beam
    intersection angle, is a real number in [0, pi] [rad]; ``phi`` [rad] is
    one real phase or a non-empty 1-D sequence of them, which adds a leading
    axis, one row per phase.  Both are checked before any amplitude is
    evaluated, and a bad one (an array alpha, a complex or text phi) raises
    DomainError.  ``theta`` is a scalar or an array of angles.
    """
    if not (isinstance(alpha, Real) and 0.0 <= alpha <= math.pi):
        raise DomainError(f"alpha in [0, pi] required, got {alpha!r}")
    try:
        phis = np.asarray(phi)
    except ValueError:  # numpy refuses a ragged nesting; as an object array it fails below
        phis = np.asarray(None)
    values = phis.ravel().tolist()
    if (phis.dtype.kind not in "biuf" or phis.ndim > 1 or not values
            or not all(map(math.isfinite, values))):
        raise DomainError(f"phi must be a finite phase or a non-empty 1-D sequence of "
                          f"them, got {phi!r}")
    # the IEEE-remainder-reduced phase makes the 2*pi periodicity exact; cos
    # and sin come from math, for one phase or a sequence, since numpy's need
    # not match libm bit for bit: one phase keeps them as floats, and a
    # sequence is a leading axis over theta's
    phases = [math.remainder(p, math.tau) for p in values]
    cos = [math.cos(p) for p in phases]
    sin = [math.sin(p) for p in phases]
    if phis.ndim:
        shape = (-1,) + (1,) * np.ndim(theta)
        cos, sin = np.reshape(cos, shape), np.reshape(sin, shape)
    else:
        (cos,), (sin,) = cos, sin
    minus = amplitude(theta - 0.5 * alpha)
    plus = amplitude(theta + 0.5 * alpha)
    return sum(_interference_density(a, b, cos, sin) for a, b in zip(minus, plus))
