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

import numpy as np

from .numerics import DomainError, _is_real, _require_finite


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
    DomainError.  ``theta`` is a real scalar or array-like of angles, checked
    as :func:`~wirediff.electron.amplitudes` checks it.
    """
    if not (_is_real(alpha) and 0.0 <= alpha <= math.pi):
        raise DomainError(f"alpha in [0, pi] required, got {alpha!r}")
    phis = _require_finite("phi", phi)
    scan = type(phis) is not float
    if scan and (phis.ndim != 1 or not phis.size):
        raise DomainError(f"phi must be one phase or a non-empty 1-D sequence of them, got "
                          f"shape {phis.shape}")
    theta = _require_finite("dsigma_dtheta_two_beam: theta", theta)
    # |A_- + e^{i phi} A_+|^2 = (A_- + A_+)^2 cos^2 h + (A_- - A_+)^2 sin^2 h,
    # h half the IEEE-remainder-reduced phase (so 2*pi periodicity is exact):
    # swapping the beams, as theta -> -theta does, leaves both squares' bits
    # alone, so the density is exactly even in theta, and it is >= 0.  cos
    # and sin come from math, as numpy's need not match libm bit for bit;
    # one phase keeps the weights as floats, and a sequence is a leading axis
    # over theta's.  Squares are x * x: ** on a float calls libm pow, which
    # is not correctly rounded, so scalar and array theta would part.
    halves = [0.5 * math.remainder(p, math.tau) for p in (phis.tolist() if scan else [phis])]
    bright = [math.cos(h) * math.cos(h) for h in halves]
    dark = [math.sin(h) * math.sin(h) for h in halves]
    if scan:
        shape = (-1,) + (1,) * np.ndim(theta)
        bright, dark = np.reshape(bright, shape), np.reshape(dark, shape)
    else:
        (bright,), (dark,) = bright, dark
    minus = amplitude(theta - 0.5 * alpha)
    plus = amplitude(theta + 0.5 * alpha)
    # one bright-plus-dark term per spin, summed in spin order
    return sum((a + b) * (a + b) * bright + (a - b) * (a - b) * dark
               for a, b in zip(minus, plus))
