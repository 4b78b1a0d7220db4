"""Two-beam interference-plus-diffraction distributions.

Two beams crossing at angle alpha scatter into theta at their own angles
theta -/+ alpha/2, and each contributes its single-beam amplitude there;
the relative phase Phi shifts the interference pattern (scanning Phi plays
the role of translating the wire across the fringes, though the
quantitative mapping from a physical displacement to Phi is deliberately
not modeled here).

:func:`dsigma_dtheta_two_beam` is the one two-beam density.  It takes the
per-beam amplitude as a callable, so one function serves the quantum model,
in either mode and spin channel, and the classical one, at one phase or
along an axis of phases (a phase scan);
:func:`~wirediff.patterns.sample_pattern` samples it at one phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError


@dataclass(frozen=True)
class TwoBeamConfig:
    """Beam intersection angle alpha in [0, pi] [rad] and interference phase phi [rad].

    ``phi`` is one phase or a non-empty 1-D sequence of phases, stored as a
    tuple of floats; a sequence adds a leading phase axis to every density.
    """

    alpha: float
    phi: float | tuple = 0.0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= math.pi:
            raise DomainError(f"alpha in [0, pi] required, got {self.alpha!r}")
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim > 1 or phi.size == 0 or not np.all(np.isfinite(phi)):
            raise DomainError(f"phi must be a finite phase or a non-empty 1-D sequence of "
                              f"them, got {self.phi!r}")
        object.__setattr__(self, "phi", tuple(phi.tolist()) if phi.ndim else phi.item())


def _interference_density(a_minus, a_plus, phi):
    # |a_minus + e^{i phi} a_plus|^2 for real amplitudes or arrays of them,
    # composed from squares so the result is non-negative in floating point
    # even under exact cancellation; the IEEE-remainder-reduced phase makes
    # the 2*pi periodicity exact.  A sequence of phases is a leading axis;
    # its cos and sin come from math, as for one phase, since numpy's need
    # not match libm bit for bit, and the in-place steps keep the
    # temporaries to two arrays of the result's size.
    phases = [math.remainder(p, math.tau) for p in np.ravel(phi).tolist()]
    shape = (-1,) + (1,) * np.ndim(a_plus) if np.ndim(phi) else ()
    re = a_plus * np.reshape([math.cos(p) for p in phases], shape)
    re += a_minus
    re *= re
    im = a_plus * np.reshape([math.sin(p) for p in phases], shape)
    im *= im
    re += im
    return re


def dsigma_dtheta_two_beam(amplitude, cfg: TwoBeamConfig, theta):
    """Two-beam density |A_- + e^{i Phi} A_+|^2 summed over the final spins, C = 1, hence >= 0.

    A_pm is ``amplitude`` (see :func:`~wirediff.electron.dsigma_dtheta`) at
    each beam's own scattering angle theta -/+ alpha/2: for the quantum
    amplitude, at q_pm R = 2 pR |sin(theta/2 -/+ alpha/4)|.  Both beams carry
    the same spin labels (polarized source).  ``theta`` is a scalar or an
    array of angles; a sequence of phases in ``cfg.phi`` adds a leading axis,
    one row per phase.
    """
    minus = amplitude(theta - 0.5 * cfg.alpha)
    plus = amplitude(theta + 0.5 * cfg.alpha)
    return sum(_interference_density(a, b, cfg.phi) for a, b in zip(minus, plus))
