"""Reference implementations that the tests compare the package against.

``disk_ft_oracle`` evaluates the disk transform 0F1(2, -q_r^2/4) by brute
quadrature over the unit disk, independently of the package's Chebyshev /
Hankel kernel.  It is a test oracle only; mpmath is the stronger one.
``dirac_spinor_element`` builds explicit Dirac spinors with numpy and takes
their product, independently of the closed forms of ``_spinor_elements``;
``dirac_two_beam_density`` sums two beams' products coherently, with one
initial spin in the lab frame, independently of the per-beam spin frames
and the half-angle combiner of ``dsigma_dtheta_two_beam``.
``mp_single_density`` and ``mp_two_beam_density`` evaluate the densities at
40 digits with mpmath, over a per-beam amplitude at 40 digits:
``mp_quantum_amplitude`` or ``mp_classical_amplitude``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath
import numpy as np

from wirediff import DomainError


class AccuracyError(ArithmeticError):
    """The quadrature could not meet its accuracy target."""


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _disk_quadrature(q_r: float, n: int) -> complex:
    # (1/pi) * int_0^1 int_0^{2pi} s exp(-i q_r s cos(phi)) dphi ds
    # on the unit disk (radial variable already scaled by the radius).
    xs, ws = _gauss_legendre(n)
    s = 0.5 * (xs + 1.0)
    w_s = 0.5 * ws
    phi = math.pi * (xs + 1.0)
    w_phi = math.pi * ws
    phase = np.exp(-1j * q_r * np.outer(s, np.cos(phi)))
    return complex((s * w_s) @ phase @ w_phi / math.pi)


def disk_ft_oracle(q_r: float, rule_order: int | None = None) -> complex:
    """Brute-force Fourier transform of the uniform unit disk at transfer q_r.

    Tensor Gauss-Legendre quadrature in (radial, angular), evaluated at two
    rule orders (n, 2n); the fine result is returned only when the two agree
    to 1e-9, otherwise an AccuracyError is raised.  Serves as an evaluator
    of 0F1(2, -q_r^2/4) that is independent of ``disk_amplitude``.
    """
    q_r = float(q_r)
    if not (math.isfinite(q_r) and q_r >= 0.0):
        raise DomainError(f"disk_ft_oracle: finite q_r >= 0 required, got {q_r!r}")
    if rule_order is None:
        rule_order = max(32, int(math.ceil(2.0 * q_r)) + 32)
    n = int(rule_order)
    if n < 2:
        raise DomainError(f"disk_ft_oracle: rule_order >= 2 required, got {rule_order!r}")
    coarse = _disk_quadrature(q_r, n)
    fine = _disk_quadrature(q_r, 2 * n)
    if abs(fine - coarse) > 1e-9:
        raise AccuracyError(
            f"disk_ft_oracle: rule orders ({n}, {2 * n}) disagree by "
            f"{abs(fine - coarse):.3e} at q_r={q_r!r}; increase rule_order"
        )
    return fine


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))
_SPIN_UP = np.array([1, 0], dtype=complex)
_SPIN_DOWN = np.array([0, 1], dtype=complex)


def _dirac_spinor(pc: float, mass: float, direction, chi: np.ndarray) -> np.ndarray:
    # u = sqrt(E + m) (chi, sigma.p chi / (E + m)), normalized to u^dagger u = 2E
    e_plus_m = math.sqrt(pc * pc + mass * mass) + mass
    sigma_p = sum(pc * n * sigma for n, sigma in zip(direction, _PAULI))
    return math.sqrt(e_plus_m) * np.concatenate([chi, sigma_p @ chi / e_plus_m])


def dirac_spinor_element(pc: float, mass: float, theta: float, flip: bool) -> complex:
    """Element u'^dagger u between explicit Dirac spinors, in eV (pc and mass in eV).

    The incident spinor moves along z with spin up along z, the beam axis;
    the scattered one moves at ``theta`` in the x-z plane with the same |p|
    and spin down (``flip``) or up along z.
    """
    incident = _dirac_spinor(pc, mass, (0.0, 0.0, 1.0), _SPIN_UP)
    scattered = _dirac_spinor(pc, mass, (math.sin(theta), 0.0, math.cos(theta)),
                              _SPIN_DOWN if flip else _SPIN_UP)
    return complex(np.vdot(scattered, incident))


def dirac_two_beam_density(pc: float, mass: float, form_factor, alpha: float, phi: float,
                           theta: float) -> float:
    """|sum over beams of F u'^dagger u|^2, summed over the final spins (eV^2).

    Both beams carry one initial spin, up along the lab z axis.  The beam
    tilted by +alpha/2 from z scatters through theta - alpha/2, the one at
    -alpha/2, with the phase e^{i phi}, through theta + alpha/2; each
    element is times ``form_factor`` of that beam's own scattering angle.
    The final spinor moves at ``theta`` in the x-z plane, with spin up or
    down along z.
    """
    total = 0.0
    for chi in (_SPIN_UP, _SPIN_DOWN):
        scattered = _dirac_spinor(pc, mass, (math.sin(theta), 0.0, math.cos(theta)), chi)
        amplitude = 0.0
        for tilt, weight in ((0.5 * alpha, 1.0), (-0.5 * alpha, cmath.exp(1j * phi))):
            incident = _dirac_spinor(pc, mass, (math.sin(tilt), 0.0, math.cos(tilt)), _SPIN_UP)
            amplitude += weight * form_factor(theta - tilt) * np.vdot(scattered, incident)
        total += abs(amplitude) ** 2
    return total


_DPS = 40


def mp_quantum_amplitude(pc: float, mass: float, p_radius: float, mode: str = "low-energy",
                         channel: str = "no-flip"):
    """The quantum amplitudes of one beam at 40 digits, as a function of its angle.

    The returned callable maps an mpf angle theta to one mpf per final spin:
    F = 2 J1(qR)/qR at qR = 2 pR |sin(theta/2)| in mode "low-energy", and
    the spinor elements (pc and mass in eV) times F in mode "full", with
    both channels under "sum".
    """
    def amplitude(theta):
        q_r = 2 * mpmath.mpf(p_radius) * abs(mpmath.sin(theta / 2))
        f = 2 * mpmath.besselj(1, q_r) / q_r if q_r else mpmath.mpf(1)
        if mode == "low-energy":
            return [f]
        p, m = mpmath.mpf(pc), mpmath.mpf(mass)
        e_plus_m = mpmath.sqrt(p * p + m * m) + m
        elements = {"no-flip": (e_plus_m ** 2 + p * p * mpmath.cos(theta)) / e_plus_m,
                    "flip": p * p * mpmath.sin(theta) / e_plus_m}
        return [elements[c] * f for c in (("no-flip", "flip") if channel == "sum" else (channel,))]

    return amplitude


def mp_classical_amplitude(p_radius: float):
    """The Fraunhofer amplitude [sinc(pR sin(theta))] of one beam at 40 digits."""
    return lambda theta: [mpmath.sinc(mpmath.mpf(p_radius) * mpmath.sin(theta))]


def mp_single_density(amplitude, theta: float) -> float:
    """Sum of the squared amplitudes at ``theta``, evaluated at 40 digits."""
    with mpmath.workdps(_DPS):
        return float(sum(a * a for a in amplitude(mpmath.mpf(theta))))


def mp_two_beam_density(amplitude, alpha: float, phi: float, theta: float) -> float:
    """|A(theta - alpha/2) + e^{i phi} A(theta + alpha/2)|^2 summed over the final
    spins, evaluated at 40 digits."""
    with mpmath.workdps(_DPS):
        theta, half = mpmath.mpf(theta), mpmath.mpf(alpha) / 2
        phase = mpmath.expj(mpmath.mpf(phi))
        return float(sum(abs(a + phase * b) ** 2
                         for a, b in zip(amplitude(theta - half), amplitude(theta + half))))
