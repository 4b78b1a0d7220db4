"""Dark-fringe locations and the classical radius-overestimation factor.

Dark points come in closed form from their defining equations,
2 pR sin(theta/2) = j_{1,k} (quantum, j_{1,k} the k-th positive zero of the
disk amplitude) and pR sin(theta) = k pi (classical); j_{1,k} does not
depend on pR and comes from a table or McMahon's expansion, with no search.
The module uses ``math`` only, so ``wirediff zeros`` runs without numpy; the
area-matched curve comparison, ``compare_curves``, lives beside ``Pattern`` in
:mod:`~wirediff.patterns`.
"""

from __future__ import annotations

import math
import operator

from .numerics import DomainError, _choice, _is_real, _j1_zero

# pi to 1e-34 in three parts; k times the first two, of <= 30 bits, is exact for k < 2**23
_PI_A, _PI_B, _PI_C = 3.141592651605606, 1.9841871583270443e-09, 1.034036596358821e-18


def first_dark_points(p_radius: float, method: str, n: int = 1) -> tuple[float, ...]:
    """First ``n`` dark points in (0, pi/2) [rad], an increasing tuple of floats.

    They come in closed form from their defining equations.  Method
    "quantum": theta_k = 2 arcsin(j_{1,k} / (2 pR)), where j_{1,k}, the k-th
    positive zero of ``disk_amplitude`` (2 J1(x)/x), is a tabulated double
    up to k = 23 and five-term McMahon above, within 4e-16 relative of the
    exact zero; no amplitude is evaluated.  Method "classical":
    theta_k = arcsin(k pi / pR), the zeros of sinc(pR sin(theta)).  A
    rescaled classical curve is handled by passing scale * pR as
    ``p_radius``.  Bad arguments, or fewer than ``n`` dark points in
    (0, pi/2), raise DomainError.
    """
    if not (_is_real(p_radius) and math.isfinite(p_radius) and p_radius > 0.0):
        raise DomainError(f"first_dark_points: p_radius > 0 required, got {p_radius!r}")
    try:
        n = operator.index(n)  # an int or a numpy integer; a float, even 2.0, is refused
    except TypeError:
        raise DomainError(f"first_dark_points: n must be an integer, got {n!r}") from None
    if n < 1:
        raise DomainError(f"first_dark_points: n >= 1 required, got {n!r}")
    quantum = _choice("method", method, ("quantum", "classical")) == "quantum"
    # each left-hand side at theta = pi/2; a dark point below it lies in (0, pi/2)
    limit = 2.0 * p_radius * math.sin(0.25 * math.pi) if quantum else p_radius
    zeros: list[float] = []
    for k in range(1, n + 1):
        x = _j1_zero(k) if quantum else k * math.pi
        if not x < limit:
            raise DomainError(
                f"only {k - 1} dark points of the requested {n} exist in "
                f"(0, pi/2) for p_radius={p_radius!r} ({method})"
            )
        if quantum:
            zeros.append(2.0 * math.asin(x / (2.0 * p_radius)))
        elif x < 0.5 * p_radius:
            zeros.append(math.asin(x / p_radius))
        else:  # asin would amplify x / pR's rounding by 1 / cos(theta); atan2 with the
            # exact pR - k pi does not, and x >= pR / 2 keeps the product from overflowing
            d = p_radius - k * _PI_A - k * _PI_B - k * _PI_C
            zeros.append(math.atan2(x, math.sqrt(d * (p_radius + x))))
    return tuple(zeros)


def overestimation_factor(p_radius: float) -> float:
    """Ratio (quantum first dark angle) / (classical first dark angle).

    The classical comparator puts its first dark point inward of the
    quantum one; dividing the classical wire radius by this factor lines
    the two up (at pR 84.37 to 1.1e-4 relative; multiplying misses by 33%),
    so a classical dark-point reading of a quantum pattern gives
    R / factor.  With j = j_{1,1}, the first J1 zero, the ratio is
    (j/pi) (1 + (j^2 - 4 pi^2) / (24 pR^2)) + O(pR^-4): it rises toward
    j/pi = 1.21967 from below, through 1.15759 at pR 5 and 1.21949 at the
    default pR of 84.37.
    """
    quantum, = first_dark_points(p_radius, "quantum")
    classical, = first_dark_points(p_radius, "classical")
    return quantum / classical

