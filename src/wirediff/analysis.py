"""Derived quantities: dark-fringe locations, the classical
radius-overestimation factor, area matching, and curve comparison metrics.

Dark points are located on the amplitude (form factor or sinc), not on the
squared density: the density touches zero quadratically, which defeats
sign-change bracketing, while the amplitude crosses zero transversally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import disk_amplitude, find_zero, sinc
from .patterns import Normalization, Pattern, grid_area
from .potential import momentum_transfer_single


class RangeError(ValueError):
    """Fewer dark points exist in the search range than were requested."""


@dataclass(frozen=True, eq=False)
class ZeroReport:
    """First ``n`` dark-point angles (theta > 0, strictly increasing) [rad]."""

    method: str
    zeros: np.ndarray
    n: int


def first_dark_points(p_radius: float, method: str, n: int = 1) -> ZeroReport:
    """Locate the first ``n`` dark points in (0, pi/2) by bracketed bisection.

    method "quantum": zeros of the low-energy amplitude, satisfying
    2 pR sin(theta/2) = (k-th positive zero of J1).
    method "classical": zeros of sinc(pR sin(theta)), satisfying
    pR sin(theta) = k pi.  A rescaled classical curve is handled by passing
    radius_scale * pR as ``p_radius``.
    """
    if not (math.isfinite(p_radius) and p_radius > 0.0):
        raise ValueError(f"first_dark_points: p_radius > 0 required, got {p_radius!r}")
    if n < 1:
        raise ValueError(f"first_dark_points: n >= 1 required, got {n!r}")
    if method == "quantum":
        def amp(theta: float) -> float:  # the form factor at qR = 2 pR |sin(theta/2)|
            return disk_amplitude(momentum_transfer_single(p_radius, theta))
    elif method == "classical":
        def amp(theta: float) -> float:
            return sinc(p_radius * math.sin(theta))
    else:
        raise ValueError(f"unknown method {method!r}; expected 'quantum' or 'classical'")

    # March toward pi/2 with at least ~8 samples per fringe, bisecting each
    # bracketed sign change.
    step = min(0.02, math.pi / (8.0 * p_radius))
    zeros: list[float] = []
    theta = step
    f_prev = amp(0.0)
    theta_prev = 0.0
    while theta <= 0.5 * math.pi and len(zeros) < n:
        f = amp(theta)
        if f == 0.0:
            zeros.append(theta)
        elif (f > 0.0) != (f_prev > 0.0):
            zeros.append(find_zero(amp, theta_prev, theta, tol=1e-12))
        theta_prev, f_prev = theta, f
        theta += step
    if len(zeros) < n:
        raise RangeError(
            f"only {len(zeros)} dark points of the requested {n} exist in "
            f"(0, pi/2) for p_radius={p_radius!r} ({method})"
        )
    return ZeroReport(method=method, zeros=np.array(zeros[:n]), n=n)


def overestimation_factor(p_radius: float) -> float:
    """Ratio (quantum first dark angle) / (classical first dark angle).

    The classical comparator puts its first dark point inward of the
    quantum one; rescaling the classical wire radius by this factor lines
    the two up.  In the small-angle limit the ratio tends to
    (first J1 zero)/pi = 1.21967.
    """
    quantum = first_dark_points(p_radius, "quantum", 1).zeros[0]
    classical = first_dark_points(p_radius, "classical", 1).zeros[0]
    return float(quantum / classical)


def match_areas(reference: Pattern, target: Pattern) -> Pattern:
    """Rescale ``target`` so its trapezoidal area equals ``reference``'s."""
    if not np.array_equal(reference.thetas, target.thetas):
        raise ValueError("match_areas: patterns must share the same theta grid")
    ref_area = reference.area()
    tgt_area = target.area()
    if tgt_area == 0.0:
        raise ValueError("match_areas: target pattern has zero integral")
    scale = ref_area / tgt_area
    metadata = dict(target.metadata)
    metadata["area_match_scale"] = scale
    return Pattern(target.thetas, target.density * scale,
                   Normalization.AREA_MATCHED, metadata)


def first_dark_angle(pattern: Pattern) -> float | None:
    """First theta > 0 where the sampled density touches (near) zero.

    Finds the first interior local minimum below 1e-4 of the peak and
    refines it with a parabolic fit through the three surrounding samples;
    on these smooth curves that recovers the dark point to well below the
    grid spacing.  Returns None when no dark minimum exists in the grid.
    """
    thetas = pattern.thetas
    density = pattern.density
    peak = float(np.max(density))
    if peak <= 0.0:
        return None
    threshold = 1e-4 * peak
    for i in range(1, thetas.size - 1):
        if thetas[i] <= 0.0:
            continue
        d0, d1, d2 = density[i - 1], density[i], density[i + 1]
        if d1 <= d0 and d1 <= d2 and d1 <= threshold:
            denom = d2 - 2.0 * d1 + d0
            if denom <= 0.0:
                return float(thetas[i])
            h = 0.5 * (thetas[i + 1] - thetas[i - 1])
            vertex = thetas[i] - 0.5 * h * (d2 - d0) / denom
            return float(min(max(vertex, thetas[i - 1]), thetas[i + 1]))
    return None


@dataclass(frozen=True)
class CurveComparison:
    """Deterministic difference metrics between two patterns on one grid."""

    max_abs_diff: float
    l2_diff: float
    first_zero_offset_rad: float
    first_zero_a_rad: float | None
    first_zero_b_rad: float | None


def compare_curves(a: Pattern, b: Pattern) -> CurveComparison:
    """Pointwise and dark-point comparison of two same-grid patterns.

    ``l2_diff`` is the grid-native norm sqrt(trapz((a - b)^2 dtheta));
    ``first_zero_offset_rad`` is (first dark angle of a) - (of b): zero when
    neither curve has a dark point, NaN when exactly one of them lacks one.
    """
    if not np.array_equal(a.thetas, b.thetas):
        raise ValueError("compare_curves: patterns must share the same theta grid")
    diff = a.density - b.density
    max_abs = float(np.max(np.abs(diff))) if diff.size else 0.0
    l2 = math.sqrt(max(grid_area(a.thetas, diff * diff), 0.0))
    zero_a = first_dark_angle(a)
    zero_b = first_dark_angle(b)
    if zero_a is None and zero_b is None:
        offset = 0.0
    elif zero_a is None or zero_b is None:
        offset = math.nan
    else:
        offset = zero_a - zero_b
    return CurveComparison(
        max_abs_diff=max_abs,
        l2_diff=l2,
        first_zero_offset_rad=offset,
        first_zero_a_rad=zero_a,
        first_zero_b_rad=zero_b,
    )
