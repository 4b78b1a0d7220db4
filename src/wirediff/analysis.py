"""Derived quantities: dark-fringe locations, the classical
radius-overestimation factor, area matching, and curve comparison metrics.

Dark points come from their defining equations, 2 pR sin(theta/2) = j_{1,k}
(quantum, j_{1,k} the k-th positive zero of the disk amplitude) and
pR sin(theta) = k pi (classical): only j_{1,k} needs a search, and it does
not depend on pR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import disk_amplitude, find_zero
from .patterns import Normalization, Pattern, grid_area


class RangeError(ValueError):
    """Fewer dark points exist in the search range than were requested."""


@dataclass(frozen=True, eq=False)
class ZeroReport:
    """First ``n`` dark-point angles (theta > 0, strictly increasing) [rad]."""

    method: str
    zeros: np.ndarray
    n: int


def first_dark_points(p_radius: float, method: str, n: int = 1) -> ZeroReport:
    """First ``n`` dark points in (0, pi/2), from their defining equations.

    method "quantum": theta_k = 2 arcsin(j_{1,k} / (2 pR)), where j_{1,k},
    the k-th positive zero of ``disk_amplitude`` (2 J1(x)/x), is bisected to
    1e-12 inside (k pi, (k + 1/2) pi); each such bracket holds exactly one
    zero, and a bracket without a sign change raises ``BracketError``.
    method "classical": theta_k = arcsin(k pi / pR), the zeros of
    sinc(pR sin(theta)).  A rescaled classical curve is handled by passing
    radius_scale * pR as ``p_radius``.
    """
    if not (math.isfinite(p_radius) and p_radius > 0.0):
        raise ValueError(f"first_dark_points: p_radius > 0 required, got {p_radius!r}")
    if n < 1:
        raise ValueError(f"first_dark_points: n >= 1 required, got {n!r}")
    if method not in ("quantum", "classical"):
        raise ValueError(f"unknown method {method!r}; expected 'quantum' or 'classical'")
    quantum = method == "quantum"
    # each left-hand side at theta = pi/2; a dark point below it lies in (0, pi/2)
    limit = 2.0 * p_radius * math.sin(0.25 * math.pi) if quantum else p_radius
    zeros: list[float] = []
    for k in range(1, n + 1):
        if quantum:
            x = find_zero(disk_amplitude, k * math.pi, (k + 0.5) * math.pi, tol=1e-12)
        else:
            x = k * math.pi
        if not x < limit:
            raise RangeError(
                f"only {k - 1} dark points of the requested {n} exist in "
                f"(0, pi/2) for p_radius={p_radius!r} ({method})"
            )
        zeros.append(2.0 * math.asin(x / (2.0 * p_radius)) if quantum
                     else math.asin(x / p_radius))
    return ZeroReport(method=method, zeros=np.array(zeros), n=n)


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
    below, centre, above = density[:-2], density[1:-1], density[2:]
    dark = np.flatnonzero((thetas[1:-1] > 0.0) & (centre <= below) & (centre <= above)
                          & (centre <= threshold))
    if not dark.size:
        return None
    i = int(dark[0]) + 1
    d0, d1, d2 = density[i - 1], density[i], density[i + 1]
    denom = d2 - 2.0 * d1 + d0
    if denom <= 0.0:
        return float(thetas[i])
    h = 0.5 * (thetas[i + 1] - thetas[i - 1])
    vertex = thetas[i] - 0.5 * h * (d2 - d0) / denom
    return float(min(max(vertex, thetas[i - 1]), thetas[i + 1]))


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
