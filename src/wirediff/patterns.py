"""Sampled angular probability patterns and normalization plumbing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class Normalization(str, Enum):
    RAW = "raw"
    PEAK_ONE = "peak_one"
    UNIT_AREA = "unit_area"
    AREA_MATCHED = "area_matched"


def default_grid() -> np.ndarray:
    """Uniform grid theta in [-0.15, 0.15] rad, 2001 points.

    Wide enough to cover at least three dark fringes at the default
    633 nm / 17 um configuration (first dark point near 0.045 rad).
    """
    return np.linspace(-0.15, 0.15, 2001)


def validate_grid(thetas) -> np.ndarray:
    """Check an angular grid: 1-D, finite, strictly increasing, non-empty."""
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("angular grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("angular grid must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise ValueError("angular grid must be strictly increasing")
    return arr


def grid_area(thetas: np.ndarray, density: np.ndarray) -> float:
    """Trapezoidal integral of a sampled density over its grid."""
    return float(np.trapezoid(density, thetas))


def normalize_density(thetas: np.ndarray, density: np.ndarray,
                      normalization: Normalization) -> np.ndarray:
    """Rescale a sampled density according to the requested mode."""
    normalization = Normalization(normalization)
    if normalization in (Normalization.RAW, Normalization.AREA_MATCHED):
        return np.asarray(density, dtype=float)
    if normalization is Normalization.PEAK_ONE:
        peak = float(np.max(density))
        if peak <= 0.0:
            raise ValueError("cannot peak-normalize an identically zero density")
        return density / peak
    area = grid_area(thetas, density)
    if area <= 0.0 or not math.isfinite(area):
        raise ValueError("cannot area-normalize: integral is zero or non-finite")
    return density / area


@dataclass(frozen=True, eq=False)
class Pattern:
    """A sampled angular probability density d(sigma)/d(theta).

    ``metadata`` records provenance (beam, wire, configuration) so emitted
    files are reproducible from their own contents.
    """

    thetas: np.ndarray
    density: np.ndarray
    normalization: Normalization = Normalization.RAW
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        thetas = validate_grid(self.thetas)
        density = np.asarray(self.density, dtype=float)
        if density.shape != thetas.shape:
            raise ValueError(
                f"density shape {density.shape} does not match grid shape {thetas.shape}"
            )
        if not np.all(np.isfinite(density)):
            raise ValueError("density must be finite")
        if np.any(density < 0.0):
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "normalization", Normalization(self.normalization))

    def area(self) -> float:
        """Trapezoidal integral of the density over the grid."""
        return grid_area(self.thetas, self.density)


def sample_pattern(density, thetas, normalization: Normalization, **metadata) -> Pattern:
    """Sample ``density`` over an angular grid (None: :func:`default_grid`).

    The one pattern builder: it validates the grid, evaluates the density
    once on the whole grid (``density`` maps a theta array to an array of
    the same shape), normalizes it and records the normalization next to the
    caller's ``metadata``.
    """
    thetas = default_grid() if thetas is None else validate_grid(thetas)
    normalization = Normalization(normalization)
    values = density(thetas)
    metadata["normalization"] = normalization.value
    return Pattern(thetas, normalize_density(thetas, values, normalization),
                   normalization, metadata)
