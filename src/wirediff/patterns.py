"""Sampled angular probability patterns, normalization plumbing, and the
area-matched comparison of two patterns."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, _choice
from .potential import _DEFAULT_GRID, _NORMALIZATIONS


def default_grid() -> np.ndarray:
    """Uniform grid theta in [-0.15, 0.15] rad, 2001 points.

    Wide enough to cover at least three dark fringes at the default
    633 nm / 17 um configuration (first dark point near 0.045 rad).
    """
    return np.linspace(*_DEFAULT_GRID)


def validate_grid(thetas) -> np.ndarray:
    """Check an angular grid: 1-D, real, finite, strictly increasing, non-empty."""
    try:
        arr = np.asarray(thetas)
    except ValueError:  # numpy refuses a ragged nesting
        raise DomainError("angular grid must be a non-empty 1-D array") from None
    if arr.dtype.kind not in "biuf":  # text or complex; float() would parse or raise
        raise DomainError(f"angular grid must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("angular grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError("angular grid must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise DomainError("angular grid must be strictly increasing")
    return arr


def grid_area(thetas: np.ndarray, density: np.ndarray):
    """Trapezoidal integral of a sampled density over its grid, a float, or one per row."""
    area = np.trapezoid(density, thetas)
    return area if area.ndim else float(area)


def _is_pattern_shape(shape: tuple, thetas: np.ndarray) -> bool:
    # one density value per theta, or a non-empty leading axis of such rows, one per phase
    return shape[-1:] == thetas.shape and len(shape) <= 2 and 0 not in shape


@dataclass(frozen=True, eq=False)
class Pattern:
    """A sampled angular probability density d(sigma)/d(theta).

    ``density`` has one value per theta, or one row of them per phase (a phase scan).
    A pattern carries no provenance: the builder's own arguments are the
    record, and the CLI writes them into every file as its ``# config:`` line.
    """

    thetas: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        thetas = validate_grid(self.thetas)
        density = np.asarray(self.density, dtype=float)
        if not _is_pattern_shape(density.shape, thetas):
            raise ValueError(f"density shape {density.shape} is neither the grid shape "
                             f"{thetas.shape} nor one row of it per phase")
        if not np.all(np.isfinite(density)):
            raise ValueError("density must be finite")
        if np.any(density < 0.0):
            raise ValueError("density must be non-negative")
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "density", density)

    def area(self):
        """Trapezoidal integral of the density over the grid: a float, or one per row."""
        return grid_area(self.thetas, self.density)


def sample_pattern(density, thetas: np.ndarray | None = None,
                   normalization: str = "raw") -> Pattern:
    """Sample ``density`` over an angular grid (None: :func:`default_grid`).

    The one pattern builder: it validates the grid, evaluates the density
    once on the whole grid and normalizes it.  ``density`` maps the theta
    array to one value per theta, as the package's two densities do when
    their other arguments are bound, for example
    ``partial(dsigma_dtheta, partial(amplitudes, beam, pR, mode="full", channel="sum"))``,
    ``partial(dsigma_dtheta_two_beam, partial(amplitudes, beam, pR), alpha, phi)``,
    ``partial(dsigma_dtheta, partial(fraunhofer_amplitudes, pR))`` or
    ``partial(dsigma_dtheta_two_beam, partial(fraunhofer_amplitudes, pR), alpha, phi)``;
    or to one row of them per phase, as the two-beam density does over a phase
    sequence, each row normalized as its own pattern.  Another shape raises DomainError.
    ``normalization`` is "raw" (the density as computed), "peak-one" (each row's
    maximum is 1) or "unit-area" (each row's trapezoidal area is 1); another
    spelling raises DomainError.
    """
    thetas = default_grid() if thetas is None else validate_grid(thetas)
    normalization = _choice("normalization", normalization, _NORMALIZATIONS)
    values = density(thetas)
    if not _is_pattern_shape(np.shape(values), thetas):
        raise DomainError(f"a pattern has one density value per theta, or a row of them per "
                          f"phase: got shape {np.shape(values)} on a grid of shape {thetas.shape}")
    # the density's fault, not the caller's: before the normalization's DomainError
    if not np.all(np.isfinite(values)):
        raise ValueError("density must be finite")
    if normalization == "peak-one":
        peak = np.max(values, axis=-1, keepdims=True)
        if np.any(peak <= 0.0):
            raise DomainError("cannot peak-normalize an identically zero density")
        values = values / peak
    elif normalization == "unit-area":
        area = np.asarray(grid_area(thetas, values))[..., None]
        if not np.all((area > 0.0) & np.isfinite(area)):
            raise DomainError("cannot area-normalize: integral is zero or non-finite")
        values = values / area
    # Pattern rechecks the grid and density: skipping that needs a private constructor
    return Pattern(thetas, values)


def compare_curves(reference: Pattern, target: Pattern) -> dict:
    """Compare the shapes of two single-curve patterns on one theta grid.

    ``target`` is scaled to ``reference``'s trapezoidal area, then subtracted:
    ``max_abs_diff`` is the largest |difference| and ``l2_diff`` the grid-native
    norm sqrt(trapz(difference^2 dtheta)).  A target of zero area, or one too
    small for the scale to be finite, raises DomainError.
    """
    if (reference.density.ndim > 1 or target.density.ndim > 1
            or not np.array_equal(reference.thetas, target.thetas)):
        raise DomainError("compare_curves: patterns must be single curves on the same theta grid")
    target_area = target.area()
    if target_area == 0.0:
        raise DomainError("compare_curves: target pattern has zero integral")
    scale = reference.area() / target_area
    if not math.isfinite(scale):
        raise DomainError(f"compare_curves: cannot scale a target of area {target_area!r}")
    diff = reference.density - target.density * scale
    return {"max_abs_diff": float(np.max(np.abs(diff))),
            "l2_diff": math.sqrt(grid_area(reference.thetas, diff * diff))}
