"""Sampled angular probability patterns as arrays: the grid check, the one
pattern builder and its normalization, and the area-matched comparison of
two curves.  A pattern is its theta grid and its density array; it carries
no provenance, since the builder's own arguments are the record, and the
CLI writes them into every file as its ``# config:`` line."""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, _choice, _require_finite
from .potential import _NORMALIZATIONS


def validate_grid(thetas) -> np.ndarray:
    """Check an angular grid: 1-D, real, finite, strictly increasing, in [-pi, pi], non-empty."""
    arr = _require_finite("angular grid", thetas)
    if np.ndim(arr) != 1 or arr.size == 0:
        raise DomainError("angular grid must be a non-empty 1-D array")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise DomainError("angular grid must be strictly increasing")
    if not (-math.pi <= arr[0] and arr[-1] <= math.pi):
        raise DomainError(f"angular grid must lie in [-pi, pi], got ends {arr[[0, -1]].tolist()}")
    return arr


def grid_area(thetas: np.ndarray, density: np.ndarray):
    """Trapezoidal integral of a sampled density over its grid, a float, or one per row."""
    area = np.trapezoid(density, thetas)
    return area if area.ndim else float(area)


def sample_pattern(density, thetas, normalization: str = "raw") -> np.ndarray:
    """Sample ``density`` over the angular grid ``thetas``, normalized.

    The one pattern builder: it validates the grid, evaluates the density
    once on the whole grid and returns the normalized density array.
    ``density`` maps the theta array to one value per theta, as the
    package's two densities do when their other arguments are bound, for example
    ``partial(dsigma_dtheta, partial(amplitudes, beam, pR, mode="full", channel="sum"))``,
    ``partial(dsigma_dtheta_two_beam, partial(amplitudes, beam, pR), alpha, phi)``,
    ``partial(dsigma_dtheta, partial(fraunhofer_amplitudes, pR))`` or
    ``partial(dsigma_dtheta_two_beam, partial(fraunhofer_amplitudes, pR), alpha, phi)``;
    or to one row of them per phase, as the two-beam density does over a phase
    sequence, each row normalized as its own pattern.  Another shape raises DomainError.
    A non-finite or negative value is the density's fault and raises ValueError.
    ``normalization`` is "raw" (the density as computed), "peak-one" (each row's
    maximum is 1) or "unit-area" (each row's trapezoidal area is 1); another
    spelling raises DomainError.
    """
    thetas = validate_grid(thetas)
    normalization = _choice("normalization", normalization, _NORMALIZATIONS)
    values = np.asarray(density(thetas))
    shape = values.shape
    if not (shape[-1:] == thetas.shape and len(shape) <= 2 and 0 not in shape):
        raise DomainError(f"a pattern has one density value per theta, or a row of them per "
                          f"phase: got shape {shape} on a grid of shape {thetas.shape}")
    # the density's fault, not the caller's: before the normalization's DomainError;
    # the kind first, as a cast would parse text and drop an imaginary part
    if values.dtype.kind not in "biuf" or not np.all(np.isfinite(values)):
        raise ValueError(f"density must be finite real numbers, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if np.any(values < 0.0):
        raise ValueError("density must be non-negative")
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
    return values


def _curve(thetas: np.ndarray, values, name: str) -> np.ndarray:
    # one curve of compare_curves: one non-negative value per theta
    curve = _require_finite(f"compare_curves: {name}", values)
    if np.shape(curve) != thetas.shape or np.any(curve < 0.0):
        raise DomainError(f"compare_curves: reference and target must be single curves, "
                          f"one non-negative value per theta; the {name} is not")
    return curve


def compare_curves(thetas, reference, target) -> dict:
    """Compare the shapes of two single curves sampled on the grid ``thetas``.

    ``target`` is scaled to ``reference``'s trapezoidal area, then subtracted:
    ``max_abs_diff`` is the largest |difference| and ``l2_diff`` the grid-native
    norm sqrt(trapz(difference^2 dtheta)).  A grid that :func:`validate_grid`
    refuses, a curve that is not one finite, non-negative value per theta, a
    target of zero area, or one too small for the scale to be finite, raises
    DomainError.
    """
    thetas = validate_grid(thetas)
    reference, target = _curve(thetas, reference, "reference"), _curve(thetas, target, "target")
    target_area = grid_area(thetas, target)
    if target_area == 0.0:
        raise DomainError("compare_curves: target pattern has zero integral")
    scale = grid_area(thetas, reference) / target_area
    if not math.isfinite(scale):
        raise DomainError(f"compare_curves: cannot scale a target of area {target_area!r}")
    diff = reference - target * scale
    return {"max_abs_diff": float(np.max(np.abs(diff))),
            "l2_diff": math.sqrt(grid_area(thetas, diff * diff))}
