"""Sampled angular probability patterns and normalization plumbing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import DomainError


class Spelling(str, Enum):
    """A str enum whose lookup of an unknown spelling raises DomainError."""

    @classmethod
    def _missing_(cls, value):
        expected = ", ".join(repr(member.value) for member in cls)
        raise DomainError(f"unknown {cls.__name__} {value!r}; expected one of {expected}")


class Normalization(Spelling):
    """How a pattern's density is scaled; the values are the CLI's spellings."""

    RAW = "raw"
    PEAK_ONE = "peak-one"
    UNIT_AREA = "unit-area"


# (theta min [rad], theta max [rad], points) of default_grid and of the CLI's
# --theta-min, --theta-max and --theta-points defaults
_DEFAULT_GRID = (-0.15, 0.15, 2001)


def default_grid() -> np.ndarray:
    """Uniform grid theta in [-0.15, 0.15] rad, 2001 points.

    Wide enough to cover at least three dark fringes at the default
    633 nm / 17 um configuration (first dark point near 0.045 rad).
    """
    return np.linspace(*_DEFAULT_GRID)


def validate_grid(thetas) -> np.ndarray:
    """Check an angular grid: 1-D, finite, strictly increasing, non-empty."""
    arr = np.asarray(thetas, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("angular grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError("angular grid must be finite")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise DomainError("angular grid must be strictly increasing")
    return arr


def grid_area(thetas: np.ndarray, density: np.ndarray) -> float:
    """Trapezoidal integral of a sampled density over its grid."""
    return float(np.trapezoid(density, thetas))


@dataclass(frozen=True, eq=False)
class Pattern:
    """A sampled angular probability density d(sigma)/d(theta).

    A pattern carries no provenance: the builder's own arguments are the
    record, and the CLI writes them into every file as its ``# config:`` line.
    """

    thetas: np.ndarray
    density: np.ndarray

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

    def area(self) -> float:
        """Trapezoidal integral of the density over the grid."""
        return grid_area(self.thetas, self.density)


def sample_pattern(density, thetas: np.ndarray | None = None,
                   normalization: Normalization = Normalization.RAW) -> Pattern:
    """Sample ``density`` over an angular grid (None: :func:`default_grid`).

    The one pattern builder: it validates the grid, evaluates the density
    once on the whole grid and normalizes it.  ``density`` maps the theta
    array to one value per theta, as the package's two densities do when
    their other arguments are bound, for example
    ``partial(dsigma_dtheta, partial(amplitudes, beam, pR, mode="full", channel="sum"))``,
    ``partial(dsigma_dtheta_two_beam, partial(amplitudes, beam, pR), alpha, phi)``,
    ``partial(dsigma_dtheta, partial(fraunhofer_amplitudes, pR))`` or
    ``partial(dsigma_dtheta_two_beam, partial(fraunhofer_amplitudes, pR), alpha, phi)``.
    A result of another shape, such as one row per phase of a phase
    sequence, raises DomainError.
    """
    thetas = default_grid() if thetas is None else validate_grid(thetas)
    normalization = Normalization(normalization)
    values = density(thetas)
    if np.shape(values) != thetas.shape:
        raise DomainError(f"a pattern has one density value per theta: got shape "
                          f"{np.shape(values)} on a grid of shape {thetas.shape}")
    # the density's fault, not the caller's: before the normalization's DomainError
    if not np.all(np.isfinite(values)):
        raise ValueError("density must be finite")
    if normalization is Normalization.PEAK_ONE:
        peak = float(np.max(values))
        if peak <= 0.0:
            raise DomainError("cannot peak-normalize an identically zero density")
        values = values / peak
    elif normalization is Normalization.UNIT_AREA:
        area = grid_area(thetas, values)
        if area <= 0.0 or not math.isfinite(area):
            raise DomainError("cannot area-normalize: integral is zero or non-finite")
        values = values / area
    # Pattern rechecks the grid and density: skipping that needs a private constructor
    return Pattern(thetas, values)
