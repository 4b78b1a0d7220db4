"""wirediff: wire-barrier diffraction distributions.

Angular probability densities for particle beams scattering from a
cylindrical-barrier wire model: one density per beam geometry (single
beam, two interfering beams) over a per-beam amplitude, the lowest-order
quantum one or the classical Fraunhofer comparator, plus the derived
radius-overestimation analysis.
"""

__version__ = "0.16.0"

from .analysis import (
    CurveComparison,
    compare_curves,
    first_dark_points,
    match_areas,
    overestimation_factor,
)
from .classical import fraunhofer_amplitudes
from .electron import Channel, amplitudes, dsigma_dtheta, spinor_elements
from .numerics import DomainError, disk_amplitude, sinc
from .patterns import Normalization, Pattern, default_grid, sample_pattern, validate_grid
from .potential import ELECTRON_MASS_EV, HBARC_EV_M, BeamParams
from .twobeam import dsigma_dtheta_two_beam

__all__ = [
    "__version__",
    "BeamParams",
    "Channel",
    "CurveComparison",
    "DomainError",
    "ELECTRON_MASS_EV",
    "HBARC_EV_M",
    "Normalization",
    "Pattern",
    "amplitudes",
    "compare_curves",
    "default_grid",
    "disk_amplitude",
    "dsigma_dtheta",
    "dsigma_dtheta_two_beam",
    "first_dark_points",
    "fraunhofer_amplitudes",
    "match_areas",
    "overestimation_factor",
    "sample_pattern",
    "sinc",
    "spinor_elements",
    "validate_grid",
]
