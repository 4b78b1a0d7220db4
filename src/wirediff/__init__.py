"""wirediff: wire-barrier diffraction distributions.

Angular probability densities for particle beams scattering from a
cylindrical-barrier wire model, in the lowest-order quantum treatment and
the classical Fraunhofer comparator, for single-beam and interfering
two-beam configurations, plus the derived radius-overestimation analysis.
"""

__version__ = "0.4.0"

from .analysis import (
    CurveComparison,
    ZeroReport,
    compare_curves,
    first_dark_angle,
    first_dark_points,
    match_areas,
    overestimation_factor,
)
from .classical import ClassicalConfig, fraunhofer_single, fraunhofer_two_beam, pattern_classical
from .electron import (
    FLIP,
    NO_FLIP,
    Spin,
    SpinChannel,
    dsigma_dtheta_full,
    dsigma_dtheta_low_energy,
    pattern_single,
    spinor_element,
)
from .numerics import DomainError, disk_amplitude, find_zero, sinc
from .patterns import Normalization, Pattern, default_grid, validate_grid
from .potential import (
    ELECTRON_MASS_EV,
    HBARC_EV_M,
    BeamParams,
    WirePotential,
    momentum_transfer_single,
)
from .twobeam import (
    ScanResult,
    TwoBeamConfig,
    pattern_two_beam,
    phi_theta_scan,
)
from .twobeam import dsigma_dtheta_full as dsigma_dtheta_two_beam_full
from .twobeam import dsigma_dtheta_low_energy as dsigma_dtheta_two_beam_low_energy

__all__ = [
    "__version__",
    "BeamParams",
    "ClassicalConfig",
    "CurveComparison",
    "DomainError",
    "ELECTRON_MASS_EV",
    "FLIP",
    "HBARC_EV_M",
    "NO_FLIP",
    "Normalization",
    "Pattern",
    "ScanResult",
    "Spin",
    "SpinChannel",
    "TwoBeamConfig",
    "WirePotential",
    "ZeroReport",
    "compare_curves",
    "default_grid",
    "disk_amplitude",
    "dsigma_dtheta_full",
    "dsigma_dtheta_low_energy",
    "dsigma_dtheta_two_beam_full",
    "dsigma_dtheta_two_beam_low_energy",
    "find_zero",
    "first_dark_angle",
    "first_dark_points",
    "fraunhofer_single",
    "fraunhofer_two_beam",
    "match_areas",
    "momentum_transfer_single",
    "overestimation_factor",
    "pattern_classical",
    "pattern_single",
    "pattern_two_beam",
    "phi_theta_scan",
    "sinc",
    "spinor_element",
    "validate_grid",
]
