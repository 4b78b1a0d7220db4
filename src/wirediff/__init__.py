"""wirediff: wire-barrier diffraction distributions.

Angular probability densities for particle beams scattering from a
cylindrical-barrier wire model: one density per beam geometry (single
beam, two interfering beams) over a per-beam amplitude, the lowest-order
quantum one or the classical Fraunhofer comparator, plus the derived
radius-overestimation analysis.
"""

__version__ = "0.21.0"

# each public name and the module it lives in, imported on first access
# (PEP 562), so ``import wirediff`` and the commands that build no array
# load no numpy
_HOMES = {
    "BeamParams": "potential",
    "DomainError": "numerics",
    "ELECTRON_MASS_EV": "potential",
    "HBARC_EV_M": "potential",
    "amplitudes": "electron",
    "compare_curves": "patterns",
    "disk_amplitude": "numerics",
    "dsigma_dtheta": "electron",
    "dsigma_dtheta_two_beam": "twobeam",
    "first_dark_points": "analysis",
    "fraunhofer_amplitudes": "classical",
    "overestimation_factor": "analysis",
    "sample_pattern": "patterns",
    "sinc": "numerics",
    "validate_grid": "patterns",
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
