import json
from functools import partial

import numpy as np
import pytest

from wirediff import BeamParams, amplitudes
from wirediff.cli import _DEFAULT_GRID

# Default configuration used throughout: 633 nm beam, 17 um wire diameter.
WAVELENGTH_NM = 633.0
DIAMETER_UM = 17.0
# the CLI's default theta grid, [-0.15, 0.15] rad in 2001 points
DEFAULT_THETAS = np.linspace(*_DEFAULT_GRID)


@pytest.fixture(scope="session")
def beam() -> BeamParams:
    return BeamParams.from_wavelength_nm(WAVELENGTH_NM)


@pytest.fixture(scope="session")
def p_radius(beam) -> float:
    # 2*pi * 8.5e-6 / 633e-9 = 84.3714, formed as the CLI forms it
    return beam.momentum * (0.5 * DIAMETER_UM * 1e-6)


@pytest.fixture(scope="session")
def amplitude(beam, p_radius):
    """The default configuration's low-energy quantum amplitude, a function of theta."""
    return partial(amplitudes, beam, p_radius)


@pytest.fixture(scope="session")
def j1_zeros_oracle():
    """First positive zeros of J1 from the independent library oracle."""
    from scipy.special import jn_zeros

    return [float(z) for z in jn_zeros(1, 5)]


def bessel_oracle(x: float) -> float:
    """Independent library-grade J1 (rational approximation, scipy)."""
    from scipy.special import j1

    return float(j1(x))


def two_j1_over_x(x: float) -> float:
    """Oracle for the normalized disk transform 2 J1(x)/x."""
    if x == 0.0:
        return 1.0
    return 2.0 * bessel_oracle(x) / x


def reference_csv(config: dict, header: str, *columns) -> str:
    """Per-cell CSV writer, the oracle for ``wirediff.cli._csv``: equal-length
    columns, every cell formatted on its own with ``format(x, ".17g")``."""
    lines = ["# config: " + json.dumps(config, sort_keys=True)] if config else []
    lines.append(header)
    cells = [[format(x, ".17g") for x in column.tolist()] for column in columns]
    lines.extend(",".join(row) for row in zip(*cells))
    return "\n".join(lines) + "\n"
