import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirediff.classical import fraunhofer_amplitudes
from wirediff.cli import _MIN_SAMPLES_PER_FRINGE
from wirediff.electron import amplitudes, dsigma_dtheta
from wirediff.numerics import DomainError
from wirediff.patterns import grid_area, sample_pattern, validate_grid
from wirediff.potential import BeamParams
from wirediff.twobeam import dsigma_dtheta_two_beam

# pR 84.4 on +-0.6 rad reaches qR ~ 50: both J1 branches are sampled
THETAS = np.linspace(-0.6, 0.6, 801)
# pc / mc^2 ~ 2, so the flip channel carries weight
BEAM = BeamParams.from_wavelength_nm(633.0, mass_ev=1.0)
PR = BEAM.momentum * 8.5e-6
CFG = (0.07, 1.3)


def per_point(density):
    return np.array([density(theta) for theta in THETAS.tolist()])


def quantum(mode="low-energy", channel="no-flip"):
    return partial(amplitudes, BEAM, PR, mode=mode, channel=channel)


class TestBuildersMatchScalarDensities:
    # the pattern builder evaluates each density on the whole grid at once;
    # each sample must equal the per-point scalar density bit for bit
    @pytest.mark.parametrize("mode, channel, scalar", [
        ("low-energy", "no-flip", lambda t: dsigma_dtheta(quantum(), t)),
        ("full", "no-flip", lambda t: dsigma_dtheta(quantum("full", "no-flip"), t)),
        ("full", "flip", lambda t: dsigma_dtheta(quantum("full", "flip"), t)),
        ("full", "sum", lambda t: dsigma_dtheta(quantum("full", "sum"), t)),
    ], ids=["low-energy", "no-flip", "flip", "sum"])
    def test_single_beam(self, mode, channel, scalar):
        pattern = sample_pattern(partial(dsigma_dtheta, quantum(mode, channel)), THETAS)
        assert pattern.tobytes() == per_point(scalar).tobytes()

    @pytest.mark.parametrize("mode, channel, scalar", [
        ("low-energy", "no-flip", lambda t: dsigma_dtheta_two_beam(quantum(), *CFG, t)),
        ("full", "no-flip",
         lambda t: dsigma_dtheta_two_beam(quantum("full", "no-flip"), *CFG, t)),
        ("full", "flip",
         lambda t: dsigma_dtheta_two_beam(quantum("full", "flip"), *CFG, t)),
        ("full", "sum",
         lambda t: (dsigma_dtheta_two_beam(quantum("full", "no-flip"), *CFG, t)
                    + dsigma_dtheta_two_beam(quantum("full", "flip"), *CFG, t))),
    ], ids=["low-energy", "no-flip", "flip", "sum"])
    def test_two_beam(self, mode, channel, scalar):
        pattern = sample_pattern(partial(dsigma_dtheta_two_beam, quantum(mode, channel), *CFG),
                                 THETAS)
        assert pattern.tobytes() == per_point(scalar).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.82])
    def test_classical(self, scale):
        density = partial(dsigma_dtheta, partial(fraunhofer_amplitudes, scale * PR))
        pattern = sample_pattern(density, THETAS)
        assert pattern.tobytes() == per_point(density).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.82])
    def test_classical_two_beam(self, scale):
        density = partial(dsigma_dtheta_two_beam, partial(fraunhofer_amplitudes, scale * PR), *CFG)
        pattern = sample_pattern(density, THETAS)
        assert pattern.tobytes() == per_point(density).tobytes()
        area = sample_pattern(density, THETAS, normalization="unit-area")
        assert grid_area(THETAS, area) == pytest.approx(1.0, abs=1e-12)


class TestSamplePattern:
    def test_checks_run_in_order(self):
        # the grid and the normalization spelling before the density runs,
        # then the density's shape before its finiteness
        def density(theta):
            raise AssertionError("density called")

        with pytest.raises(DomainError, match="strictly increasing"):
            sample_pattern(density, THETAS[::-1])
        with pytest.raises(DomainError, match="unknown normalization 'area-matched'"):
            sample_pattern(density, THETAS, "area-matched")
        with pytest.raises(DomainError, match=r"got shape \(3,\) on a grid of shape \(801,\)"):
            sample_pattern(lambda theta: np.full(3, math.nan), THETAS)

    @pytest.mark.parametrize("lo, hi, accepted", [
        (-math.pi, 0.0, True), (np.nextafter(-math.pi, -4.0), 0.0, False),
        (0.0, math.pi, True), (0.0, np.nextafter(math.pi, 4.0), False),
    ], ids=["-pi", "below -pi", "pi", "above pi"])
    def test_grid_lies_in_one_turn(self, lo, hi, accepted):
        # beyond +-pi an angle names a direction again, which unit-area would count twice
        grid = np.array([lo, hi])
        if accepted:
            assert np.array_equal(validate_grid(grid), grid)
        else:
            with pytest.raises(DomainError, match=r"^angular grid must lie in \[-pi, pi\]"):
                sample_pattern(np.ones_like, grid, "unit-area")

    @pytest.mark.parametrize("normalization", ["raw", "peak-one", "unit-area"])
    def test_non_finite_density_is_not_input(self, normalization):
        # the package's own density at fault: ValueError, before normalizing,
        # for a NaN, and for a negative value even where the peak or area is negative
        for value, message in ((math.nan, "finite"), (-1.0, "non-negative")):
            with pytest.raises(ValueError, match=f"density must be {message}") as exc:
                sample_pattern(lambda theta: np.full(theta.shape, value), THETAS, normalization)
            assert not isinstance(exc.value, DomainError)


class TestCompareFloor:
    # at the floor `compare` enforces, 50 samples per fringe pi / max(pR, s pR),
    # its only grid-dependent numbers, trapezoid integrals, must be accurate:
    # the area of both compared curves within 2e-4 relative of a 64x finer grid,
    # on windows of 0.5 to 10 fringes a side, wherever the grid falls.  The
    # worst case, ~1.4e-4, is a window edge half a fringe out, where the
    # density is steepest; the error falls as 1 / samples^2, so 40 fails
    @settings(deadline=None)
    @given(p_radius=st.floats(20.0, 3000.0), scale=st.floats(0.8, 1.25),
           below=st.floats(0.5, 10.0), above=st.floats(0.5, 10.0),
           offset=st.floats(0.0, 1.0, exclude_max=True))
    def test_trapezoid_area_at_fifty_samples_per_fringe(self, p_radius, scale, below, above,
                                                         offset):
        per_fringe = _MIN_SAMPLES_PER_FRINGE
        step = math.pi / (per_fringe * max(1.0, scale) * p_radius)
        thetas = (np.arange(-round(below * per_fringe), round(above * per_fringe) + 1)
                  + offset) * step
        fine = np.linspace(thetas[0], thetas[-1], 64 * (thetas.size - 1) + 1)
        for amplitude in (partial(amplitudes, BEAM, p_radius),
                          partial(fraunhofer_amplitudes, scale * p_radius)):
            density = partial(dsigma_dtheta, amplitude)
            assert grid_area(thetas, sample_pattern(density, thetas)) == pytest.approx(
                grid_area(fine, sample_pattern(density, fine)), rel=2e-4)


# every amplitude a two-beam pattern takes: both quantum modes in each of
# their channels, and the classical one
AMPLITUDES = {
    "low-energy-no-flip": quantum(),
    "low-energy-sum": quantum(channel="sum"),
    "full-no-flip": quantum("full"),
    "full-flip": quantum("full", "flip"),
    "full-sum": quantum("full", "sum"),
    "classical": partial(fraunhofer_amplitudes, PR),
}


class TestPhaseRows:
    # a density over a phase sequence is one row per phase, each sampled and
    # normalized as the pattern at that one phase
    @pytest.mark.parametrize("normalization", ["raw", "peak-one", "unit-area"])
    @pytest.mark.parametrize("name", AMPLITUDES)
    def test_rows_equal_single_phase_patterns(self, name, normalization):
        rng = np.random.default_rng([20261020, list(AMPLITUDES).index(name)])
        for _ in range(3):
            alpha = float(rng.uniform(0.0, math.pi))
            phis = rng.uniform(-20.0, 20.0, rng.integers(1, 8))
            phis[rng.integers(phis.size)] = math.tau  # reduces to exactly 0
            thetas = np.linspace(-rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6),
                                 int(rng.integers(2, 300)))
            rows = sample_pattern(partial(dsigma_dtheta_two_beam, AMPLITUDES[name], alpha, phis),
                                  thetas, normalization)
            assert rows.shape == (phis.size, thetas.size)
            for phi, row in zip(phis.tolist(), rows):
                one = sample_pattern(partial(dsigma_dtheta_two_beam, AMPLITUDES[name], alpha, phi),
                                     thetas, normalization)
                assert row.tobytes() == one.tobytes()

    def test_area_is_one_float_or_one_per_row(self):
        density = partial(dsigma_dtheta_two_beam, quantum(), CFG[0])
        rows = sample_pattern(partial(density, [0.0, 1.3, 2.0]), THETAS)
        one = sample_pattern(partial(density, 1.3), THETAS)
        assert type(grid_area(THETAS, one)) is float
        assert grid_area(THETAS, rows).shape == (3,)
        assert grid_area(THETAS, rows)[1] == grid_area(THETAS, one)
        # unit-area divides each row by that same area
        unit = sample_pattern(partial(density, [0.0, 1.3, 2.0]), THETAS, "unit-area")
        assert unit.tobytes() == (rows / grid_area(THETAS, rows)[:, None]).tobytes()
