import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirediff.analysis import first_dark_angle, first_dark_points, match_areas
from wirediff.classical import ClassicalConfig, fraunhofer_single, pattern_classical
from wirediff.electron import Channel, dsigma_dtheta, pattern_single
from wirediff.potential import BeamParams, WirePotential
from wirediff.twobeam import TwoBeamConfig, dsigma_dtheta_two_beam, pattern_two_beam

# pR 84.4 on +-0.6 rad reaches qR ~ 50: both J1 branches are sampled
THETAS = np.linspace(-0.6, 0.6, 801)
WIRE = WirePotential.from_diameter_um(17.0)
# pc / mc^2 ~ 2, so the flip channel carries weight
BEAM = BeamParams.from_wavelength_nm(633.0, mass_ev=1.0)
PR = BEAM.momentum * WIRE.radius
CFG = TwoBeamConfig(alpha=0.07, phi=1.3)


def per_point(density):
    return np.array([density(theta) for theta in THETAS.tolist()])


class TestBuildersMatchScalarDensities:
    # every pattern builder evaluates its density on the whole grid at once;
    # each sample must equal the per-point scalar density bit for bit
    @pytest.mark.parametrize("mode, channel, scalar", [
        ("low-energy", Channel.NO_FLIP, lambda t: dsigma_dtheta(BEAM, WIRE, t)),
        ("full", Channel.NO_FLIP, lambda t: dsigma_dtheta(BEAM, WIRE, t, "full", Channel.NO_FLIP)),
        ("full", Channel.FLIP, lambda t: dsigma_dtheta(BEAM, WIRE, t, "full", Channel.FLIP)),
        ("full", Channel.SUM, lambda t: dsigma_dtheta(BEAM, WIRE, t, "full", Channel.SUM)),
    ], ids=["low-energy", "no-flip", "flip", "sum"])
    def test_single_beam(self, mode, channel, scalar):
        pattern = pattern_single(BEAM, WIRE, THETAS, mode=mode, channel=channel)
        assert pattern.density.tobytes() == per_point(scalar).tobytes()

    @pytest.mark.parametrize("mode, channel, scalar", [
        ("low-energy", Channel.NO_FLIP, lambda t: dsigma_dtheta_two_beam(BEAM, WIRE, CFG, t)),
        ("full", Channel.NO_FLIP,
         lambda t: dsigma_dtheta_two_beam(BEAM, WIRE, CFG, t, "full", Channel.NO_FLIP)),
        ("full", Channel.FLIP,
         lambda t: dsigma_dtheta_two_beam(BEAM, WIRE, CFG, t, "full", Channel.FLIP)),
        ("full", Channel.SUM,
         lambda t: (dsigma_dtheta_two_beam(BEAM, WIRE, CFG, t, "full", Channel.NO_FLIP)
                    + dsigma_dtheta_two_beam(BEAM, WIRE, CFG, t, "full", Channel.FLIP))),
    ], ids=["low-energy", "no-flip", "flip", "sum"])
    def test_two_beam(self, mode, channel, scalar):
        pattern = pattern_two_beam(BEAM, WIRE, CFG, THETAS, mode=mode, channel=channel)
        assert pattern.density.tobytes() == per_point(scalar).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 0.82])
    def test_classical(self, scale):
        cfg = ClassicalConfig(p_radius=PR, radius_scale=scale)
        pattern = pattern_classical(cfg, THETAS)
        assert pattern.density.tobytes() == per_point(
            lambda t: fraunhofer_single(cfg, t)).tobytes()


class TestSamplingGuard:
    # 50 samples per fringe pi / (max(1, s) pR) is the floor `compare` enforces;
    # at that floor the grid-based dark angle of both compared curves must
    # still find the first dark point, wherever the grid falls
    @settings(deadline=None)
    @given(log_pr=st.floats(1.7, 8.0), scale=st.floats(0.8, 1.25),
           offset=st.floats(0.0, 1.0, exclude_max=True))
    def test_first_dark_angle_at_fifty_samples_per_fringe(self, log_pr, scale, offset):
        wire = WirePotential(radius=1e-5)
        beam = BeamParams(momentum=10.0**log_pr / wire.radius)
        p_radius = beam.momentum * wire.radius
        step = math.pi / (50 * max(1.0, scale) * p_radius)
        thetas = (np.arange(-300, 301) + offset) * step  # +-6 fringes
        quantum = pattern_single(beam, wire, thetas)
        classical = match_areas(
            quantum, pattern_classical(ClassicalConfig(p_radius, scale), thetas))
        for pattern, zero in (
                (quantum, first_dark_points(p_radius, "quantum").zeros[0]),
                (classical, first_dark_points(scale * p_radius, "classical").zeros[0])):
            found = first_dark_angle(pattern)
            assert found is not None
            assert abs(found - zero) <= step
