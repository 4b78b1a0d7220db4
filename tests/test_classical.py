import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wirediff.classical import fraunhofer_amplitudes
from wirediff.electron import dsigma_dtheta
from wirediff.numerics import DomainError
from wirediff.patterns import default_grid, sample_pattern
from wirediff.twobeam import dsigma_dtheta_two_beam

PR = 84.37136668408607  # 2*pi * 8.5e-6 / 633e-9


def single(p_radius, theta):
    # the classical single-beam density sinc^2(pR sin(theta))
    return dsigma_dtheta(partial(fraunhofer_amplitudes, p_radius), theta)


def two_beam(p_radius, alpha, phi, theta):
    # the classical two-beam density, sinc(pR sin(theta')) at each beam's own theta'
    return dsigma_dtheta_two_beam(partial(fraunhofer_amplitudes, p_radius), alpha, phi, theta)


class TestFraunhoferSingle:
    def test_forward_maximum(self):
        assert single(PR, 0.0) == 1.0

    def test_first_zero_location(self):
        # the amplitude sinc(pR sin(theta)) changes sign across asin(pi/pR)
        def amplitude(t):
            return math.sin(PR * math.sin(t)) / (PR * math.sin(t))

        theta = math.asin(math.pi / PR)
        assert amplitude(theta - 1e-12) > 0.0 > amplitude(theta + 1e-12)
        assert theta == pytest.approx(0.037247, abs=1e-5)
        assert single(PR, theta) < 1e-20

    def test_zeros_exact_grid(self):
        for n in (1, 2, 3):
            theta_n = math.asin(n * math.pi / PR)
            assert single(PR, theta_n) < 1e-20

    def test_radius_scale_moves_first_zero_inward(self):
        scaled = 1.21 * PR
        theta_unscaled = math.asin(math.pi / PR)
        theta_scaled = math.asin(math.pi / (1.21 * PR))
        assert theta_scaled == pytest.approx(theta_unscaled / 1.21, rel=1e-3)
        assert single(scaled, theta_scaled) < 1e-20

    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_even_and_bounded(self, theta):
        value = single(PR, theta)
        assert value == single(PR, -theta)
        assert 0.0 <= value <= 1.0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            fraunhofer_amplitudes(-1.0, 0.1)
        with pytest.raises(ValueError):
            two_beam(0.0 * PR, 0.1, 0.0, 0.1)


class TestFraunhoferTwoBeam:
    def test_degenerate_intersection_is_quadrupled_single(self):
        # alpha = 0, phi = 0: both amplitudes are the single-beam one, bit for bit
        for thetas in (default_grid(), np.linspace(-0.6, 0.6, 801)):
            assert np.array_equal(two_beam(PR, 0.0, 0.0, thetas),
                                  4.0 * single(PR, thetas))

    def test_destructive_center(self):
        assert two_beam(PR, 0.1, math.pi, 0.0) \
            == pytest.approx(0.0, abs=1e-25)

    @given(st.floats(min_value=-0.6, max_value=0.6),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_even_in_theta_any_phase(self, theta, phi):
        beams = (0.1, phi)
        assert two_beam(PR, *beams, theta) == two_beam(PR, *beams, -theta)

    @given(st.floats(min_value=-6.0, max_value=6.0))
    def test_phase_periodicity(self, phi):
        a = two_beam(PR, 0.1, phi, 0.02)
        b = two_beam(PR, 0.1, phi + 2.0 * math.pi, 0.02)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("scale, alpha, phi", [(1.0, 0.1, 0.0), (0.82, 0.07, 1.3),
                                                   (1.21, 0.0, math.pi)])
    def test_array_theta_matches_scalars(self, scale, alpha, phi):
        p_radius = scale * PR
        beams = (alpha, phi)
        thetas = np.linspace(-0.6, 0.6, 801)
        values = two_beam(p_radius, *beams, thetas)
        scalars = np.array([two_beam(p_radius, *beams, t) for t in thetas.tolist()])
        assert values.shape == thetas.shape
        assert np.max(np.abs(values - scalars)) <= 1e-15 * np.max(scalars)

    def test_non_finite_theta_rejected(self):
        with pytest.raises(DomainError):
            two_beam(PR, 0.1, 0.0, math.nan)


class TestPatternClassical:
    def test_peak_one(self):
        pattern = sample_pattern(partial(single, PR), normalization="peak-one")
        assert float(np.max(pattern.density)) == 1.0

    def test_unit_area(self):
        pattern = sample_pattern(partial(single, PR),
                                 normalization="unit-area")
        assert pattern.area() == pytest.approx(1.0, abs=1e-9)
