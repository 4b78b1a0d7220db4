import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wirediff.electron import Channel, dsigma_dtheta, spinor_element
from wirediff.patterns import Normalization, Pattern, default_grid, sample_pattern
from wirediff.potential import BeamParams, WirePotential, momentum_transfer_single

from conftest import beam_and_wire, two_j1_over_x


class TestSpinorElement:
    def test_flip_vanishes_forward(self, beam):
        assert spinor_element(beam, 0.0, Channel.FLIP) == 0.0

    def test_no_flip_static_limit(self):
        # p -> 0: element tends to E + mc^2 = 2 mc^2
        beam = BeamParams(momentum=1e-3, mass_ev=510998.95)
        assert spinor_element(beam, 0.3, Channel.NO_FLIP) == pytest.approx(
            2.0 * beam.mass_ev, rel=1e-9
        )

    def test_flip_to_no_flip_ratio_negligible_at_optical_momentum(self, beam):
        # ratio ~ (pc)^2 sin(theta) / (E + mc^2)^2 ~ 3.7e-12 at theta = pi/2
        ratio = spinor_element(beam, math.pi / 2, Channel.FLIP) / spinor_element(
            beam, math.pi / 2, Channel.NO_FLIP
        )
        assert ratio == pytest.approx(3.7e-12, rel=0.05)

    def test_formulas_verbatim(self, beam):
        theta = 0.7
        pc = beam.pc_ev
        e_plus_m = beam.energy_ev + beam.mass_ev
        assert spinor_element(beam, theta, Channel.FLIP) == pytest.approx(
            pc * pc * math.sin(theta) / e_plus_m, rel=1e-15
        )
        assert spinor_element(beam, theta, Channel.NO_FLIP) == pytest.approx(
            (e_plus_m**2 + pc * pc * math.cos(theta)) / e_plus_m, rel=1e-15
        )


class TestDensities:
    def test_forward_maximum_no_flip(self, beam, wire):
        # theta = 0: spinor and form factor both maximal
        value = dsigma_dtheta(beam, wire, 0.0, "full", Channel.NO_FLIP)
        near = dsigma_dtheta(beam, wire, 0.01, "full", Channel.NO_FLIP)
        assert value > near
        assert value == pytest.approx((2.0 * beam.mass_ev) ** 2, rel=1e-10)

    def test_both_channels_vanish_at_form_factor_zero(
        self, beam, wire, p_radius, j1_zeros_oracle
    ):
        theta = 2.0 * math.asin(j1_zeros_oracle[0] / (2.0 * p_radius))
        for channel in (Channel.NO_FLIP, Channel.FLIP):
            assert dsigma_dtheta(beam, wire, theta, "full", channel) < 1e-20

    def test_flip_weight_negligible(self, beam, wire):
        thetas = default_grid()
        flip, noflip = (np.array([dsigma_dtheta(beam, wire, float(t), "full", c) for t in thetas])
                        for c in (Channel.FLIP, Channel.NO_FLIP))
        ratio = np.trapezoid(flip, thetas) / np.trapezoid(noflip, thetas)
        assert ratio < 1e-20

    def test_spin_summed_is_sum(self, beam, wire):
        theta = 0.04
        assert dsigma_dtheta(beam, wire, theta, "full", Channel.SUM) == pytest.approx(
            dsigma_dtheta(beam, wire, theta, "full", Channel.NO_FLIP)
            + dsigma_dtheta(beam, wire, theta, "full", Channel.FLIP),
            rel=1e-15,
        )

    def test_low_energy_forward_value(self, p_radius):
        assert dsigma_dtheta(*beam_and_wire(p_radius), 0.0) == 1.0

    def test_low_energy_first_zero_location(self, p_radius, j1_zeros_oracle):
        theta = 2.0 * math.asin(j1_zeros_oracle[0] / (2.0 * p_radius))
        assert theta == pytest.approx(0.045420, abs=1e-5)
        assert dsigma_dtheta(*beam_and_wire(p_radius), theta) < 1e-20

    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_low_energy_even(self, theta):
        beam, wire = beam_and_wire(84.37)
        assert dsigma_dtheta(beam, wire, theta) == dsigma_dtheta(beam, wire, -theta)

    def test_low_energy_matches_oracle_value(self, p_radius):
        theta = 0.03
        x = 2.0 * p_radius * math.sin(0.5 * theta)
        assert dsigma_dtheta(*beam_and_wire(p_radius), theta) == pytest.approx(
            two_j1_over_x(x) ** 2, abs=1e-12
        )

    def test_depends_on_theta_only_through_q(self, beam, wire):
        # equal momentum transfer => equal form factor, whatever the sign of theta
        from wirediff.numerics import disk_amplitude

        theta = 0.11
        q1 = momentum_transfer_single(beam.momentum, theta)
        q2 = momentum_transfer_single(beam.momentum, -theta)
        assert q1 == q2
        assert disk_amplitude(q1 * wire.radius) == disk_amplitude(q2 * wire.radius)


class TestPatternSingle:
    def test_peak_one_at_center(self, beam, wire):
        pattern = sample_pattern(partial(dsigma_dtheta, beam, wire),
                                 normalization=Normalization.PEAK_ONE)
        center = np.argmin(np.abs(pattern.thetas))
        assert pattern.thetas[center] == pytest.approx(0.0, abs=1e-12)
        assert pattern.density[center] == 1.0

    def test_unit_area_integrates_to_one(self, beam, wire):
        pattern = sample_pattern(partial(dsigma_dtheta, beam, wire),
                                 normalization=Normalization.UNIT_AREA)
        assert pattern.area() == pytest.approx(1.0, abs=1e-9)

    def test_evenness(self, beam, wire):
        # exactly mirrored grid: density must be symmetric to 1e-12 relative
        positive = np.linspace(7.5e-5, 0.15, 1000)
        thetas = np.concatenate([-positive[::-1], [0.0], positive])
        pattern = sample_pattern(partial(dsigma_dtheta, beam, wire), thetas)
        flipped = pattern.density[::-1]
        assert np.all(
            np.abs(pattern.density - flipped)
            <= 1e-12 * np.maximum(np.abs(flipped), 1e-300)
        )

    def test_full_no_flip_matches_low_energy_shape(self, beam, wire):
        # peak-normalized full (no-flip) and low-energy patterns coincide
        full = sample_pattern(partial(dsigma_dtheta, beam, wire, mode="full",
                                      channel=Channel.NO_FLIP),
                              normalization=Normalization.PEAK_ONE)
        low = sample_pattern(partial(dsigma_dtheta, beam, wire, mode="low-energy"),
                             normalization=Normalization.PEAK_ONE)
        deviation = np.abs(full.density - low.density) / np.maximum(low.density, 1e-300)
        assert float(np.max(deviation)) <= 1e-10

    def test_dark_points_follow_bessel_zeros(self, beam, wire, p_radius, j1_zeros_oracle):
        # nth dark point satisfies 2 pR sin(theta/2) = j1n for n = 1, 2, 3
        from wirediff.analysis import first_dark_points

        report = first_dark_points(p_radius, "quantum", 3)
        for theta_n, j1n in zip(report, j1_zeros_oracle):
            assert 2.0 * p_radius * math.sin(0.5 * theta_n) == pytest.approx(
                j1n, abs=1e-10
            )

    def test_grid_violation_rejected(self, beam, wire):
        with pytest.raises(ValueError):
            sample_pattern(partial(dsigma_dtheta, beam, wire), np.array([0.1, 0.0, -0.1]))

    def test_unknown_mode_rejected(self, beam, wire):
        with pytest.raises(ValueError):
            sample_pattern(partial(dsigma_dtheta, beam, wire, mode="fast"))

    def test_low_energy_flip_rejected(self, beam, wire):
        # its flip element vanishes; the no-flip density must not go out as "flip"
        with pytest.raises(ValueError, match="no flip channel"):
            sample_pattern(partial(dsigma_dtheta, beam, wire, mode="low-energy",
                                   channel=Channel.FLIP))

    def test_area_matched_rejected(self, beam, wire):
        # only analysis.match_areas scales a curve to another's area
        with pytest.raises(ValueError, match="unknown Normalization 'area-matched'"):
            sample_pattern(partial(dsigma_dtheta, beam, wire), normalization="area-matched")


class TestPatternValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Pattern(np.array([0.0, 0.1]), np.array([1.0]))

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            Pattern(np.array([0.0, 0.1]), np.array([1.0, -0.5]))

    def test_non_monotonic_grid_rejected(self):
        with pytest.raises(ValueError):
            Pattern(np.array([0.1, 0.0]), np.array([1.0, 1.0]))
