import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wirediff.electron import amplitudes, dsigma_dtheta, spinor_elements
from wirediff.numerics import DomainError
from wirediff.patterns import Pattern, default_grid, sample_pattern
from wirediff.potential import ELECTRON_MASS_EV, HBARC_EV_M, BeamParams
from wirediff.twobeam import dsigma_dtheta_two_beam

from conftest import two_j1_over_x
from oracles import dirac_spinor_element


class TestSpinorElement:
    def test_flip_vanishes_forward(self, beam):
        assert spinor_elements(beam, 0.0, "flip")[0] == 0.0

    def test_no_flip_static_limit(self):
        # p -> 0: element tends to E + mc^2 = 2 mc^2
        beam = BeamParams(momentum=1e-3, mass_ev=510998.95)
        assert spinor_elements(beam, 0.3, "no-flip")[0] == pytest.approx(
            2.0 * beam.mass_ev, rel=1e-9
        )

    def test_flip_to_no_flip_ratio_negligible_at_optical_momentum(self, beam):
        # ratio ~ (pc)^2 sin(theta) / (E + mc^2)^2 ~ 3.7e-12 at theta = pi/2
        ratio = (spinor_elements(beam, math.pi / 2, "flip")[0]
                 / spinor_elements(beam, math.pi / 2, "no-flip")[0])
        assert ratio == pytest.approx(3.7e-12, rel=0.05)

    def test_formulas_verbatim(self, beam):
        theta = 0.7
        pc = beam.pc_ev
        e_plus_m = beam.energy_ev + beam.mass_ev
        assert spinor_elements(beam, theta, "flip")[0] == pytest.approx(
            pc * pc * math.sin(theta) / e_plus_m, rel=1e-15
        )
        assert spinor_elements(beam, theta, "no-flip")[0] == pytest.approx(
            (e_plus_m**2 + pc * pc * math.cos(theta)) / e_plus_m, rel=1e-15
        )

    # both identities hold exactly: (sigma.n) sigma_z = cos(theta) - i sin(theta) sigma_y
    @given(theta=st.floats(-1.4, 1.4), pc_over_mc2=st.floats(0.05, 2.0))
    def test_matches_dirac_spinors(self, theta, pc_over_mc2):
        beam = BeamParams(momentum=pc_over_mc2 * ELECTRON_MASS_EV / HBARC_EV_M)
        bound = 1e-14 * (beam.energy_ev + beam.mass_ev)
        for channel, flip in (("no-flip", False), ("flip", True)):
            oracle = dirac_spinor_element(beam.pc_ev, beam.mass_ev, theta, flip)
            assert abs(oracle.imag) <= bound
            assert abs(spinor_elements(beam, theta, channel)[0] - oracle.real) <= bound

    @given(theta=st.floats(-1.4, 1.4), pc_over_mc2=st.floats(0.05, 2.0))
    def test_channels_sum_to_mott_trace(self, theta, pc_over_mc2):
        # no-flip^2 + flip^2 = 2 (E^2 + m^2 + p^2 cos(theta)), to 1e-14 (E + m)^2
        beam = BeamParams(momentum=pc_over_mc2 * ELECTRON_MASS_EV / HBARC_EV_M)
        energy, mass, pc = beam.energy_ev, beam.mass_ev, beam.pc_ev
        no_flip = spinor_elements(beam, theta, "no-flip")[0]
        flip = spinor_elements(beam, theta, "flip")[0]
        trace = 2.0 * (energy * energy + mass * mass + pc * pc * math.cos(theta))
        assert abs(no_flip**2 + flip**2 - trace) <= 1e-14 * (energy + mass) ** 2

    @pytest.mark.parametrize("theta", [0.7, default_grid()], ids=["scalar", "default-grid"])
    def test_sum_is_no_flip_then_flip(self, theta):
        # one factor per final spin, the same bits as each channel's own call
        beam = BeamParams(momentum=0.7 * ELECTRON_MASS_EV / HBARC_EV_M)
        both = spinor_elements(beam, theta, "sum")
        singles = (spinor_elements(beam, theta, "no-flip")
                   + spinor_elements(beam, theta, "flip"))
        assert len(both) == len(singles) == 2
        for element, single in zip(both, singles):
            assert np.array_equal(element, single)
            assert type(element) is type(single)

    @pytest.mark.parametrize("channel", ["no-flip", "flip", "sum"])
    @pytest.mark.parametrize("beam, theta", [
        (BeamParams(1e7), math.inf),
        (BeamParams(1e7), np.array([0.0, math.nan])),
        (BeamParams(1e7, mass_ev=1e200), 0.1),
        (BeamParams(1e300), 0.1),  # pc 1.97e293 eV
    ], ids=["infinite-theta", "nan-in-grid", "mass-above-bound", "pc-above-bound"])
    def test_bad_input_raises_in_every_channel(self, channel, beam, theta):
        with pytest.raises(DomainError):
            spinor_elements(beam, theta, channel)


class TestDensities:
    def test_forward_maximum_no_flip(self, beam, p_radius):
        # theta = 0: spinor and form factor both maximal
        amplitude = partial(amplitudes, beam, p_radius, mode="full", channel="no-flip")
        value = dsigma_dtheta(amplitude, 0.0)
        near = dsigma_dtheta(amplitude, 0.01)
        assert value > near
        assert value == pytest.approx((2.0 * beam.mass_ev) ** 2, rel=1e-10)

    def test_both_channels_vanish_at_form_factor_zero(
        self, beam, p_radius, j1_zeros_oracle
    ):
        theta = 2.0 * math.asin(j1_zeros_oracle[0] / (2.0 * p_radius))
        for channel in ("no-flip", "flip"):
            amplitude = partial(amplitudes, beam, p_radius, mode="full", channel=channel)
            assert dsigma_dtheta(amplitude, theta) < 1e-20

    def test_flip_weight_negligible(self, beam, p_radius):
        thetas = default_grid()
        flip, noflip = (np.array([dsigma_dtheta(partial(amplitudes, beam, p_radius, mode="full",
                                                        channel=c), float(t)) for t in thetas])
                        for c in ("flip", "no-flip"))
        ratio = np.trapezoid(flip, thetas) / np.trapezoid(noflip, thetas)
        assert ratio < 1e-20

    def test_spin_summed_is_sum(self, beam, p_radius):
        theta = 0.04
        no_flip, flip, both = (
            dsigma_dtheta(partial(amplitudes, beam, p_radius, mode="full", channel=c), theta)
            for c in ("no-flip", "flip", "sum"))
        assert both == pytest.approx(no_flip + flip, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_p_radius_rejected(self, beam, bad):
        # checked once, by amplitudes, and named as passed
        amplitude = partial(amplitudes, beam, bad)
        for density in (partial(dsigma_dtheta, amplitude),
                        partial(dsigma_dtheta_two_beam, amplitude, 0.1, 0.0)):
            with pytest.raises(DomainError, match="^p_radius > 0 required"):
                density(0.1)

    def test_low_energy_forward_value(self, p_radius):
        assert dsigma_dtheta(partial(amplitudes, BeamParams(p_radius), p_radius), 0.0) == 1.0

    def test_low_energy_first_zero_location(self, p_radius, j1_zeros_oracle):
        theta = 2.0 * math.asin(j1_zeros_oracle[0] / (2.0 * p_radius))
        assert theta == pytest.approx(0.045420, abs=1e-5)
        assert dsigma_dtheta(partial(amplitudes, BeamParams(p_radius), p_radius), theta) < 1e-20

    @given(st.floats(min_value=-1.5, max_value=1.5))
    def test_low_energy_even(self, theta):
        amplitude = partial(amplitudes, BeamParams(84.37), 84.37)
        assert dsigma_dtheta(amplitude, theta) == dsigma_dtheta(amplitude, -theta)

    def test_low_energy_matches_oracle_value(self, p_radius):
        theta = 0.03
        x = 2.0 * p_radius * math.sin(0.5 * theta)
        assert dsigma_dtheta(partial(amplitudes, BeamParams(p_radius), p_radius), theta) \
            == pytest.approx(
            two_j1_over_x(x) ** 2, abs=1e-12
        )

    def test_depends_on_theta_only_through_q(self, p_radius):
        # equal momentum transfer => equal form factor, whatever the sign of theta
        from wirediff.numerics import disk_amplitude

        theta = 0.11
        q_r = 2.0 * p_radius * abs(math.sin(0.5 * theta))
        assert amplitudes(BeamParams(p_radius), p_radius, theta) \
            == amplitudes(BeamParams(p_radius), p_radius, -theta) == [disk_amplitude(q_r)]


class TestPatternSingle:
    @pytest.fixture
    def density(self, beam, p_radius):
        # the low-energy single-beam density as a function of theta
        return partial(dsigma_dtheta, partial(amplitudes, beam, p_radius))

    def test_peak_one_at_center(self, density):
        pattern = sample_pattern(density, normalization="peak-one")
        center = np.argmin(np.abs(pattern.thetas))
        assert pattern.thetas[center] == pytest.approx(0.0, abs=1e-12)
        assert pattern.density[center] == 1.0

    def test_unit_area_integrates_to_one(self, density):
        pattern = sample_pattern(density, normalization="unit-area")
        assert pattern.area() == pytest.approx(1.0, abs=1e-9)

    def test_evenness(self, density):
        # exactly mirrored grid: density must be symmetric to 1e-12 relative
        positive = np.linspace(7.5e-5, 0.15, 1000)
        thetas = np.concatenate([-positive[::-1], [0.0], positive])
        pattern = sample_pattern(density, thetas)
        flipped = pattern.density[::-1]
        assert np.all(
            np.abs(pattern.density - flipped)
            <= 1e-12 * np.maximum(np.abs(flipped), 1e-300)
        )

    def test_full_no_flip_matches_low_energy_shape(self, beam, p_radius):
        # peak-normalized full (no-flip) and low-energy patterns coincide
        full, low = (sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius,
                                                                   mode=mode)),
                                    normalization="peak-one")
                     for mode in ("full", "low-energy"))
        deviation = np.abs(full.density - low.density) / np.maximum(low.density, 1e-300)
        assert float(np.max(deviation)) <= 1e-10

    def test_dark_points_follow_bessel_zeros(self, beam, p_radius, j1_zeros_oracle):
        # nth dark point satisfies 2 pR sin(theta/2) = j1n for n = 1, 2, 3
        from wirediff.analysis import first_dark_points

        report = first_dark_points(p_radius, "quantum", 3)
        for theta_n, j1n in zip(report, j1_zeros_oracle):
            assert 2.0 * p_radius * math.sin(0.5 * theta_n) == pytest.approx(
                j1n, abs=1e-10
            )

    def test_grid_violation_rejected(self, density):
        with pytest.raises(ValueError):
            sample_pattern(density, np.array([0.1, 0.0, -0.1]))

    def test_unknown_mode_rejected(self, beam, p_radius):
        with pytest.raises(ValueError):
            sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius, mode="fast")))

    def test_low_energy_flip_rejected(self, beam, p_radius):
        # its flip element vanishes; the no-flip density must not go out as "flip"
        with pytest.raises(ValueError, match="no flip channel"):
            sample_pattern(partial(dsigma_dtheta, partial(amplitudes, beam, p_radius,
                                                          mode="low-energy", channel="flip")))

    def test_area_matched_rejected(self, density):
        # only patterns.compare_curves scales a curve to another's area
        with pytest.raises(ValueError, match="^unknown normalization 'area-matched'; "
                                             "expected one of 'peak-one', 'raw', 'unit-area'$"):
            sample_pattern(density, normalization="area-matched")


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
