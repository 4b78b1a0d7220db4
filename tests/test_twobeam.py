import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirediff.classical import fraunhofer_amplitudes
from wirediff.electron import amplitudes, dsigma_dtheta
from wirediff.numerics import DomainError, disk_amplitude
from wirediff.patterns import Pattern, sample_pattern
from wirediff.potential import HBARC_EV_M, BeamParams
from wirediff.twobeam import dsigma_dtheta_two_beam

from conftest import two_j1_over_x

PR = 84.37136668408607
AMPLITUDE = partial(amplitudes, BeamParams(PR), PR)
TAU = 2.0 * math.pi


class TestLowEnergyDensity:
    def test_degenerate_intersection_quadruples_single_beam(self):
        for theta in (0.0, 0.01, 0.045, 0.1):
            assert dsigma_dtheta_two_beam(AMPLITUDE, 0.0, 0.0, theta) == pytest.approx(
                4.0 * dsigma_dtheta(AMPLITUDE, theta), rel=1e-12
            )

    def test_destructive_center(self):
        assert dsigma_dtheta_two_beam(AMPLITUDE, 0.1, math.pi, 0.0) \
            == pytest.approx(0.0, abs=1e-25)

    def test_forward_value_default_two_beam_configuration(self):
        # theta = 0, alpha = 0.1, phi = 0: density is 4 F(q0 R)^2 with
        # q0 R = 2 pR sin(alpha/4); checked against the Bessel oracle
        q0_r = 2.0 * PR * math.sin(0.025)
        expected = 4.0 * two_j1_over_x(q0_r) ** 2
        got = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, 0.0, 0.0)
        assert got == pytest.approx(expected, rel=1e-10)

    @given(
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-0.7, max_value=0.7),
    )
    def test_non_negative(self, p_radius, alpha, phi, theta):
        value = dsigma_dtheta_two_beam(partial(amplitudes, BeamParams(p_radius), p_radius),
                                       alpha, phi, theta)
        assert value >= 0.0

    @given(st.floats(min_value=-0.5, max_value=0.5),
           st.floats(min_value=-8.0, max_value=8.0))
    def test_even_in_theta(self, theta, phi):
        cfg = (0.1, phi)
        a = dsigma_dtheta_two_beam(AMPLITUDE, *cfg, theta)
        b = dsigma_dtheta_two_beam(AMPLITUDE, *cfg, -theta)
        assert a == b

    def test_phase_periodicity_exact(self):
        # 2*pi periodicity is exact when phi + 2*pi is itself exact
        for phi in (0.0, 0.5, 1.0, -0.5, 1.5):
            a = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, phi, 0.013)
            b = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, phi + TAU, 0.013)
            assert a == b

    def test_zero_vs_two_pi_identical(self):
        a = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, 0.0, 0.02)
        b = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, TAU, 0.02)
        assert a == b

    @given(st.floats(min_value=-7.0, max_value=7.0),
           st.floats(min_value=-0.6, max_value=0.6))
    def test_interference_bound(self, phi, theta):
        s_minus = PR * math.sin(0.5 * theta - 0.025)
        s_plus = PR * math.sin(0.5 * theta + 0.025)
        f_minus = disk_amplitude(2.0 * s_minus)
        f_plus = disk_amplitude(2.0 * s_plus)
        density = dsigma_dtheta_two_beam(AMPLITUDE, 0.1, phi, theta)
        bound = 2.0 * abs(f_minus * f_plus) + 1e-12
        assert abs(density - (f_minus**2 + f_plus**2)) <= bound


class TestFullEnergyDensity:
    def test_matches_low_energy_shape_at_optical_momentum(self, beam, p_radius, amplitude):
        thetas = np.linspace(-0.15, 0.15, 401)
        full_amplitude = partial(amplitudes, beam, p_radius, mode="full")
        for phi in (0.0, 1.0, math.pi):
            cfg = (0.1, phi)
            full = np.array([dsigma_dtheta_two_beam(full_amplitude, *cfg, float(t))
                             for t in thetas])
            low = np.array([dsigma_dtheta_two_beam(amplitude, *cfg, float(t)) for t in thetas])
            full /= np.max(full)
            low /= np.max(low)
            assert float(np.max(np.abs(full - low))) <= 1e-8

    def test_degenerate_intersection_reduces_to_single(self, beam, p_radius):
        # alpha = 0: density = single-beam full * (2 + 2 cos(phi))
        amplitude = partial(amplitudes, beam, p_radius, mode="full", channel="no-flip")
        for phi in (0.0, 0.7, 2.0):
            theta = 0.03
            expected = dsigma_dtheta(amplitude, theta) * (2.0 + 2.0 * math.cos(phi))
            got = dsigma_dtheta_two_beam(amplitude, 0.0, phi, theta)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_phase_periodicity(self, beam, p_radius):
        amplitude = partial(amplitudes, beam, p_radius, mode="full")
        assert dsigma_dtheta_two_beam(amplitude, 0.1, 0.0, 0.02) \
            == dsigma_dtheta_two_beam(amplitude, 0.1, TAU, 0.02)

    def test_flip_channel_supported(self, beam, p_radius):
        value = dsigma_dtheta_two_beam(partial(amplitudes, beam, p_radius, mode="full",
                                               channel="flip"), 0.1, 0.0, 0.05)
        assert value >= 0.0


def _beam_amplitude(kind, rng):
    # one beam's amplitude at a seeded pR; full mode at a seeded pc/mc^2 near 1
    p_radius = rng.uniform(1.0, 200.0)
    if kind == "classical":
        return partial(fraunhofer_amplitudes, p_radius)
    if kind == "low-energy":
        return partial(amplitudes, BeamParams(p_radius), p_radius)
    momentum = 1e7
    beam = BeamParams(momentum, mass_ev=momentum * HBARC_EV_M / rng.uniform(0.5, 2.0))
    return partial(amplitudes, beam, p_radius, mode="full", channel=kind)


class TestEvenInTheta:
    # theta -> -theta swaps the two beams, and the density is symmetric in
    # them bit for bit, near total cancellation too: seeded draws over every
    # amplitude, for scalar and array theta, one phase and a phase sequence
    @pytest.mark.parametrize("kind", ["low-energy", "no-flip", "flip", "sum", "classical"])
    def test_bit_identical_at_minus_theta(self, kind):
        rng = random.Random(f"even-{kind}")
        for _ in range(20):
            amplitude = _beam_amplitude(kind, rng)
            alpha = rng.uniform(0.0, 0.5)
            phis = [math.pi, -math.pi] + [rng.uniform(-10.0, 10.0) for _ in range(6)]
            thetas = np.array([rng.uniform(-0.6, 0.6) for _ in range(64)])
            for phi in [phis] + phis:
                assert np.array_equal(dsigma_dtheta_two_beam(amplitude, alpha, phi, thetas),
                                      dsigma_dtheta_two_beam(amplitude, alpha, phi, -thetas))
                for theta in thetas[:4].tolist():
                    assert np.array_equal(
                        dsigma_dtheta_two_beam(amplitude, alpha, phi, theta),
                        dsigma_dtheta_two_beam(amplitude, alpha, phi, -theta))


class TestGeometryChecks:
    # alpha and phi are checked by the density itself, before any amplitude
    # is evaluated, over either amplitude and for one phase or a sequence
    BAD = {
        "negative alpha": (-0.1, 0.0, "^alpha in"),
        "alpha above pi": (4.0, 0.0, "^alpha in"),
        "nan alpha": (math.nan, 0.0, "^alpha in"),
        "negative alpha, phases": (-0.1, [0.0, 1.0], "^alpha in"),
        "nan alpha, phases": (math.nan, [0.0, 1.0], "^alpha in"),
        "infinite phi": (0.1, math.inf, "^phi must be"),
        "infinite phase": (0.1, [0.0, math.inf], "^phi must be"),
        "2-D phi": (0.1, [[0.0, 1.0]], "^phi must be"),
        "empty phi": (0.1, [], "^phi must be"),
        # a real scalar alpha and real phases only: no array, complex or text
        "array alpha": (np.array([0.1, 0.2]), 0.0, "^alpha in"),
        "complex alpha": (0.1j, 0.0, "^alpha in"),
        "text alpha": ("0.1", 0.0, "^alpha in"),
        "text phi": (0.1, "x", "^phi must be"),
        "numeric text phi": (0.1, "1.0", "^phi must be"),
        "complex phi": (0.1, 1j, "^phi must be"),
        "complex phases": (0.1, [1j], "^phi must be"),
        "numpy complex phi": (0.1, np.complex128(1.0), "^phi must be"),
        "ragged phases": (0.1, [[0.0], [0.0, 1.0]], "^phi must be"),
        "no phi": (0.1, None, "^phi must be"),
    }

    @pytest.mark.parametrize("model", ["quantum", "classical"])
    @pytest.mark.parametrize("name", BAD, ids=BAD.keys())
    def test_bad_geometry_raises_before_any_amplitude(self, name, model):
        alpha, phi, message = self.BAD[name]
        inner = AMPLITUDE if model == "quantum" else partial(fraunhofer_amplitudes, PR)
        calls = []

        def amplitude(theta):
            calls.append(theta)
            return inner(theta)

        with pytest.raises(DomainError, match=message):
            dsigma_dtheta_two_beam(amplitude, alpha, phi, np.linspace(-0.1, 0.1, 11))
        assert calls == []

    @pytest.mark.parametrize("mode, channel", [("low-energy", "no-flip"),
                                               ("full", "sum")])
    def test_degenerate_geometry_is_four_single_beams_bit_for_bit(self, beam, p_radius,
                                                                   mode, channel):
        thetas = np.linspace(-0.15, 0.15, 301)
        amplitude = partial(amplitudes, beam, p_radius, mode=mode, channel=channel)
        assert np.array_equal(dsigma_dtheta_two_beam(amplitude, 0.0, 0.0, thetas),
                              4.0 * dsigma_dtheta(amplitude, thetas))


class TestPhiThetaScan:
    # the density on a (phi, theta) grid: a sequence of phases as phi is a
    # leading axis of dsigma_dtheta_two_beam
    @staticmethod
    def scan(phis, thetas, alpha=0.1):
        return dsigma_dtheta_two_beam(AMPLITUDE, alpha, phis, thetas)

    def test_shape_and_non_negativity(self):
        density = self.scan(np.linspace(0.0, TAU, 9), np.linspace(-0.1, 0.1, 11))
        assert density.shape == (9, 11)
        assert np.all(density >= 0.0)

    def test_rows_periodic(self):
        density = self.scan([0.5, 0.5 + TAU], np.linspace(-0.1, 0.1, 101))
        assert np.all(
            np.abs(density[0] - density[1]) <= 1e-12 * np.maximum(np.abs(density[0]), 1e-300)
        )

    def test_destructive_row_vanishes_at_center(self):
        thetas = np.linspace(-0.1, 0.1, 101)  # includes 0
        density = self.scan([0.0, math.pi], thetas)
        j0 = int(np.argmin(np.abs(thetas)))
        assert density[1, j0] == pytest.approx(0.0, abs=1e-20)

    def test_row_mass_extremal_at_bright_and_dark_fringes(self):
        thetas = np.linspace(-0.15, 0.15, 601)
        density = self.scan(np.linspace(0.0, TAU, 41), thetas)
        masses = np.trapezoid(density, thetas, axis=1)
        assert int(np.argmax(masses)) in (0, 40)       # phi = 0 or 2*pi
        assert int(np.argmin(masses)) == 20            # phi = pi

    def test_grid_violations_rejected(self):
        # any non-empty 1-D set of finite phases is a phase axis, in any order
        thetas = np.array([0.0, 0.1])
        for phis in ([], [[0.0, 1.0]], [0.0, math.nan]):
            with pytest.raises(DomainError):
                self.scan(np.array(phis), thetas)
        decreasing = self.scan([1.0, 0.0], thetas)
        assert np.array_equal(decreasing, self.scan([0.0, 1.0], thetas)[::-1])

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            self.scan([0.0, 1.0], np.array([0.0, 0.1]), alpha=-0.1)

    def test_list_tuple_and_array_phases_give_identical_rows(self):
        phis = [-1.0, 0.0, 1.0, math.pi]
        thetas = np.linspace(-0.1, 0.1, 101)
        want = self.scan(np.array(phis), thetas)
        for given in (phis, tuple(phis)):
            assert np.array_equal(self.scan(given, thetas), want)

    def test_rows_equal_two_beam_patterns(self, beam, p_radius):
        # every phi row is, bit for bit, the density at that one phase
        phis = np.linspace(-1.0, TAU + 1.0, 13)
        thetas = np.linspace(-0.15, 0.15, 301)
        for mode, channel in [("low-energy", "no-flip"), ("full", "no-flip"),
                              ("full", "flip"), ("full", "sum")]:
            amplitude = partial(amplitudes, beam, p_radius, mode=mode, channel=channel)
            density = dsigma_dtheta_two_beam(amplitude, 0.1, phis, thetas)
            assert density.shape == (13, 301)
            for phi, row in zip(phis.tolist(), density):
                pattern = sample_pattern(partial(dsigma_dtheta_two_beam, amplitude,
                                                 0.1, phi), thetas)
                assert np.array_equal(row, pattern.density)

    def test_classical_rows_equal_single_phase(self, p_radius):
        phis = np.linspace(-1.0, TAU + 1.0, 13)
        thetas = np.linspace(-0.15, 0.15, 301)
        classical = partial(fraunhofer_amplitudes, 1.1 * p_radius)
        density = dsigma_dtheta_two_beam(classical, 0.1, phis, thetas)
        assert density.shape == (13, 301)
        for phi, row in zip(phis.tolist(), density):
            assert np.array_equal(row, dsigma_dtheta_two_beam(classical, 0.1, phi,
                                                              thetas))

    def test_scalar_theta_gives_one_value_per_phase(self):
        density = self.scan([0.0, math.pi], 0.0)
        assert density.shape == (2,)
        assert density[0] == dsigma_dtheta_two_beam(AMPLITUDE, 0.1, 0.0, 0.0)


class TestPatternTwoBeam:
    THETAS = np.linspace(-0.15, 0.15, 201)

    def test_low_energy_matches_density(self, amplitude):
        cfg = (0.1, 0.8)
        pattern = sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, *cfg), self.THETAS)
        assert isinstance(pattern, Pattern)
        expected = [dsigma_dtheta_two_beam(amplitude, *cfg, float(t)) for t in self.THETAS]
        assert np.array_equal(pattern.density, expected)

    @pytest.mark.parametrize("channel", ["no-flip", "flip"])
    def test_full_mode_matches_density(self, beam, p_radius, channel):
        cfg = (0.1, 2.0)
        amplitude = partial(amplitudes, beam, p_radius, mode="full", channel=channel)
        pattern = sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, *cfg), self.THETAS)
        expected = [dsigma_dtheta_two_beam(amplitude, *cfg, float(t)) for t in self.THETAS]
        assert np.array_equal(pattern.density, expected)

    def test_spin_sum_is_flip_plus_no_flip(self, beam, p_radius):
        cfg = (0.1, 0.4)
        summed, flip, no_flip = (
            sample_pattern(partial(dsigma_dtheta_two_beam, partial(amplitudes, beam, p_radius,
                                                                   mode="full", channel=c),
                                   *cfg), self.THETAS).density
            for c in ("sum", "flip", "no-flip")
        )
        assert np.array_equal(summed, no_flip + flip)

    def test_low_energy_has_no_flip_channel(self, beam, p_radius):
        # the flip element vanishes in this limit: no-flip and the spin sum
        # are the same density, and a flip pattern is refused, not relabelled
        cfg = (0.1, 0.4)
        a, b = (sample_pattern(partial(dsigma_dtheta_two_beam,
                                       partial(amplitudes, beam, p_radius, channel=c), *cfg),
                               self.THETAS) for c in ("no-flip", "sum"))
        assert np.array_equal(a.density, b.density)
        with pytest.raises(ValueError, match="no flip channel"):
            sample_pattern(partial(dsigma_dtheta_two_beam,
                                   partial(amplitudes, beam, p_radius, channel="flip"), *cfg),
                           self.THETAS)

    def test_normalizations(self, amplitude):
        cfg = (0.1, 0.0)
        raw, peak, area = (sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, *cfg),
                                          self.THETAS, n)
                           for n in ("raw", "peak-one",
                                     "unit-area"))
        assert np.max(peak.density) == 1.0
        assert np.array_equal(peak.density, raw.density / np.max(raw.density))
        assert area.area() == pytest.approx(1.0, abs=1e-12)

    def test_area_matched_rejected(self, amplitude):
        # only patterns.compare_curves scales a curve to another's area
        with pytest.raises(ValueError, match="^unknown normalization 'area-matched'; "
                                             "expected one of 'peak-one', 'raw', 'unit-area'$"):
            sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, 0.1, 0.0),
                           self.THETAS, "area-matched")

    def test_default_grid(self, amplitude):
        pattern = sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, 0.1, 0.0))
        assert pattern.thetas.size == 2001

    def test_bad_inputs_rejected(self, beam, p_radius, amplitude):
        with pytest.raises(ValueError):
            sample_pattern(partial(dsigma_dtheta_two_beam,
                                   partial(amplitudes, beam, p_radius, mode="fast"),
                                   0.1, 0.0), self.THETAS)
        with pytest.raises(ValueError):
            sample_pattern(partial(dsigma_dtheta_two_beam, amplitude, 0.1, 0.0),
                           self.THETAS[::-1])

    def test_exported(self):
        import wirediff

        # the density and the one pattern builder that samples it
        assert wirediff.dsigma_dtheta_two_beam is dsigma_dtheta_two_beam
        assert wirediff.sample_pattern is sample_pattern
        assert {"dsigma_dtheta_two_beam", "sample_pattern"} <= set(wirediff.__all__)
