import math

import pytest
from hypothesis import given, strategies as st

from wirediff.numerics import DomainError, disk_amplitude
from wirediff.potential import (
    ELECTRON_MASS_EV,
    HBARC_EV_M,
    BeamParams,
    WirePotential,
    momentum_transfer_single,
)

from conftest import two_j1_over_x
from oracles import disk_ft_oracle


class TestBeamParams:
    def test_wavelength_round_trip(self):
        beam = BeamParams.from_wavelength_nm(633.0)
        assert beam.momentum == pytest.approx(math.tau / 633e-9, rel=1e-12)

    def test_mass_shell_relation(self, beam):
        lhs = beam.energy_ev**2 - beam.pc_ev**2 - beam.mass_ev**2
        assert abs(lhs) <= 8 * math.ulp(beam.energy_ev**2)

    def test_optical_electron_is_nonrelativistic(self, beam):
        assert beam.pc_ev == pytest.approx(1.9586761199990428, rel=1e-12)
        assert beam.pc_ev / beam.mass_ev == pytest.approx(3.833e-6, rel=1e-3)
        assert beam.energy_ev >= beam.mass_ev

    def test_default_mass_is_electron(self):
        assert BeamParams(momentum=1e7).mass_ev == ELECTRON_MASS_EV

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_momentum_rejected(self, bad):
        with pytest.raises(ValueError):
            BeamParams(momentum=bad)

    def test_bad_wavelength_rejected(self):
        with pytest.raises(ValueError):
            BeamParams.from_wavelength_nm(-633.0)

    def test_hbarc_constant(self):
        # hbar*c = 197.3269804 MeV fm expressed in eV*m
        assert HBARC_EV_M == pytest.approx(197.3269804e6 * 1e-15, rel=1e-12)


class TestWirePotential:
    def test_diameter_round_trip(self):
        wire = WirePotential.from_diameter_um(17.0)
        assert wire.radius == pytest.approx(8.5e-6, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1e-6, math.nan])
    def test_bad_radius_rejected(self, bad):
        with pytest.raises(ValueError):
            WirePotential(radius=bad)


class TestMomentumTransfer:
    def test_forward_scattering(self, beam):
        assert momentum_transfer_single(beam.momentum, 0.0) == 0.0

    def test_backscattering_maximum(self, beam):
        q = momentum_transfer_single(beam.momentum, math.pi)
        assert q == pytest.approx(2.0 * beam.momentum, rel=1e-15)

    def test_first_dark_point_condition(self, beam, wire, p_radius, j1_zeros_oracle):
        # at the angle solving 2 pR sin(theta/2) = j11, the transfer obeys qR = j11
        j11 = j1_zeros_oracle[0]
        theta = 2.0 * math.asin(j11 / (2.0 * p_radius))
        assert theta == pytest.approx(0.045420, abs=1e-5)
        q = momentum_transfer_single(beam.momentum, theta)
        assert q * wire.radius == pytest.approx(j11, rel=1e-12)

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_even_in_theta(self, theta):
        assert momentum_transfer_single(1e7, theta) == momentum_transfer_single(1e7, -theta)

    def test_bad_momentum_rejected(self):
        with pytest.raises(DomainError):
            momentum_transfer_single(-1.0, 0.1)


class TestFormFactor:
    def test_unity_at_zero_transfer(self, wire):
        assert disk_amplitude(0.0 * wire.radius) == 1.0

    def test_zero_at_first_bessel_zero(self, wire, j1_zeros_oracle):
        q = j1_zeros_oracle[0] / wire.radius
        assert abs(disk_amplitude(q * wire.radius)) < 1e-12

    def test_matches_disk_quadrature(self, wire):
        q = 10.0 / wire.radius
        assert disk_amplitude(q * wire.radius) == pytest.approx(disk_ft_oracle(10.0).real,
                                                                 abs=1e-8)

    def test_monotone_decreasing_to_first_zero(self, wire, j1_zeros_oracle):
        import numpy as np

        qs = np.linspace(0.0, j1_zeros_oracle[0] / wire.radius, 200)
        values = [disk_amplitude(float(q) * wire.radius) for q in qs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range(self, wire):
        import numpy as np

        for q in np.linspace(0.0, 25.0 / wire.radius, 500):
            f = disk_amplitude(float(q) * wire.radius)
            assert -0.133 < f <= 1.0

    def test_matches_oracle_normalization(self, wire):
        # against the independent Bessel oracle at an arbitrary transfer
        q = 4.7 / wire.radius
        assert disk_amplitude(q * wire.radius) == pytest.approx(two_j1_over_x(4.7), abs=1e-12)
