import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from wirediff.electron import amplitudes
from wirediff.numerics import disk_amplitude
from wirediff.potential import ELECTRON_MASS_EV, HBARC_EV_M, BeamParams

from conftest import two_j1_over_x
from oracles import disk_ft_oracle


class TestBeamParams:
    def test_wavelength_round_trip(self):
        beam = BeamParams.from_wavelength_nm(633.0)
        assert beam.momentum == pytest.approx(math.tau / 633e-9, rel=1e-12)

    def test_mass_shell_relation(self, beam):
        lhs = beam.energy_ev**2 - beam.pc_ev**2 - beam.mass_ev**2
        assert abs(lhs) <= 8 * math.ulp(beam.energy_ev**2)

    def test_energy_of_extreme_momentum_is_finite(self):
        # (pc)^2 overflows a float at pc 1.97e293 eV; hypot does not square it
        beam = BeamParams(momentum=1e300)
        assert beam.energy_ev == beam.pc_ev

    def test_energy_is_correctly_rounded(self):
        # hypot rounds once; sqrt((pc)^2 + (mc^2)^2) rounds three times and misses
        # the correctly rounded energy on ~15% of these draws
        rng = np.random.default_rng(0)
        pcs, masses = 10.0 ** rng.uniform(-3.0, 12.0, (2, 2000))
        with mpmath.workdps(50):
            for pc, mass in zip(pcs.tolist(), masses.tolist()):
                beam = BeamParams(momentum=pc / HBARC_EV_M, mass_ev=mass)
                exact = mpmath.sqrt(mpmath.mpf(beam.pc_ev) ** 2 + mpmath.mpf(mass) ** 2)
                assert beam.energy_ev == float(exact)

    def test_optical_electron_is_nonrelativistic(self, beam):
        assert beam.pc_ev == pytest.approx(1.9586761199990428, rel=1e-12)
        assert beam.pc_ev / beam.mass_ev == pytest.approx(3.833e-6, rel=1e-3)
        assert beam.energy_ev >= beam.mass_ev

    def test_default_mass_is_electron(self):
        assert BeamParams(momentum=1e7).mass_ev == ELECTRON_MASS_EV

    def test_immutable_value(self):
        # positional or keyword construction, the repr text, equality and
        # hashing by value, and fields that cannot be rebound or added to
        beam = BeamParams(1e7, 2.0)
        assert beam == BeamParams(momentum=1e7, mass_ev=2.0) != BeamParams(1e7)
        assert hash(beam) == hash(BeamParams(1e7, 2.0))
        assert repr(beam) == "BeamParams(momentum=10000000.0, mass_ev=2.0)"
        for field in ("momentum", "mass_ev", "wavelength_m"):
            with pytest.raises(AttributeError):
                setattr(beam, field, 1.0)
        assert (beam.momentum, beam.mass_ev) == (1e7, 2.0)

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


class TestMomentumTransfer:
    # amplitudes forms the transfer qR = 2 pR |sin(theta/2)| and takes disk_amplitude of it
    def test_forward_scattering(self, beam, p_radius):
        assert amplitudes(beam, p_radius, 0.0) == [1.0]

    def test_backscattering_maximum(self, beam, p_radius):
        assert amplitudes(beam, p_radius, math.pi) == [disk_amplitude(2.0 * p_radius)]

    def test_first_dark_point_condition(self, beam, p_radius, j1_zeros_oracle):
        # at the angle solving 2 pR sin(theta/2) = j11, the transfer obeys qR = j11
        j11 = j1_zeros_oracle[0]
        theta = 2.0 * math.asin(j11 / (2.0 * p_radius))
        assert theta == pytest.approx(0.045420, abs=1e-5)
        f, = amplitudes(beam, p_radius, theta)
        assert abs(f) < 1e-15

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    def test_even_in_theta(self, theta):
        beam = BeamParams(1e7)
        assert amplitudes(beam, 1e7, theta) == amplitudes(beam, 1e7, -theta)


class TestFormFactor:
    # the form factor is a function of qR alone
    def test_unity_at_zero_transfer(self):
        assert disk_amplitude(0.0) == 1.0

    def test_zero_at_first_bessel_zero(self, j1_zeros_oracle):
        assert abs(disk_amplitude(j1_zeros_oracle[0])) < 1e-12

    def test_matches_disk_quadrature(self):
        assert disk_amplitude(10.0) == pytest.approx(disk_ft_oracle(10.0).real, abs=1e-8)

    def test_monotone_decreasing_to_first_zero(self, j1_zeros_oracle):
        import numpy as np

        q_rs = np.linspace(0.0, j1_zeros_oracle[0], 200)
        values = [disk_amplitude(float(q_r)) for q_r in q_rs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_range(self):
        import numpy as np

        for q_r in np.linspace(0.0, 25.0, 500):
            f = disk_amplitude(float(q_r))
            assert -0.133 < f <= 1.0

    def test_matches_oracle_normalization(self):
        # against the independent Bessel oracle at an arbitrary transfer
        assert disk_amplitude(4.7) == pytest.approx(two_j1_over_x(4.7), abs=1e-12)
