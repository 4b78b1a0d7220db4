"""Every density against its 40-digit mpmath evaluation in ``oracles``.

Each property draws log10 pR in [1, 5], |theta| <= 0.6, pc/mc^2 in
[0.05, 2], alpha in [0, 0.6] and phi in [-7, 7], and bounds the error in
units of the density's theta = 0 peak: 1 for one beam, 4 for two, and the
spin sum's 4 E^2 for each full-mode channel.  The classical bound is
1e-15.  The quantum one is 2e-15: a density squares disk_amplitude, whose
error test_numerics bounds by 1e-15 and which reaches 6.7e-16 where F is
near 1 (qR = 0.17), so the squares reach 1.4e-15 there.
"""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from wirediff import (ELECTRON_MASS_EV, HBARC_EV_M, BeamParams, amplitudes,
                      dsigma_dtheta, dsigma_dtheta_two_beam, fraunhofer_amplitudes)

from oracles import (mp_classical_amplitude, mp_quantum_amplitude, mp_single_density,
                     mp_two_beam_density)

_TOL_CLASSICAL = 1e-15
_TOL_QUANTUM = 2e-15
_PR = st.floats(1.0, 5.0).map(lambda log_pr: 10.0 ** log_pr)
_THETA = st.floats(-0.6, 0.6)
_PC_OVER_MC2 = st.floats(0.05, 2.0)
_ALPHA = st.floats(0.0, 0.6)
_PHI = st.floats(-7.0, 7.0)
_BEAM = BeamParams.from_wavelength_nm(633.0)


class TestSingleBeam:
    @settings(deadline=None)
    @given(p_radius=_PR, theta=_THETA)
    def test_low_energy(self, p_radius, theta):
        want = mp_single_density(mp_quantum_amplitude(_BEAM.pc_ev, _BEAM.mass_ev, p_radius),
                                 theta)
        got = dsigma_dtheta(partial(amplitudes, _BEAM, p_radius), theta)
        assert abs(got - want) <= _TOL_QUANTUM

    @pytest.mark.parametrize("channel", ["no-flip", "flip", "sum"])
    @settings(deadline=None)
    @given(p_radius=_PR, theta=_THETA, pc_over_mc2=_PC_OVER_MC2)
    def test_full(self, channel, p_radius, theta, pc_over_mc2):
        beam = BeamParams(momentum=pc_over_mc2 * ELECTRON_MASS_EV / HBARC_EV_M)
        peak = mp_single_density(
            mp_quantum_amplitude(beam.pc_ev, beam.mass_ev, p_radius, "full", "sum"), 0.0)
        want = mp_single_density(
            mp_quantum_amplitude(beam.pc_ev, beam.mass_ev, p_radius, "full", channel), theta)
        got = dsigma_dtheta(partial(amplitudes, beam, p_radius, mode="full", channel=channel),
                            theta)
        assert abs(got - want) <= _TOL_QUANTUM * peak

    @settings(deadline=None)
    @given(p_radius=_PR, theta=_THETA)
    def test_classical(self, p_radius, theta):
        want = mp_single_density(mp_classical_amplitude(p_radius), theta)
        got = dsigma_dtheta(partial(fraunhofer_amplitudes, p_radius), theta)
        assert abs(got - want) <= _TOL_CLASSICAL


class TestTwoBeam:
    @settings(deadline=None)
    @given(p_radius=_PR, theta=_THETA, alpha=_ALPHA, phi=_PHI)
    def test_low_energy(self, p_radius, theta, alpha, phi):
        want = mp_two_beam_density(mp_quantum_amplitude(_BEAM.pc_ev, _BEAM.mass_ev, p_radius),
                                   alpha, phi, theta)
        got = dsigma_dtheta_two_beam(partial(amplitudes, _BEAM, p_radius),
                                     alpha, phi, theta)
        assert abs(got - want) <= _TOL_QUANTUM * 4.0

    @settings(deadline=None)
    @given(p_radius=_PR, theta=_THETA, alpha=_ALPHA, phi=_PHI)
    def test_classical(self, p_radius, theta, alpha, phi):
        want = mp_two_beam_density(mp_classical_amplitude(p_radius), alpha, phi, theta)
        got = dsigma_dtheta_two_beam(partial(fraunhofer_amplitudes, p_radius),
                                     alpha, phi, theta)
        assert abs(got - want) <= _TOL_CLASSICAL * 4.0
