import math
import random
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wirediff.analysis import first_dark_points, overestimation_factor
from wirediff.classical import fraunhofer_amplitudes
from wirediff.electron import amplitudes, dsigma_dtheta
from wirediff.numerics import DomainError
from wirediff.patterns import Pattern, compare_curves, sample_pattern
from wirediff.potential import BeamParams

PR = 84.37136668408607
# the single-beam densities compared: the low-energy quantum one at PR, the classical at any pR
QUANTUM = partial(dsigma_dtheta, partial(amplitudes, BeamParams.from_wavelength_nm(633.0), PR))


def classical_density(p_radius):
    return partial(dsigma_dtheta, partial(fraunhofer_amplitudes, p_radius))

with mpmath.workdps(30):
    _MP_J1_ZEROS = [mpmath.besseljzero(1, k) for k in range(1, 11)]


class TestFirstDarkPoints:
    def test_classical_first_zero(self):
        report = first_dark_points(PR, "classical", 1)
        assert report[0] == pytest.approx(math.asin(math.pi / PR), abs=1e-12)
        assert report[0] == pytest.approx(0.037247, abs=1e-5)

    def test_quantum_first_zero(self, j1_zeros_oracle):
        report = first_dark_points(PR, "quantum", 1)
        expected = 2.0 * math.asin(j1_zeros_oracle[0] / (2.0 * PR))
        assert report[0] == pytest.approx(expected, abs=1e-12)
        assert report[0] == pytest.approx(0.045420, abs=1e-5)

    def test_defining_equations_satisfied(self, j1_zeros_oracle):
        quantum = first_dark_points(PR, "quantum", 3)
        for theta, j1n in zip(quantum, j1_zeros_oracle):
            assert 2.0 * PR * math.sin(0.5 * theta) == pytest.approx(j1n, abs=1e-10)
        classical = first_dark_points(PR, "classical", 3)
        for k, theta in enumerate(classical, start=1):
            assert PR * math.sin(theta) == pytest.approx(k * math.pi, abs=1e-10)

    def test_zeros_strictly_increasing(self):
        report = first_dark_points(PR, "quantum", 5)
        assert np.all(np.diff(report) > 0.0)
        assert min(report) > 0.0

    def test_small_angle_classical_asymptotics(self):
        # theta_1 * pR -> pi as pR grows
        for p_radius in (1e3, 1e4, 1e5):
            theta_1 = first_dark_points(p_radius, "classical", 1)[0]
            assert theta_1 * p_radius == pytest.approx(math.pi, rel=1e-5)

    def test_range_error_when_too_few_zeros(self):
        with pytest.raises(DomainError):
            first_dark_points(2.5, "quantum", 2)

    @settings(deadline=None)
    @given(log_pr=st.floats(0.0, 8.0), n=st.integers(1, 10))
    # classical k = 4 at 4 pi / pR = 0.99976, where asin(4 pi / pR) was 1.3e-15 off
    @example(log_pr=1.099401197384813, n=4)
    def test_matches_mpmath_defining_equations(self, log_pr, n):
        # the n-th zero lies in (0, pi/2) when its defining equation's
        # right-hand side is below the left-hand side at theta = pi/2
        p_radius = 10.0 ** log_pr
        with mpmath.workdps(30):
            pr = mpmath.mpf(p_radius)
            expected = {
                "quantum": [2 * mpmath.asin(j / (2 * pr)) for j in _MP_J1_ZEROS[:n]
                            if j < 2 * pr * mpmath.sin(mpmath.pi / 4)],
                "classical": [mpmath.asin(k * mpmath.pi / pr) for k in range(1, n + 1)
                              if k * mpmath.pi < pr],
            }
        for method, zeros in expected.items():
            if len(zeros) < n:
                with pytest.raises(DomainError):
                    first_dark_points(p_radius, method, n)
                continue
            got = first_dark_points(p_radius, method, n)
            for theta, want in zip(got, zeros):
                assert abs(theta - float(want)) <= 1e-15 * float(want)

    @pytest.mark.parametrize("k", [1, 4, 1000, 10**6])
    def test_classical_zero_next_to_right_angle(self, k):
        # pR the first double above k pi: sin(theta_k) = k pi / pR is within
        # 1e-16 of 1, where asin(k pi / pR) lost half the digits
        p_radius = math.nextafter(k * math.pi, math.inf)
        with mpmath.workdps(40):
            want = float(mpmath.asin(k * mpmath.pi / mpmath.mpf(p_radius)))
        got = first_dark_points(p_radius, "classical", k)[-1]
        assert abs(got - want) <= 1e-15 * want

    def test_zeros_at_large_k(self):
        from scipy.special import jn_zeros

        p_radius = 1e6
        got = np.array(first_dark_points(p_radius, "quantum", 500))
        want = 2.0 * np.arcsin(jn_zeros(1, 500) / (2.0 * p_radius))
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_zero_just_below_right_angle_found(self):
        # j_{1,1} = 3.8317 < 2.72 * sqrt(2) = 3.8467: the dark point sits
        # 0.008 rad below pi/2
        report = first_dark_points(2.72, "quantum", 1)
        assert report[0] == pytest.approx(1.5630358, abs=1e-7)

    def test_zero_at_right_angle_excluded(self):
        # pR sin(theta) = pi puts the classical dark point exactly at
        # pi/2, outside the open interval
        with pytest.raises(DomainError):
            first_dark_points(math.pi, "classical", 1)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            first_dark_points(PR, "semiclassical", 1)
        with pytest.raises(ValueError):
            first_dark_points(-1.0, "quantum", 1)
        with pytest.raises(ValueError):
            first_dark_points(PR, "quantum", 0)


class TestOverestimationFactor:
    def test_value_at_default_configuration(self):
        assert overestimation_factor(PR) == pytest.approx(1.219, abs=2e-3)

    def test_asymptotic_limit(self, j1_zeros_oracle):
        limit = j1_zeros_oracle[0] / math.pi
        assert limit == pytest.approx(1.21967, abs=1e-5)
        assert overestimation_factor(1e5) == pytest.approx(limit, abs=1e-6)

    def test_monotone_convergence(self, j1_zeros_oracle):
        limit = j1_zeros_oracle[0] / math.pi
        values = [overestimation_factor(pr) for pr in (50.0, 100.0, 400.0, 2000.0)]
        deviations = [abs(v - limit) for v in values]
        assert all(a > b for a, b in zip(deviations, deviations[1:]))
        for pr in (50.0, 84.37, 200.0):
            assert abs(overestimation_factor(pr) - limit) < 1e-3

    @given(st.floats(5.0, 1e4))
    def test_pr_law(self, p_radius):
        # (j/pi)(1 + (j^2 - 4 pi^2) / (24 pR^2)) + O(pR^-4), j = j_{1,1}: the
        # residual is 5.6 / pR^4 from pR 10 up and 7.3 / pR^4 at pR 5; near
        # pR 1e4 rounding (8.9e-16 there) exceeds it, hence the 1e-15
        j = float(_MP_J1_ZEROS[0])
        law = j / math.pi * (1.0 + (j * j - 4.0 * math.pi**2) / (24.0 * p_radius**2))
        assert abs(overestimation_factor(p_radius) - law) <= 8.0 / p_radius**4 + 1e-15

    def test_rescaled_classical_zero_aligns(self):
        # rescaling the classical wire radius by the factor (aligning
        # direction: effective pR / factor under the multiplier convention)
        # lines its first dark point up with the quantum one; the residual
        # ~6e-6 rad is the measured arcsin (small-angle) correction
        factor = overestimation_factor(PR)
        rescaled_zero = first_dark_points(PR / factor, "classical", 1)[0]
        quantum_zero = first_dark_points(PR, "quantum", 1)[0]
        assert abs(rescaled_zero - quantum_zero) < 1e-4
        assert abs(rescaled_zero - quantum_zero) > 1e-7  # the correction is real

    def test_rescaled_quantum_zero_aligns_equivalently(self):
        # the equivalent statement: enlarging the quantum wire radius by the
        # factor drops its first dark point onto the unscaled classical one
        factor = overestimation_factor(PR)
        rescaled_quantum = first_dark_points(factor * PR, "quantum", 1)[0]
        classical_zero = first_dark_points(PR, "classical", 1)[0]
        assert abs(rescaled_quantum - classical_zero) < 1e-4


_ZERO_METRICS = {"max_abs_diff": 0.0, "l2_diff": 0.0}


class TestMatchAreas:
    # compare_curves scales its target to the reference's trapezoid area
    # before it differences them, so the target's overall constant drops out
    def _patterns(self):
        thetas = np.linspace(-0.15, 0.15, 501)
        quantum = sample_pattern(QUANTUM, thetas)
        classical = sample_pattern(classical_density(PR), thetas)
        return quantum, classical

    def test_doubled_density_is_halved(self):
        quantum, _ = self._patterns()
        doubled = Pattern(quantum.thetas, 2.0 * quantum.density)
        assert compare_curves(quantum, doubled) == _ZERO_METRICS

    def test_idempotent(self):
        # a target already scaled to the reference's area compares as the unscaled one
        quantum, classical = self._patterns()
        matched = Pattern(classical.thetas, classical.density * (quantum.area() / classical.area()))
        assert compare_curves(quantum, matched) == pytest.approx(
            compare_curves(quantum, classical), rel=1e-12)

    def test_zero_target_rejected(self):
        quantum, _ = self._patterns()
        flat = Pattern(quantum.thetas, np.zeros_like(quantum.density))
        with pytest.raises(DomainError, match="zero integral"):
            compare_curves(quantum, flat)

    @pytest.mark.parametrize("mode", ["low-energy", "full"])
    def test_power_of_two_target_scale_is_exact(self, mode):
        # scaling the target by 2^k scales its area by 2^k and the area ratio
        # by 2^-k, all exactly, so the metrics are bit-identical: seeded pR,
        # grids and k, either curve the reference
        rng = random.Random(f"compare-scale-{mode}")
        beam = BeamParams.from_wavelength_nm(633.0)
        for _ in range(25):
            p_radius = rng.uniform(1.0, 500.0)
            half_width = rng.uniform(0.01, 0.6)
            thetas = np.linspace(-half_width * rng.uniform(0.0, 1.0), half_width,
                                 rng.randint(2, 2500))
            quantum = sample_pattern(
                partial(dsigma_dtheta, partial(amplitudes, beam, p_radius, mode=mode)), thetas)
            classical = sample_pattern(classical_density(p_radius * rng.uniform(0.5, 1.5)),
                                       thetas)
            for reference, target in ((quantum, classical), (classical, quantum)):
                want = compare_curves(reference, target)
                for k in [-30, 30, *(rng.randint(-30, 30) for _ in range(4))]:
                    scaled = Pattern(thetas, 2.0 ** k * target.density)
                    assert compare_curves(reference, scaled) == want


class TestCompareCurves:
    def _default_comparison_curves(self, radius_scale=1.0, points=2001):
        thetas = np.linspace(-0.15, 0.15, points)
        quantum = sample_pattern(QUANTUM, thetas)
        classical = sample_pattern(classical_density(radius_scale * PR), thetas)
        return quantum, classical

    def test_identical_curves_give_zero_metrics(self):
        quantum, _ = self._default_comparison_curves()
        assert compare_curves(quantum, quantum) == _ZERO_METRICS

    def test_rescaled_classical_aligns_first_zeros(self):
        # aligning direction of the multiplier convention: 1/factor moves the
        # classical dark point onto the quantum one, and the curves closer
        factor = overestimation_factor(PR)
        quantum, classical = self._default_comparison_curves(radius_scale=1.0 / factor)
        offset = (first_dark_points(PR, "quantum")[0]
                  - first_dark_points(PR / factor, "classical")[0])
        assert abs(offset) < 1e-4
        assert compare_curves(quantum, classical)["l2_diff"] < compare_curves(
            *self._default_comparison_curves())["l2_diff"]

    def test_grid_mismatch_rejected(self):
        quantum, _ = self._default_comparison_curves()
        other = Pattern(np.linspace(-0.1, 0.1, 2001), np.ones(2001))
        with pytest.raises(ValueError):
            compare_curves(quantum, other)

    @pytest.mark.parametrize("theta_max, classical_zero", [(0.03, False), (0.04, True)])
    def test_offset_is_none_without_both_dark_points(self, theta_max, classical_zero):
        # the dark points sit at 0.0454 (quantum) and 0.0372 rad (classical):
        # +-0.03 holds neither, +-0.04 only the classical one. The comparison
        # carries no dark-point offset whatever the window holds; the exact
        # dark points come from first_dark_points, which no window limits
        thetas = np.linspace(-theta_max, theta_max, 2001)
        quantum = sample_pattern(QUANTUM, thetas)
        classical = sample_pattern(classical_density(PR), thetas)
        result = compare_curves(quantum, classical)
        assert sorted(result) == ["l2_diff", "max_abs_diff"]
        assert result["l2_diff"] > 0.0
        assert first_dark_points(PR, "quantum")[0] > theta_max
        assert (first_dark_points(PR, "classical")[0] < theta_max) == classical_zero
