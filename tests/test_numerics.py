import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import i1 as scipy_i1

from wirediff.numerics import (
    AccuracyError,
    BracketError,
    DomainError,
    bessel_j1,
    disk_amplitude,
    disk_ft_oracle,
    find_zero,
    hyp0f1_reg2,
    hyp0f1_reg2_series,
    sinc,
)

from conftest import bessel_oracle, two_j1_over_x


class TestHyp0f1Reg2:
    def test_at_zero_is_one(self):
        assert hyp0f1_reg2(0.0) == 1.0

    def test_vanishes_at_first_bessel_zero(self, j1_zeros_oracle):
        j11 = j1_zeros_oracle[0]
        assert abs(hyp0f1_reg2(-0.25 * j11 * j11)) < 1e-12

    def test_large_negative_argument_matches_oracle(self):
        # deep in the asymptotic branch: z = -1837.06, x = 2 sqrt(-z) ~ 85.7
        z = -1837.06
        x = 2.0 * math.sqrt(-z)
        expected = two_j1_over_x(x)
        assert hyp0f1_reg2(z) == pytest.approx(expected, rel=1e-10)

    def test_identity_against_bessel_oracle_dense(self):
        # |0F1(2, -x^2/4) - 2 J1(x)/x| <= 1e-10 * max(1, |.|) across [0, 300]
        xs = np.linspace(0.0, 300.0, 3001)
        for x in xs:
            got = hyp0f1_reg2(-0.25 * x * x)
            want = two_j1_over_x(float(x))
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), f"x={x}"

    def test_positive_argument_matches_modified_bessel(self):
        # 0F1(2, z) = I1(2 sqrt(z)) / sqrt(z) for z > 0
        for z in (0.25, 1.0, 7.3, 42.0, 100.0, 900.0):
            expected = float(scipy_i1(2.0 * math.sqrt(z))) / math.sqrt(z)
            assert hyp0f1_reg2(z) == pytest.approx(expected, rel=1e-12)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            hyp0f1_reg2(3.0e5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            hyp0f1_reg2(bad)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_even_in_x(self, x):
        assert hyp0f1_reg2(-0.25 * x * x) == hyp0f1_reg2(-0.25 * (-x) * (-x))

    @given(st.floats(min_value=0.001, max_value=300.0))
    def test_bounded_by_one_with_max_at_zero(self, x):
        f = hyp0f1_reg2(-0.25 * x * x)
        assert abs(f) <= 1.0
        assert f < 1.0  # strict away from x = 0


class TestSeriesCrossCheck:
    def test_matches_main_path_on_shared_domain(self):
        for z in np.linspace(-100.0, 100.0, 801):
            main = hyp0f1_reg2(float(z))
            series = hyp0f1_reg2_series(float(z))
            assert abs(series - main) <= 5e-10 * max(1.0, abs(main)), f"z={z}"

    def test_domain_limited(self):
        with pytest.raises(DomainError):
            hyp0f1_reg2_series(-100.001)
        with pytest.raises(DomainError):
            hyp0f1_reg2_series(101.0)


class TestBesselJ1:
    def test_against_library_oracle(self):
        for x in np.linspace(0.0, 300.0, 2000):
            assert abs(bessel_j1(float(x)) - bessel_oracle(float(x))) < 5e-12

    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_odd(self, x):
        assert bessel_j1(-x) == -bessel_j1(x)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            bessel_j1(math.inf)


class TestSinc:
    def test_at_zero(self):
        assert sinc(0.0) == 1.0

    def test_at_pi(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_at_half_pi(self):
        assert sinc(math.pi / 2.0) == pytest.approx(2.0 / math.pi, rel=1e-14)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_even_and_bounded(self, x):
        assert sinc(x) == sinc(-x)
        assert abs(sinc(x)) <= 1.0

    def test_maximum_exactly_at_zero(self):
        for x in (1e-3, 0.1, 1.0, 2.0):
            assert sinc(x) < sinc(0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            sinc(math.nan)


# both sides of the series / Hankel cutoff at x = 13, and the removable zero
_KERNEL_EDGES = [0.0, float(np.nextafter(13.0, -np.inf)), 13.0, float(np.nextafter(13.0, np.inf))]
_kernel_arrays = st.lists(st.floats(-3000.0, 3000.0), max_size=300).map(
    lambda xs: np.array(xs + _KERNEL_EDGES + [-x for x in _KERNEL_EDGES]))


class TestArrayKernels:
    # an array argument takes the numpy passes, a scalar the scalar loops;
    # the two must agree bit for bit
    @given(_kernel_arrays)
    def test_disk_amplitude_array_is_scalar_bit_for_bit(self, xs):
        want = np.array([disk_amplitude(float(x)) for x in xs])
        assert disk_amplitude(xs).tobytes() == want.tobytes()

    @given(_kernel_arrays)
    def test_sinc_array_is_scalar_bit_for_bit(self, xs):
        want = np.array([sinc(float(x)) for x in xs])
        assert sinc(xs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kernel", [disk_amplitude, sinc])
    def test_shape_preserved(self, kernel):
        flat = np.linspace(-40.0, 40.0, 12)
        assert kernel(flat).shape == (12,)
        grid = kernel(flat.reshape(3, 4))
        assert grid.shape == (3, 4)
        assert grid.tobytes() == kernel(flat).tobytes()

    @pytest.mark.parametrize("kernel", [disk_amplitude, sinc])
    def test_scalar_argument_returns_float(self, kernel):
        assert type(kernel(2.5)) is float
        assert type(kernel(np.float64(2.5))) is float

    @pytest.mark.parametrize("kernel", [disk_amplitude, sinc])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_element_rejected(self, kernel, bad):
        xs = np.linspace(0.0, 20.0, 9)
        xs[4] = bad
        with pytest.raises(DomainError):
            kernel(xs)


class TestDiskFtOracle:
    def test_zero_transfer_is_unit_area(self):
        value = disk_ft_oracle(0.0)
        assert value.real == pytest.approx(1.0, abs=1e-12)
        assert abs(value.imag) < 1e-12

    def test_vanishes_at_first_bessel_zero(self, j1_zeros_oracle):
        value = disk_ft_oracle(j1_zeros_oracle[0])
        assert abs(value.real) < 1e-8
        assert abs(value.imag) < 1e-8

    @pytest.mark.parametrize("q_r", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    def test_consistent_with_series_evaluator(self, q_r):
        value = disk_ft_oracle(q_r)
        assert abs(value.real - hyp0f1_reg2(-0.25 * q_r * q_r)) <= 1e-8
        assert abs(value.imag) <= 1e-8

    def test_insufficient_rule_order_detected(self):
        with pytest.raises(AccuracyError):
            disk_ft_oracle(50.0, rule_order=8)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            disk_ft_oracle(-1.0)
        with pytest.raises(DomainError):
            disk_ft_oracle(math.inf)
        with pytest.raises(DomainError):
            disk_ft_oracle(1.0, rule_order=1)


class TestFindZero:
    def test_sine_root(self):
        root = find_zero(math.sin, 3.0, 3.3, tol=1e-12)
        assert abs(root - math.pi) < 1e-12
        assert abs(math.sin(root)) < 1e-9

    def test_sinc_root(self):
        root = find_zero(sinc, 3.0, 3.3, tol=1e-12)
        assert abs(root - math.pi) < 1e-12

    def test_disk_transform_root_is_bessel_zero(self, j1_zeros_oracle):
        root = find_zero(lambda x: hyp0f1_reg2(-0.25 * x * x), 3.0, 4.5, tol=1e-12)
        assert abs(root - j1_zeros_oracle[0]) < 1e-10
        assert abs(hyp0f1_reg2(-0.25 * root * root)) < 1e-9

    def test_endpoint_root_returned(self):
        assert find_zero(lambda x: x, 0.0, 1.0) == 0.0
        assert find_zero(lambda x: x - 1.0, 0.0, 1.0) == 1.0

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_zero(math.sin, 3.3, 3.5)

    def test_bad_bracket_raises(self):
        with pytest.raises(BracketError):
            find_zero(math.sin, 3.3, 3.0)

    def test_bad_tol_raises(self):
        with pytest.raises(DomainError):
            find_zero(math.sin, 3.0, 3.3, tol=0.0)
