import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wirediff import numerics
from wirediff.numerics import DomainError, _j1_zero, disk_amplitude, sinc

from conftest import two_j1_over_x
from oracles import AccuracyError, disk_ft_oracle


def _mpmath_hyp0f1(x: float) -> float:
    # the paper's form 0F1(2, -x^2/4), with no Bessel function in between
    with mpmath.workdps(40):
        return float(mpmath.hyp0f1(2, -mpmath.mpf(x) ** 2 / 4))


class TestDiskAmplitude:
    def test_vanishes_at_first_bessel_zero(self, j1_zeros_oracle):
        assert abs(disk_amplitude(j1_zeros_oracle[0])) < 1e-15

    def test_asymptotic_branch_matches_oracle(self):
        # deep in the asymptotic branch: x = 2 sqrt(1837.06) ~ 85.7
        x = 2.0 * math.sqrt(1837.06)
        assert disk_amplitude(x) == pytest.approx(two_j1_over_x(x), rel=1e-10)

    def test_identity_against_bessel_oracle_dense(self):
        # |F(x) - 2 J1(x)/x| <= 1e-14 across [0, 300]
        xs = np.linspace(0.0, 300.0, 3001)
        for x in xs:
            got = disk_amplitude(float(x))
            want = two_j1_over_x(float(x))
            assert abs(got - want) <= 1e-14, f"x={x}"

    def test_identity_against_mpmath_hyp0f1_dense(self):
        for x in np.linspace(0.0, 300.0, 5001).tolist():
            assert abs(disk_amplitude(x) - _mpmath_hyp0f1(x)) <= 1e-15, f"x={x}"

    @given(st.floats(0.0, 1e4))
    def test_identity_against_mpmath_hyp0f1(self, x):
        assert abs(disk_amplitude(x) - _mpmath_hyp0f1(x)) <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            disk_amplitude(bad)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_even_in_x(self, x):
        assert disk_amplitude(x) == disk_amplitude(-x)

    @given(st.floats(min_value=0.001, max_value=300.0))
    def test_bounded_by_one_with_max_at_zero(self, x):
        f = disk_amplitude(x)
        assert abs(f) <= 1.0
        assert f < 1.0  # strict away from x = 0


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
        # a real 0-d array is a scalar too; text and complex ones are refused (test_api)
        assert type(kernel(np.array(2.5))) is float
        assert kernel(np.array(2.5)) == kernel(2.5)

    @pytest.mark.parametrize("kernel", [disk_amplitude, sinc])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_one_non_finite_element_rejected(self, kernel, bad):
        xs = np.linspace(0.0, 20.0, 9)
        xs[4] = bad
        with pytest.raises(DomainError):
            kernel(xs)


def _ulps_around(x: float, n: int) -> list[float]:
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(n):
            y = math.nextafter(y, direction)
            out.append(y)
    return sorted(out)


with mpmath.workdps(40):
    # the doubles nearest the first 20 positive zeros of J1
    _J1_ZERO_DOUBLES = [float(mpmath.besseljzero(1, k)) for k in range(1, 21)]
# the Chebyshev / Hankel branch edge at x = 13, +-4 ulp
_J1_BRANCH_EDGE = _ulps_around(numerics._J1_CUTOFF, 4)


def _mpmath_f(x: float) -> float:
    with mpmath.workdps(40):
        return float(2 * mpmath.besselj(1, x) / x) if x else 1.0


class TestJ1Kernel:
    # F(x) = 2 J1(x)/x, the kernel behind disk_amplitude, against mpmath at 40 digits
    @given(st.one_of(st.floats(0.0, 1e4),
                     st.sampled_from(_J1_BRANCH_EDGE + _J1_ZERO_DOUBLES)))
    def test_within_1e_15_of_mpmath(self, x):
        assert abs(disk_amplitude(x) - _mpmath_f(x)) <= 1e-15

    @pytest.mark.parametrize("x", _J1_ZERO_DOUBLES)
    def test_vanishes_at_zeros_of_j1(self, x):
        assert abs(disk_amplitude(x)) <= 1e-16
        assert abs(disk_amplitude(x) - _mpmath_f(x)) <= 1e-16

    @pytest.mark.parametrize("x", _J1_BRANCH_EDGE)
    def test_branch_edge_against_mpmath(self, x):
        assert abs(disk_amplitude(x) - _mpmath_f(x)) <= 1e-15

    def test_exactly_one_at_zero(self):
        assert disk_amplitude(0.0) == 1.0
        assert disk_amplitude(-0.0) == 1.0
        assert disk_amplitude(np.zeros(3)).tolist() == [1.0, 1.0, 1.0]

    @given(st.one_of(st.floats(-1e4, 1e4), st.floats(-1e-3, 1e-3)))
    def test_never_above_one(self, x):
        assert disk_amplitude(x) <= 1.0

    def test_never_above_one_near_zero_dense(self):
        xs = np.concatenate([np.logspace(-320.0, 0.0, 20001), np.linspace(0.0, 0.05, 20001)])
        assert disk_amplitude(xs).max() <= 1.0

    @pytest.mark.parametrize("x", [1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308])
    def test_extreme_finite_arguments(self, x):
        # every finite q_r is accepted: no square is formed above the cutoff
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = disk_amplitude(x)
            array = disk_amplitude(np.array([x, -x]))
        assert math.isfinite(scalar)
        assert array.tolist() == [scalar, scalar]
        assert abs(scalar - _mpmath_f(abs(x))) <= 1e-15

    def test_coefficients_match_generator(self):
        script = Path(__file__).resolve().parents[1] / "tools" / "gen_j1_coeffs.py"
        done = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, check=True, timeout=120)
        generated: dict = {}
        exec(done.stdout, generated)
        names = [name for name in generated if name.startswith("_J1_")]
        assert names == ["_J1_ZERO_SQ", "_J1_ZEROS", "_J1_G", "_J1_P", "_J1_XQ"]
        for name in names:
            assert getattr(numerics, name) == generated[name], name


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
        assert abs(value.real - disk_amplitude(q_r)) <= 1e-8
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


def _j1_zero_rel_error(k: int) -> float:
    with mpmath.workdps(40):
        want = mpmath.besseljzero(1, k)
        return float(abs((_j1_zero(k) - want) / want))


class TestJ1Zero:
    # j_{1,k} in closed form: the table up to k = 23, five-term McMahon above
    def test_matches_mpmath_up_to_k_200(self):
        assert max(_j1_zero_rel_error(k) for k in range(1, 201)) <= 4e-16

    @settings(deadline=None)
    @given(st.integers(24, 10**5))
    def test_mcmahon_matches_mpmath(self, k):
        assert _j1_zero_rel_error(k) <= 4e-16

    def test_zeros_are_disk_amplitude_roots(self, j1_zeros_oracle):
        # F changes sign across each zero, from (-1)^(k-1) below to (-1)^k above
        assert [_j1_zero(k) for k in range(1, 6)] == pytest.approx(j1_zeros_oracle, rel=1e-15)
        for k in range(1, 101):
            x = _j1_zero(k)
            sign = (-1.0) ** (k - 1)
            assert sign * disk_amplitude(x * (1.0 - 1e-13)) > 0.0
            assert sign * disk_amplitude(x * (1.0 + 1e-13)) < 0.0
