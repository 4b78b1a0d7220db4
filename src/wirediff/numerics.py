"""Special-function evaluation, a brute-force disk-transform quadrature,
and bracketed root finding.

The two kernels the patterns are built from, :func:`disk_amplitude` and
:func:`sinc`, have a scalar and an array path, chosen by the argument's
shape.  A Python float, numpy scalar or 0-d array takes the scalar loops,
which stay cheap for one point at a time (root finding bisects that way).
An array of one or more dimensions takes numpy passes over the whole grid
that run the same series and expansions element by element, every element
stopping at its own term test, so both paths give the same bits.

All routines are pure functions of their arguments and hold no shared
mutable state, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

TAU = 2.0 * math.pi

# J1 evaluation: power series below the cutoff, Hankel expansion above.
# At the cutoff both branches are good to ~1e-12 absolute (checked against
# 40-digit reference values during development).
_J1_SERIES_CUTOFF = 13.0
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# 3*pi/4 split into high/low parts so the asymptotic phase x - 3*pi/4
# carries only the unavoidable representation error of x itself.
_THREE_PI_OVER_4_HI = 2.356194490192345
_THREE_PI_OVER_4_LO = 9.184850993605148e-17

# Stop criterion for series summation, per-term relative to the partial sum.
_SERIES_EPS = 1e-17


class DomainError(ValueError):
    """Argument outside the supported domain (non-finite, wrong sign, ...)."""


class AccuracyError(ArithmeticError):
    """A numerical routine could not meet its accuracy target."""


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name}: argument must be finite, got {x!r}")
    return x


def _j1_series(x: float) -> float:
    # J1(x) = (x/2) * sum_k (-x^2/4)^k / (k! (k+1)!), Neumaier-compensated.
    m = -0.25 * x * x
    term = 0.5 * x
    total = term
    comp = 0.0
    for k in range(1, 80):
        term *= m / (k * (k + 1))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if abs(term) <= _SERIES_EPS * abs(total):
            break
    return total + comp


def _j1_asymptotic(x: float) -> float:
    # Hankel expansion J1(x) ~ sqrt(2/(pi x)) [P cos(chi) - Q sin(chi)],
    # chi = x - 3*pi/4, truncated at the smallest term.
    mu = 4.0
    u = 1.0
    p = 1.0
    q = 0.0
    prev = math.inf
    for k in range(1, 60):
        u = u * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        au = abs(u)
        if au >= prev:
            break
        prev = au
        if k % 2 == 0:
            p += u if k % 4 == 0 else -u
        else:
            q += u if k % 4 == 1 else -u
        if au < 1e-18:
            break
    chi = (x - _THREE_PI_OVER_4_HI) - _THREE_PI_OVER_4_LO
    return _SQRT_2_OVER_PI / math.sqrt(x) * (p * math.cos(chi) - q * math.sin(chi))


def _j1_series_array(x: np.ndarray) -> np.ndarray:
    # _j1_series on every element at once; an element's value is taken at the
    # term where its scalar loop stops (it keeps iterating on shrinking terms)
    out = np.empty_like(x)
    running = np.ones(x.shape, dtype=bool)
    m = -0.25 * x * x
    term = 0.5 * x
    total = term
    comp = np.zeros_like(x)
    for k in range(1, 80):
        if not running.any():
            return out
        term = term * (m / (k * (k + 1)))
        t = total + term
        comp = comp + np.where(np.abs(total) >= np.abs(term), (total - t) + term,
                               (term - t) + total)
        total = t
        stop = running & (np.abs(term) <= _SERIES_EPS * np.abs(total))
        np.copyto(out, total + comp, where=stop)
        running &= ~stop
    np.copyto(out, total + comp, where=running)
    return out


def _j1_asymptotic_array(x: np.ndarray) -> np.ndarray:
    # _j1_asymptotic on every element at once; an element's P and Q stop
    # changing at the term where its scalar loop breaks
    u = np.ones_like(x)
    p = np.ones_like(x)
    q = np.zeros_like(x)
    prev = np.full_like(x, math.inf)
    running = np.ones(x.shape, dtype=bool)
    for k in range(1, 60):
        if not running.any():
            break
        u = u * (4.0 - (2 * k - 1) ** 2) / (8.0 * k * x)
        au = np.abs(u)
        running &= au < prev
        prev = au
        if k % 2 == 0:
            p = np.where(running, p + u if k % 4 == 0 else p - u, p)
        else:
            q = np.where(running, q + u if k % 4 == 1 else q - u, q)
        running &= ~(au < 1e-18)
    chi = (x - _THREE_PI_OVER_4_HI) - _THREE_PI_OVER_4_LO
    return _SQRT_2_OVER_PI / np.sqrt(x) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind J1, accurate to ~1e-12 absolute.

    Used as the large-argument evaluation path for :func:`hyp0f1_reg2`;
    also handy on its own for locating dark fringes.
    """
    x = _require_finite("bessel_j1", x)
    ax = abs(x)
    val = _j1_series(ax) if ax <= _J1_SERIES_CUTOFF else _j1_asymptotic(ax)
    return -val if x < 0.0 else val


def _hyp_series(z: float, max_terms: int = 1200) -> float:
    # sum_k z^k / (k! (k+1)!) with Neumaier compensation.
    term = 1.0
    total = 1.0
    comp = 0.0
    for k in range(max_terms):
        term *= z / ((k + 1) * (k + 2))
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        if abs(term) <= _SERIES_EPS * abs(total):
            return total + comp
    raise AccuracyError(f"hypergeometric series did not converge for z={z!r}")


def hyp0f1_reg2(z: float) -> float:
    """Regularized confluent hypergeometric limit function 0F1(2, z).

    Equals sum_k z^k / (k! (k+1)!); since Gamma(2) = 1 the regularized and
    plain forms coincide.  For z = -x^2/4 the function is identically
    2*J1(x)/x, which is how negative arguments are evaluated: the raw
    alternating series loses all significance for z below roughly -200,
    while physical arguments here reach -30000.  Positive arguments use
    the series directly (all terms positive, no cancellation).
    """
    z = _require_finite("hyp0f1_reg2", z)
    if z == 0.0:
        return 1.0
    if z < 0.0:
        x = 2.0 * math.sqrt(-z)
        return 2.0 * bessel_j1(x) / x
    value = _hyp_series(z)
    if not math.isfinite(value):
        raise OverflowError(f"hyp0f1_reg2({z!r}) exceeds double range")
    return value


def disk_amplitude(q_r):
    """Normalized disk transform 0F1(2, -(q_r/2)^2) = 2 J1(q_r)/q_r, even in q_r.

    The one amplitude of the model, a function of q_r = q R alone; every
    quantum density and the quantum dark-point search evaluate it.  A scalar
    q_r goes through :func:`hyp0f1_reg2` and returns a float; an array of
    one or more dimensions is evaluated in numpy passes of the same J1
    branches and returns an array of its shape, bit-identical to the scalar
    value of every element.  A non-finite element raises DomainError.
    """
    if getattr(q_r, "ndim", 0) == 0:
        return hyp0f1_reg2(-0.25 * q_r * q_r)
    q_r = np.asarray(q_r, dtype=float)
    with np.errstate(over="ignore"):
        z = -0.25 * q_r * q_r
    if not np.all(np.isfinite(z)):
        raise DomainError("disk_amplitude: q_r must be finite, with a finite square")
    x = (2.0 * np.sqrt(-z)).ravel()
    out = np.ones_like(x)  # x == 0 exactly where z == 0, whose value is 1
    series = (x > 0.0) & (x <= _J1_SERIES_CUTOFF)
    hankel = x > _J1_SERIES_CUTOFF
    out[series] = 2.0 * _j1_series_array(x[series]) / x[series]
    out[hankel] = 2.0 * _j1_asymptotic_array(x[hankel]) / x[hankel]
    return out.reshape(q_r.shape)


def hyp0f1_reg2_series(z: float) -> float:
    """Direct-series cross-check path for :func:`hyp0f1_reg2`.

    Compensated summation, terminated when a term drops below 1e-17 of the
    partial sum.  Only supported for |z| <= 100, beyond which alternating
    cancellation makes the result meaningless.
    """
    z = _require_finite("hyp0f1_reg2_series", z)
    if abs(z) > 100.0:
        raise DomainError(
            f"hyp0f1_reg2_series: |z| <= 100 required, got {z!r}"
        )
    return _hyp_series(z)


def sinc(x):
    """sin(x)/x with the removable singularity filled in: sinc(0) = 1.

    Scalar or array, split by shape as in :func:`disk_amplitude`.
    """
    if getattr(x, "ndim", 0) == 0:
        x = _require_finite("sinc", x)
        if x == 0.0:
            return 1.0
        return math.sin(x) / x
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("sinc: arguments must be finite")
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


@lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _disk_quadrature(q_r: float, n: int) -> complex:
    # (1/pi) * int_0^1 int_0^{2pi} s exp(-i q_r s cos(phi)) dphi ds
    # on the unit disk (radial variable already scaled by the radius).
    xs, ws = _gauss_legendre(n)
    s = 0.5 * (xs + 1.0)
    w_s = 0.5 * ws
    phi = math.pi * (xs + 1.0)
    w_phi = math.pi * ws
    phase = np.exp(-1j * q_r * np.outer(s, np.cos(phi)))
    return complex((s * w_s) @ phase @ w_phi / math.pi)


def disk_ft_oracle(q_r: float, rule_order: int | None = None) -> complex:
    """Brute-force Fourier transform of the uniform unit disk at transfer q_r.

    Tensor Gauss-Legendre quadrature in (radial, angular), evaluated at two
    rule orders (n, 2n); the fine result is returned only when the two agree
    to 1e-9, otherwise an AccuracyError is raised.  Serves as an evaluator
    of 0F1(2, -q_r^2/4) that is independent of the series/Bessel path.
    """
    q_r = _require_finite("disk_ft_oracle", q_r)
    if q_r < 0.0:
        raise DomainError(f"disk_ft_oracle: q_r >= 0 required, got {q_r!r}")
    if rule_order is None:
        rule_order = max(32, int(math.ceil(2.0 * q_r)) + 32)
    n = int(rule_order)
    if n < 2:
        raise DomainError(f"disk_ft_oracle: rule_order >= 2 required, got {rule_order!r}")
    coarse = _disk_quadrature(q_r, n)
    fine = _disk_quadrature(q_r, 2 * n)
    if abs(fine - coarse) > 1e-9:
        raise AccuracyError(
            f"disk_ft_oracle: rule orders ({n}, {2 * n}) disagree by "
            f"{abs(fine - coarse):.3e} at q_r={q_r!r}; increase rule_order"
        )
    return fine


def find_zero(
    f: Callable[[float], float],
    bracket_lo: float,
    bracket_hi: float,
    tol: float = 1e-12,
) -> float:
    """Bisect f to a root inside [bracket_lo, bracket_hi].

    The bracket endpoints must straddle a sign change.  Returns the bracket
    midpoint once its width is at most tol.  Bisection is deliberately
    preferred over faster methods: every density here is smooth and cheap,
    and bracketing safety matters more than iteration count.
    """
    lo = _require_finite("find_zero", bracket_lo)
    hi = _require_finite("find_zero", bracket_hi)
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"find_zero: tol must be positive and finite, got {tol!r}")
    if lo >= hi:
        raise BracketError(f"find_zero: need bracket_lo < bracket_hi, got [{lo}, {hi}]")
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise BracketError(
            f"find_zero: no sign change on [{lo}, {hi}] (f={f_lo:.3e}, {f_hi:.3e})"
        )
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)
