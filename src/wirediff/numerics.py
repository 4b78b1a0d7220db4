"""The disk amplitude, sinc, and the zeros of J1.

:func:`disk_amplitude` is the one amplitude of the quantum model:
F(x) = 0F1(2, -x^2/4) = 2 J1(x)/x, the normalized disk transform, a
function of x = |q_r| alone.  It is evaluated at a fixed cost on two
branches:

* 0 < x <= 13: F = (u - j1^2)(u - j2^2)(u - j3^2)(u - j4^2) G(u), u = x^2,
  with j_k the k-th positive zero of J1 and G a degree-16 Chebyshev series
  on u in [0, 169].  Each j_k^2 is a hi + lo pair of doubles, subtracted in
  that order, so a factor carries no rounding beyond that of u = x*x.
* x > 13: the Hankel form F = x^(-3/2) (P cos chi - (Q/x) sin chi),
  chi = x - 3 pi/4, with P and Q (scaled by 2 sqrt(2/pi)) degree-8
  Chebyshev series in t = 2 (13/x)^2 - 1.

``tools/gen_j1_coeffs.py`` fits the coefficients with mpmath at 50 digits.
The absolute error in F against mpmath is below 1e-15 and below 1e-16 at
the doubles nearest the zeros of J1; every finite x is accepted.  It is
largest at small x, where F is near 1: 6.8e-16 (6 ulp of 1) at x = 0.0178,
the worst of 20,001 evenly spaced points on [0, 2] against mpmath at 40
digits.  30,000 random draws on [0, 1e4], which almost never fall below 2,
give at most 4.4e-16.  Both branches sum their series by Clenshaw's
recurrence, which uses only + and *; with IEEE sqrt, and sin and cos from
the same libm, a Python float and each element of an array get the same
bits.  :func:`disk_amplitude` and :func:`sinc` take either and split them
only to check finiteness and to pick ``math`` or ``numpy``: a scalar call
stays cheap, and an array is done in a few whole-array passes.  numpy is
imported only in those array branches, so the scalar ones, :func:`_j1_zero`
and every module that imports only them (the dark points, the CLI's
``zeros``) run without it.

:func:`_j1_zero` gives j_{1,k}, the k-th positive zero of J1 and of F, in
closed form: a table of j_{1,1} ... j_{1,23} rounded to doubles (written by
the same script), and McMahon's expansion (DLMF 10.21.19) to five terms
above it, within 4e-16 relative of mpmath there.

All routines are pure functions of their arguments and hold no shared
mutable state, so they are safe to call concurrently.
"""

from __future__ import annotations

import math

# F = 2 J1(x)/x takes the Chebyshev branch up to here, the Hankel one above
_J1_CUTOFF = 13.0
# u = x^2 on [0, 169] maps to s = u * _G_SCALE - 1 on [-1, 1]
_G_SCALE = 2.0 / 169.0
# 3*pi/4 split into high/low parts so the asymptotic phase x - 3*pi/4
# carries only the unavoidable representation error of x itself.
_THREE_PI_OVER_4_HI = 2.356194490192345
_THREE_PI_OVER_4_LO = 9.184850993605148e-17

# Written by tools/gen_j1_coeffs.py (a test checks they match): the squared
# zeros as (hi, lo), the zeros j_{1,1} ... j_{1,23} as doubles, then G, P and
# x Q, each from the highest degree down.
_J1_ZERO_SQ = (
    (14.681970642123893, -9.858177825793294e-17),
    (49.2184563216946, 5.086354069436341e-16),
    (103.49945389513658, -2.2274203792450066e-15),
    (177.52076681380464, 8.346555053134763e-15),
)
_J1_ZEROS = (
    3.8317059702075125,
    7.015586669815619,
    10.173468135062722,
    13.323691936314223,
    16.470630050877634,
    19.615858510468243,
    22.760084380592772,
    25.903672087618382,
    29.046828534916855,
    32.189679910974405,
    35.33230755008387,
    38.474766234771614,
    41.61709421281445,
    44.75931899765282,
    47.90146088718545,
    51.04353518357151,
    54.18555364106132,
    57.32752543790101,
    60.46945784534749,
    63.61135669848123,
    66.75322673409849,
    69.89507183749578,
    73.03689522557383,
)
_J1_G = (
    5.694328855578123e-25,
    -2.1602245788605002e-23,
    7.374322816605479e-22,
    -2.2526312975219586e-20,
    6.115282788927819e-19,
    -1.4638744763798026e-17,
    3.0623091140968574e-16,
    -5.540103662540537e-15,
    8.561948840378133e-14,
    -1.1138567706510448e-12,
    1.1981346313602431e-11,
    -1.0420492821686002e-10,
    7.120202275819118e-10,
    -3.6784015366336056e-09,
    1.361672941196025e-08,
    -3.3351101620477417e-08,
    2.384264305105201e-08,
)
_J1_P = (
    -1.2605950221000826e-16,
    2.400284979614927e-15,
    -5.727493034762609e-14,
    1.8188112475788917e-12,
    -8.332173765239124e-11,
    6.2527103530651146e-09,
    -9.677872336592924e-07,
    0.00054933804183668,
    1.5963194337727118,
)
_J1_XQ = (
    8.706932966021962e-16,
    -1.484338142176472e-14,
    3.101492944475452e-13,
    -8.372724329080712e-12,
    3.1214115672822586e-10,
    -1.7766046125105764e-08,
    1.8253112072160315e-06,
    -0.00047664213544963376,
    0.5979349350686062,
)


class DomainError(ValueError):
    """Input the caller can fix; the package's one input error (CLI exit 2)."""


def _is_real(x) -> bool:
    # numbers.Real: a Python or numpy real scalar, not text, an array or a
    # complex number.  A float, all the CLI passes, skips the ABC check, which
    # is over ten times slower, and the import of numbers
    if type(x) is float:
        return True
    from numbers import Real

    return isinstance(x, Real)


def _require_finite(name: str, x) -> float:
    # a real number or a real 0-d array; float() would parse text and refuse complex
    if not (_is_real(x) or getattr(x, "dtype", None) is not None and x.dtype.kind in "biuf"):
        raise DomainError(f"{name}: argument must be a real number, got {x!r}")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name}: argument must be finite, got {x!r}")
    return x


def _require_positive(label: str, x):
    # the one check of a positive input: a real number, finite and > 0, returned unchanged
    if not (_is_real(x) and math.isfinite(x) and x > 0.0):
        raise DomainError(f"{label} must be positive and finite, got {x!r}")
    return x


def _choice(name: str, value, spellings: tuple) -> str:
    # isinstance first, so an array is refused, not compared element by element
    if isinstance(value, str) and value in spellings:
        return value
    expected = ", ".join(repr(spelling) for spelling in spellings)
    raise DomainError(f"unknown {name} {value!r}; expected one of {expected}")


def _clenshaw(coeffs, s):
    # sum_k c_k T_k(s), coefficients from the highest degree down
    s2 = s + s
    b0 = b1 = 0.0
    for c in coeffs:
        b0, b1 = s2 * b0 - b1 + c, b0
    return b0 - s * b1


def _j1_small(x):
    # F on 0 < x <= 13
    u = x * x
    f = _clenshaw(_J1_G, u * _G_SCALE - 1.0)
    for hi, lo in _J1_ZERO_SQ:
        f = f * ((u - hi) - lo)
    return f


def _j1_large(x, sqrt, cos, sin):
    # F on x > 13, with sqrt, cos and sin from math or numpy; x^(-3/2) is
    # w sqrt(w), w = 1/x, which underflows to 0 where x sqrt(x) would overflow
    w = 1.0 / x
    t = 338.0 * (w * w) - 1.0
    chi = (x - _THREE_PI_OVER_4_HI) - _THREE_PI_OVER_4_LO
    return (w * sqrt(w)) * (_clenshaw(_J1_P, t) * cos(chi)
                            - w * _clenshaw(_J1_XQ, t) * sin(chi))


def disk_amplitude(q_r):
    """Normalized disk transform 0F1(2, -(q_r/2)^2) = 2 J1(q_r)/q_r, even in q_r.

    The one amplitude of the model, a function of q_r = q R alone; every
    quantum density evaluates it, and its zeros j_{1,k} (:func:`_j1_zero`)
    place the quantum dark points.  Any finite q_r is accepted; F(0) = 1
    exactly.  A scalar q_r returns a float; an array of one or more
    dimensions runs the same branch code on numpy arrays and returns an
    array of its shape, bit-identical to the scalar value of every element.
    A non-finite element raises DomainError.
    """
    if getattr(q_r, "ndim", 0) == 0:
        x = abs(_require_finite("disk_amplitude", q_r))
        if x > _J1_CUTOFF:
            return _j1_large(x, math.sqrt, math.cos, math.sin)
        return _j1_small(x) if x > 0.0 else 1.0
    import numpy as np

    x = np.abs(np.asarray(q_r, dtype=float))
    if not np.isfinite(x).all():
        raise DomainError("disk_amplitude: q_r must be finite")
    out = np.ones_like(x)
    large = x > _J1_CUTOFF
    small = (x > 0.0) & ~large
    out[small] = _j1_small(x[small])
    out[large] = _j1_large(x[large], np.sqrt, np.cos, np.sin)
    return out


def _j1_zero(k: int) -> float:
    """j_{1,k}, the k-th positive zero of J1, for an integer k >= 1."""
    if k <= len(_J1_ZEROS):
        return _J1_ZEROS[k - 1]
    # McMahon for nu = 1: beta - 3w + 12w^3 - 7545.6w^5 + 3567925.03w^7
    beta = (k + 0.25) * math.pi
    w = 1.0 / (8.0 * beta)
    w2 = w * w
    return beta - w * (3.0 - w2 * (12.0 - w2 * (7545.6 - w2 * 3567925.0285714286)))


def sinc(x):
    """sin(x)/x with the removable singularity filled in: sinc(0) = 1.

    Scalar or array, split by shape as in :func:`disk_amplitude`.
    """
    if getattr(x, "ndim", 0) == 0:
        x = _require_finite("sinc", x)
        if x == 0.0:
            return 1.0
        return math.sin(x) / x
    import numpy as np

    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("sinc: arguments must be finite")
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
