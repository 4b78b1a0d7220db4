"""Fit the coefficients of the J1 kernel in ``wirediff.numerics`` and
tabulate the zeros of J1.

Usage (from the repository root; needs mpmath, a test extra):

    python tools/gen_j1_coeffs.py

prints the coefficient and zero block of ``src/wirediff/numerics.py`` as
Python source.  ``tests/test_numerics.py`` runs this script and checks that
every printed tuple equals the committed one exactly.

The kernel evaluates F(x) = 2 J1(x)/x, x >= 0, on two branches:

* x <= 13: F = (u - j1^2)(u - j2^2)(u - j3^2)(u - j4^2) G(u), u = x^2, with
  j_k the k-th positive zero of J1.  G is entire in u; it is interpolated
  at first-kind Chebyshev nodes of s = 2u/169 - 1.  G falls from u = 0 to
  u = 169 by a factor 1,500 with three zeros factored and by 72 with j4
  (just past the branch) factored as well; the smaller range keeps the
  cancellation in its Chebyshev sum near u = 169 below 1e-15 in F.
  Each j_k^2 is printed as a hi + lo pair of doubles.
* x > 13: F = x^(-3/2) (P cos chi - (Q/x) sin chi), chi = x - 3 pi/4, where
  J1 = sqrt(2/(pi x)) (P cos chi - Q sin chi) defines the Hankel P and Q and
  both are printed scaled by 2 sqrt(2/pi).  P and Q are interpolated in
  t = 2 (13/x)^2 - 1 from 50-digit Bessel J1 and Y1.

Every coefficient tuple runs from the highest degree down to the constant
term, the order ``numerics._clenshaw`` consumes.  ``_J1_ZEROS`` holds
j_{1,1} ... j_{1,23} rounded to doubles, the dark points' table below the
range where McMahon's expansion is exact to double precision.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50
CUTOFF = 13
N_ZEROS = 4
N_TABLE = 23
# the highest coefficient kept, times the largest zero-factor product
# (1.3e7) or the x^(-3/2) of the Hankel branch (0.02), is below 1e-17 in F
DEGREE_G = 16
DEGREE_PQ = 8


def chebyshev_fit(f, degree: int) -> list:
    """Coefficients c_0..c_degree interpolating f at first-kind nodes on [-1, 1]."""
    n = degree + 1
    angles = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    values = [f(mp.cos(a)) for a in angles]
    coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / n
              for k in range(n)]
    coeffs[0] /= 2
    return coeffs


def hi_lo(value) -> tuple[float, float]:
    hi = float(value)
    return hi, float(value - hi)


def fit_g(zeros: list) -> list:
    def g(s):
        u = (s + 1) * CUTOFF ** 2 / 2
        x = mp.sqrt(u)
        value = 2 * mp.besselj(1, x) / x
        for z in zeros:
            value /= u - z
        return value

    return chebyshev_fit(g, DEGREE_G)


def fit_pq() -> tuple[list, list]:
    scale = 2 * mp.sqrt(2 / mp.pi)

    def pq(t):
        x = CUTOFF / mp.sqrt((t + 1) / 2)
        chi = x - 3 * mp.pi / 4
        j1, y1 = mp.besselj(1, x), mp.bessely(1, x)
        r = mp.sqrt(mp.pi * x / 2)
        p = r * (j1 * mp.cos(chi) + y1 * mp.sin(chi))
        q = r * (y1 * mp.cos(chi) - j1 * mp.sin(chi))
        return scale * p, scale * x * q

    return (chebyshev_fit(lambda t: pq(t)[0], DEGREE_PQ),
            chebyshev_fit(lambda t: pq(t)[1], DEGREE_PQ))


def render(name: str, values) -> str:
    lines = [f"{name} = ("]
    lines.extend(f"    {v!r}," for v in values)
    lines.append(")")
    return "\n".join(lines)


def main() -> None:
    mp.mp.dps = DPS
    zeros = [mp.besseljzero(1, k) ** 2 for k in range(1, N_ZEROS + 1)]
    zero_sq = [hi_lo(z) for z in zeros]
    g = fit_g(zeros)
    p, q = fit_pq()
    print(render("_J1_ZERO_SQ", zero_sq))
    print(render("_J1_ZEROS", [float(mp.besseljzero(1, k)) for k in range(1, N_TABLE + 1)]))
    print(render("_J1_G", [float(c) for c in reversed(g)]))
    print(render("_J1_P", [float(c) for c in reversed(p)]))
    print(render("_J1_XQ", [float(c) for c in reversed(q)]))


if __name__ == "__main__":
    main()
