"""Hot numeric kernels, written in `math` and `cmath`.

Pure numerics (Faddeeva and the normal distribution function) of one number
each: the module imports no layer and no numpy, so a closed-form run loads
neither for that work.  The k-grid oracle's Bessel and Chebyshev numerics
live in `kgrid`.

Kernels:
  * faddeeva_upper      -- the Faddeeva function w in the closed upper
                           half-plane, by Weideman's rational series.
  * normal_cdf          -- Phi(z) for complex z, |Im z| <= 30, from
                           faddeeva_upper.
  * log_normal_cdf      -- log Phi(x) for real x, from faddeeva_upper.
"""

from __future__ import annotations

import cmath
import functools
import math

from . import DomainError

__all__ = ["faddeeva_upper", "normal_cdf", "log_normal_cdf"]

#: terms of Weideman's rational series for the Faddeeva function
FADDEEVA_TERMS = 40
#: the domain |Im z| <= MAX_IMAG of `normal_cdf`
MAX_IMAG = 30.0


@functools.cache
def _weideman_coefficients():
    """(L, a) of Weideman's series: L = sqrt(N/sqrt(2)), a[n - 1] = a_n, n = 1 ... N.

    a_n = sum_k f(t_k)*cos(n*k*pi/M)/(2M), k = -M+1 ... M-1, M = 2N: the
    2M-point DFT of f(t) = exp(-t**2)*(L**2 + t**2) at t_k = L*tan(k*pi/(2M)),
    done on first call as one `math.fsum` per coefficient over a 2M-entry
    cosine table; a is a tuple, so the cached value cannot be changed.
    """
    n, m = FADDEEVA_TERMS, 2 * FADDEEVA_TERMS
    big_l = math.sqrt(n / math.sqrt(2.0))
    f = [math.exp(-t * t) * (big_l**2 + t * t)
         for t in (big_l * math.tan(0.5 * math.pi * k / m) for k in range(1, m))]
    # the angle n*k*pi/M is reduced mod 2*pi exactly, as n*k mod 2M: rounding
    # the unreduced angle (up to 80*pi) moves w(0) off 1 by 4e-16
    cos = [math.cos(math.pi / m * j) for j in range(2 * m)]
    a = tuple((big_l**2 + 2.0 * math.fsum(cos[i * k % (2 * m)] * fk
                                          for k, fk in enumerate(f, 1))) / (2 * m)
              for i in range(1, n + 1))
    return big_l, a


def faddeeva_upper(zeta: complex) -> complex:
    """w(zeta) = exp(-zeta**2)*erfc(-i*zeta), for Im zeta >= 0 only.

    Weideman's rational series (SIAM J. Numer. Anal. 31, 1497 (1994)):
    w = 2*p(Z)/(L - i*zeta)**2 + 1/(sqrt(pi)*(L - i*zeta)), p(Z) = sum a_n*
    Z**(n-1), Z = (L + i*zeta)/(L - i*zeta), |Z| <= 1.  About 1e-14 relative
    in the closed upper half-plane; below it the series is not accurate.
    """
    big_l, a = _weideman_coefficients()
    iz = 1j * zeta
    d = big_l - iz
    big_z = (big_l + iz) / d
    p = complex(a[-1])
    for c in a[-2::-1]:
        p = p * big_z + c
    return 2.0 * p / (d * d) + (1.0 / math.sqrt(math.pi)) / d


def normal_cdf(z: complex) -> complex:
    """Normal distribution function Phi(z), analytically continued to
    complex z.

    Real arguments reduce to the standard CDF, with an imaginary part of
    exactly zero; Phi(z) + Phi(-z) = 1 and Phi(conj z) = conj Phi(z).
    Domain: |Im z| <= MAX_IMAG = 30, else DomainError.

    Phi(z) = 0.5*exp(-z**2/2)*w(-i*z/sqrt(2)) for Re z <= 0, where w's
    argument has Im >= 0; Re z > 0 reflects in Phi, as 1 - Phi(-z), not in w.
    Accuracy: relative error <= 1e-13 for Re z <= 0, |Im z| <= 3 and for
    real |z| <= 10; error <= 5e-13*max(1, |Phi(z)|, |Phi(-z)|) over
    |Re z| <= 40, |Im z| <= 30.
    """
    z = complex(z)
    if abs(z.imag) > MAX_IMAG:
        raise DomainError(f"|Im z| must be <= {MAX_IMAG}, got {abs(z.imag)}")
    right = z.real > 0.0
    zl = -z if right else z
    phi = 0.5 * cmath.exp(-0.5 * zl * zl) * faddeeva_upper(-1j * zl / math.sqrt(2.0))
    return 1.0 - phi if right else phi


def log_normal_cdf(x: float) -> float:
    """log Phi(x) for real x: -x**2/2 + log(0.5*w(-i*x/sqrt(2))) for x <= 0,
    which does not underflow where Phi does, log1p(-Phi(-x)) for x > 0."""
    x = float(x)  # a numpy float would compute in numpy's scalar arithmetic
    half_erfcx = 0.5 * faddeeva_upper(1j * abs(x) / math.sqrt(2.0)).real
    if x > 0.0:
        return math.log1p(-math.exp(-0.5 * x * x) * half_erfcx)
    return -0.5 * x * x + math.log(half_erfcx)
