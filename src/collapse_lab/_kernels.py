"""Hot numeric kernels, written in numpy.

The collapse weights are evaluated on records sampled elsewhere, so all
randomness stays in the counter-based generators of `collapse_lab.rng`.

Kernels:
  * collapse_weights    -- level weights at (t, B), level-major, batched over B.
  * bessel_j            -- J_0 ... J_n at one real argument, by Miller's
                           backward recurrence.
  * chebyshev_series    -- Chebyshev coefficients of exp(-i*H*tau) for the
                           k-grid decay Hamiltonian H.
  * kgrid_chebyshev     -- the k-grid decay ODEs propagated exactly (to the
                           1e-15 series truncation) from record to record.
  * faddeeva_upper      -- the Faddeeva function w in the closed upper
                           half-plane, by Weideman's rational series.
  * normal_cdf          -- Phi(z) for complex z, from faddeeva_upper.
  * log_normal_cdf      -- log Phi(x) for real x, from faddeeva_upper.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .engine import collapse_exponent
from .hilbert import DomainError

__all__ = ["collapse_weights", "bessel_j", "chebyshev_series", "kgrid_chebyshev",
           "faddeeva_upper", "normal_cdf", "log_normal_cdf"]

#: a Chebyshev series stops where the Bessel factors |J_n| fall below this
CHEBYSHEV_TOL = 1e-15
#: terms of Weideman's rational series for the Faddeeva function
FADDEEVA_TERMS = 40


def collapse_weights(energies, log_w0, params, t, b):
    """Normalized level weights at times t and records b, level-major.

    The batched form of `engine.evolve`: each log magnitude gains
    `engine.collapse_exponent` (the E-independent -b**2/(4*lam*t) cancels on
    normalization).  t broadcasts against b; returns weights of shape
    (n_lev, *b.shape).
    """
    b = np.asarray(b, float)
    lev = (-1,) + (1,) * b.ndim
    lw = np.reshape(np.asarray(log_w0, float), lev) + collapse_exponent(
        params, t, b, np.reshape(np.asarray(energies, float), lev))
    w = np.exp(2.0 * (lw - lw.max(axis=0)))
    w /= w.sum(axis=0)
    return w


def bessel_j(n, z):
    """J_0(z) ... J_n(z) for real z >= 0, shape (n + 1,).

    Miller's backward recurrence (Abramowitz & Stegun 9.12), run on the
    ratios r_k = J_k/J_{k-1} = z/(2k - z*r_{k+1}) from r = 0 at an order
    N = max(n, z) + 30 + 10*z**(1/3), where J_N is negligible, and
    normalized by J_0 + 2*sum J_2k = 1.  Carrying ratios rescales the
    running values at every step: each step of the unscaled recurrence
    multiplies them by about 2k/z, which overflows for z near 1e-300 and
    divides by zero at z = 0.
    """
    top = int(max(n, z) + 30.0 + 10.0 * z ** (1.0 / 3.0))
    r = np.empty(top)
    rk = 0.0
    for k in range(top, 0, -1):
        rk = z / (2.0 * k - z * rk)
        r[k - 1] = rk
    jk_over_j0 = np.cumprod(r)  # J_k/J_0 for k = 1 ... top
    j0 = 1.0 / (1.0 + 2.0 * np.sum(jk_over_j0[1::2]))
    return np.concatenate(([j0], j0 * jk_over_j0[:n]))


def chebyshev_series(k, wk, g, eps, tau):
    """Chebyshev series of exp(-i*H*tau) for the scaled k-grid Hamiltonian.

    H = [[diag(k), c], [c^H, eps]] with |c|**2 = g**2*sum(wk) (see
    `kgrid_chebyshev`).  By Weyl's inequality its spectrum lies in
    [min(k_min, eps) - |c|, max(k_max, eps) + |c|]; that interval has
    centre `ctr`, `half` is its half-width plus 1 % (headroom for rounding),
    and exp(-i*H*tau) = sum_n coef[n]*T_n((H - ctr)/half) with
    coef[n] = (2 - delta_n0)*(-i)**n*J_n(half*tau)*exp(-i*ctr*tau).

    The series keeps every order up to the last with |J_n| >= 1e-15 (and
    at least two); `tail` is |J_n| of the first order dropped.  Raises DomainError if the
    Bessel factors have not fallen below 1e-15 within the orders computed.

    Returns (ctr, half, coef, tail).
    """
    c_norm = g * math.sqrt(float(np.sum(wk)))
    lo = min(float(np.min(k)), eps) - c_norm
    hi = max(float(np.max(k)), eps) + c_norm
    ctr, half = 0.5 * (hi + lo), 1.01 * 0.5 * (hi - lo)
    z = half * tau
    if not math.isfinite(z):
        raise DomainError(f"Chebyshev argument half*tau = {z} is not finite")
    # beyond order z, |J_n(z)| decays over a transition region of width
    # ~z**(1/3); 1e-15 is reached within about 10*(z**(1/3) + 1) orders
    orders = np.arange(int(z + 20.0 * (z ** (1.0 / 3.0) + 1.0)) + 1)
    j = bessel_j(orders[-1], z)
    # nan counts as not small, so a failed Bessel evaluation cannot truncate
    kept = np.flatnonzero(~(np.abs(j) < CHEBYSHEV_TOL))
    n_terms = max(int(kept[-1]) + 1, 2)
    if n_terms >= orders.size:
        raise DomainError(
            f"Chebyshev truncation contract violated: |J_n({z:.6g})| has not "
            f"fallen below {CHEBYSHEV_TOL:g} within {orders.size} orders"
        )
    n = orders[:n_terms]
    coef = np.where(n == 0, 1.0, 2.0) * (-1j) ** n * j[:n_terms]
    return ctr, half, coef * cmath.exp(-1j * ctr * tau), float(abs(j[n_terms]))


def _chebyshev_apply(coef, kn, cn, en, u, beta):
    """sum_n coef[n]*T_n(Hn) applied to (u, beta), Hn = [[diag(kn), cn],
    [cn^H, en]], by the recurrence T_{n+1} = 2*Hn*T_n - T_{n-1}."""
    p0, b0 = u, beta
    p1, b1 = kn * u + cn * beta, en * beta + np.vdot(cn, u)
    acc, acc_b = coef[0] * u + coef[1] * p1, coef[0] * beta + coef[1] * b1
    kn2, cn2 = 2.0 * kn, 2.0 * cn
    for a in coef[2:]:
        p2 = kn2 * p1
        p2 += cn2 * b1
        p2 -= p0
        b2 = 2.0 * en * b1 + np.vdot(cn2, p1) - b0
        acc += a * p2
        acc_b += a * b2
        p0, b0, p1, b1 = p1, b1, p2, b2
    return acc, acc_b


def _chebyshev_step(k, wk, g, eps, c, tau):
    """(`_chebyshev_apply`'s (coef, kn, cn, en), tail) for exp(-i*H*tau)."""
    ctr, half, coef, tail = chebyshev_series(k, wk, g, eps, tau)
    # kn complex: products with the complex state then need no casting
    kn = ((k - ctr) / half).astype(complex)
    return (coef, kn, c / half, (eps - ctr) / half), tail


def kgrid_chebyshev(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    """Chebyshev propagator for the k-grid decay ODEs.

    d(alpha_k)/dt = -i*(g*beta*exp(-i*k*x0) + k*alpha_k)
    d(beta)/dt    = -i*(eps*beta + g*sum_k wk*alpha_k*exp(+i*k*x0))

    With u_k = sqrt(wk)*alpha_k (wk > 0) this is i*d(u, beta)/dt = H (u, beta)
    for the Hermitian H = [[diag(k), c], [c^H, eps]], c_k =
    g*sqrt(wk)*exp(-i*k*x0), and sum wk*|alpha|**2 + |beta|**2 =
    |u|**2 + |beta|**2.  Each record interval applies one `chebyshev_series`
    of exp(-i*H*dt*record_every), one O(n_modes) matvec per term; the
    n_steps % record_every steps after the last record get a series of
    their own, so the final state is at n_steps*dt.

    Returns (times, occupation, total_prob, alpha_final, beta_final,
    n_terms, tail): one sample per `record_every` steps (plus the initial
    point), the final state, and the length and first dropped |J_n| of the
    record-interval series.
    """
    sw = np.sqrt(wk)
    c = g * sw * np.exp(-1j * k * x0)
    u = sw * np.asarray(alpha0, complex)
    beta = complex(beta0)
    n_rec = n_steps // record_every + 1
    times = np.arange(n_rec) * record_every * dt
    occ = np.empty(n_rec)
    prob = np.empty(n_rec)
    step, tail = _chebyshev_step(k, wk, g, eps, c, dt * record_every)
    for r in range(n_rec):
        if r:
            u, beta = _chebyshev_apply(*step, u, beta)
        occ[r] = abs(beta) ** 2
        prob[r] = float(np.vdot(u, u).real) + occ[r]
    rem = n_steps % record_every
    if rem:
        rem_step, _ = _chebyshev_step(k, wk, g, eps, c, dt * rem)
        u, beta = _chebyshev_apply(*rem_step, u, beta)
    return times, occ, prob, u / sw, beta, step[0].size, tail


@functools.cache
def _weideman_coefficients():
    """(L, a) of Weideman's series: L = sqrt(N/sqrt(2)), a[n - 1] = a_n, n = 1 ... N.

    a_n = sum_k f(t_k)*cos(n*k*pi/M)/(2M), k = -M+1 ... M-1, M = 2N: the
    2M-point DFT of f(t) = exp(-t**2)*(L**2 + t**2) at t_k = L*tan(k*pi/(2M)),
    done as a cosine sum on first call, so that no run loads numpy.fft.
    """
    n, m = FADDEEVA_TERMS, 2 * FADDEEVA_TERMS
    big_l = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1, m)
    t = big_l * np.tan(0.5 * math.pi * k / m)
    f = np.exp(-t * t) * (big_l**2 + t * t)
    # the angle n*k*pi/M is reduced mod 2*pi exactly, as n*k mod 2M: rounding
    # the unreduced angle (up to 80*pi) moves w(0) off 1 by 4e-16
    angle = math.pi / m * (np.outer(np.arange(1, n + 1), k) % (2 * m))
    a = (big_l**2 + 2.0 * np.cos(angle) @ f) / (2 * m)
    a.flags.writeable = False  # one cached array, shared by every caller
    return big_l, a


def faddeeva_upper(zeta):
    """w(zeta) = exp(-zeta**2)*erfc(-i*zeta), for Im zeta >= 0 only.

    Weideman's rational series (SIAM J. Numer. Anal. 31, 1497 (1994)):
    w = 2*p(Z)/(L - i*zeta)**2 + 1/(sqrt(pi)*(L - i*zeta)), p(Z) = sum a_n*
    Z**(n-1), Z = (L + i*zeta)/(L - i*zeta), |Z| <= 1.  About 1e-14 relative
    in the closed upper half-plane; below it the series is not accurate.
    """
    big_l, a = _weideman_coefficients()
    iz = 1j * np.asarray(zeta, complex)
    d = big_l - iz
    big_z = (big_l + iz) / d
    p = np.full_like(big_z, a[-1])
    for c in a[-2::-1]:
        p = p * big_z + c
    return 2.0 * p / (d * d) + (1.0 / math.sqrt(math.pi)) / d


def normal_cdf(z):
    """Normal distribution function Phi(z) of complex z, elementwise.

    Phi(z) = 0.5*exp(-z**2/2)*w(-i*z/sqrt(2)) for Re z <= 0, where w's
    argument has Im >= 0; Re z > 0 reflects in Phi, as 1 - Phi(-z), not in w.
    """
    z = np.asarray(z, complex)
    right = z.real > 0.0
    zl = np.where(right, -z, z)
    phi = 0.5 * np.exp(-0.5 * zl * zl) * faddeeva_upper(-1j * zl / math.sqrt(2.0))
    return np.where(right, 1.0 - phi, phi)[()]


def log_normal_cdf(x):
    """log Phi(x) for real x, elementwise: -x**2/2 + log(0.5*w(-i*x/sqrt(2)))
    for x <= 0, which does not underflow where Phi does, log1p(-Phi(-x)) for
    x > 0."""
    x = np.asarray(x, float)
    half_erfcx = 0.5 * faddeeva_upper(1j * np.abs(x) / math.sqrt(2.0)).real
    left = -0.5 * x * x + np.log(half_erfcx)
    right = np.log1p(-np.exp(-0.5 * x * x) * half_erfcx)
    return np.where(x > 0.0, right, left)[()]
