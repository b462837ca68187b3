"""Hot numeric kernels, written in numpy.

Pure numerics (Bessel, Chebyshev and Faddeeva): the module imports no layer,
so a run loads it only for that work.

Kernels:
  * bessel_j            -- J_0 ... J_n at an array of real arguments, by one
                           Miller backward recurrence.
  * chebyshev_series    -- Chebyshev coefficients of exp(-i*H*tau) for the
                           k-grid decay Hamiltonian H, tau one segment of a span.
  * chebyshev_size      -- that series' interval, segment count and Bessel
                           orders, which the CLI's array estimate shares.
  * kgrid_chebyshev     -- the k-grid decay ODEs propagated exactly (to the
                           1e-15 series truncation), one recurrence per segment.
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

import numpy as np

from . import DomainError

__all__ = ["bessel_j", "chebyshev_size", "chebyshev_series",
           "kgrid_chebyshev", "faddeeva_upper", "normal_cdf", "log_normal_cdf"]

#: a Chebyshev series stops where the Bessel factors |J_n| fall below this
CHEBYSHEV_TOL = 1e-15
#: the largest Bessel argument half*tau of one segment's series; it caps the
#: series length (`chebyshev_size`), and so a record block's Bessel factors,
#: whatever the span
SEGMENT_Z = 256.0
#: records whose Bessel factors are evaluated together
RECORD_BLOCK = 64
#: terms of Weideman's rational series for the Faddeeva function
FADDEEVA_TERMS = 40
#: the domain |Im z| <= MAX_IMAG of `normal_cdf`
MAX_IMAG = 30.0


def bessel_j(n, z):
    """J_0(z) ... J_n(z) for real z >= 0, an array (or scalar): shape
    (n + 1, *z.shape), orders first.

    Miller's backward recurrence (Abramowitz & Stegun 9.12), run once for
    every z on the ratios r_k = J_k/J_{k-1} = z/(2k - z*r_{k+1}) from r = 0
    at the order top = z + 30 + 10*z**(1/3) of the largest z (J_top is below
    1e-18 for z <= 4000), and normalized by J_0 + 2*sum J_2k = 1; orders
    above top are 0.  Carrying ratios rescales the running values at every
    step: each step of the unscaled recurrence multiplies them by about 2k/z,
    which overflows for z near 1e-300 and divides by zero at z = 0.
    """
    z = np.asarray(z, float)
    z1 = z.reshape(-1)
    z_max = float(np.max(z1, initial=0.0))
    top = int(z_max + 30.0 + 10.0 * z_max ** (1.0 / 3.0))
    # row k holds r_k, then J_k/J_0, then J_k; rows above top stay 0
    j = np.zeros((max(n, top) + 1, z1.size))
    rk, tmp = j[0], np.empty(z1.size)
    for k in range(top, 0, -1):
        np.subtract(2.0 * k, np.multiply(z1, rk, out=tmp), out=tmp)
        rk = np.divide(z1, tmp, out=j[k])
    np.cumprod(j[1:top + 1], axis=0, out=j[1:top + 1])
    j[0] = 1.0 / (1.0 + 2.0 * j[2:top + 1:2].sum(axis=0))
    j[1:top + 1] *= j[0]
    return j[:n + 1].reshape((n + 1,) + z.shape)


def chebyshev_size(k_min, k_max, g, eps, span, weight_sum=None):
    """(ctr, half, n_seg, n_orders) of `chebyshev_series` for modes k_min ...
    k_max of weights summing to weight_sum (k_max - k_min by default, as for
    the trapezoid weights).  By Weyl's inequality H's spectrum lies in
    [min(k_min, eps) - |c|, max(k_max, eps) + |c|], |c| = g*sqrt(weight_sum):
    centre `ctr`, `half` its half-width plus 1 % (headroom for rounding).  The
    span is cut into the fewest n_seg equal segments whose argument z =
    half*span/n_seg stays within SEGMENT_Z.  Beyond order z, |J_n(z)| falls
    below 1e-15 within about 10*(z**(1/3) + 1) orders; n_orders leaves twice
    that margin.  Raises DomainError if half*span is not finite."""
    c_norm = g * math.sqrt(k_max - k_min if weight_sum is None else weight_sum)
    lo = min(k_min, eps) - c_norm
    hi = max(k_max, eps) + c_norm
    ctr, half = 0.5 * (hi + lo), 1.01 * 0.5 * (hi - lo)
    if not math.isfinite(half * span):
        raise DomainError(f"Chebyshev argument half*span = {half * span} is not finite")
    n_seg = max(1, math.ceil(half * span / SEGMENT_Z))
    z = half * (span / n_seg)
    return ctr, half, n_seg, int(z + 20.0 * (z ** (1.0 / 3.0) + 1.0)) + 1


def chebyshev_series(k, wk, g, eps, span):
    """Chebyshev series of exp(-i*H*tau) for the scaled k-grid Hamiltonian
    H = [[diag(k), c], [c^H, eps]], |c|**2 = g**2*sum(wk) (`kgrid_chebyshev`),
    tau = span/n_seg on the interval (ctr, half) and segments of
    `chebyshev_size`: exp(-i*H*tau) = sum_n coef[n]*T_n((H - ctr)/half) with
    coef[n] = (2 - delta_n0)*(-i)**n*J_n(half*tau)*exp(-i*ctr*tau).

    The series keeps every order up to the last with |J_n| >= 1e-15 (and
    at least two); `tail` is |J_n| of the first order dropped.  Raises DomainError if the
    Bessel factors have not fallen below 1e-15 within the orders computed.

    Returns (ctr, half, coef, tail, n_seg).
    """
    ctr, half, n_seg, n_orders = chebyshev_size(float(np.min(k)), float(np.max(k)), g,
                                                eps, span, float(np.sum(wk)))
    tau = span / n_seg
    z = half * tau
    j = bessel_j(n_orders - 1, z)
    # nan counts as not small, so a failed Bessel evaluation cannot truncate
    kept = np.flatnonzero(~(np.abs(j) < CHEBYSHEV_TOL))
    n_terms = max(int(kept[-1]) + 1, 2)
    if n_terms >= n_orders:
        raise DomainError(
            f"Chebyshev truncation contract violated: |J_n({z:.6g})| has not "
            f"fallen below {CHEBYSHEV_TOL:g} within {n_orders} orders"
        )
    n = np.arange(n_terms)
    coef = np.where(n == 0, 1.0, 2.0) * (-1j) ** n * j[:n_terms]
    return ctr, half, coef * cmath.exp(-1j * ctr * tau), float(abs(j[n_terms])), n_seg


def _segment(coef, kn, cn, en, u, beta):
    """One segment's recurrence phi_n = T_n(Hn) psi, psi = (u, beta), Hn =
    [[diag(kn), cn], [cn^H, en]], for n < coef.size: the beta components
    b_n and the state sum_n coef[n]*phi_n."""
    n_terms = coef.size
    b = np.empty(n_terms, complex)
    # kn2 complex: products with the complex state then need no casting
    kn2, cn2 = (2.0 * kn).astype(complex), 2.0 * cn
    # T_{n+1} = 2*Hn*T_n - T_{n-1}; T_{-1} = Hn makes T_1 = Hn
    p0, b0, p1, b1 = kn * u + cn * beta, en * beta + np.vdot(cn, u), u, beta
    acc, acc_b = np.zeros_like(u), 0j
    for i in range(n_terms):
        b[i] = b1
        acc += coef[i] * p1
        acc_b += coef[i] * b1
        if i + 1 < n_terms:
            p2 = kn2 * p1
            p2 += cn2 * b1
            p2 -= p0
            p0, b0, p1, b1 = p1, b1, p2, 2.0 * en * b1 + np.vdot(cn2, p1) - b0
    return b, acc, acc_b


def _record_block(b, z):
    """The occupation |sum_n (2 - delta_n0)(-i)**n J_n(z) b_n|**2 at Bessel
    arguments z."""
    n = np.arange(b.size)
    # x_n = (2 - delta_n0)*(-1)**(n//2)*J_n is real; (-i)**n*(-1)**(n//2)
    # leaves 1 or -i for b_n
    x = bessel_j(n[-1], z)
    x *= np.where(n % 4 < 2, 2.0, -2.0)[:, None]
    x[0] *= 0.5
    a = np.where(n % 2, -1j, 1.0) * b
    return np.einsum("i,ir->r", a.real, x) ** 2 + np.einsum("i,ir->r", a.imag, x) ** 2


def kgrid_chebyshev(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    """Chebyshev propagator for the k-grid decay ODEs.

    d(alpha_k)/dt = -i*(g*beta*exp(-i*k*x0) + k*alpha_k)
    d(beta)/dt    = -i*(eps*beta + g*sum_k wk*alpha_k*exp(+i*k*x0))

    With u_k = sqrt(wk)*alpha_k (wk > 0) this is i*d(u, beta)/dt = H (u, beta)
    for the Hermitian H = [[diag(k), c], [c^H, eps]], c_k =
    g*sqrt(wk)*exp(-i*k*x0), and sum wk*|alpha|**2 + |beta|**2 =
    |u|**2 + |beta|**2.

    The span n_steps*dt is cut into the equal segments of `chebyshev_series`.
    Only the scalar factors of exp(-i*H*t) = e^{-i*ctr*t} sum_n (2 -
    delta_n0)(-i)**n J_n(half*t) T_n(Hn) depend on t (Tal-Ezer & Kosloff
    1984), so one recurrence phi_n = T_n(Hn) psi from the segment's start
    psi, one O(n_modes) matvec per term, gives all of its records'
    occupations from the beta components of phi_n.  The series at the
    segment's end starts the next; the last one ends at n_steps*dt.  The
    kept series is unitary to its dropped |J_n| < 1e-15, so a record's total
    probability is the squared norm |u|**2 + |beta|**2 of the propagated
    state at the start of its segment.

    Returns (times, occupation, total_prob, alpha_final, beta_final,
    n_terms, tail, n_matvecs, norm_drift): one sample per `record_every`
    steps (plus the initial point), the final state, the length and first
    dropped |J_n| of a segment's series, the recurrence steps of all
    segments, and the largest | |psi|**2 - |psi_0|**2 | of the propagated
    state psi at a segment end, the conservation check that sees the
    recurrence.
    """
    sw = np.sqrt(wk)
    u = sw * np.asarray(alpha0, complex)
    beta = complex(beta0)
    n_rec = n_steps // record_every + 1
    times = np.arange(n_rec) * record_every * dt
    ctr, half, coef, tail, n_seg = chebyshev_series(k, wk, g, eps, n_steps * dt)
    kn, en = (k - ctr) / half, (eps - ctr) / half
    cn = g * sw * np.exp(-1j * k * x0) / half
    # record r (step r*record_every) lies in segment s at tau = t - s*span/n_seg,
    # 0 < tau <= span/n_seg, counted in units of dt/n_seg
    m = np.arange(n_rec) * (record_every * n_seg)
    seg = np.maximum(m - 1, 0) // max(n_steps, 1)
    tau = (m - seg * n_steps) * dt / n_seg
    occ = np.empty(n_rec)
    # the squared norm of the propagated state at the start and every segment end
    norms = [float(np.vdot(u, u).real + abs(beta) ** 2)]
    for s in range(n_seg):
        b, u, beta = _segment(coef, kn, cn, en, u, beta)
        recs = np.flatnonzero(seg == s)
        for lo in range(0, recs.size, RECORD_BLOCK):
            block = recs[lo:lo + RECORD_BLOCK]
            occ[block] = _record_block(b, half * tau[block])
        norms.append(float(np.vdot(u, u).real + abs(beta) ** 2))
    norms = np.array(norms)
    return (times, occ, norms[seg], u / sw, beta, coef.size, tail, n_seg * coef.size,
            float(np.max(np.abs(norms - norms[0]))))


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
    a = (big_l**2 + 2.0 * np.einsum("nk,k->n", np.cos(angle), f)) / (2 * m)
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
    """Normal distribution function Phi(z), analytically continued to
    complex z, elementwise; a scalar gives a complex scalar.

    Real arguments reduce to the standard CDF, with an imaginary part of
    exactly zero; Phi(z) + Phi(-z) = 1 and Phi(conj z) = conj Phi(z).
    Domain: |Im z| <= MAX_IMAG = 30, else DomainError.

    Phi(z) = 0.5*exp(-z**2/2)*w(-i*z/sqrt(2)) for Re z <= 0, where w's
    argument has Im >= 0; Re z > 0 reflects in Phi, as 1 - Phi(-z), not in w.
    Accuracy: relative error <= 1e-13 for Re z <= 0, |Im z| <= 3 and for
    real |z| <= 10; error <= 5e-13*max(1, |Phi(z)|, |Phi(-z)|) over
    |Re z| <= 40, |Im z| <= 30.
    """
    z = np.asarray(z, complex)
    if np.any(np.abs(z.imag) > MAX_IMAG):
        raise DomainError(f"|Im z| must be <= {MAX_IMAG}, got {np.abs(z.imag).max()}")
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
