"""The k-grid oracle for the decay model: the mode ODEs on a uniform k-grid.

An independent numerical check of `decay`'s closed forms: the coupled mode
ODEs of the linear-dispersion model on a uniform k-grid (`KGrid`),
propagated by one Chebyshev series of exp(-i*H*t) per segment of the span,
whose beta components give every record's occupation in the segment; a
record's total probability is the propagated state's squared norm at the
start of its segment (`kgrid_chebyshev`).  Only a k-grid `decay` run loads
this module; a closed-form run needs none of it, so the k-grid mode's build
checks, array estimate and runner of `decay`'s CLI record live here.

The module imports no numpy when loaded: `KGrid`, `check_grid`,
`check_packet`, `kgrid_span` and `chebyshev_size`, the checks and sizes a
config's build and array estimate use, compute in `math`, and the functions
that compute with arrays import numpy when called.  So no config's
`validate` loads numpy, and only the collapse, ensemble and k-grid runners do.

Kernels:
  * bessel_j            -- J_0 ... J_n at an array of real arguments, by one
                           Miller backward recurrence.
  * chebyshev_series    -- Chebyshev coefficients of exp(-i*H*tau) for the
                           k-grid decay Hamiltonian H, tau one segment of a span.
  * chebyshev_size      -- that series' interval, segment count and Bessel
                           orders, which the array estimate shares.
  * kgrid_chebyshev     -- the k-grid decay ODEs propagated exactly (to the
                           1e-15 series truncation), one recurrence per segment.
"""

from __future__ import annotations

import cmath
import math
from typing import Any, NamedTuple

from . import ConfigError, DomainError, _checked, _numpy_runner
from .decay import DecayModelParams, packet_width

__all__ = [
    "KGrid",
    "KGridResult",
    "check_grid",
    "check_packet",
    "kgrid_span",
    "integrate_kgrid",
    "bessel_j",
    "chebyshev_size",
    "chebyshev_series",
    "kgrid_chebyshev",
]

#: a Chebyshev series stops where the Bessel factors |J_n| fall below this
CHEBYSHEV_TOL = 1e-15
#: the largest Bessel argument half*tau of one segment's series; it caps the
#: series length (`chebyshev_size`), and so a record block's Bessel factors,
#: whatever the span
SEGMENT_Z = 256.0
#: records whose Bessel factors are evaluated together
RECORD_BLOCK = 64


@_checked
class KGrid(NamedTuple):
    """Uniform photon momentum grid and the record-spacing unit dt."""

    k_min: float
    k_max: float
    n_modes: int = 4096
    dt: float = 5e-4

    def _check(self):
        if not all(map(math.isfinite, (self.k_min, self.k_max, self.dt))):
            raise DomainError("k_min, k_max and dt must be finite")
        if self.n_modes < 64:
            raise DomainError("n_modes must be >= 64")
        if self.k_max <= self.k_min:
            raise DomainError("k_max must exceed k_min")
        if self.dt <= 0:
            raise DomainError("dt must be positive")

    @classmethod
    def for_params(cls, p: DecayModelParams, half_width_rates: float = 40.0,
                   n_modes: int = 4096, dt: float = 5e-4) -> "KGrid":
        hw = half_width_rates * p.Gamma
        return cls(p.epsilon - hw, p.epsilon + hw, n_modes, dt)

    @property
    def recurrence_time(self) -> float:
        return 2.0 * math.pi * self.n_modes / (self.k_max - self.k_min)

    def points_and_weights(self):
        import numpy as np
        k = np.linspace(self.k_min, self.k_max, self.n_modes)
        dk = k[1] - k[0]
        w = np.full(self.n_modes, dk)
        w[0] = w[-1] = 0.5 * dk
        return k, w


class KGridResult(NamedTuple):
    """Grid-integration output: numpy arrays of |beta|^2 and total probability
    (the propagated state's squared norm at the start of the record's
    segment) at the times, of the grid k and of the final photon amplitudes,
    plus the terms and first dropped |J_n| of a segment's Chebyshev series
    (`chebyshev_series`; every segment has the same length, so the longest),
    the recurrence steps (O(n_modes) matvecs) of all segments and the largest
    drift of the propagated state's squared norm from its initial value at a
    segment end, the conservation check (`kgrid_chebyshev`)."""

    times: Any  # shifted times s = t - T
    occupation: Any
    total_probability: Any
    k: Any
    alpha_final: Any
    chebyshev_terms: int
    chebyshev_tail: float
    chebyshev_matvecs: int
    norm_drift: float


# --- Chebyshev propagator --------------------------------------------------


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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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


# --- k-grid oracle ---------------------------------------------------------


def check_grid(p: DecayModelParams, grid: KGrid):
    """Raise DomainError unless the grid covers epsilon +- 20*Gamma."""
    if min(p.epsilon - grid.k_min, grid.k_max - p.epsilon) < 20.0 * p.Gamma:
        raise DomainError("grid must cover epsilon +- 20*Gamma")


def check_packet(p: DecayModelParams, grid: KGrid, packet: str):
    """Raise DomainError if an excitation packet is too narrow for the grid:
    its momentum profile exp(-(k*w)^2) must fall below 1e-12 at the grid
    half-span."""
    half_span = (grid.k_max - grid.k_min) / 2.0
    if packet == "excitation" and math.exp(-(half_span * packet_width(p)) ** 2) > 1e-12:
        raise DomainError("packet too narrow for the k-grid span")


def kgrid_span(p: DecayModelParams, grid: KGrid, packet: str, t_final: float,
               record_every: int | None = None) -> tuple[float, float, int]:
    """(lead before s = 0, total span, step count round(span/dt)) of
    `integrate_kgrid`: the excitation packet starts 10 packet widths early.
    Raises DomainError for an unknown packet, a span beyond the grid
    recurrence time, a non-finite step count or, if given, a `record_every`
    outside 1 .. step count (a record spacing beyond the span would record
    only t = 0)."""
    if packet not in ("decay", "excitation"):
        raise DomainError(f"unknown packet {packet!r}")
    lead = 10.0 * packet_width(p) if packet == "excitation" else 0.0
    span = t_final + lead
    if span > grid.recurrence_time:
        raise DomainError(
            f"simulated span {span} exceeds grid recurrence time "
            f"{grid.recurrence_time}"
        )
    steps = span / grid.dt
    if not math.isfinite(steps):
        raise DomainError(f"simulated span {span} gives a non-finite step "
                          f"count span/dt = {steps}")
    n_steps = round(steps)
    if record_every is not None and not 1 <= record_every <= n_steps:
        raise DomainError(f"record_every must lie between 1 and the step count "
                          f"round(span/dt) = {n_steps}, got {record_every}")
    return lead, span, n_steps


def integrate_kgrid(
    p: DecayModelParams,
    grid: KGrid,
    packet: str = "decay",
    t_final: float = 5.0,
    record_every: int = 20,
) -> KGridResult:
    """Propagate the coupled mode ODEs over n_steps = round(span/dt) units of
    the record-spacing unit `grid.dt` (`kgrid_span`), recording every
    `record_every` steps.
    The span is cut into the fewest equal segments whose Bessel argument
    stays within `SEGMENT_Z`; one Chebyshev recurrence per segment
    gives all of its records' occupations from the beta components
    (`kgrid_chebyshev`).

    packet="decay" starts from beta = 1 with no photons; packet="excitation"
    starts the regularized Gaussian packet left of x0, timed to arrive at
    s = 0 (returned times are shifted accordingly).  Total probability
    (trapezoid k-sum plus |beta|^2) is reported per record as its value at
    the start of the record's segment, and its largest drift at a segment end
    is `norm_drift`, the conservation check; the total simulated span must
    stay below the grid recurrence time (`kgrid_span`), and an excitation
    packet must be wide enough for the grid (`check_packet`).
    """
    import numpy as np
    check_grid(p, grid)
    check_packet(p, grid, packet)
    lead, _, n_steps = kgrid_span(p, grid, packet, t_final, record_every)
    k, wk = grid.points_and_weights()
    if packet == "decay":
        beta0 = 1.0 + 0.0j
        alpha0 = np.zeros_like(k, dtype=complex)
    else:
        w = packet_width(p)
        amp = (2.0 * math.pi * w * w) ** -0.25
        f_hat = amp * 2.0 * w * math.sqrt(math.pi) * np.exp(-(k * w) ** 2)
        alpha0 = (
            f_hat
            / math.sqrt(2.0 * math.pi)
            * np.exp(-1j * k * (p.x0 - lead))
        )
        beta0 = 0.0 + 0.0j
    times, occ, prob, alpha, _, *series = kgrid_chebyshev(
        k, wk, p.g, p.epsilon, p.x0, beta0, alpha0, grid.dt, n_steps, record_every
    )
    return KGridResult(times - lead, occ, prob, k, alpha, *series)


# --- the k-grid mode of the CLI's decay experiment ---------------------------


def _build_grid(p, dp: DecayModelParams) -> KGrid:
    """The `KGrid` of a k-grid `decay` config; this module's own checks
    decide, so a config accepted here passes `integrate_kgrid`'s, and each
    refusal names the key it tests."""
    key = "n_modes"
    try:
        KGrid(0.0, 1.0, p["n_modes"], p["dt"])  # the n_modes check alone
        key = "half_width"
        grid = KGrid.for_params(dp, p["half_width"], p["n_modes"], p["dt"])
        check_grid(dp, grid)
        key = "packet"
        check_packet(dp, grid, p["packet"])
        key = "s_max"
        kgrid_span(dp, grid, p["packet"], p["s_max"])
        key = "record_every"
        kgrid_span(dp, grid, p["packet"], p["s_max"], p["record_every"])
    except DomainError as exc:
        raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
    return grid


def _kgrid_bytes(p, model):
    # grid, coupling, state, three Chebyshev recurrence vectors and the
    # accumulated state, with their temporaries, per mode; times, Bessel
    # arguments and three columns per record; and one record block's Bessel
    # factors and products, n the orders computed for a segment's series
    dp, grid = model
    _, span, n_steps = kgrid_span(dp, grid, p["packet"], p["s_max"])
    *_, n = chebyshev_size(grid.k_min, grid.k_max, dp.g, dp.epsilon, span)
    n_rec = n_steps // p["record_every"] + 1
    return {"'n_modes'": 8 * 25 * p["n_modes"],
            "'record_every'": 8 * 12 * n_rec,
            "'s_max'": 8 * RECORD_BLOCK * 2 * max(n, 32)}


@_numpy_runner
def _run_kgrid(cfg):
    import numpy as np

    p, (dp, grid) = cfg.parameters, cfg.model
    res = integrate_kgrid(dp, grid, p["packet"], p["s_max"], p["record_every"])
    cols = ["t (time)", "occupation (dimensionless)",
            "total_probability (dimensionless)"]
    table = np.column_stack([res.times, res.occupation, res.total_probability])
    span = res.times[-1] - res.times[0]
    summary = {"probability_drift_per_unit_time": res.norm_drift / span,
               "recurrence_time": grid.recurrence_time,
               "chebyshev_terms": res.chebyshev_terms, "chebyshev_tail": res.chebyshev_tail,
               "chebyshev_matvecs": res.chebyshev_matvecs}
    return cols, table, summary
