"""Excitation and decay of a bound state coupled to a photon continuum.

Closed-form evaluators for the exactly solvable linear-dispersion model
(coupling g = sqrt(Gamma/2/pi), photon energy k rather than |k| so decay is
exactly exponential) plus an independent numerical oracle: the mode ODEs on
a uniform k-grid, propagated by one Chebyshev series of exp(-i*H*t) per
segment of the span, whose beta components give every record's occupation in
the segment; a record's total probability is the propagated state's squared
norm at the start of its segment (`_kernels.kgrid_chebyshev`).

The "square root of a delta function" incident packet is regularized as the
square root of a normalized Gaussian pdf: with standard deviation
w = sigma/(2*sqrt(2*pi)) the packet f satisfies both integral f^2 = 1 and
(integral f)^2 = sigma, which is what the delta-packet closed forms assume.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import DomainError, _checked, _kernels
from ._kernels import log_normal_cdf, normal_cdf

__all__ = [
    "DecayModelParams",
    "KGrid",
    "KGridResult",
    "check_grid",
    "check_packet",
    "kgrid_span",
    "packet_width",
    "beta_decay_closed",
    "alpha_decay_closed",
    "photon_number_density",
    "beta_excitation",
    "occupation",
    "photon_position_density",
    "occupation_collapsed",
    "occupation_gaussian_asymptotic",
    "position_collapsed",
    "position_asymptotic",
    "integrate_kgrid",
]


@_checked
class DecayModelParams(NamedTuple):
    """Bound-state energy epsilon, decay rate Gamma, packet width sigma,
    bound-state location x0 and smearing width T_cal.

    Delta-packet closed forms assume sigma*epsilon << 1, sigma*Gamma << 1
    and sigma << T_cal; nothing below enforces the regime, callers choose.
    """

    epsilon: float
    Gamma: float
    sigma: float
    x0: float = 0.0
    T_cal: float = 0.0

    def _check(self):
        if not all(map(math.isfinite, self)):
            raise DomainError("epsilon, Gamma, sigma, x0 and T_cal must be finite")
        if self.epsilon <= 0 or self.Gamma <= 0 or self.sigma <= 0:
            raise DomainError("epsilon, Gamma and sigma must be positive")
        if self.T_cal < 0:
            raise DomainError("T_cal must be >= 0")

    @property
    def g(self) -> float:
        return math.sqrt(self.Gamma / (2.0 * math.pi))


def packet_width(p: DecayModelParams) -> float:
    """Standard deviation of the regularized incident packet."""
    return p.sigma / (2.0 * math.sqrt(2.0 * math.pi))


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
        k = np.linspace(self.k_min, self.k_max, self.n_modes)
        dk = k[1] - k[0]
        w = np.full(self.n_modes, dk)
        w[0] = w[-1] = 0.5 * dk
        return k, w


class KGridResult(NamedTuple):
    """Grid-integration output: series of |beta|^2 and total probability
    (the propagated state's squared norm at the start of the record's
    segment), plus the terms and first dropped |J_n| of a segment's Chebyshev
    series (`_kernels.chebyshev_series`; every segment has the same length,
    so the longest), the recurrence steps (O(n_modes) matvecs) of all
    segments and the largest drift of the propagated state's squared norm
    from its initial value at a segment end, the conservation check
    (`_kernels.kgrid_chebyshev`)."""

    times: np.ndarray  # shifted times s = t - T
    occupation: np.ndarray
    total_probability: np.ndarray
    k: np.ndarray
    alpha_final: np.ndarray
    chebyshev_terms: int
    chebyshev_tail: float
    chebyshev_matvecs: int
    norm_drift: float


# --- decay without excitation ----------------------------------------------


def beta_decay_closed(s: float, p: DecayModelParams) -> complex:
    """Excited amplitude for the pure-decay initial condition beta(T) = 1."""
    if s < 0:
        raise DomainError("pure-decay form defined for s >= 0")
    return cmath.exp(-(0.5 * p.Gamma + 1j * p.epsilon) * s)


def alpha_decay_closed(k, s: float, p: DecayModelParams):
    """Photon amplitudes alpha_k(s) for the pure-decay initial condition."""
    if s < 0:
        raise DomainError("pure-decay form defined for s >= 0")
    k = np.asarray(k, float)
    num = -np.exp(-(0.5 * p.Gamma + 1j * p.epsilon) * s) + np.exp(-1j * k * s)
    return p.g * np.exp(-1j * k * p.x0) * num / (k - p.epsilon + 0.5j * p.Gamma)


def photon_number_density(k, s: float, p: DecayModelParams):
    """Photon number density for pure decay; Lorentzian at large s."""
    k = np.asarray(k, float)
    lor = 2.0 * math.pi * p.Gamma / ((k - p.epsilon) ** 2 + (0.5 * p.Gamma) ** 2)
    bracket = (
        1.0
        + math.exp(-p.Gamma * s)
        - 2.0 * math.exp(-0.5 * p.Gamma * s) * np.cos((k - p.epsilon) * s)
    )
    return lor * bracket


def photon_position_density(x, s: float, p: DecayModelParams,
                            variant: str = "decay-only"):
    """Squared photon wavefunction in position space.

    decay-only: Gamma*exp(-Gamma*(s - (x-x0))) on x0 < x < x0 + s, else 0.
    excitation: returns a dict with the incident, interference and decay-tail
    terms plus their sum (interference delta regularized at the packet
    width).
    """
    x = np.asarray(x, float)
    u = s - (x - p.x0)
    if variant == "decay-only":
        inside = (x > p.x0) & (x < p.x0 + s)
        return np.where(inside, p.Gamma * np.exp(-p.Gamma * u), 0.0)
    if variant != "excitation":
        raise DomainError(f"unknown variant {variant!r}")
    w = packet_width(p)
    gauss = np.exp(-0.5 * (u / w) ** 2) / (w * math.sqrt(2.0 * math.pi))
    after = (x > p.x0).astype(float)
    incident = gauss
    interference = -p.Gamma * p.sigma * after * gauss
    tail = p.Gamma**2 * p.sigma * after * np.where(u > 0, np.exp(-p.Gamma * u), 0.0)
    return {
        "incident": incident,
        "interference": interference,
        "decay_tail": tail,
        "total": incident + interference + tail,
    }


# --- excitation followed by decay ------------------------------------------


def beta_excitation(s, p: DecayModelParams, packet: str = "delta"):
    """Excited amplitude for an incident packet arriving at s = 0.

    packet="delta" gives the narrow-packet closed form
    |beta|^2 = Gamma*sigma*Theta(s)*exp(-Gamma*s); packet="gaussian"
    evaluates the exact convolution for the regularized Gaussian packet
    (converges to the delta form as sigma*Gamma -> 0).  Broadcasts over s.
    """
    s = np.asarray(s, float)
    z = 0.5 * p.Gamma + 1j * p.epsilon
    if packet == "delta":
        # exp(-z*s) is only taken at s >= 0, where it cannot overflow
        amp = -1j * math.sqrt(p.Gamma * p.sigma) * np.exp(-z * np.maximum(s, 0.0))
        return np.where(s < 0, 0j, amp)[()]
    if packet != "gaussian":
        raise DomainError(f"unknown packet {packet!r}")
    w = packet_width(p)
    amp = (2.0 * math.pi * w * w) ** -0.25  # sqrt-of-pdf normalization
    sg = math.sqrt(2.0) * w
    pref = amp * sg * math.sqrt(2.0 * math.pi)
    phi = normal_cdf((s - z * sg * sg) / sg)
    return -1j * math.sqrt(p.Gamma) * pref * np.exp(0.5 * (z * sg) ** 2 - z * s) * phi


def occupation(s, p: DecayModelParams, packet: str = "delta"):
    """Excited-state occupation |beta(s)|^2 under ordinary evolution."""
    return np.abs(beta_excitation(s, p, packet)) ** 2


def occupation_collapsed(s, p: DecayModelParams):
    """Smeared occupation Gamma*sigma*exp(-Gamma*s + (Gamma*T)^2/2)
    * Phi(s/T - Gamma*T); evaluated in log space so large Gamma*T is safe.

    T_cal = 0 falls back to the unsmeared delta-packet occupation.
    Broadcasts over s.
    """
    g, t = p.Gamma, p.T_cal
    if t == 0.0:
        return occupation(s, p)
    s = np.asarray(s, float)
    log_val = math.log(g * p.sigma) - g * s + 0.5 * (g * t) ** 2
    return np.exp(log_val + log_normal_cdf(s / t - g * t))


def occupation_gaussian_asymptotic(s: float, p: DecayModelParams) -> float:
    """Large Gamma*T_cal limit of the smeared occupation: a Gaussian of
    width T_cal (the decay no longer shows; the curve is the broadened
    incident packet)."""
    if p.T_cal <= 0:
        raise DomainError("asymptotic form needs T_cal > 0")
    t = p.T_cal
    return p.sigma / math.sqrt(2.0 * math.pi * t * t) * math.exp(-0.5 * (s / t) ** 2)


def position_collapsed(x, s: float, p: DecayModelParams):
    """Smeared photon position density, by labeled term.

    The broadened-packet term carries the (regularized) interference delta;
    the decay tail is Gamma*Theta(x - x0) times the smeared occupation
    `occupation_collapsed` at u = s - (x - x0).
    """
    if p.T_cal <= 0:
        raise DomainError("smeared form needs T_cal > 0")
    x = np.asarray(x, float)
    t, g = p.T_cal, p.Gamma
    u = s - (x - p.x0)
    after = (x > p.x0).astype(float)
    gauss = np.exp(-0.5 * (u / t) ** 2) / (t * math.sqrt(2.0 * math.pi))
    packet = gauss * (1.0 - g * p.sigma * after)
    tail = g * after * occupation_collapsed(u, p)
    return {"packet": packet, "decay_tail": tail, "total": packet + tail}


def position_asymptotic(x, s: float, p: DecayModelParams):
    """Large Gamma*T_cal limit of the smeared position density."""
    if p.T_cal <= 0:
        raise DomainError("asymptotic form needs T_cal > 0")
    x = np.asarray(x, float)
    t, g = p.T_cal, p.Gamma
    u = s - (x - p.x0)
    after = (x > p.x0).astype(float)
    gauss = np.exp(-0.5 * (u / t) ** 2) / (t * math.sqrt(2.0 * math.pi))
    packet = 1.0 - g * p.sigma * after
    blip = g * p.sigma * after * (1.0 + u / (g * t * t))
    return gauss * (packet + blip)


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
    stays within `_kernels.SEGMENT_Z`; one Chebyshev recurrence per segment
    gives all of its records' occupations from the beta components
    (`_kernels.kgrid_chebyshev`).

    packet="decay" starts from beta = 1 with no photons; packet="excitation"
    starts the regularized Gaussian packet left of x0, timed to arrive at
    s = 0 (returned times are shifted accordingly).  Total probability
    (trapezoid k-sum plus |beta|^2) is reported per record as its value at
    the start of the record's segment, and its largest drift at a segment end
    is `norm_drift`, the conservation check; the total simulated span must
    stay below the grid recurrence time (`kgrid_span`), and an excitation
    packet must be wide enough for the grid (`check_packet`).
    """
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
    times, occ, prob, alpha, _, *series = _kernels.kgrid_chebyshev(
        k, wk, p.g, p.epsilon, p.x0, beta0, alpha0, grid.dt, n_steps, record_every
    )
    return KGridResult(times - lead, occ, prob, k, alpha, *series)
