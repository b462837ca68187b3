"""Excitation and decay of a bound state coupled to a photon continuum.

Closed-form evaluators for the exactly solvable linear-dispersion model
(coupling g = sqrt(Gamma/2/pi), photon energy k rather than |k| so decay is
exactly exponential).  The independent numerical oracle, the mode ODEs on a
uniform k-grid, is the `kgrid` layer, so a closed-form run loads none of it.
The closed forms a run tabulates (`beta_excitation`, `occupation`,
`occupation_collapsed`) take one float and compute in `math` and `cmath`;
the photon amplitudes and densities return numpy arrays and import numpy
when called, so the module imports none.  It holds the CLI's `decay` record
(`EXPERIMENTS`), whose k-grid mode imports its parts from `kgrid`.

The "square root of a delta function" incident packet is regularized as the
square root of a normalized Gaussian pdf: with standard deviation
w = sigma/(2*sqrt(2*pi)) the packet f satisfies both integral f^2 = 1 and
(integral f)^2 = sigma, which is what the delta-packet closed forms assume.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import (_CLOSED_ROW_BYTES, ConfigError, DomainError, Experiment, _checked, _choice,
               _float, _grid, _int_pos, _n_grid, _nonneg, _positive, _t_cal)
from ._kernels import log_normal_cdf, normal_cdf

__all__ = [
    "DecayModelParams",
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


# --- decay without excitation ----------------------------------------------


def beta_decay_closed(s: float, p: DecayModelParams) -> complex:
    """Excited amplitude for the pure-decay initial condition beta(T) = 1."""
    if s < 0:
        raise DomainError("pure-decay form defined for s >= 0")
    return cmath.exp(-(0.5 * p.Gamma + 1j * p.epsilon) * s)


def alpha_decay_closed(k, s: float, p: DecayModelParams):
    """Photon amplitudes alpha_k(s) for the pure-decay initial condition."""
    import numpy as np

    if s < 0:
        raise DomainError("pure-decay form defined for s >= 0")
    k = np.asarray(k, float)
    num = -np.exp(-(0.5 * p.Gamma + 1j * p.epsilon) * s) + np.exp(-1j * k * s)
    return p.g * np.exp(-1j * k * p.x0) * num / (k - p.epsilon + 0.5j * p.Gamma)


def photon_number_density(k, s: float, p: DecayModelParams):
    """Photon number density for pure decay; Lorentzian at large s."""
    import numpy as np

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
    import numpy as np

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


def beta_excitation(s: float, p: DecayModelParams, packet: str = "delta") -> complex:
    """Excited amplitude for an incident packet arriving at s = 0.

    packet="delta" gives the narrow-packet closed form
    |beta|^2 = Gamma*sigma*Theta(s)*exp(-Gamma*s); packet="gaussian"
    evaluates the exact convolution for the regularized Gaussian packet
    (converges to the delta form as sigma*Gamma -> 0).
    """
    s = float(s)  # a numpy float would compute in numpy's scalar arithmetic
    z = 0.5 * p.Gamma + 1j * p.epsilon
    if packet == "delta":
        # exp(-z*s) is only taken at s >= 0, where it cannot overflow
        if s < 0:
            return 0j
        return -1j * math.sqrt(p.Gamma * p.sigma) * cmath.exp(-z * s)
    if packet != "gaussian":
        raise DomainError(f"unknown packet {packet!r}")
    w = packet_width(p)
    amp = (2.0 * math.pi * w * w) ** -0.25  # sqrt-of-pdf normalization
    sg = math.sqrt(2.0) * w
    pref = amp * sg * math.sqrt(2.0 * math.pi)
    phi = normal_cdf((s - z * sg * sg) / sg)
    return -1j * math.sqrt(p.Gamma) * pref * cmath.exp(0.5 * (z * sg) ** 2 - z * s) * phi


def occupation(s: float, p: DecayModelParams, packet: str = "delta") -> float:
    """Excited-state occupation |beta(s)|^2 under ordinary evolution."""
    amp = abs(beta_excitation(s, p, packet))
    return amp * amp


def occupation_collapsed(s: float, p: DecayModelParams) -> float:
    """Smeared occupation Gamma*sigma*exp(-Gamma*s + (Gamma*T)^2/2)
    * Phi(s/T - Gamma*T); evaluated in log space so large Gamma*T is safe.

    T_cal = 0 falls back to the unsmeared delta-packet occupation.
    """
    g, t = p.Gamma, p.T_cal
    if t == 0.0:
        return occupation(s, p)
    s = float(s)  # a numpy float would compute in numpy's scalar arithmetic
    log_val = math.log(g * p.sigma) - g * s + 0.5 * (g * t) ** 2
    return math.exp(log_val + log_normal_cdf(s / t - g * t))


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
    import numpy as np

    if p.T_cal <= 0:
        raise DomainError("smeared form needs T_cal > 0")
    x = np.asarray(x, float)
    t, g = p.T_cal, p.Gamma
    u = s - (x - p.x0)
    after = (x > p.x0).astype(float)
    gauss = np.exp(-0.5 * (u / t) ** 2) / (t * math.sqrt(2.0 * math.pi))
    packet = gauss * (1.0 - g * p.sigma * after)
    occ = np.array([occupation_collapsed(v, p) for v in u.flat]).reshape(u.shape)
    tail = g * after * occ
    return {"packet": packet, "decay_tail": tail, "total": packet + tail}


def position_asymptotic(x, s: float, p: DecayModelParams):
    """Large Gamma*T_cal limit of the smeared position density."""
    import numpy as np

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


# --- the CLI's decay experiment ---------------------------------------------


#: the keys that one decay mode alone reads, with their defaults there; their
#: schema default is None, so a key given for the other mode is told apart
_DECAY_MODE_KEYS = {
    "closed": {"t_cal": 0.0, "n_s": 200},
    "kgrid": {"x0": 0.0, "n_modes": 4096, "half_width": 40.0, "dt": 5e-4,
              "record_every": 20, "packet": "decay"}}


def _build_decay(p):
    """`DecayModelParams` and, in k-grid mode, the `KGrid` (`kgrid`'s build).
    A key its mode does not read is refused; every absent mode key takes its
    default, echoed in the summary."""
    for mode, defaults in _DECAY_MODE_KEYS.items():
        for key, default in defaults.items():
            if p[key] is None:
                p[key] = default
            elif mode != p["mode"]:
                raise ConfigError(f"key '{key}' is not read in mode = {p['mode']}")
    dp = DecayModelParams(p["epsilon"], p["gamma"], p["sigma"], p["x0"], p["t_cal"])
    if p["mode"] == "closed":
        return dp, None
    from .kgrid import _build_grid
    return dp, _build_grid(p, dp)


def _decay_bytes(p, model):
    if p["mode"] == "closed":
        return {"'n_s'": _CLOSED_ROW_BYTES * p["n_s"]}
    from .kgrid import _kgrid_bytes
    return _kgrid_bytes(p, model)


def _run_decay(cfg):
    p, (dp, grid) = cfg.parameters, cfg.model
    if grid is not None:
        from .kgrid import _run_kgrid
        return _run_kgrid(cfg)
    cols = ["t (time)", "occupation (dimensionless)",
            "occupation_collapsed (dimensionless)"]
    table = [(s, occupation(s, dp), occupation_collapsed(s, dp))
             for s in _grid(-p["s_max"], p["s_max"], p["n_s"])]
    summary = {"T_cal": _t_cal(p), "Gamma_T_cal": p["gamma"] * _t_cal(p)}
    return cols, table, summary


EXPERIMENTS = {"decay": Experiment(
    {"epsilon": (_positive, True, None),
     "gamma": (_positive, True, None),
     "sigma": (_positive, True, None),
     "x0": (_float, False, None),
     "t_cal": (_nonneg, False, None),
     "mode": (_choice("closed", "kgrid"), False, "closed"),
     "s_max": (_positive, True, None),
     "n_s": (_n_grid, False, None),
     "n_modes": (_int_pos, False, None),
     "half_width": (_positive, False, None),
     "dt": (_positive, False, None),
     "record_every": (_int_pos, False, None),
     "packet": (_choice("decay", "excitation"), False, None)},
    build=_build_decay, array_bytes=_decay_bytes, run=_run_decay,
    # the k-grid oracle applies no collapse smearing, so it has no T_cal
    t_cal=lambda p: None if p["mode"] == "kgrid" else _t_cal(p))}
