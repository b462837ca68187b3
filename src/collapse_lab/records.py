"""Permanent-record criterion: spectral overlap and the Schwarz bound.

A measurement outcome can only be permanently recorded if the two
post-measurement universes have (nearly) disjoint energy spectra: the
product of their conditional record probabilities is bounded by
exp(-(B1-B2)^2/(8*lambda*dt)) times the Bhattacharyya overlap of the two
spectra, and the exponential tends to 1 as t grows.

The bound is a closed form computed in `math`; only the numerical check
`verify_schwarz_chain` computes with arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import (_CLOSED_ROW_BYTES, ConfigError, DomainError, Experiment, _checked, _choice,
               _float, _grid, _int_pos, _nonneg, _positive, _t_cal)
from . import _np as np
from .hilbert import DiscreteSpectrum

__all__ = [
    "RecordScenario",
    "bhattacharyya",
    "record_violation_bound",
    "verify_schwarz_chain",
]

#: Gauss-Legendre nodes per panel of `verify_schwarz_chain`
_PANEL_NODES = 16
#: (node, level) integrand values per block of `verify_schwarz_chain` (512 KiB)
_BLOCK_VALUES = 2**16


@_checked
class RecordScenario(NamedTuple):
    """Two candidate outcome universes at time t0 sharing an energy grid."""

    spectrum_plus: DiscreteSpectrum
    spectrum_minus: DiscreteSpectrum
    B_plus: float
    B_minus: float
    lam: float
    t0: float = 0.0

    def _check(self):
        if self.spectrum_plus.energies != self.spectrum_minus.energies:
            raise DomainError("outcome spectra must share a common energy grid")
        if not all(map(math.isfinite, (self.B_plus, self.B_minus, self.lam, self.t0))):
            raise DomainError("B_plus, B_minus, lambda and t0 must be finite")
        if self.lam <= 0:
            raise DomainError("lambda must be positive")
        if self.t0 < 0:
            raise DomainError("t0 must be >= 0")


def bhattacharyya(rho1: DiscreteSpectrum, rho2: DiscreteSpectrum) -> float:
    """Spectral overlap sum sqrt(w1*w2), correctly rounded (`math.fsum`);
    1 iff identical, 0 iff disjoint."""
    if rho1.energies != rho2.energies:
        raise DomainError("spectra must share a common energy grid")
    return math.fsum(math.sqrt(a * b) for a, b in zip(rho1.weights, rho2.weights))


def record_violation_bound(scenario: RecordScenario, times) -> tuple[list[float], float]:
    """Closed-form bound at each of `times`, and its supremum over all t > t0.

    Returns (values, sup), the values a list of floats in the order of
    `times`.  A permanent record requires the value to stay near 0 for every
    t; the sup equals the Bhattacharyya overlap, computed once, since the
    exponential factor increases to 1.
    """
    times = [float(t) for t in times]
    t0 = scenario.t0
    if any(not t > t0 for t in times):
        raise DomainError("need t > t0")
    overlap = bhattacharyya(scenario.spectrum_plus, scenario.spectrum_minus)
    db2 = (scenario.B_plus - scenario.B_minus) ** 2
    rate = 8.0 * scenario.lam
    return [math.exp(-db2 / (rate * (t - t0))) * overlap for t in times], overlap


def _partition_ok(partition) -> bool:
    iv = sorted((float(lo), float(hi)) for lo, hi in partition)
    return (len(iv) == 3 and iv[0][0] == -math.inf and iv[-1][1] == math.inf
            and all(hi == lo for (_, hi), (lo, _) in zip(iv, iv[1:]))
            and all(lo < hi for lo, hi in iv))


def verify_schwarz_chain(
    scenario: RecordScenario, t: float, partition
) -> tuple[float, float, bool]:
    """Integrate the three Schwarz-bounded record integrals and compare their
    sum against the closed form.

    ``partition`` is three (lo, hi) intervals covering the real record line
    (outer bounds are +-inf).  Each integral runs the Gaussian-product
    integrand over its B-interval, clipped to 40 standard deviations
    sqrt(lambda*dt) beyond every mixture mean, by a composite Gauss-Legendre
    rule of _PANEL_NODES nodes on panels no wider than one standard
    deviation, evaluated over (node, level) blocks of at most _BLOCK_VALUES;
    the sum must equal exp(-dB^2/(8*lambda*dt)) * overlap within 1e-4
    relative.  Returns (lhs_sum, rhs, holds).
    """
    if t <= scenario.t0:
        raise DomainError("need t > t0")
    if not _partition_ok(partition):
        raise DomainError("partition must be 3 disjoint intervals covering R")
    dt = t - scenario.t0
    var = scenario.lam * dt
    e, w1 = scenario.spectrum_plus.as_arrays()
    s = np.sqrt(w1 * scenario.spectrum_minus.as_arrays()[1])
    mask = s > 0
    e, s = e[mask], s[mask]
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    b1, b2 = scenario.B_plus, scenario.B_minus

    lhs = 0.0
    if e.size:
        # beyond 40 sigma of every mixture mean the integrand is identically 0
        # in double precision
        sigma = math.sqrt(var)
        span = 40.0 * sigma
        means = np.array([[b1], [b2]]) + 2.0 * var * e
        lo_all, hi_all = float(means.min()) - span, float(means.max()) + span
        x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
        nodes, weights = [], []
        for lo, hi in partition:
            lo, hi = max(float(lo), lo_all), min(float(hi), hi_all)
            if lo < hi:
                edges = np.linspace(lo, hi, math.ceil((hi - lo) / sigma) + 1)
                half = 0.5 * np.diff(edges)[:, None]
                nodes.append((edges[:-1, None] + half * (1.0 + x)).ravel())
                weights.append((half * w).ravel())
        nodes, weights = np.concatenate(nodes), np.concatenate(weights)
        block = max(1, _BLOCK_VALUES // e.size)
        for i in range(0, nodes.size, block):
            b = nodes[i:i + block, None]
            z1 = (b - b1 - 2.0 * var * e) ** 2 / (4.0 * var)
            z2 = (b - b2 - 2.0 * var * e) ** 2 / (4.0 * var)
            lhs += norm * float(weights[i:i + block] @ (np.exp(-(z1 + z2)) @ s))
    (rhs,), _ = record_violation_bound(scenario, [t])
    holds = abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))
    return lhs, rhs, holds


# --- the CLI's records experiment -------------------------------------------


#: (plus, minus) index ranges of the builtin record spectra on their shared
#: 1500-point grid; half_overlap shares 500 points, so its overlap is exactly 0.5
_RECORD_SPECTRA = {"disjoint": ((0, 750), (750, 1500)), "identical": ((0, 1500), (0, 1500)),
                   "half_overlap": ((0, 1000), (500, 1500))}


def _build_records(p):
    """The `RecordScenario` of the builtin `spectra` pair, with equal weights
    on each of its `_RECORD_SPECTRA` index ranges."""
    if p["b_plus"] == p["b_minus"]:
        raise ConfigError("keys 'b_plus' and 'b_minus' must differ")
    if p["t_max"] <= p["t0"]:
        raise ConfigError("key 't_max' must exceed 't0'")
    n = 1500
    grid = tuple(i * 1e-3 for i in range(n))
    plus, minus = (
        DiscreteSpectrum(grid, (0.0,) * lo + (1.0 / (hi - lo),) * (hi - lo) + (0.0,) * (n - hi))
        for lo, hi in _RECORD_SPECTRA[p["spectra"]])
    return RecordScenario(plus, minus, p["b_plus"], p["b_minus"], p["lambda"], p["t0"])


def _run_records(cfg):
    p, scenario = cfg.parameters, cfg.model
    dt0 = (p["t_max"] - p["t0"]) / p["n_t"]
    ts = _grid(p["t0"] + dt0, p["t_max"], p["n_t"])
    cols = ["t (time)", "record_bound (dimensionless)"]
    bound, sup = record_violation_bound(scenario, ts)
    summary = {"bound_sup": sup, "T_cal": _t_cal(p)}
    return cols, list(zip(ts, bound)), summary


EXPERIMENTS = {"records": Experiment(
    {"spectra": (_choice("disjoint", "identical", "half_overlap"), True, None),
     "lambda": (_positive, True, None),
     "b_plus": (_float, True, None),
     "b_minus": (_float, True, None),
     "t0": (_nonneg, False, 0.0),
     "t_max": (_positive, True, None),
     "n_t": (_int_pos, False, 100)},
    build=_build_records, run=_run_records,
    array_bytes=lambda p, model: {"'n_t'": _CLOSED_ROW_BYTES * p["n_t"]})}
