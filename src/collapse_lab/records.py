"""Permanent-record criterion: spectral overlap and the Schwarz bound.

A measurement outcome can only be permanently recorded if the two
post-measurement universes have (nearly) disjoint energy spectra: the
product of their conditional record probabilities is bounded by
exp(-(B1-B2)^2/(8*lambda*dt)) times the Bhattacharyya overlap of the two
spectra, and the exponential tends to 1 as t grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import DiscreteSpectrum, DomainError

__all__ = [
    "RecordScenario",
    "bhattacharyya",
    "record_violation_bound",
    "verify_schwarz_chain",
]


@dataclass(frozen=True)
class RecordScenario:
    """Two candidate outcome universes at time t0 sharing an energy grid."""

    spectrum_plus: DiscreteSpectrum
    spectrum_minus: DiscreteSpectrum
    B_plus: float
    B_minus: float
    lam: float
    t0: float = 0.0

    def __post_init__(self):
        if self.spectrum_plus.energies != self.spectrum_minus.energies:
            raise DomainError("outcome spectra must share a common energy grid")
        if self.lam <= 0:
            raise DomainError("lambda must be positive")
        if self.t0 < 0:
            raise DomainError("t0 must be >= 0")


def bhattacharyya(rho1: DiscreteSpectrum, rho2: DiscreteSpectrum) -> float:
    """Spectral overlap sum sqrt(w1*w2); 1 iff identical, 0 iff disjoint."""
    if rho1.energies != rho2.energies:
        raise DomainError("spectra must share a common energy grid")
    _, w1 = rho1.as_arrays()
    _, w2 = rho2.as_arrays()
    return float(np.sum(np.sqrt(w1 * w2)))


def record_violation_bound(scenario: RecordScenario, t):
    """Closed-form bound at time t, and its supremum over all t > t0.

    Returns (value_at_t, sup); the value broadcasts over t.  A permanent
    record requires the value to stay near 0 for every t; the sup equals the
    Bhattacharyya overlap since the exponential factor increases to 1.
    """
    t = np.asarray(t, float)
    if np.any(t <= scenario.t0):
        raise DomainError("need t > t0")
    overlap = bhattacharyya(scenario.spectrum_plus, scenario.spectrum_minus)
    db2 = (scenario.B_plus - scenario.B_minus) ** 2
    value = np.exp(-db2 / (8.0 * scenario.lam * (t - scenario.t0))) * overlap
    return value, overlap


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
    integrand over its B-interval by adaptive quadrature (tol 1e-6); the sum
    must equal exp(-dB^2/(8*lambda*dt)) * overlap within 1e-4 relative.
    Returns (lhs_sum, rhs, holds).
    """
    if t <= scenario.t0:
        raise DomainError("need t > t0")
    if not _partition_ok(partition):
        raise DomainError("partition must be 3 disjoint intervals covering R")
    from scipy.integrate import quad  # lazy: keeps scipy off the import path

    dt = t - scenario.t0
    var = scenario.lam * dt
    e = np.asarray(scenario.spectrum_plus.energies, float)
    _, w1 = scenario.spectrum_plus.as_arrays()
    _, w2 = scenario.spectrum_minus.as_arrays()
    s = np.sqrt(w1 * w2)
    mask = s > 0
    e, s = e[mask], s[mask]
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    b1, b2 = scenario.B_plus, scenario.B_minus

    def integrand(b):
        z1 = (b - b1 - 2.0 * var * e) ** 2 / (4.0 * var)
        z2 = (b - b2 - 2.0 * var * e) ** 2 / (4.0 * var)
        return norm * float(np.sum(s * np.exp(-(z1 + z2))))

    lhs = 0.0
    if e.size:
        # keep quad's interval finite: beyond 40 sigma of every mixture mean
        # the integrand is identically 0 in double precision
        span = 40.0 * math.sqrt(var)
        means = np.array([[b1], [b2]]) + 2.0 * var * e
        lo_all, hi_all = float(means.min()) - span, float(means.max()) + span
        for lo, hi in partition:
            lo = max(float(lo), lo_all)
            hi = min(float(hi), hi_all)
            if lo >= hi:
                continue
            val, _ = quad(integrand, lo, hi, epsabs=1e-9, epsrel=1e-9, limit=400)
            lhs += val
    rhs, _ = record_violation_bound(scenario, t)
    holds = abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))
    return lhs, rhs, holds
