"""Nonunitary collapse evolution and the stochastic record process B(t).

The evolution multiplies each energy amplitude by a Gaussian centered on
B/(2*lambda*t), so the state at time t is fixed by the record B alone.  The
record increment over a step of length dt follows the exact Gaussian-mixture
law of `record_marginal_density`.  `ensemble.simulate_trajectories` samples
the whole path as that mixture of drifted Brownian motions: one Born draw of
the level E_J per trajectory, then B = 2*lambda*E_J*t + sqrt(lambda)*W(t)
from one uniform and the normals after it, exactly at any step size (no SDE
discretization error).

The module imports neither numpy nor `hilbert` when loaded: `CollapseParams`
and `collapse_exponent` at Python floats need neither, and the functions that
take states or arrays import them when called.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import DomainError, _checked

__all__ = [
    "CollapseParams",
    "collapse_exponent",
    "collapse_weights",
    "evolve",
    "record_marginal_density",
]


@_checked
class CollapseParams(NamedTuple):
    """Collapse rate lambda, units energy^-2 time^-1 (hbar = 1)."""

    lam: float

    def _check(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise DomainError(f"lambda must be finite and positive, got {self.lam}")


def collapse_exponent(params: CollapseParams, t, B, energies):
    """-lambda*t*E^2 + B*E: the collapse exponent -(B - 2*lambda*t*E)^2/(4*lambda*t)
    less its E-independent part, so it stays well-scaled for huge |B|.  One
    expression for Python floats, whose exponent is a float computed without
    numpy, and for numpy arrays, which broadcast as given (the caller places
    the level axis), so the two agree bit for bit; B enters times (t != 0),
    so t = 0 gives 0 for any finite B."""
    return -params.lam * t * energies * energies + B * (t != 0) * energies


def collapse_weights(energies, log_w0, params, t, b):
    """Normalized level weights at times t and records b, level-major.

    The batched form of `evolve`: each log magnitude gains `collapse_exponent`
    (the E-independent -b**2/(4*lam*t) cancels on normalization).  t
    broadcasts against b; returns weights of shape (n_lev, *b.shape), formed
    in place in the one array of the exponent.
    """
    import numpy as np
    b = np.asarray(b, float)
    lev = (-1,) + (1,) * b.ndim
    w = collapse_exponent(params, t, b, np.reshape(np.asarray(energies, float), lev))
    w += np.reshape(np.asarray(log_w0, float), lev)
    w -= w.max(axis=0)
    w *= 2.0
    np.exp(w, out=w)
    w /= w.sum(axis=0)
    return w


def evolve(state0, params: CollapseParams, t: float, B: float):
    """Evolve the `hilbert.SpectralState` state0 from time 0 (with B(0) = 0 by
    convention) to time t at record B.

    Returns the unnormalized state; t = 0 is the identity.
    """
    from .hilbert import SpectralState
    if not (math.isfinite(t) and math.isfinite(B)):
        raise DomainError(f"t and B must be finite, got t = {t}, B = {B}")
    if t < 0:
        raise DomainError("t must be >= 0")
    if t == 0:
        return state0
    e = state0.energies()
    dlog = collapse_exponent(params, t, B, e) - B * B / (4.0 * params.lam * t)
    return SpectralState(state0.levels, tuple((dlog + state0.log_magnitudes).tolist()),
                         tuple((state0.phases - e * t).tolist()))


def record_marginal_density(state_t0, params: CollapseParams, dt: float, dB_grid):
    """Density of the record increment dB over a step of length dt from the
    `hilbert.SpectralState` state_t0, at each of the array dB_grid.

    A Gaussian mixture: one component per energy in the state's spectrum,
    mean 2*lambda*dt*E, variance lambda*dt, weighted by the energy
    distribution.  Integrates to 1 over the real line.
    """
    import numpy as np

    from .hilbert import energy_distribution
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"dt must be finite and positive, got {dt}")
    e, w = energy_distribution(state_t0).as_arrays()
    dB = np.asarray(dB_grid, float)
    var = params.lam * dt
    means = 2.0 * var * e
    z = (dB[..., None] - means) ** 2 / (2.0 * var)
    dens = (w * np.exp(-z)).sum(axis=-1) / math.sqrt(2.0 * math.pi * var)
    return dens

