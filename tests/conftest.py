"""Oracles shared by several test modules."""

import math

import numpy as np
import pytest
from scipy.integrate import quad


def stream_variates(seed: int, index: int, n_steps: int):
    """(uniform, normals) of trajectory stream (seed, index), built from
    numpy's own Philox bit generator, independently of `collapse_lab.rng`.

    The uniform is ``Generator.random()``, the stream's word 0.  The normals
    are Box-Muller on the next 2*ceil(n_steps/2) raw words, taken in pairs
    (u1, u2): sqrt(-2*log(1 - u1)) times cos(2*pi*u2), then times sin.
    """
    key = np.array([seed, index], dtype=np.uint64)
    uniform = np.random.Generator(np.random.Philox(key=key)).random()
    n_pairs = -(-n_steps // 2)
    words = np.random.Philox(key=key).random_raw(1 + 2 * n_pairs)[1:]
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    normals = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = np.sqrt(-2.0 * np.log(np.array([1.0 - u1])))
        theta = np.array([2.0 * np.pi * u2])
        normals += [(r * np.cos(theta))[0], (r * np.sin(theta))[0]]
    return uniform, np.array(normals[:n_steps])


def stream_record_path(state, lam, times, seed, index):
    """Record path B(times) of trajectory (seed, index), one float at a time.

    The level J is the first whose cumulative Born weight exceeds the
    stream's uniform (the last if none does); B sums sqrt(lam*dt)*z over the
    steps from B(0) = 0 and adds the drift 2*lam*E_J*t.
    """
    uniform, z = stream_variates(seed, index, len(times))
    born = np.abs(state.amplitudes()) ** 2
    cum = np.cumsum(born / born.sum())
    j = next((k for k, c in enumerate(cum) if c > uniform), len(cum) - 1)
    drift = 2.0 * lam * state.energies()[j]
    path, acc, prev = [], 0.0, 0.0
    for t, zk in zip(times, z):
        acc += math.sqrt(lam * (t - prev)) * zk
        path.append(acc + drift * t)
        prev = t
    return np.array(path)


def quad_time_smear(f, t, t_cal):
    """Gaussian time-smear of width t_cal of f at t by adaptive quadrature on
    +-8 widths (the mass beyond is below 1e-14): the oracle for
    integrands with steps or kinks, where `ensemble.smear`'s Gauss-Hermite
    rule converges slowly."""
    inv = 1.0 / math.sqrt(2.0 * math.pi)

    def integrand(eta):
        return inv * math.exp(-0.5 * eta * eta) * f(t - t_cal * eta)

    val, _ = quad(integrand, -8.0, 8.0, epsabs=1e-10, epsrel=1e-10, limit=400)
    return val


@pytest.fixture
def quad_smear():
    return quad_time_smear


@pytest.fixture
def stream_reference():
    return stream_variates


@pytest.fixture
def stream_path():
    return stream_record_path
