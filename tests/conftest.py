"""Oracles shared by several test modules."""

import numpy as np
import pytest


def stream_variates(seed: int, index: int, n_steps: int):
    """(uniforms, normals) of trajectory stream (seed, index), built from
    numpy's own Philox bit generator, independently of `collapse_lab.rng`.

    The uniforms are ``Generator.random(n_steps)``.  The normals are
    Box-Muller on the next 2*ceil(n_steps/2) raw words, taken in pairs
    (u1, u2): sqrt(-2*log(1 - u1)) times cos(2*pi*u2), then times sin.
    """
    key = np.array([seed, index], dtype=np.uint64)
    uniforms = np.random.Generator(np.random.Philox(key=key)).random(n_steps)
    n_pairs = -(-n_steps // 2)
    words = np.random.Philox(key=key).random_raw(n_steps + 2 * n_pairs)[n_steps:]
    u = (words >> np.uint64(11)).astype(float) * 2.0**-53
    normals = []
    for u1, u2 in zip(u[0::2], u[1::2]):
        r = np.sqrt(-2.0 * np.log(np.array([1.0 - u1])))
        theta = np.array([2.0 * np.pi * u2])
        normals += [(r * np.cos(theta))[0], (r * np.sin(theta))[0]]
    return uniforms, np.array(normals[:n_steps])


@pytest.fixture
def stream_reference():
    return stream_variates
