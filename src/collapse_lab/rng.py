"""Counter-based random numbers for reproducible Monte Carlo.

Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) evaluated in numpy over a whole grid of
(trajectory, block) counters at once.  Trajectory i owns the stream keyed by
(master_seed, i), and its 4-word blocks sit at counters 1, 2, ..., as in
numpy's ``np.random.Philox(key=[master_seed, i])``, so row i holds exactly
that generator's ``random_raw()`` words.  A stream does not depend on how
many other streams are drawn, or in what order.

The 64x64 -> 128-bit products are built from 32-bit limbs on ``uint64``
arrays, whose arithmetic wraps mod 2**64.  The round keys are folded mod
2**64 in Python integers: numpy *scalar* ``uint64`` overflow raises under
``np.errstate(over="raise")``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["philox4x64"]

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m*x, m a constant."""
    m_lo, m_hi = m & _LOW32, m >> 32
    x_lo, x_hi = x & _LOW32, x >> 32
    t = x_hi * m_lo
    t += (x_lo * m_lo) >> 32
    w = t & _LOW32
    w += x_lo * m_hi
    hi = x_hi * m_hi
    hi += t >> 32
    hi += w >> 32
    return hi, x * m


def philox4x64(master_seed: int, indices, n_blocks: int,
               first_block: int = 0) -> np.ndarray:
    """Raw words of the Philox4x64-10 streams (master_seed, i), i in indices.

    Returns a uint64 array of shape (len(indices), 4*n_blocks): row j is
    ``np.random.Philox(key=[master_seed, indices[j]]).random_raw()`` from
    block first_block on, so a long stream can be drawn in windows.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed {master_seed} is not a 64-bit unsigned integer")
    key1 = np.asarray(indices, np.uint64)[:, None]
    # counter (c, 0, 0, 0): broadcast shapes skip the work no row depends on
    x0 = (np.arange(n_blocks, dtype=np.uint64) + np.uint64(first_block + 1))[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), np.uint64)
    for r in range(_ROUNDS):
        k0 = (master_seed + r * _W0) % 2**64
        k1 = key1 + (r * _W1) % 2**64
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.empty((key1.shape[0], n_blocks, 4), np.uint64)
    for j, x in enumerate((x0, x1, x2, x3)):
        words[:, :, j] = x
    return words.reshape(key1.shape[0], 4 * n_blocks)
