"""Counter-based random numbers for reproducible Monte Carlo.

Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
easy as 1, 2, 3", SC'11) evaluated in numpy over a whole grid of
(trajectory, block) counters at once.  Trajectory i owns the stream keyed by
(master_seed, i), and its 4-word blocks sit at counters 1, 2, ..., as in
numpy's ``np.random.Philox(key=[master_seed, i])``, so it does not depend on
how many other streams are drawn, or in what order.  The ten rounds run in
place on eight ``uint64`` arrays, whose arithmetic wraps mod 2**64; the
round keys are folded mod 2**64 in Python integers, as numpy *scalar*
``uint64`` overflow raises under ``np.errstate(over="raise")``.
"""

from __future__ import annotations

from . import _np as np

__all__ = ["philox4x64"]

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _mulhilo(m: int, x: np.ndarray, hi: np.ndarray, s: np.ndarray, t: np.ndarray):
    """(hi, x) <- the 64-bit words of m*x from 32-bit limbs; s, t scratch."""
    np.bitwise_and(x, _LOW32, out=s)
    np.multiply(s, m & _LOW32, out=t)
    t >>= 32
    s *= m >> 32
    np.right_shift(x, 32, out=hi)
    hi *= m & _LOW32
    t += hi  # x_hi*m_lo + (x_lo*m_lo >> 32)
    np.right_shift(t, 32, out=hi)
    t &= _LOW32
    t += s
    t >>= 32  # the carry out of the middle words
    hi += t
    np.right_shift(x, 32, out=s)
    s *= m >> 32
    hi += s
    x *= m


def philox4x64(master_seed: int, indices, n_blocks: int, first_block: int = 0) -> tuple:
    """The Philox4x64-10 streams (master_seed, i), i in indices, as four
    uint64 arrays x_0..x_3 of shape (len(indices), n_blocks): x_j[r, b] is word
    4*(first_block + b) + j of ``np.random.Philox(key=[master_seed,
    indices[r]]).random_raw()``; the caller may overwrite them."""
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed {master_seed} is not a 64-bit unsigned integer")
    key1 = np.asarray(indices, np.uint64)[:, None]
    x0, x1, x2, x3, hi0, hi1, s, t = (
        np.zeros((len(key1), n_blocks), np.uint64) for _ in range(8))
    x0[:] = np.arange(first_block + 1, first_block + 1 + n_blocks, dtype=np.uint64)
    for r in range(_ROUNDS):
        _mulhilo(_M0, x0, hi0, s, t)
        _mulhilo(_M1, x2, hi1, s, t)
        hi1 ^= x1
        hi1 ^= (master_seed + r * _W0) % 2**64
        hi0 ^= x3
        hi0 ^= np.add(key1, (r * _W1) % 2**64, out=s[:, :1])
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        x0, x1, x2, x3, hi0, hi1 = hi1, x2, hi0, x0, x1, x3
    return x0, x1, x2, x3
