"""Counter-based random number generation for reproducible Monte Carlo.

Every trajectory gets its own Philox stream keyed by
(master_seed, trajectory_index), so results do not depend on execution
order or on how trajectories are distributed over workers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trajectory_rng"]


def trajectory_rng(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """Independent counter-based stream for one trajectory."""
    if master_seed < 0 or trajectory_index < 0:
        raise ValueError("seed and trajectory index must be nonnegative")
    key = np.array([master_seed, trajectory_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

