"""Ensemble-level statistics: the Monte Carlo record sampler, Gaussian time
smearing, Monte Carlo ensemble expectations, and the damped ensemble density
matrix.

The smearing operator averages a Schrodinger-picture expectation over a
Gaussian time window of width T_cal = sqrt(lambda*t); it is the ensemble
signature of energy-driven collapse.

The module holds the records of the CLI's `collapse` and `ensemble`
experiments (`EXPERIMENTS`), whose runners take the collapse pass.  It
imports neither numpy nor `rng` when loaded: the builds and the tile and
moment block sizes (`_tile_shape`, `_moment_block`), which the array
estimates share, are plain Python, and the functions that compute with
arrays import them when called.  So no config's `validate` loads numpy, and
only the collapse, ensemble and k-grid runners do.
"""

from __future__ import annotations

import math

from . import (ConfigError, Experiment, _floats, _fraction, _grid, _int_pos, _n_grid,
               _n_traj_mc, _numpy_runner, _positive, _t_cal)
from .hilbert import DomainError, EnergyLevel, ObservableMatrix, SpectralState, squared_norm
from .engine import CollapseParams, collapse_weights

__all__ = [
    "smear",
    "draw_traj_variates",
    "simulate_trajectories",
    "ensemble_expectation_mc",
    "ensemble_density_matrix",
    "ensemble_density_matrix_mc",
]

#: Philox blocks per window of `draw_traj_variates`: 128 KiB per uint64 temporary
_CHUNK_BLOCKS = 2**14
#: (level, trajectory, step) weights per tile of `_collapse_pass` (128 KiB)
_TILE_VALUES = 2**14
#: values per block of the Monte Carlo estimators' moments (`_moment_block`)
_MOMENT_VALUES = 2**15
#: Gauss-Hermite nodes of `smear`
_SMEAR_NODES = 64


def smear(f, t: float, t_cal: float):
    """Gaussian time-smear of f at t over a window of width t_cal (T_cal):
    (2*pi)**-0.5 * integral deta exp(-eta^2/2) f(t - t_cal*eta).

    Gauss-Hermite quadrature of _SMEAR_NODES = 64 nodes, spectrally accurate
    for smooth f (steps and kinks converge slowly).  The nodes reach
    sqrt(2)*max|x| = 14.9 widths either side of t, where f must be defined.
    For t_cal = 0 this returns f(t) exactly; a negative or non-finite t_cal
    raises DomainError.
    """
    import numpy as np
    if not (math.isfinite(t_cal) and t_cal >= 0):
        raise DomainError("T_cal must be finite and >= 0")
    if t_cal == 0.0:
        return f(t)
    # Gauss-Hermite for weight exp(-x^2); substitute eta = sqrt(2)*x.
    x, w = np.polynomial.hermite.hermgauss(_SMEAR_NODES)
    pts = t - t_cal * math.sqrt(2.0) * x
    vals = np.array([f(p) for p in pts])
    return float(np.dot(w, vals) / math.sqrt(math.pi))


def draw_traj_variates(master_seed: int, rows: range, n_steps: int, out=None):
    """Per-trajectory variates, into out = (uniforms, normals) if given: one
    uniform each, shape (len(rows),), and n_steps normals, (len(rows), n_steps).

    Row i reads only the Philox stream (master_seed, i) (`rng.philox4x64`),
    so the draw is independent of batching or ordering.  Word 0, x_0[:, 0],
    is the uniform (w >> 11) * 2**-53, bit-equal to ``Generator.random()``;
    pair p of the next words gives normals 2p and 2p + 1 by Box-Muller, in
    place: r*(cos, sin)(2*pi*u2), r = sqrt(-2*log(1 - u1)), with pair 2c
    (x_1, x_2) of block c and pair 2c+1 (x_3 of c, x_0 of c+1).  Windows of
    at most _CHUNK_BLOCKS Philox blocks, across rows or along one row, keep
    the temporaries from growing with len(rows) or n_steps.
    """
    import numpy as np
    from .rng import philox4x64

    n_blocks = -(-(1 + 2 * -(-n_steps // 2)) // 4)
    uniforms, normals = out or (np.empty(len(rows)), np.empty((len(rows), n_steps)))
    n_rows = max(1, _CHUNK_BLOCKS // n_blocks)
    for r in range(0, len(rows), n_rows):
        sub = rows[r:r + n_rows]
        idx = np.arange(sub.start, sub.stop, sub.step, dtype=np.uint64)
        for b0 in range(0, n_blocks, _CHUNK_BLOCKS):
            nb = min(_CHUNK_BLOCKS, n_blocks - b0)
            # one block past the window completes its last pair
            x = philox4x64(master_seed, idx, min(nb + 1, n_blocks - b0), b0)
            for w in x:
                w >>= 11
            if b0 == 0:
                np.multiply(x[0][:, 0], 2.0**-53, out=uniforms[r:r + n_rows])
            z = [normals[r:r + n_rows, q + 4 * b0:4 * (b0 + nb):4] for q in range(4)]
            for u1, u2, cos, sin in (x[1], x[2], *z[:2]), (x[3], x[0][:, 1:], *z[2:]):
                k, m, theta = cos.shape[1], sin.shape[1], u1.view(float)[:, :cos.shape[1]]
                np.subtract(1.0, np.multiply(u1[:, :k], 2.0**-53, out=cos), out=cos)
                np.sqrt(np.multiply(np.log(cos, out=cos), -2.0, out=cos), out=cos)  # r
                np.multiply(u2[:, :k], 2.0 * np.pi * 2.0**-53, out=theta)  # in u1's words
                np.multiply(np.sin(theta[:, :m], out=sin), cos[:, :m], out=sin)
                cos *= np.cos(theta, out=theta)
    return uniforms, normals


def _tile_shape(n_lev: int, n_traj: int, n_steps: int) -> tuple[int, int]:
    """(rows, steps) of a `_collapse_pass` tile: at most _TILE_VALUES
    (level, row, step) weights, whole rows while one row fits."""
    steps = min(n_steps, max(1, _TILE_VALUES // n_lev))
    return min(n_traj, max(1, _TILE_VALUES // (n_lev * steps))), steps


def _collapse_pass(state0: SpectralState, params, times, master_seed, n_traj):
    """The one collapse pass: yields (rows, steps, b, w) over tiles of the
    (trajectory, step) grid, with b the records at times[steps] of the
    trajectories in slice `rows`, shape (len(rows), len(steps)), and w the
    level weights there, `engine.collapse_weights`, shape (n_lev, *b.shape).

    The record B(t) is a Born-weighted mixture of drifted Brownian motions,
    B = 2*lam*E_J*t + sqrt(lam)*W(t) with J drawn once from |a_j|**2
    (Hughston, Proc. R. Soc. A 452, 953 (1996); Adler, Brody, Brun and
    Hughston, J. Phys. A 34, 8795 (2001)); given the path, J's posterior is
    w.  So each trajectory takes J from its uniform against the cumulative
    Born weights, and its path is one cumsum of its normals.  The grid may
    start at t = 0, where B = 0 and w are the Born weights.  A tile holds at
    most _TILE_VALUES weights, whatever n_traj or n_steps; the next overwrites b.
    """
    import numpy as np
    times = np.asarray(times, float)
    if (times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
            or times[0] < 0 or np.any(np.diff(times) <= 0)):
        raise DomainError(
            "times must be a non-empty 1-d grid of finite, non-negative, "
            "strictly increasing values"
        )
    if n_traj < 1:
        raise DomainError(f"n_traj must be >= 1, got {n_traj}")
    energies, log_w0 = state0.energies(), np.asarray(state0.log_magnitudes)
    born = np.cumsum(collapse_weights(energies, log_w0, params, 0.0, 0.0))
    scale = np.sqrt(params.lam * np.diff(times, prepend=0.0))
    tile_rows, tile_steps = _tile_shape(energies.size, n_traj, times.size)
    uniforms, normals = np.empty(tile_rows), np.empty((tile_rows, times.size))
    for start in range(0, n_traj, tile_rows):
        rows = range(start, min(start + tile_rows, n_traj))
        u, z = draw_traj_variates(master_seed, rows, times.size,
                                  (uniforms[:len(rows)], normals[:len(rows)]))
        b = np.cumsum(np.multiply(z, scale, out=z), axis=1, out=z)  # the records
        u[:] = 2.0 * params.lam * energies[  # the drift rate of the level picked
            np.minimum(np.searchsorted(born, u, side="right"), energies.size - 1)]
        b += u[:, None] * times
        for s0 in range(0, times.size, tile_steps):
            steps = slice(s0, min(s0 + tile_steps, times.size))
            yield (slice(rows.start, rows.stop), steps, b[:, steps], collapse_weights(
                energies, log_w0, params, times[steps], b[:, steps]))


def simulate_trajectories(
    state0: SpectralState,
    params: CollapseParams,
    times,
    master_seed: int,
    n_traj: int,
):
    """Record paths B(t) of n_traj collapse trajectories, a numpy array of
    shape (n_traj, len(times)).

    The records of the tiled collapse pass, exact Gaussian-mixture sampling
    from B(0) = 0 on a strictly increasing grid of non-negative times.  Row i
    consumes only the Philox stream (master_seed, i), one uniform (its
    level) then the normals, so it does not depend on n_traj or on the
    tiling.  The state at (t, B) is `engine.evolve(state0, params, t, B)`.
    """
    import numpy as np
    b_path = np.empty((n_traj, np.size(times)))
    for tile in _collapse_pass(state0, params, times, master_seed, n_traj):
        b_path[tile[0], tile[1]] = tile[2]
        del tile  # released before the pass draws the next tile
    return b_path


def _moment_block(n_values: int, n_traj: int) -> int:
    """Trajectories per Monte Carlo moment block, 1 to n_traj, whose n_values
    values each (all a block holds per trajectory) fill _MOMENT_VALUES."""
    return min(n_traj, max(1, _MOMENT_VALUES // n_values))


def _root_blocks(state0: SpectralState, params, t, master_seed, n_traj, n_values):
    """The collapse pass at the one time t, real: yields s = sqrt(w), the
    roots of the level weights, in blocks of `_moment_block(n_values,
    n_traj)` trajectories (the last one shorter), shape (n_lev, len(block)).
    The block boundaries do not depend on the tiling; every block is yielded
    in one buffer, which the next block overwrites.

    The collapse factor is real and positive, so a trajectory's amplitude is
    s*exp(i*theta), with theta = phases - E*t the same for every trajectory;
    only s is stochastic, and the estimators apply theta once.
    """
    import numpy as np
    if n_traj < 2:
        raise DomainError("n_traj must be >= 2")
    if t < 0:
        raise DomainError("t must be >= 0")
    block, fill = np.empty((len(state0.levels), _moment_block(n_values, n_traj))), 0
    for _, _, _, w in _collapse_pass(state0, params, [t], master_seed, n_traj):
        w = w[:, :, 0]
        while w.shape[1]:
            k = min(block.shape[1] - fill, w.shape[1])
            np.sqrt(w[:, :k], out=block[:, fill:fill + k])
            w, fill = w[:, k:], fill + k
            if fill == block.shape[1]:
                yield block
                fill = 0
        del w  # released before the pass draws the next tile
    if fill:
        yield block[:, :fill]


def _block_moments(blocks):
    """(n, mean, m2) of the samples along the last axis of the arrays
    `blocks`, with m2 the sum of squared deviations from the mean.

    Each block is reduced two-pass, its mean and then its m2; the blocks are
    combined in order by the pairwise update of Chan, Golub and LeVeque
    ("Updating formulae and a pairwise algorithm for computing sample
    variances", 1979).  One block gives np.mean and np.var's m2 exactly.
    """
    import numpy as np
    n = 0
    for x in blocks:
        nb, mean_b = x.shape[-1], x.mean(axis=-1)
        dev = x - mean_b[..., None]
        m2_b = np.square(dev, out=dev).sum(axis=-1)
        del dev, x  # before the next block is drawn
        if n == 0:
            mean, m2 = mean_b, m2_b
        else:
            delta = mean_b - mean
            mean = mean + delta * (nb / (n + nb))
            m2 = m2 + m2_b + delta * delta * (n * nb / (n + nb))
        n += nb
    return n, mean, m2


def _phase_factors(state0: SpectralState, t):
    """exp(i*theta), theta = phases - E*t: the common phases at time t, a
    numpy array."""
    import numpy as np
    return np.exp(1j * (np.asarray(state0.phases) - state0.energies() * t))


def ensemble_expectation_mc(
    state0: SpectralState,
    params: CollapseParams,
    t: float,
    obs: ObservableMatrix,
    n_traj: int,
    master_seed: int,
) -> tuple[float, float]:
    """Monte Carlo ensemble expectation of obs at time t, with standard error.

    Trajectories are sampled from the exact law of the record at t.  A
    trajectory's <a|O|a> is s^T Q s (`_root_blocks`), with the one real
    matrix Q = Re(D^H O D), D = diag(exp(i*theta)); its mean and standard
    error are streamed over blocks of trajectories (`_block_moments`), so
    memory does not grow with n_traj.  Deterministic given master_seed.
    """
    import numpy as np
    if obs.basis != state0.levels:
        raise DomainError("observable basis does not match state levels")
    d = _phase_factors(state0, t)
    q = (d.conj()[:, None] * obs.entries * d).real
    # einsum, not a BLAS product: a first BLAS call faults in OpenBLAS code pages
    n, mean, m2 = _block_moments(
        np.einsum("it,ij,jt->t", s, q, s)
        for s in _root_blocks(state0, params, t, master_seed, n_traj, len(q) + 2))
    return float(mean), math.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _damped_moduli(state0: SpectralState, params, t, pairs, out):
    """|rho_ij| = m_i*m_j*exp(-lambda*t*(E_i - E_j)^2/2), m the normalized
    magnitudes, for the level pairs (i, j) = pairs at each of the times t,
    formed in out, shape (len(t), len(i)); exactly m_i*m_j where E_i = E_j.
    Returns the time-invariant diagonal, the weights w = exp(2*log m)."""
    import numpy as np
    t = np.asarray(t, float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise DomainError("t must be finite and >= 0")
    (log_n2, _), e, (i, j) = squared_norm(state0), state0.energies(), pairs
    log_m = np.asarray(state0.log_magnitudes) - 0.5 * log_n2
    np.multiply.outer(-0.5 * params.lam * t, (e[i] - e[j]) ** 2, out=out)
    np.exp(out, out=out)
    out *= np.exp(log_m[i]) * np.exp(log_m[j])
    return np.exp(2.0 * log_m)


def ensemble_density_matrix(
    state0: SpectralState, params: CollapseParams, t: float
) -> ObservableMatrix:
    """Closed-form ensemble density matrix in the energy basis at time t: the
    damped moduli (`_damped_moduli`) times exp(i*(theta_i - theta_j)), theta =
    phases - E*t, exactly 1 on the diagonal, so the energy distribution is
    the same for all t, not up to rounding."""
    import numpy as np
    n = len(state0.levels)
    rho = np.empty((n, n))
    _damped_moduli(state0, params, [t], np.indices((n, n)).reshape(2, -1), rho.reshape(1, -1))
    theta = np.asarray(state0.phases) - state0.energies() * t
    return ObservableMatrix(state0.levels, rho * np.exp(1j * (theta[:, None] - theta)))


def ensemble_density_matrix_mc(
    state0: SpectralState,
    params: CollapseParams,
    t: float,
    n_traj: int,
    master_seed: int,
):
    """Monte Carlo density matrix (mean of normalized projectors) and the
    entrywise standard error, two numpy arrays.  Cross-check for `ensemble_density_matrix`.

    A trajectory's projector is s_i*s_j*exp(i*(theta_i - theta_j))
    (`_root_blocks`): the real products s_i*s_j, i <= j (they are
    symmetric), are averaged over blocks of trajectories (`_block_moments`)
    and the common phases applied once, to the mean.  The standard error of
    the real and imaginary parts in quadrature is exactly that of s_i*s_j,
    so it is real.
    """
    import numpy as np
    d = _phase_factors(state0, t)
    i, j = np.triu_indices(d.size)
    n, mean, m2 = _block_moments(
        s[i] * s[j]
        for s in _root_blocks(state0, params, t, master_seed, n_traj, d.size + 2 * i.size))
    rho, se = np.empty((2, d.size, d.size))
    rho[i, j] = rho[j, i] = mean
    se[i, j] = se[j, i] = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return rho * d[:, None] * d.conj(), se


# --- the CLI's collapse and ensemble experiments ----------------------------


def _chunk_level_bytes(n_lev, n_traj, n_steps, floats, block_values=0) -> int:
    """The (level, trajectory, step) temporaries of one tile of the collapse
    pass, charged as `floats` floats per weight, and one block of the Monte
    Carlo moments that holds `block_values` floats per trajectory."""
    rows, steps = _tile_shape(n_lev, n_traj, n_steps)
    block = block_values and _moment_block(block_values, n_traj)
    return 8 * (floats * n_lev * rows * steps + block_values * block)


def _build_levels(p, key, power):
    """(initial SpectralState, CollapseParams) of a config that gives one
    value v per level under `key`, of log-magnitude power*log(v/max v) before
    the state is normalized: a ratio to the largest value never overflows,
    and one that is 0 (a zero value, or one that underflows) gives a level of
    zero amplitude.  Sorts `energies` ascending, and `key` and `phases` with
    them: the output columns index levels by ascending energy, and the
    summary echoes that order."""
    if len(p["energies"]) != len(p[key]):
        raise ConfigError(f"keys 'energies' and '{key}' must align")
    if len(set(p["energies"])) != len(p["energies"]):
        raise ConfigError("key 'energies' must not repeat values")
    top = max(p[key])
    if min(p[key]) < 0 or top == 0:
        raise ConfigError(f"key '{key}' must be nonnegative, not all zero")
    if p.get("phases") is not None and len(p["phases"]) != len(p["energies"]):
        raise ConfigError("keys 'energies' and 'phases' must align")
    order = sorted(range(len(p["energies"])), key=p["energies"].__getitem__)
    for k in ("energies", key, "phases"):
        if p.get(k) is not None:
            p[k] = tuple(p[k][i] for i in order)
    try:
        levels = tuple(EnergyLevel(float(e)) for e in p["energies"])
        log_m = tuple(power * math.log(r) if r > 0 else -math.inf
                      for r in (v / top for v in p[key]))
        ph = p.get("phases") or (0.0,) * len(levels)
        state0 = SpectralState(levels, log_m, ph).normalized()
    except DomainError as exc:
        raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
    return state0, CollapseParams(p["lambda"])


def _collapse_bytes(p, model):
    # the output table and the per-step arrays, then the level weights of one
    # pass tile, which peak at about four floats per weight (tracemalloc):
    # the runner releases each tile before the pass draws the next, so
    # nothing grows with n_traj
    n_lev = len(p["energies"])
    return {"'n_steps'": 24 * (2 + n_lev) * p["n_steps"],
            "'energies'": _chunk_level_bytes(n_lev, p["n_traj"], p["n_steps"], 4)}


@_numpy_runner
def _run_collapse(cfg):
    import numpy as np

    p, (state0, params) = cfg.parameters, cfg.model
    n_traj, n_steps = p["n_traj"], p["n_steps"]
    times = np.array(_grid(p["t_max"] / n_steps, p["t_max"], n_steps))
    n_lev = len(p["energies"])
    n_collapsed = np.zeros(n_steps, np.int64)
    weight_sums = np.zeros((n_steps, n_lev))
    for tile in _collapse_pass(state0, params, times, cfg.master_seed, n_traj):
        steps, w = tile[1], tile[3]
        n_collapsed[steps] += np.count_nonzero(w.max(axis=0) >= p["threshold"], axis=0)
        weight_sums[steps] += w.sum(axis=1).T
        del tile, w  # released before the pass draws the next tile
    frac, mean_w = n_collapsed / n_traj, weight_sums / n_traj
    cols = ["t (time)", "collapsed_fraction (dimensionless)"] + [
        f"mean_weight_E{i} (dimensionless)" for i in range(n_lev)
    ]
    summary = {"T_cal": _t_cal(p), "collapsed_fraction": float(frac[-1]), "n_traj": n_traj}
    # final mean weight against the Born weight of the built state, in
    # binomial standard errors; a Born weight of 0 or 1 has no spread and gives 0
    born = np.exp(2.0 * np.asarray(state0.log_magnitudes))
    se = np.sqrt(born * (1.0 - born) / n_traj)
    z = np.divide(mean_w[-1] - born, se, out=np.zeros(n_lev), where=se > 0)
    summary.update((f"born_z_E{i}", float(v)) for i, v in enumerate(z))
    return cols, np.column_stack([times, frac, mean_w]), summary


def _ensemble_bytes(p, model):
    # the table, its times and one column of temporaries, with numpy's buffers
    # for the strided moduli, three of at most 2**13 floats; its column names
    # and pair temporaries, 210-250 bytes a level pair (tracemalloc), charged
    # as 256, and one one-step tile's level weights, about six floats per
    # weight, charged as seven, with one moment block of n_lev + 2 floats per
    # trajectory: moments are streamed in blocks, so nothing grows with n_traj
    n_lev = len(p["energies"])
    n_pairs = n_lev * (n_lev - 1) // 2
    return {"'n_t'": 8 * (p["n_t"] * (5 + n_pairs) + 3 * min(p["n_t"] * n_pairs, 2**13)),
            "'energies'": 256 * n_pairs + _chunk_level_bytes(n_lev, p["n_traj"], 1, 7, n_lev + 2)}


@_numpy_runner
def _run_ensemble(cfg):
    import numpy as np

    p, (state0, params) = cfg.parameters, cfg.model
    times = np.array(_grid(0.0, p["t_max"], p["n_t"]))
    energies = state0.energies()
    iu = np.triu_indices(len(energies), 1)
    cols = ["t (time)", "mean_energy (energy)", "purity (dimensionless)"] + [
        f"offdiag_abs_{i}{j} (dimensionless)" for i, j in zip(*iu)
    ]
    # the moduli |rho_ij|, i < j, formed in the table; the diagonal, the
    # weights w, is time-invariant, so Tr(rho H) = w . E and
    # Tr(rho^2) = sum w^2 + 2 sum_{i<j} |rho_ij|^2, all einsum, not BLAS
    table = np.empty((len(times), len(cols)))
    w = _damped_moduli(state0, params, times, iu, table[:, 3:])
    table[:, 0] = times
    table[:, 1] = np.einsum("i,i->", w, energies)
    np.einsum("ri,ri->r", table[:, 3:], table[:, 3:], out=table[:, 2])
    table[:, 2] *= 2.0
    table[:, 2] += np.einsum("i,i->", w, w)
    summary = {"T_cal": _t_cal(p), "mean_energy": float(table[0, 1])}
    if p["n_traj"]:
        mc, se = ensemble_expectation_mc(
            state0, params, p["t_max"], ObservableMatrix.hamiltonian(state0.levels),
            p["n_traj"], cfg.master_seed)
        summary["mc_mean_energy"] = mc
        summary["mc_standard_error"] = se
        # an ensemble with no spread (one level) has se = 0 and gives 0
        summary["mc_z_score"] = (mc - summary["mean_energy"]) / se if se > 0 else 0.0
    return cols, table, summary


EXPERIMENTS = {
    "collapse": Experiment(
        {"lambda": (_positive, True, None),
         "energies": (_floats, True, None),
         "weights": (_floats, True, None),
         "t_max": (_positive, True, None),
         "n_steps": (_int_pos, False, 50),
         "n_traj": (_int_pos, False, 200),
         "threshold": (_fraction, False, 0.999)},
        build=lambda p: _build_levels(p, "weights", 0.5),
        array_bytes=_collapse_bytes, run=_run_collapse),
    "ensemble": Experiment(
        {"lambda": (_positive, True, None),
         "energies": (_floats, True, None),
         "magnitudes": (_floats, True, None),
         "phases": (_floats, False, None),
         "t_max": (_positive, True, None),
         "n_t": (_n_grid, False, 100),
         "n_traj": (_n_traj_mc, False, 0)},
        build=lambda p: _build_levels(p, "magnitudes", 1.0),
        array_bytes=_ensemble_bytes, run=_run_ensemble)}
