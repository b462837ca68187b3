"""Hot numeric kernels, written in numpy.

The collapse kernel consumes pre-drawn random variates, so all randomness
stays in the counter-based generators of `collapse_lab.rng`.

Kernels:
  * traj_collapse_paths -- batched multi-step collapse trajectories.
  * kgrid_rk4           -- fixed-step RK4 for the discretized decay ODEs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["traj_collapse_paths", "kgrid_rk4"]


def _collapse_steps(energies, log_w0, lam, dts, uniforms, normals):
    """The exact Gaussian-mixture collapse step, batched over trajectories.

    Takes the arguments of `traj_collapse_paths`.  After each step it
    yields (lw, b): the max-shifted log magnitudes (n_traj, n_lev) and the
    cumulative record B (n_traj,), both updated in place by the next step.
    """
    energies = np.asarray(energies, float)
    n_traj, n_steps = uniforms.shape
    lw = np.broadcast_to(np.asarray(log_w0, float), (n_traj, energies.size)).copy()
    b = np.zeros(n_traj)
    for s in range(n_steps):
        var = lam * dts[s]
        m = lw.max(axis=1)
        p = np.exp(2.0 * (lw - m[:, None]))
        tot = p.sum(axis=1)
        c = np.cumsum(p, axis=1)
        j = np.sum(c <= (uniforms[:, s] * tot)[:, None], axis=1)
        j = np.minimum(j, energies.size - 1)
        dB = 2.0 * var * energies[j] + math.sqrt(var) * normals[:, s]
        lw += -var * energies**2 + dB[:, None] * energies
        lw -= lw.max(axis=1)[:, None]
        b += dB
        yield lw, b


def _weights(lw):
    """Normalized level weights from (n_traj, n_lev) log magnitudes."""
    w = np.exp(2.0 * lw)
    w /= w.sum(axis=1)[:, None]
    return w


def traj_collapse_paths(energies, log_w0, lam, dts, uniforms, normals):
    """The steps of `_collapse_steps`, collected.

    Parameters
    ----------
    energies : (n_lev,) component energies (repeats are degenerate levels).
    log_w0 : (n_lev,) initial log magnitudes.
    lam : collapse rate.
    dts : (n_steps,) step durations.
    uniforms, normals : (n_traj, n_steps) pre-drawn variates.

    Returns
    -------
    weights : (n_traj, n_lev) final normalized level weights.
    b_path : (n_traj, n_steps) cumulative record B after each step.
    """
    lw = np.broadcast_to(log_w0, (len(uniforms), np.size(energies)))  # if no steps
    b_path = np.empty(uniforms.shape)
    steps = _collapse_steps(energies, log_w0, lam, dts, uniforms, normals)
    for s, (lw, b) in enumerate(steps):
        b_path[:, s] = b
    return _weights(lw), b_path


def kgrid_rk4(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    """Classic fixed-step RK4 for the k-grid decay ODEs.

    d(alpha_k)/dt = -i*(g*beta*exp(-i*k*x0) + k*alpha_k)
    d(beta)/dt    = -i*(eps*beta + g*sum_k wk*alpha_k*exp(+i*k*x0))

    Returns (times, occupation, total_prob, alpha_final, beta_final) with one
    sample per `record_every` steps (plus the initial point).
    """
    phase = np.exp(-1j * k * x0)
    phase_c = np.conj(phase)

    def rhs(alpha, beta):
        da = -1j * (g * beta * phase + k * alpha)
        db = -1j * (eps * beta + g * np.sum(wk * alpha * phase_c))
        return da, db

    alpha = alpha0.astype(complex).copy()
    beta = complex(beta0)
    n_rec = n_steps // record_every + 1
    times = np.empty(n_rec)
    occ = np.empty(n_rec)
    prob = np.empty(n_rec)

    def record(i, t):
        times[i] = t
        occ[i] = abs(beta) ** 2
        prob[i] = float(np.sum(wk * np.abs(alpha) ** 2)) + abs(beta) ** 2

    record(0, 0.0)
    r = 1
    for s in range(n_steps):
        ka1, kb1 = rhs(alpha, beta)
        ka2, kb2 = rhs(alpha + 0.5 * dt * ka1, beta + 0.5 * dt * kb1)
        ka3, kb3 = rhs(alpha + 0.5 * dt * ka2, beta + 0.5 * dt * kb2)
        ka4, kb4 = rhs(alpha + dt * ka3, beta + dt * kb3)
        alpha = alpha + (dt / 6.0) * (ka1 + 2.0 * ka2 + 2.0 * ka3 + ka4)
        beta = beta + (dt / 6.0) * (kb1 + 2.0 * kb2 + 2.0 * kb3 + kb4)
        if (s + 1) % record_every == 0:
            record(r, (s + 1) * dt)
            r += 1
    return times[:r], occ[:r], prob[:r], alpha, beta
