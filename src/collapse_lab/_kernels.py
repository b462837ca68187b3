"""Hot numeric kernels, written in numpy.

The collapse kernel consumes pre-drawn random variates, so all randomness
stays in the counter-based generators of `collapse_lab.rng`.

Kernels:
  * collapse_weights    -- level weights at a given (t, B), batched over B.
  * traj_collapse_paths -- batched multi-step record paths B.
  * kgrid_rk4           -- fixed-step RK4 for the discretized decay ODEs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["collapse_weights", "traj_collapse_paths", "kgrid_rk4"]


def collapse_weights(energies, log_w0, lam, t, b):
    """Normalized level weights at time t and record b, batched over b.

    The batched form of `engine.evolve`: each log magnitude gains
    -lam*t*E**2 + b*E (the E-independent -b**2/(4*lam*t) cancels on
    normalization).  Returns (n_traj, n_lev) weights for b of shape (n_traj,).
    """
    energies = np.asarray(energies, float)
    lw = np.asarray(log_w0, float) - lam * t * energies**2 + b[:, None] * energies
    w = np.exp(2.0 * (lw - lw.max(axis=1)[:, None]))
    w /= w.sum(axis=1)[:, None]
    return w


def traj_collapse_paths(energies, log_w0, lam, dts, uniforms, normals):
    """The exact Gaussian-mixture collapse step, batched over trajectories.

    The state depends on the noise only through the record B, the one
    carried state: each step of length dt picks a component j from the
    weights at its start, then adds dB ~ Normal(2*lam*dt*E[j], lam*dt).

    Parameters
    ----------
    energies : (n_lev,) component energies (repeats are degenerate levels).
    log_w0 : (n_lev,) initial log magnitudes.
    lam : collapse rate.
    dts : (n_steps,) step durations.
    uniforms, normals : (n_traj, n_steps) pre-drawn variates.

    Returns
    -------
    b_path : (n_traj, n_steps) cumulative record B after each step; the
        weights at any step are `collapse_weights` at its end time.
    """
    energies = np.asarray(energies, float)
    b_path = np.empty(uniforms.shape)
    b = np.zeros(len(uniforms))
    t = 0.0
    for s in range(b_path.shape[1]):
        var = lam * dts[s]
        c = np.cumsum(collapse_weights(energies, log_w0, lam, t, b), axis=1)
        j = np.minimum(np.sum(c <= uniforms[:, s, None], axis=1), energies.size - 1)
        b = b + (2.0 * var * energies[j] + math.sqrt(var) * normals[:, s])
        b_path[:, s] = b
        t += dts[s]
    return b_path


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
