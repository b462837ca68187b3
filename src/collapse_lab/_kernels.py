"""Hot numeric kernels with numba acceleration and a pure-numpy fallback.

Set COLLAPSE_LAB_NO_NUMBA=1 to force the numpy path (also used when numba
is unavailable).  Both backends consume pre-drawn random variates, so they
produce the same results given the same inputs; all randomness stays in the
counter-based generators of `collapse_lab.rng`.

Kernels:
  * traj_collapse_paths -- batched multi-step collapse trajectories.
  * kgrid_rk4           -- fixed-step RK4 for the discretized decay ODEs.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "traj_collapse_paths",
    "kgrid_rk4",
    "traj_collapse_paths_numpy",
    "kgrid_rk4_numpy",
]

_DISABLED = os.environ.get("COLLAPSE_LAB_NO_NUMBA", "").strip() in {"1", "true", "yes"}

try:  # pragma: no cover - exercised via env flag in CI
    if _DISABLED:
        raise ImportError("numba disabled by COLLAPSE_LAB_NO_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    njit = None
    NUMBA_ENABLED = False


def _collapse_steps(energies, log_w0, lam, dts, uniforms, normals):
    """The exact Gaussian-mixture collapse step, batched over trajectories.

    Takes the arguments of `traj_collapse_paths_numpy`.  After each step it
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


def traj_collapse_paths_numpy(energies, log_w0, lam, dts, uniforms, normals):
    """Pure-numpy backend: the steps of `_collapse_steps`, collected.

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


def _traj_collapse_paths_impl(energies, log_w0, lam, dts, uniforms, normals):
    n_traj, n_steps = uniforms.shape
    n_lev = energies.size
    weights = np.empty((n_traj, n_lev))
    b_path = np.empty((n_traj, n_steps))
    lw = np.empty(n_lev)
    p = np.empty(n_lev)
    for i in range(n_traj):
        for k in range(n_lev):
            lw[k] = log_w0[k]
        b = 0.0
        for s in range(n_steps):
            var = lam * dts[s]
            m = lw[0]
            for k in range(1, n_lev):
                if lw[k] > m:
                    m = lw[k]
            tot = 0.0
            for k in range(n_lev):
                p[k] = math.exp(2.0 * (lw[k] - m))
                tot += p[k]
            u = uniforms[i, s] * tot
            c = 0.0
            j = n_lev - 1
            for k in range(n_lev):
                c += p[k]
                if c > u:
                    j = k
                    break
            dB = 2.0 * var * energies[j] + math.sqrt(var) * normals[i, s]
            m2 = -1e300
            for k in range(n_lev):
                lw[k] += -var * energies[k] * energies[k] + dB * energies[k]
                if lw[k] > m2:
                    m2 = lw[k]
            for k in range(n_lev):
                lw[k] -= m2
            b += dB
            b_path[i, s] = b
        tot = 0.0
        for k in range(n_lev):
            weights[i, k] = math.exp(2.0 * lw[k])
            tot += weights[i, k]
        for k in range(n_lev):
            weights[i, k] /= tot
    return weights, b_path


def kgrid_rk4_numpy(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    """Pure-numpy backend for the k-grid decay ODEs (classic RK4).

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


def _kgrid_rk4_impl(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    n_k = k.size
    phase = np.exp(-1j * k * x0)
    phase_c = np.conj(phase)
    alpha = alpha0.astype(np.complex128).copy()
    beta = beta0
    n_rec = n_steps // record_every + 1
    times = np.empty(n_rec)
    occ = np.empty(n_rec)
    prob = np.empty(n_rec)

    times[0] = 0.0
    occ[0] = abs(beta) ** 2
    p0 = 0.0
    for q in range(n_k):
        p0 += wk[q] * (alpha[q].real ** 2 + alpha[q].imag ** 2)
    prob[0] = p0 + abs(beta) ** 2

    ka = np.empty((4, n_k), dtype=np.complex128)
    kb = np.empty(4, dtype=np.complex128)
    tmp = np.empty(n_k, dtype=np.complex128)
    r = 1
    for s in range(n_steps):
        # stage 1
        acc = 0.0 + 0.0j
        for q in range(n_k):
            ka[0, q] = -1j * (g * beta * phase[q] + k[q] * alpha[q])
            acc += wk[q] * alpha[q] * phase_c[q]
        kb[0] = -1j * (eps * beta + g * acc)
        # stage 2
        acc = 0.0 + 0.0j
        b2 = beta + 0.5 * dt * kb[0]
        for q in range(n_k):
            tmp[q] = alpha[q] + 0.5 * dt * ka[0, q]
            ka[1, q] = -1j * (g * b2 * phase[q] + k[q] * tmp[q])
            acc += wk[q] * tmp[q] * phase_c[q]
        kb[1] = -1j * (eps * b2 + g * acc)
        # stage 3
        acc = 0.0 + 0.0j
        b3 = beta + 0.5 * dt * kb[1]
        for q in range(n_k):
            tmp[q] = alpha[q] + 0.5 * dt * ka[1, q]
            ka[2, q] = -1j * (g * b3 * phase[q] + k[q] * tmp[q])
            acc += wk[q] * tmp[q] * phase_c[q]
        kb[2] = -1j * (eps * b3 + g * acc)
        # stage 4
        acc = 0.0 + 0.0j
        b4 = beta + dt * kb[2]
        for q in range(n_k):
            tmp[q] = alpha[q] + dt * ka[2, q]
            ka[3, q] = -1j * (g * b4 * phase[q] + k[q] * tmp[q])
            acc += wk[q] * tmp[q] * phase_c[q]
        kb[3] = -1j * (eps * b4 + g * acc)

        for q in range(n_k):
            alpha[q] = alpha[q] + (dt / 6.0) * (
                ka[0, q] + 2.0 * ka[1, q] + 2.0 * ka[2, q] + ka[3, q]
            )
        beta = beta + (dt / 6.0) * (kb[0] + 2.0 * kb[1] + 2.0 * kb[2] + kb[3])

        if (s + 1) % record_every == 0:
            times[r] = (s + 1) * dt
            occ[r] = abs(beta) ** 2
            pr = 0.0
            for q in range(n_k):
                pr += wk[q] * (alpha[q].real ** 2 + alpha[q].imag ** 2)
            prob[r] = pr + abs(beta) ** 2
            r += 1
    return times[:r], occ[:r], prob[:r], alpha, beta


if NUMBA_ENABLED:
    traj_collapse_paths = njit(cache=True)(_traj_collapse_paths_impl)
    kgrid_rk4 = njit(cache=True)(_kgrid_rk4_impl)
else:
    traj_collapse_paths = traj_collapse_paths_numpy
    kgrid_rk4 = kgrid_rk4_numpy
