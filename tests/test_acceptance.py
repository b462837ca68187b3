"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py -s` to see the report lines.
Each test prints exactly one line summarizing its criterion before the
assertions fire, so a failing run still reports every criterion it reached.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from collapse_lab.engine import CollapseParams, collapse_weights, evolve
from collapse_lab.ensemble import (
    ensemble_density_matrix,
    ensemble_density_matrix_mc,
    simulate_trajectories,
    smear,
)
from collapse_lab.hilbert import DiscreteSpectrum, SpectralState
from collapse_lab.decay import (
    DecayModelParams,
    alpha_decay_closed,
    occupation,
    occupation_collapsed,
    occupation_gaussian_asymptotic,
    photon_number_density,
)
from collapse_lab.kgrid import KGrid, integrate_kgrid
from collapse_lab.measurement import branch_weight_ratio, fixture_path, load_branch_fixture
from collapse_lab.records import RecordScenario, bhattacharyya, verify_schwarz_chain
from collapse_lab.spin import SpinModelParams, sigma1_collapsed, sigma1_standard

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_born_weight_collapse():
    # two-level (0.25, 0.75), lambda*t*(dE)^2 = 1e3, N = 1e4 trajectories
    energies = np.array([0.0, 1.0])
    log_w0 = 0.5 * np.log(np.array([0.25, 0.75]))
    state = SpectralState.from_amplitudes(energies.tolist(), np.exp(log_w0))
    params, t, n = CollapseParams(1.0), 1000.0, 10_000
    b = simulate_trajectories(state, params, [t], 2024, n)[:, 0]
    weights = collapse_weights(energies, log_w0, params, t, b)
    frac = float(np.mean(np.argmax(weights, axis=0) == 0))
    tol = 4.0 * math.sqrt(0.1875 / n)
    ok = abs(frac - 0.25) < tol
    assert report(1, "Born-weight collapse", ok, f"fraction {frac:.4f}, tol {tol:.4f}")


def test_02_no_collapse_theorem():
    params = CollapseParams(1.0)
    spec = load_branch_fixture(fixture_path("branch_shared.txt"))
    ratios = np.array(
        [
            branch_weight_ratio(spec, params, float(t), float(b))
            for t in np.linspace(0.25, 5.0, 20)
            for b in np.linspace(-12.0, 12.0, 20)
        ]
    )
    spread = float(ratios.max() / ratios.min() - 1.0)
    control = load_branch_fixture(fixture_path("branch_control.txt"))
    cr = np.array(
        [
            branch_weight_ratio(control, params, float(t), float(b))
            for t in np.linspace(0.25, 5.0, 10)
            for b in np.linspace(-12.0, 12.0, 10)
        ]
    )
    factor = float(cr.max() / cr.min())
    ok = spread < 1e-12 and factor > 1.5
    assert report(
        2, "No-collapse theorem", ok,
        f"shared spread {spread:.2e}, control factor {factor:.1f}",
    )


def test_03_time_translation_and_chapman_kolmogorov():
    levels = [0.0, 1.0, 2.5]
    state = SpectralState.from_amplitudes(
        levels, [0.5, 0.6, math.sqrt(0.39)]
    ).normalized()
    params = CollapseParams(0.7)
    t0, t, b0, b = 1.2, 3.7, -0.8, 1.9
    one = evolve(state, params, t, b).normalized()
    # the second segment evolves the collapsed state on the increments
    two = evolve(evolve(state, params, t0, b0), params, t - t0, b - b0).normalized()
    comp_err = max(
        np.abs(np.asarray(one.log_magnitudes) - np.asarray(two.log_magnitudes)).max(),
        np.abs(np.asarray(one.phases) - np.asarray(two.phases)).max(),
    )
    # two-step vs one-step marginal of B(t), N = 1e5 each
    n, t = 100_000, 2.0

    def final_records(times, seed):
        return simulate_trajectories(state, params, times, seed, n)[:, -1]

    b1 = final_records(np.array([t]), 42)
    b2 = final_records(np.array([t / 2, t]), 43)
    edges = np.quantile(b1, np.linspace(0, 1, 21))
    edges[0], edges[-1] = -np.inf, np.inf
    c1, _ = np.histogram(b1, edges)
    c2, _ = np.histogram(b2, edges)
    chi2 = float(((c1 - c2) ** 2 / (c1 + c2)).sum())
    pval = float(stats.chi2.sf(chi2, len(c1) - 1))
    ok = comp_err < 1e-10 and pval > 0.01
    assert report(
        3, "Time-translation + Chapman-Kolmogorov", ok,
        f"composition err {comp_err:.1e}, chi2 p {pval:.3f}",
    )


def test_04_record_bound_schwarz_chain():
    grid = tuple(i * 1e-3 for i in range(1500))

    def uniform(lo, hi):
        w = np.zeros(len(grid))
        w[lo:hi] = 1.0 / (hi - lo)
        return DiscreteSpectrum(grid, tuple(w))

    fixtures = {
        "identical": (uniform(0, 1500), uniform(0, 1500), 1.0, -1.0),
        "disjoint": (uniform(0, 750), uniform(750, 1500), 1.0, -1.0),
        "half_overlap": (uniform(0, 1000), uniform(500, 1500), 1.0, -1.0),
        "asymmetric": (uniform(0, 400), uniform(200, 1400), 2.0, -0.5),
        "shifted_b": (uniform(0, 1000), uniform(500, 1500), 5.0, 1.0),
    }
    partition = [(-math.inf, 0.0), (0.0, 1.0), (1.0, math.inf)]
    worst = 0.0
    for name, (plus, minus, bp, bm) in fixtures.items():
        sc = RecordScenario(plus, minus, bp, bm, 1.0)
        lhs, rhs, holds = verify_schwarz_chain(sc, 2.0, partition)
        assert holds, name
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    half = bhattacharyya(fixtures["half_overlap"][0], fixtures["half_overlap"][1])
    ok = worst < 1e-4 and abs(half - 0.5) < 1e-3
    assert report(
        4, "Record bound (Schwarz chain)", ok,
        f"worst rel err {worst:.1e}, half-overlap {half:.4f}",
    )


def test_05_spectrum_conservation_density_matrix():
    levels = [0.0, 1.0, 2.5]
    amps = np.array([0.5, 0.6, math.sqrt(0.39)]) * np.exp(1j * np.array([0.0, 0.7, -1.1]))
    state = SpectralState.from_amplitudes(levels, amps).normalized()
    params = CollapseParams(0.7)
    t, n = 1.5, 10_000
    mc, se = ensemble_density_matrix_mc(state, params, t, n, 99)
    closed = ensemble_density_matrix(state, params, t).entries
    z = float((np.abs(mc - closed) / np.maximum(se, 1e-15)).max())
    d0 = np.diag(ensemble_density_matrix(state, params, 0.0).entries)
    diag_drift = max(
        np.abs(np.diag(ensemble_density_matrix(state, params, tt).entries) - d0).max()
        for tt in (0.5, 5.0, 500.0)
    )
    ok = z < 4.0 and diag_drift == 0.0
    assert report(
        5, "Spectrum conservation + damping", ok,
        f"max |z| {z:.2f}, diag drift {diag_drift:.1e}",
    )


def test_06_smearing_identities(quad_smear):
    # (a) pure tone
    eps, tcal = 2.0, 0.7
    err_cos = max(
        abs(
            smear(lambda u: math.cos(eps * u), float(t), tcal)
            - math.exp(-0.5 * (eps * tcal) ** 2) * math.cos(eps * t)
        )
        for t in np.linspace(-2.0, 4.0, 13)
    )
    # (b) spin closed form, in its validity regime eps*T_cal << 1
    sp = SpinModelParams(INV_SQRT2, INV_SQRT2, 0.03, 1e-4, 0.01)
    err_spin = max(
        abs(
            quad_smear(lambda u: sigma1_standard(u, sp), float(s), sp.T_cal)
            - sigma1_collapsed(float(s), sp)
        )
        for s in np.linspace(-0.04, 0.04, 9)
    )
    # (c) decay occupation
    dp = DecayModelParams(1.0, 2.0, 1e-4, 0.0, 0.5)
    err_occ = max(
        abs(
            quad_smear(lambda u: occupation(u, dp), float(s), dp.T_cal)
            - occupation_collapsed(float(s), dp)
        )
        for s in np.linspace(-0.5, 2.0, 9)
    )
    ok = err_cos < 1e-8 and err_spin < 1e-6 and err_occ < 1e-6
    assert report(
        6, "Smearing identities", ok,
        f"cos {err_cos:.1e}, spin {err_spin:.1e}, occupation {err_occ:.1e}",
    )


def test_07_spin_suppression():
    p = SpinModelParams(INV_SQRT2, INV_SQRT2, 3.0, 1e-4, 1.0)  # eps*T_cal = 3
    s_peak = 10 * math.pi / 3.0  # cos(eps*s) = 1, far past the switchover
    amp = sigma1_collapsed(s_peak, p)
    err_amp = abs(amp - math.exp(-4.5))
    p0 = SpinModelParams(INV_SQRT2, INV_SQRT2, 3.0, 1e-4, 0.0)
    err_rec = max(
        abs(sigma1_collapsed(float(s), p0) - sigma1_standard(float(s), p0))
        for s in np.linspace(-1.0, 4.0, 101)
    )
    ok = err_amp < 1e-6 and err_rec < 1e-8
    assert report(
        7, "Spin suppression", ok,
        f"amplitude err {err_amp:.1e}, T_cal->0 recovery {err_rec:.1e}",
    )


def test_08_decay_oracle():
    p = DecayModelParams(1.0, 1.0, 1e-4)
    grid = KGrid(p.epsilon - 80.0, p.epsilon + 80.0, 4096, dt=2.5e-4)
    res = integrate_kgrid(p, grid, "decay", t_final=5.0, record_every=400)
    exact = np.exp(-p.Gamma * res.times)
    rel_exp = float((np.abs(res.occupation - exact) / exact).max())
    drift = float(
        np.abs(res.total_probability - res.total_probability[0]).max() / res.times[-1]
    )
    norm_drift = res.norm_drift / (res.times[-1] - res.times[0])
    # Lorentzian core |k - eps| <= 3*Gamma at s = 5: ODE grid vs closed form
    core = np.abs(res.k - p.epsilon) <= 3.0 * p.Gamma
    n_grid = np.abs(res.alpha_final[core]) ** 2
    n_closed = np.abs(alpha_decay_closed(res.k[core], 5.0, p)) ** 2
    rel_lor = float((np.abs(n_grid - n_closed) / n_closed).max())
    # the printed number-density formula has the same Lorentzian k-shape
    shape = photon_number_density(res.k[core], 5.0, p) / n_closed
    shape_const = float(shape.max() / shape.min() - 1.0)
    ok = (rel_exp < 0.02 and rel_lor < 0.03 and drift < 1e-8 and norm_drift < 1e-8
          and shape_const < 1e-9)
    assert report(
        8, "Decay oracle", ok,
        f"exp(-Gs) {rel_exp:.3f}, Lorentzian core {rel_lor:.3f}, "
        f"drift {drift:.1e}/unit time, norm drift {norm_drift:.1e}/unit time",
    )


def test_09_gaussian_decay_regime():
    # Gamma*T_cal = 5: the flagged large-Gamma*T_cal asymptotic evaluator
    # must reproduce sigma*(2*pi*T^2)^{-1/2}*exp(-s^2/2T^2) (independent
    # oracle below).  The full smeared occupation approaches this Gaussian
    # only as Gamma*T_cal -> inf; its documented deviation at Gamma*T_cal=5
    # is checked in test_decay.py.
    p = DecayModelParams(1.0, 5.0, 1e-4, 0.0, 1.0)
    ss = np.linspace(-3.0, 3.0, 61)
    worst = 0.0
    for s in ss:
        got = occupation_gaussian_asymptotic(float(s), p)
        oracle = p.sigma * math.exp(-0.5 * (s / p.T_cal) ** 2) / (
            p.T_cal * math.sqrt(2.0 * math.pi)
        )
        worst = max(worst, abs(got - oracle) / oracle)
    # and the curve is Gaussian, not exponential: log-concavity with
    # constant second difference -1*(ds/T)^2
    vals = np.log([occupation_gaussian_asymptotic(float(s), p) for s in ss])
    d2 = np.diff(vals, 2)
    gauss_shape = float(np.abs(d2 - d2[0]).max())
    ok = worst < 0.02 and gauss_shape < 1e-9
    assert report(
        9, "Gaussian decay regime", ok,
        f"vs oracle {worst:.1e}, log-curvature spread {gauss_shape:.1e}",
    )


def test_10_reproducibility(tmp_path):
    config = tmp_path / "collapse.ini"
    config.write_text(
        "[collapse]\nlambda = 1.0\nenergies = 0.0, 1.0\n"
        "weights = 0.25, 0.75\nt_max = 6.0\nn_steps = 10\nn_traj = 50\n"
    )

    def run(out):
        r = subprocess.run(
            [sys.executable, "-m", "collapse_lab.cli", "collapse",
             "--config", str(config), "--seed", "3", "--out", str(out)],
            capture_output=True,
        )
        assert r.returncode == 0, r.stderr.decode()
        return Path(out).read_bytes()

    a = run(tmp_path / "a.csv")
    b = run(tmp_path / "b.csv")
    c = run(tmp_path / "c.csv")
    ok = a == b == c
    assert report(10, "Reproducibility", ok, f"three reruns identical {ok}")
