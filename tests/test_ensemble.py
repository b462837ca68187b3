"""Tests for Gaussian time smearing and Monte Carlo ensemble statistics."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

from collapse_lab import cli, ensemble
from collapse_lab.engine import CollapseParams, evolve
from collapse_lab.ensemble import (
    draw_traj_variates,
    ensemble_density_matrix,
    ensemble_density_matrix_mc,
    ensemble_expectation_mc,
    simulate_trajectories,
    smear,
)
from collapse_lab.hilbert import (
    DomainError,
    EnergyLevel,
    ObservableMatrix,
    SpectralState,
    expectation,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def record_moment_blocks(monkeypatch):
    """Patch `_block_moments` to record the shape of each block it reduces."""
    shapes, reduce = [], ensemble._block_moments

    def recording(blocks):
        for x in blocks:
            shapes.append(x.shape)
            yield x

    monkeypatch.setattr(ensemble, "_block_moments", lambda blocks: reduce(recording(blocks)))
    return shapes


def three_level():
    levels = [EnergyLevel(0.0), EnergyLevel(1.0), EnergyLevel(2.5)]
    amps = np.array([0.5, 0.6, math.sqrt(1 - 0.25 - 0.36)]) * np.exp(
        1j * np.array([0.0, 0.7, -1.1])
    )
    return SpectralState.from_amplitudes(levels, amps).normalized()


class TestSmear:
    @pytest.mark.parametrize("tcal", [-1.0, math.inf, math.nan])
    def test_rejects_negative_or_non_finite_width(self, tcal):
        with pytest.raises(DomainError, match="T_cal must be finite and >= 0"):
            smear(lambda t: t, 0.0, tcal)

    def test_zero_width_returns_value(self):
        assert smear(lambda t: t**2, 3.0, 0.0) == 9.0

    def test_constant_invariant(self):
        assert abs(smear(lambda t: 5.0, 1.0, 2.0) - 5.0) < 1e-12

    def test_cosine_damping_identity(self):
        # smearing a pure tone damps it by exp(-eps^2*T^2/2), same phase
        eps, tcal = 2.0, 0.7
        for t in np.linspace(-2.0, 4.0, 9):
            got = smear(lambda u: math.cos(eps * u), float(t), tcal)
            want = math.exp(-0.5 * (eps * tcal) ** 2) * math.cos(eps * t)
            assert abs(got - want) < 1e-12

    def test_step_function_smears_to_normal_cdf(self, quad_smear):
        tcal = 0.5
        for t in [-1.0, -0.2, 0.0, 0.3, 1.2]:
            got = quad_smear(lambda u: float(u > 0), t, tcal)
            assert abs(got - ndtr(t / tcal)) < 1e-8

    def test_adaptive_and_hermite_agree_on_smooth(self, quad_smear):
        f = lambda t: math.exp(-0.3 * t) * math.sin(t)
        a = smear(f, 1.1, 0.8)
        b = quad_smear(f, 1.1, 0.8)
        assert abs(a - b) < 1e-9

    def test_gaussian_widths_add_in_quadrature(self):
        # smearing a unit Gaussian by T gives a Gaussian of width sqrt(1+T^2)
        tcal = 1.3
        f = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        for t in [0.0, 0.7, 2.0]:
            got = smear(f, t, tcal)
            w2 = 1.0 + tcal**2
            want = math.exp(-0.5 * t * t / w2) / math.sqrt(2 * math.pi * w2)
            assert abs(got - want) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        t=st.floats(-1.0, 1.0),
    )
    def test_linearity(self, a, b, t):
        f = lambda u: math.sin(u)
        g = lambda u: u
        combined = smear(lambda u: a * f(u) + b * g(u), t, 0.6)
        separate = a * smear(f, t, 0.6) + b * smear(g, t, 0.6)
        assert abs(combined - separate) < 1e-10


class TestDrawTrajVariates:
    def test_batch_size_independent(self):
        # trajectory i's variates do not depend on how many others are drawn
        u5, n5 = draw_traj_variates(77, range(5), 4)
        u9, n9 = draw_traj_variates(77, range(9), 4)
        np.testing.assert_array_equal(u5, u9[:5])
        np.testing.assert_array_equal(n5, n9[:5])
        # a row range reads the same streams
        u36, n36 = draw_traj_variates(77, range(3, 6), 4)
        np.testing.assert_array_equal(u36, u9[3:6])
        np.testing.assert_array_equal(n36, n9[3:6])


class TestEnsembleExpectation:
    def test_spectrum_conserved_for_functions_of_h(self):
        state = three_level()
        params = CollapseParams(0.7)
        e = state.energies()
        observables = {
            "H": ObservableMatrix.hamiltonian(state.levels),
            "H^2": ObservableMatrix(state.levels, np.diag(e**2)),
            "P(E=1)": ObservableMatrix.energy_projector(state.levels, 1.0),
        }
        for name, obs in observables.items():
            mean, se = ensemble_expectation_mc(state, params, 2.5, obs, 4000, 13)
            exact = expectation(state, obs)
            assert abs(mean - exact) < 4 * se, name

    def test_requires_matching_basis(self):
        state = three_level()
        obs = ObservableMatrix.identity((EnergyLevel(0.0),))
        with pytest.raises(DomainError):
            ensemble_expectation_mc(state, CollapseParams(1.0), 1.0, obs, 10, 0)


class TestEnsembleDensityMatrix:
    def test_t_zero_is_pure_projector(self):
        state = three_level()
        rho = ensemble_density_matrix(state, CollapseParams(1.0), 0.0).entries
        amps = state.amplitudes()
        np.testing.assert_allclose(rho, np.outer(amps, amps.conj()), atol=1e-14)

    def test_diagonal_time_invariant_exactly(self):
        state = three_level()
        params = CollapseParams(0.3)
        d0 = np.diag(ensemble_density_matrix(state, params, 0.0).entries)
        for t in [0.5, 5.0, 500.0]:
            dt = np.diag(ensemble_density_matrix(state, params, t).entries)
            np.testing.assert_array_equal(dt, d0)

    def test_offdiagonal_damping_rate(self):
        state = three_level()
        lam, t = 0.4, 2.0
        rho0 = ensemble_density_matrix(state, CollapseParams(lam), 0.0).entries
        rho = ensemble_density_matrix(state, CollapseParams(lam), t).entries
        e = state.energies()
        damp = np.exp(-0.5 * lam * t * (e[:, None] - e[None, :]) ** 2)
        np.testing.assert_allclose(np.abs(rho), np.abs(rho0) * damp, atol=1e-14)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_time_rejected(self, t):
        with pytest.raises(DomainError, match="finite and >= 0"):
            ensemble_density_matrix(three_level(), CollapseParams(0.4), t)

    def test_monte_carlo_agrees_entrywise(self):
        state = three_level()
        params = CollapseParams(0.7)
        mc, se = ensemble_density_matrix_mc(state, params, 1.5, 4000, 99)
        closed = ensemble_density_matrix(state, params, 1.5).entries
        assert np.all(np.abs(mc - closed) < 4 * np.maximum(se, 1e-15))


class TestMonteCarloOracle:
    """Both Monte Carlo estimators against the trajectories' complex
    amplitudes, built here from their records: `engine.evolve` at (t, B)."""

    T, N_TRAJ, SEED = 1.3, 400, 21

    @staticmethod
    def observable(state):
        # Hermitian with complex off-diagonals: with the state's phases, the
        # estimator's real matrix Re(D^H O D) differs from Re(O)
        m = np.array([[0.4, 1.0 - 0.7j, 0.3 + 0.9j],
                      [0.0, -1.2, 0.5 - 0.2j],
                      [0.0, 0.0, 2.0]])
        return ObservableMatrix(state.levels, np.triu(m) + np.triu(m, 1).conj().T)

    def amplitudes(self, state, params):
        b = simulate_trajectories(state, params, [self.T], self.SEED, self.N_TRAJ)
        return np.array([evolve(state, params, self.T, float(x)).normalized().amplitudes()
                         for x in b[:, 0]])

    def test_expectation_is_the_mean_of_the_trajectories(self):
        state, params = three_level(), CollapseParams(0.8)
        obs = self.observable(state)
        amps = self.amplitudes(state, params)
        vals = np.einsum("ti,ij,tj->t", amps.conj(), obs.entries, amps).real
        mean, se = ensemble_expectation_mc(state, params, self.T, obs, self.N_TRAJ, self.SEED)
        assert mean == pytest.approx(vals.mean(), rel=0, abs=1e-12)
        assert se == pytest.approx(vals.std(ddof=1) / math.sqrt(self.N_TRAJ), rel=0, abs=1e-12)
        # the phases matter: dropping them (Re(O) with |a|) is far off
        mags = np.abs(amps)
        wrong = np.einsum("ti,ij,tj->t", mags, obs.entries.real, mags).mean()
        assert abs(wrong - mean) > 1e-2

    def test_density_matrix_is_the_mean_projector(self):
        state, params = three_level(), CollapseParams(0.8)
        amps = self.amplitudes(state, params)
        projs = amps[:, :, None] * amps.conj()[:, None, :]
        want_se = np.sqrt(np.var(projs.real, axis=0, ddof=1)
                          + np.var(projs.imag, axis=0, ddof=1)) / math.sqrt(self.N_TRAJ)
        mean, se = ensemble_density_matrix_mc(state, params, self.T, self.N_TRAJ, self.SEED)
        np.testing.assert_allclose(mean, projs.mean(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(se, want_se, rtol=0, atol=1e-12)

    def test_tiles_change_no_estimate(self, monkeypatch):
        # tiles of 21 trajectories (2**6 level weights) or one tile of all 400,
        # with moment blocks of 45 values, 9 trajectories of 3 roots, a value
        # and its deviation for the expectation and 3 of 3 roots, 6 products
        # s_i*s_j and their deviations for the density matrix (their
        # boundaries fall inside the tiles), or one block of all 400
        state, params = three_level(), CollapseParams(0.8)
        obs = self.observable(state)
        for moment_values in (45, 2**15):
            monkeypatch.setattr(ensemble, "_MOMENT_VALUES", moment_values)
            got = []
            for tile_values in (2**6, 2**14):
                monkeypatch.setattr(ensemble, "_TILE_VALUES", tile_values)
                got.append((
                    ensemble_expectation_mc(state, params, self.T, obs, self.N_TRAJ, self.SEED),
                    ensemble_density_matrix_mc(state, params, self.T, self.N_TRAJ, self.SEED),
                ))
            (e0, (m0, s0)), (e1, (m1, s1)) = got
            assert e0 == e1
            np.testing.assert_array_equal(m0, m1)
            np.testing.assert_array_equal(s0, s1)

    def test_density_matrix_is_the_moments_of_the_full_products(self, monkeypatch):
        # the estimator reduces the products s_i*s_j with i <= j only; those
        # of the full (n_lev, n_lev) matrix, in the same blocks of 3
        # trajectories (45 values of 15 each), give the same mean and
        # standard error exactly
        state, params = three_level(), CollapseParams(0.8)
        monkeypatch.setattr(ensemble, "_MOMENT_VALUES", 45)
        mean, se = ensemble_density_matrix_mc(state, params, self.T, self.N_TRAJ, self.SEED)
        n, full, m2 = ensemble._block_moments(
            s[:, None, :] * s[None, :, :]
            for s in ensemble._root_blocks(state, params, self.T, self.SEED, self.N_TRAJ, 15))
        d = ensemble._phase_factors(state, self.T)
        np.testing.assert_array_equal(mean, full * d[:, None] * d.conj())
        np.testing.assert_array_equal(se, np.sqrt(m2 / (n - 1)) / math.sqrt(n))

    @pytest.mark.parametrize("block", [1, 7, 10**4])
    def test_block_moments_are_the_whole_sample_moments(self, block):
        # 10**4 values of 10**6 + N(0, 1), in blocks of `block` (7 leaves a
        # last block of 4): a naive sum x**2 - n*mean**2 is off by 1.4e-4 here
        x = 1e6 + np.random.default_rng(3).standard_normal(10**4)
        n, mean, m2 = ensemble._block_moments(
            x[i:i + block] for i in range(0, x.size, block))
        assert n == x.size
        assert mean == pytest.approx(np.mean(x), rel=1e-14, abs=0)
        assert m2 == pytest.approx(np.var(x, ddof=1) * (x.size - 1), rel=1e-10, abs=0)

    @pytest.mark.parametrize("estimator", ["expectation", "density_matrix"])
    def test_memory_does_not_grow_with_n_traj(self, estimator):
        # both runs are many tiles and moment blocks; one float (or n_lev**2
        # products) per trajectory would grow the peak 3x (10x)
        state, params = three_level(), CollapseParams(0.8)
        obs = ObservableMatrix.hamiltonian(state.levels)
        peaks = []
        for n_traj in (20_000, 200_000):
            tracemalloc.start()
            try:
                if estimator == "expectation":
                    ensemble_expectation_mc(state, params, self.T, obs, n_traj, self.SEED)
                else:
                    ensemble_density_matrix_mc(state, params, self.T, n_traj, self.SEED)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_expectation_working_set_at_1e5_trajectories(self):
        # the peak is a tile's draw: the moment block's roots (6553
        # trajectories x 3 levels), the tile's uniforms and normals (5461
        # rows x 2 floats), its row indices and the 8 Philox arrays (8 words
        # a row), about 630 KiB
        state, params = three_level(), CollapseParams(0.8)
        obs = ObservableMatrix.hamiltonian(state.levels)
        ensemble_expectation_mc(state, params, self.T, obs, 10**5, self.SEED)
        tracemalloc.start()
        try:
            ensemble_expectation_mc(state, params, self.T, obs, 10**5, self.SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800 * 2**10

    @pytest.mark.parametrize("estimator", ["expectation", "density_matrix"])
    def test_moment_block_counts_every_value_it_holds(self, monkeypatch, estimator):
        # per trajectory a block holds the n_lev roots and, for each value it
        # reduces (one s^T Q s, or the n_lev*(n_lev+1)/2 products s_i*s_j),
        # that value and its deviation from the block mean: the largest
        # block that keeps them within _MOMENT_VALUES
        state, params = three_level(), CollapseParams(0.8)
        shapes = record_moment_blocks(monkeypatch)
        if estimator == "expectation":
            obs = ObservableMatrix.hamiltonian(state.levels)
            ensemble_expectation_mc(state, params, self.T, obs, 20_000, self.SEED)
        else:
            ensemble_density_matrix_mc(state, params, self.T, 20_000, self.SEED)
        per_traj = len(state.levels) + 2 * math.prod(shapes[0][:-1])
        assert per_traj == (5 if estimator == "expectation" else 15)
        blocks = [shape[-1] for shape in shapes]
        assert len(blocks) > 1 and sum(blocks) == 20_000 and max(blocks) == blocks[0]
        assert blocks[0] * per_traj <= ensemble._MOMENT_VALUES < (blocks[0] + 1) * per_traj

    def test_shipped_ensemble_config_is_one_moment_block(self, monkeypatch):
        # ensemble_damping.ini's 2000 trajectories of 3 levels reduce in one
        # block, so its golden summary does not depend on the block size
        cfg = cli.ExperimentConfig.from_file(CONFIGS / "ensemble_damping.ini")
        shapes = record_moment_blocks(monkeypatch)
        ensemble.EXPERIMENTS["ensemble"].run(cfg)
        assert len(cfg.parameters["energies"]) == 3
        assert shapes == [(cfg.parameters["n_traj"],)] == [(2000,)]

    def test_density_matrix_memory_does_not_grow_with_the_levels(self):
        # 32 levels, 2*10**4 trajectories: a moment block is 2**15 // 32**2 =
        # 32 trajectories, not 2**12 trajectories of 1024 products s_i*s_j
        # and as many deviations, which peaked at 68 MB
        levels = [EnergyLevel(0.1 * i) for i in range(32)]
        state = SpectralState.from_amplitudes(levels, np.full(32, 1.0 / math.sqrt(32)))
        tracemalloc.start()
        try:
            ensemble_density_matrix_mc(state, CollapseParams(0.8), self.T, 20_000, self.SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_density_matrix_needs_two_trajectories(self):
        # one trajectory has no sample standard error
        with pytest.raises(DomainError, match="n_traj must be >= 2"):
            ensemble_density_matrix_mc(three_level(), CollapseParams(1.0), 1.0, 1, 0)


class TestMonteCarloAtTimeZero:
    """At t = 0 every trajectory has B = 0 and the Born weights, so both
    estimators give the closed form with no spread."""

    PARAMS, N_TRAJ, SEED = CollapseParams(0.5), 10**4, 11

    def test_expectation_is_the_exact_mean(self):
        state = three_level()
        ham = ObservableMatrix.hamiltonian(state.levels)
        mean, se = ensemble_expectation_mc(state, self.PARAMS, 0.0, ham, self.N_TRAJ, self.SEED)
        assert mean == pytest.approx(expectation(state, ham), rel=1e-14, abs=0)
        assert se < 1e-15

    def test_density_matrix_is_the_pure_projector(self):
        state = three_level()
        mean, se = ensemble_density_matrix_mc(state, self.PARAMS, 0.0, self.N_TRAJ, self.SEED)
        closed = ensemble_density_matrix(state, self.PARAMS, 0.0).entries
        np.testing.assert_allclose(mean, closed, rtol=1e-14, atol=0)
        assert np.all(se < 1e-15)

    def test_negative_t_is_refused(self):
        state = three_level()
        ham = ObservableMatrix.hamiltonian(state.levels)
        with pytest.raises(DomainError, match="t must be >= 0"):
            ensemble_expectation_mc(state, self.PARAMS, -0.1, ham, self.N_TRAJ, self.SEED)
        with pytest.raises(DomainError, match="t must be >= 0"):
            ensemble_density_matrix_mc(state, self.PARAMS, -0.1, self.N_TRAJ, self.SEED)


class TestSubsystemExpectation:
    """A noninteracting subsystem's smeared expectation: `smear` of
    `expectation` of its unitary Schrodinger state."""

    def test_stationary_state_unsmeared(self):
        state = three_level()
        obs = ObservableMatrix.hamiltonian(state.levels)
        got = smear(lambda tau: expectation(state, obs), 2.0, 0.9)
        assert abs(got - expectation(state, obs)) < 1e-10

    def test_oscillating_coherence_damped(self):
        # two-level coherence <V> = cos(dE*t) smears to the damped cosine
        levels = (EnergyLevel(0.0), EnergyLevel(2.0))
        v = ObservableMatrix(levels, np.array([[0.0, 1.0], [1.0, 0.0]]))

        def state_at(t):
            amps = np.array([1.0, np.exp(-2j * t)]) / math.sqrt(2.0)
            return SpectralState.from_amplitudes(levels, amps)

        tcal = 0.5
        got = smear(lambda tau: expectation(state_at(tau), v), 1.2, tcal)
        want = math.exp(-0.5 * (2 * tcal) ** 2) * math.cos(2 * 1.2)
        assert abs(got - want) < 1e-10
