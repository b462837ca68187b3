"""Tests for the collapse evolution and the exact record-increment sampler.

The sampler is `ensemble.simulate_trajectories`; the state it implies at
(t, B) is `engine.evolve`.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from collapse_lab import _kernels
from collapse_lab.engine import (
    CollapseParams,
    collapse_exponent,
    collapse_weights,
    evolve,
    record_marginal_density,
)
from collapse_lab.ensemble import simulate_trajectories
from collapse_lab.hilbert import (
    DomainError,
    SpectralState,
    energy_distribution,
    squared_norm,
)


def two_level(w0=0.25, e0=0.0, e1=1.0):
    levels = [e0, e1]
    return SpectralState.from_amplitudes(
        levels, [math.sqrt(w0), math.sqrt(1 - w0)]
    ).normalized()


PARAMS = CollapseParams(1.0)


def collapsed_energy(state, threshold=0.999):
    """The energy that carries at least `threshold` of the state's weight,
    else None: the `collapse` runner's criterion, max weight >= threshold."""
    dist = energy_distribution(state)
    w = max(dist.weights)
    return dist.energies[dist.weights.index(w)] if w >= threshold else None


class TestCollapseParams:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(DomainError):
            CollapseParams(lam)


class TestEvolve:
    def test_t_zero_is_identity(self):
        state = two_level()
        assert evolve(state, PARAMS, 0.0, 0.0) is state

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            evolve(two_level(), PARAMS, -1.0, 0.0)

    def test_gaussian_weighting(self):
        # each amplitude is multiplied by exp(-(B - 2*lam*t*E)^2/(4*lam*t))
        state = two_level(0.5)
        t, B, lam = 2.0, 1.3, 1.0
        out = evolve(state, CollapseParams(lam), t, B)
        expected = [
            lm - (B - 2 * lam * t * e) ** 2 / (4 * lam * t)
            for lm, e in zip(state.log_magnitudes, [0.0, 1.0])
        ]
        np.testing.assert_allclose(out.log_magnitudes, expected, atol=1e-12)

    def test_phases_advance_at_minus_energy_rate(self):
        state = two_level()
        out = evolve(state, PARAMS, 3.0, 0.0)
        np.testing.assert_allclose(
            np.asarray(out.phases) - np.asarray(state.phases),
            [0.0, -3.0],
            atol=1e-12,
        )

    def test_large_lambda_t_collapses_to_eigenstate(self):
        # B/(2*lam*t) sitting on E = 1 picks that level as lam*t -> inf
        state = two_level(0.5)
        lam_t = 1e4
        out = evolve(state, CollapseParams(1.0), lam_t, 2.0 * lam_t * 1.0)
        assert collapsed_energy(out) == 1.0

    def test_huge_record_value_no_overflow(self):
        # naive exp of the B^2 term would overflow; log domain must not
        state = two_level()
        out = evolve(state, PARAMS, 1.0, 1e8)
        assert all(math.isfinite(lm) for lm in out.log_magnitudes)


class TestComposition:
    def test_two_segment_composition_matches_one_shot(self):
        state = two_level(0.3, 0.0, 2.0)
        t0, t, b0, b = 1.2, 3.7, -0.8, 1.9
        one = evolve(state, PARAMS, t, b).normalized()
        mid = evolve(state, PARAMS, t0, b0)
        two = evolve(mid, PARAMS, t - t0, b - b0).normalized()
        np.testing.assert_allclose(
            one.log_magnitudes, two.log_magnitudes, atol=1e-10
        )
        np.testing.assert_allclose(one.phases, two.phases, atol=1e-10)

    def test_requires_increasing_times(self):
        # a second segment from t0 = 2 back to t = 1 is a negative increment
        with pytest.raises(DomainError):
            evolve(two_level(), PARAMS, 1.0 - 2.0, 0.0)


class TestRecordMarginalDensity:
    def test_normalized(self):
        state = two_level(0.3)
        val, _ = quad(
            lambda b: record_marginal_density(state, PARAMS, 0.7, np.array([b]))[0],
            -20.0,
            25.0,
            limit=200,
        )
        assert abs(val - 1.0) < 1e-8

    def test_eigenstate_gives_single_gaussian(self):
        state = SpectralState.from_amplitudes([2.0], [1.0])
        dt, lam = 0.5, 1.0
        var = lam * dt
        grid = np.linspace(-3, 6, 101)
        dens = record_marginal_density(state, CollapseParams(lam), dt, grid)
        expected = stats.norm.pdf(grid, loc=2 * var * 2.0, scale=math.sqrt(var))
        np.testing.assert_allclose(dens, expected, atol=1e-12)

    def test_symmetric_state_symmetric_about_midpoint(self):
        state = two_level(0.5, -1.0, 1.0)
        dt = 0.9
        x = np.linspace(0.0, 5.0, 40)
        mid = 0.0  # midpoint of the two mixture means
        left = record_marginal_density(state, PARAMS, dt, mid - x)
        right = record_marginal_density(state, PARAMS, dt, mid + x)
        np.testing.assert_allclose(left, right, atol=1e-14)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(DomainError):
            record_marginal_density(two_level(), PARAMS, 0.0, np.array([0.0]))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("arg", ["t", "B"])
    def test_evolve_rejects(self, arg, bad):
        args = {"t": 1.0, "B": 0.0, arg: bad}
        with pytest.raises(DomainError):
            evolve(two_level(), PARAMS, args["t"], args["B"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_record_marginal_density_rejects_dt(self, bad):
        with pytest.raises(DomainError):
            record_marginal_density(two_level(), PARAMS, bad, np.array([0.0, 1.0]))


class TestSampleStep:
    """One-step records: a uniform picks an energy component, then a normal
    draws dB ~ Normal(2*lambda*dt*E, lambda*dt)."""

    def test_increment_distribution_matches_marginal(self):
        # KS test of sampled increments against the mixture CDF
        state = two_level(0.25)
        dt = 2.0
        draws = simulate_trajectories(state, PARAMS, [dt], 11, 4000)[:, 0]
        var = dt
        cdf = lambda b: 0.25 * stats.norm.cdf(
            b, 0.0, math.sqrt(var)
        ) + 0.75 * stats.norm.cdf(b, 2 * var, math.sqrt(var))
        _, p = stats.kstest(draws, cdf)
        assert p > 0.01

    def test_reproducible_for_fixed_stream(self):
        state = two_level()
        d1 = simulate_trajectories(state, PARAMS, [1.0], 3, 6)[5, 0]
        d2 = simulate_trajectories(state, PARAMS, [1.0], 3, 6)[5, 0]
        assert d1 == d2

    def test_increment_is_the_kernel_increment(self, stream_path):
        # row i takes its level from the uniform, word 0 of stream (seed, i),
        # and its increment from the first normal after it
        state = two_level(0.3, 0.0, 2.0)
        dt = 0.7
        dB = simulate_trajectories(state, PARAMS, [dt], 8, 3)[2, 0]
        assert dB == stream_path(state, PARAMS.lam, [dt], 8, 2)[0]

    def test_degenerate_levels_keep_phases_and_count(self):
        levels = [0.0, 0.0, 1.0]
        amps = [0.5, 0.5j, math.sqrt(0.5) * np.exp(0.3j)]
        state = SpectralState.from_amplitudes(levels, amps).normalized()
        dt = 0.4
        dB = simulate_trajectories(state, PARAMS, [dt], 2, 1)[0, 0]
        out = evolve(state, PARAMS, dt, dB)
        assert out.levels == state.levels
        np.testing.assert_allclose(
            out.phases, np.asarray(state.phases) - state.energies() * dt, atol=1e-15
        )
        # both degenerate components get the same collapse factor
        lm0, lm1 = state.log_magnitudes[:2]
        assert abs((out.log_magnitudes[0] - out.log_magnitudes[1]) - (lm0 - lm1)) < 1e-12


class TestCollapseExponent:
    def test_floats_and_arrays_agree_bit_for_bit(self):
        # one expression for both: each float result is its array entry, bit
        # for bit, and t = 0 gives 0 whatever B
        t = np.array([0.0, 0.0, 1e-3, 0.3, 2.0, 9.0])
        b = np.array([2.5, -7.0, 1e3, -0.4, 3.1, -1e8])
        energies = np.array([-0.4, 0.0, 1.3])
        got = collapse_exponent(PARAMS, t, b, energies[:, None])
        for k, e in enumerate(energies.tolist()):
            for j, (t_j, b_j) in enumerate(zip(t.tolist(), b.tolist())):
                x = collapse_exponent(PARAMS, t_j, b_j, e)
                assert type(x) is float
                assert np.float64(x).view(np.uint64) == got[k, j].view(np.uint64)
        np.testing.assert_array_equal(got[:, :2], 0.0)


class TestCollapseWeights:
    def test_are_the_out_of_place_weights_bit_for_bit(self):
        # formed in place, in the order of exp(2*(lw - max lw)) / sum
        born = np.array([0.2, 0.5, 0.3])
        energies, log_w0 = np.array([-0.4, 0.0, 1.3]), 0.5 * np.log(born)
        times = np.array([0.0, 0.3, 2.0, 9.0])
        b = np.random.default_rng(2).normal(scale=3.0, size=(7, times.size))
        lev = (-1, 1, 1)
        lw = log_w0.reshape(lev) + collapse_exponent(PARAMS, times, b, energies.reshape(lev))
        want = np.exp(2.0 * (lw - lw.max(axis=0)))
        want /= want.sum(axis=0)
        got = collapse_weights(energies, log_w0, PARAMS, times, b)
        np.testing.assert_array_equal(got, want)
        # t = 0 gives the Born weights
        np.testing.assert_allclose(got[:, :, 0], born[:, None].repeat(7, 1), rtol=1e-15)


class TestSimulateTrajectory:
    def test_records_are_cumulative_and_reproducible(self):
        state = two_level()
        times = np.linspace(0.5, 5.0, 10)
        b1 = simulate_trajectories(state, PARAMS, times, 9, 1)
        b2 = simulate_trajectories(state, PARAMS, times, 9, 1)
        np.testing.assert_array_equal(b1, b2)
        assert b1.shape == (1, times.size)
        final1 = evolve(state, PARAMS, times[-1], b1[0, -1])
        final2 = evolve(state, PARAMS, times[-1], b2[0, -1])
        assert squared_norm(final1) == squared_norm(final2)

    def test_records_are_the_batched_kernel_rows(self, stream_path):
        # one sampler and one stream order: row i is the level drawn from the
        # uniform of stream (seed, i), then one cumsum of the normals after it
        levels = [0.0, 0.8, 2.0]
        state = SpectralState.from_amplitudes(levels, [0.5, 0.6, 0.62]).normalized()
        times = np.linspace(0.25, 2.5, 10)
        b_path = simulate_trajectories(state, PARAMS, times, 4, 6)
        for i in range(6):
            np.testing.assert_array_equal(
                b_path[i], stream_path(state, PARAMS.lam, times, 4, i))

    def test_records_follow_the_record_marginal_density(self):
        # oracle: B(t) at two grid times against the CDF of the engine's
        # density, sum_j w_j*Phi((x - 2*lam*t*E_j)/sqrt(lam*t)); KS, alpha 0.01
        levels = [0.0, 0.8, 2.0]
        state = SpectralState.from_amplitudes(levels, [0.5, 0.6, 0.62]).normalized()
        times = np.linspace(0.25, 3.0, 12)
        b_path = simulate_trajectories(state, PARAMS, times, 17, 20_000)
        e, w = energy_distribution(state).as_arrays()
        for s in (1, 11):
            t = times[s]

            def cdf(x):
                z = (np.asarray(x)[..., None] - 2.0 * PARAMS.lam * t * e) / math.sqrt(
                    PARAMS.lam * t)
                phi = [_kernels.normal_cdf(v).real for v in z.ravel()]
                return (w * np.reshape(phi, z.shape)).sum(axis=-1)

            for x in (-1.0, 1.5, 4.0):
                mass, _ = quad(lambda y: record_marginal_density(
                    state, PARAMS, t, np.array([y]))[0], -np.inf, x)
                assert abs(cdf(x) - mass) < 1e-8
            assert stats.kstest(b_path[:, s], cdf).pvalue > 0.01

    def test_rejects_unsorted_times(self):
        for times in ([1.0, 0.5], [1.0, math.nan], [1.0, math.inf], [-0.5, 1.0]):
            with pytest.raises(DomainError):
                simulate_trajectories(two_level(), PARAMS, np.array(times), 0, 1)

    def test_grid_may_start_at_zero(self):
        # B(0) = 0 exactly; the later records are those of the grid without it
        b = simulate_trajectories(two_level(), PARAMS, [0.0, 1.0], 3, 50)
        assert np.all(b[:, 0] == 0.0)
        assert np.all(b[:, 1] != 0.0)

    def test_long_run_collapses_and_preserves_spectrum_on_average(self):
        state = two_level(0.25)
        n_done, n_low = 0, 0
        b_path = simulate_trajectories(state, PARAMS, np.linspace(4.0, 40.0, 10), 21, 200)
        for b in b_path[:, -1]:
            energy = collapsed_energy(evolve(state, PARAMS, 40.0, b))
            n_done += energy is not None
            n_low += energy == 0.0
        assert n_done >= 195
        # Born rule: about a quarter of collapses land on E = 0
        assert abs(n_low / 200 - 0.25) < 4 * math.sqrt(0.1875 / 200)


class TestCollapseDiagnostic:
    def test_uncollapsed_state_reports_none(self):
        assert collapsed_energy(two_level(0.5)) is None
