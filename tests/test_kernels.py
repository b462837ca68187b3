"""Kernel tests: the collapse weights and the pass that evaluates them, the
k-grid Chebyshev propagator and the normal distribution function."""

import cmath
import math

import numpy as np
import pytest
from scipy.linalg import expm

from collapse_lab import _kernels, ensemble, kgrid
from collapse_lab.decay import DecayModelParams
from collapse_lab.engine import CollapseParams, collapse_weights, evolve
from collapse_lab.ensemble import simulate_trajectories
from collapse_lab.hilbert import DomainError, EnergyLevel, SpectralState
from collapse_lab.kgrid import KGrid


def pass_args(n_lev=5, seed=4):
    rng = np.random.default_rng(seed)
    levels = [EnergyLevel(e) for e in np.sort(rng.uniform(0.0, 4.0, n_lev))]
    state = SpectralState.from_amplitudes(levels, np.sqrt(rng.dirichlet(np.ones(n_lev))))
    times = np.cumsum(rng.uniform(0.05, 0.5, 12))
    return state, CollapseParams(0.8), times


class TestCollapseSteps:
    """The collapse pass over the step grid, `ensemble._collapse_pass`."""

    def test_numpy_weights_are_normalized(self):
        state, params, times = pass_args()
        for rows, steps, b, w in ensemble._collapse_pass(state, params, times, 4, 64):
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
            assert b.shape == (rows.stop - rows.start, steps.stop - steps.start)
            assert w.shape == (5,) + b.shape

    def test_numpy_single_trajectory_independent_of_batch(self):
        state, params, times = pass_args()
        b8 = simulate_trajectories(state, params, times, 4, 8)
        b1 = simulate_trajectories(state, params, times, 4, 1)
        np.testing.assert_array_equal(b1[0], b8[0])

    def test_yields_the_weights_at_each_grid_time(self, monkeypatch):
        # every (row, step) cell is yielded once, in tiles within the budget,
        # with the weights at (times[s], b) and the records of the untiled
        # pass; budgets of 3 rows, of 5 steps of one row, and of one step
        state, params, times = pass_args()
        whole = simulate_trajectories(state, params, times, 4, 64)
        energies, log_w0 = state.energies(), np.asarray(state.log_magnitudes)
        for tile_values in (5 * 12 * 3, 5 * 5, 1):
            monkeypatch.setattr(ensemble, "_TILE_VALUES", tile_values)
            seen = np.zeros(whole.shape, int)
            for rows, steps, b, w in ensemble._collapse_pass(state, params, times, 4, 64):
                assert w.size <= max(tile_values, 5)
                seen[rows, steps] += 1
                np.testing.assert_array_equal(b, whole[rows, steps])
                for k, t in enumerate(times[steps]):
                    want = collapse_weights(energies, log_w0, params, t, b[:, k])
                    np.testing.assert_array_equal(w[:, :, k], want)
            assert np.all(seen == 1)


class TestCollapseWeights:
    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 25.0])
    def test_is_the_batched_evolve(self, t):
        # each column is the normalized energy distribution of evolve(t, B);
        # B scales with t, since B(0) = 0
        energies = np.array([0.0, 0.5, 1.25, 3.0])
        state = SpectralState.from_amplitudes(
            [EnergyLevel(e) for e in energies], [0.3, 0.6, 0.5j, 0.2]
        )
        params = CollapseParams(0.7)
        bs = t * np.array([-2.0, 0.0, 0.4, 1.7, 3.5])
        w = collapse_weights(
            energies, np.asarray(state.log_magnitudes), params, t, bs
        )
        assert w.shape == (energies.size, bs.size)
        for col, b in zip(w.T, bs):
            lm = np.asarray(evolve(state, params, t, b).normalized().log_magnitudes)
            np.testing.assert_allclose(col, np.exp(2.0 * lm), rtol=0, atol=1e-12)


def kgrid_args(n_k=256, n_steps=400, excited=True):
    k = np.linspace(-20.0, 22.0, n_k)
    dk = k[1] - k[0]
    wk = np.full(n_k, dk)
    wk[0] = wk[-1] = 0.5 * dk
    g = math.sqrt(1.0 / (2 * math.pi))
    if excited:
        beta0, alpha0 = 1.0 + 0.0j, np.zeros(n_k, complex)
    else:
        rng = np.random.default_rng(0)
        alpha0 = rng.normal(size=n_k) + 1j * rng.normal(size=n_k)
        alpha0 /= math.sqrt(float(np.sum(wk * np.abs(alpha0) ** 2)))
        beta0 = 0.0 + 0.0j
    return k, wk, g, 1.0, 0.0, beta0, alpha0, 2e-3, n_steps, 40


class TestKGridChebyshev:
    def test_numpy_records_expected_shape(self):
        args = kgrid_args()
        t, occ, prob, alpha, beta, n_terms, tail, matvecs, drift = kgrid.kgrid_chebyshev(*args)
        assert t.shape == occ.shape == prob.shape == (11,)
        assert 0.0 <= drift <= 1e-12
        assert alpha.shape == (256,)
        # the span (argument half*0.8, about 19) is one segment: one series of
        # exp(-i*H*0.8), as `chebyshev_series` builds it, serves every record
        _, _, coef, want_tail, n_seg = kgrid.chebyshev_series(*args[:4], 2e-3 * 400)
        assert n_seg == 1
        assert (n_terms, tail, matvecs) == (coef.size, want_tail, coef.size)

    def test_numpy_unitary_without_coupling(self):
        # g = 0: |alpha_k| and |beta| are constants of motion
        args = list(kgrid_args(excited=False))
        args[2] = 0.0
        t, occ, prob, alpha, beta, *_ = kgrid.kgrid_chebyshev(*args)
        np.testing.assert_allclose(np.abs(alpha), np.abs(args[6]), atol=1e-10)
        np.testing.assert_allclose(prob, prob[0], atol=1e-10)


def dense_h(k, wk, g, eps, x0):
    """The scaled k-grid Hamiltonian [[diag(k), c], [c^H, eps]] as a matrix."""
    c = g * np.sqrt(wk) * np.exp(-1j * k * x0)
    h = np.diag(np.append(k, eps)).astype(complex)
    h[:-1, -1] = c
    h[-1, :-1] = np.conj(c)
    return h


def dense_oracle(k, wk, g, eps, x0, beta0, alpha0, dt, n_steps, record_every):
    """(times, occupation, total_prob, alpha, beta) from dense expm(-i*H*t)."""
    sw = np.sqrt(wk)
    h = dense_h(k, wk, g, eps, x0)
    psi0 = np.append(sw * alpha0, beta0)
    steps = list(range(0, n_steps + 1, record_every))
    psis = [expm(-1j * h * (s * dt)) @ psi0 for s in steps + [n_steps]]
    occ = np.array([abs(p[-1]) ** 2 for p in psis[:-1]])
    prob = np.array([float(np.vdot(p, p).real) for p in psis[:-1]])
    return np.array(steps) * dt, occ, prob, psis[-1][:-1] / sw, psis[-1][-1]


class TestKGridChebyshevOracle:
    def oracle_args(self, start):
        # 410 steps at record_every 40 leave a remainder of 10 steps
        k, wk, g, eps, _, beta0, alpha0, dt, _, _ = kgrid_args(n_k=64)
        if start != "decay":
            rng = np.random.default_rng(3)
            alpha0 = 0.8 * (rng.normal(size=k.size) + 1j * rng.normal(size=k.size))
            alpha0 /= math.sqrt(float(np.sum(wk * np.abs(alpha0) ** 2)))
            beta0 = 0.6 * np.exp(0.4j)
        if start == "weak_coupling":
            # |c| = 0.065 against a span of 42: the spectrum reaches within |c|
            # of the Weyl bound, and records 0.8 apart take ~46 terms, so an
            # interval cut short of the spectrum diverges visibly
            g, dt = 0.01, 0.02
        return k, wk, g, eps, 0.3, beta0, alpha0, dt, 410, 40

    @pytest.mark.parametrize("start", ["decay", "random", "weak_coupling", "segments"])
    def test_matches_dense_expm(self, start, monkeypatch):
        args = self.oracle_args(start)
        if start == "segments":
            # 1213 steps of 0.02 at record_every 40: a span of argument
            # half*24.26, about 580, is three segments of one series each,
            # with 10 or 11 records in blocks of 4, and 13 steps follow the
            # last record
            args = args[:7] + (0.02, 1213, 40)
            monkeypatch.setattr(kgrid, "RECORD_BLOCK", 4)
        got = kgrid.kgrid_chebyshev(*args)
        want = dense_oracle(*args)
        np.testing.assert_array_equal(got[0], want[0])
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        n_terms, matvecs = got[5], got[7]
        assert matvecs == (3 if start == "segments" else 1) * n_terms
        # the squared norm at every segment end is the initial one
        assert got[8] <= 1e-12

    def test_total_probability_is_the_norm_at_its_segment_start(self, monkeypatch):
        # the three segments of test_matches_dense_expm, with every series
        # scaled by 1.001: the propagated squared norm grows 1.001**2-fold per
        # segment, and each record's total probability is the norm at the
        # start of its segment (records 0-10, 11-20 and 21-30; a record at a
        # segment's end belongs to that segment), so the column steps only at
        # the segment boundaries, and the drift is the norm at the last end
        args = self.oracle_args("random")[:7] + (0.02, 1213, 40)
        series = kgrid.chebyshev_series

        def scaled(*a):
            ctr, half, coef, *rest = series(*a)
            return (ctr, half, 1.001 * coef, *rest)

        monkeypatch.setattr(kgrid, "chebyshev_series", scaled)
        got = kgrid.kgrid_chebyshev(*args)
        prob, drift = got[2], got[8]
        assert np.flatnonzero(np.diff(prob)).tolist() == [10, 20]
        norm0 = float(np.sum(args[1] * np.abs(args[6]) ** 2) + abs(args[5]) ** 2)
        want = norm0 * 1.001 ** (2 * np.repeat([0, 1, 2], [11, 10, 10]))
        np.testing.assert_allclose(prob, want, rtol=1e-12, atol=0)
        assert drift == pytest.approx(norm0 * (1.001**6 - 1.0), rel=1e-9)
        u, beta = np.sqrt(args[1]) * got[3], got[4]
        assert drift == pytest.approx(float(np.vdot(u, u).real) + abs(beta) ** 2 - prob[0],
                                      rel=1e-13)

    def test_record_is_the_final_state_of_a_shorter_run(self):
        # record 5 of a 410-step run is the final state of a 200-step run,
        # whose series is shorter; so are the records before it
        args = list(self.oracle_args("random"))
        long = kgrid.kgrid_chebyshev(*args)
        args[8] = 200
        short = kgrid.kgrid_chebyshev(*args)
        assert short[5] < long[5]
        u, beta = np.sqrt(args[1]) * short[3], short[4]
        np.testing.assert_allclose(
            [long[1][5], long[2][5]],
            [abs(beta) ** 2, float(np.vdot(u, u).real) + abs(beta) ** 2], rtol=0, atol=1e-12)
        for a, b in zip(long[:3], short[:3]):
            np.testing.assert_allclose(a[:6], b, rtol=0, atol=1e-12)

    def test_truncation_contract(self, monkeypatch):
        # Bessel factors that never fall below 1e-15 cannot be truncated
        _, _, coef, tail, _ = kgrid.chebyshev_series(*self.oracle_args("decay")[:4], 0.08)
        assert coef.size > 1 and 0.0 < tail < kgrid.CHEBYSHEV_TOL
        monkeypatch.setattr(kgrid, "bessel_j",
                            lambda n, z: np.ones((n + 1,) + np.shape(z)))
        with pytest.raises(DomainError, match="truncation"):
            kgrid.kgrid_chebyshev(*self.oracle_args("decay"))


class TestBesselJ:
    @staticmethod
    def truncation_orders(z):
        """The orders `chebyshev_series` computes at argument z."""
        return int(z + 20.0 * (z ** (1.0 / 3.0) + 1.0))

    @pytest.mark.parametrize("z", [0.05, 0.4, 3.0, 40.0, 400.0, 4000.0])
    def test_matches_scipy_jv(self, z):
        from scipy.special import jv

        n = self.truncation_orders(z)
        np.testing.assert_allclose(kgrid.bessel_j(n, z), jv(np.arange(n + 1), z),
                                   rtol=0, atol=1e-13)

    def test_one_array_of_arguments(self):
        # the Miller recurrence runs once over every z, from the order the
        # largest needs; each column is J_0(z) ... J_n(z)
        from scipy.special import jv

        z = np.array([0.0, 1e-300, 0.4, 40.0, 400.0])
        n = self.truncation_orders(400.0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            j = kgrid.bessel_j(n, z)
        assert j.shape == (n + 1, 5)
        np.testing.assert_allclose(j, jv(np.arange(n + 1)[:, None], z), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("z", [0.0, 1e-300, 1e-20, 1e-8])
    def test_small_arguments_stay_finite(self, z):
        # z = half*tau is bounded below only by dt > 0; an unscaled recurrence
        # multiplies by 2k/z per step and overflows here
        from scipy.special import jv

        n = self.truncation_orders(z)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            j = kgrid.bessel_j(n, z)
        assert np.all(np.isfinite(j))
        np.testing.assert_allclose(j, jv(np.arange(n + 1), z), rtol=0, atol=1e-13)


class TestChebyshevInterval:
    @pytest.mark.parametrize("start", ["decay", "random", "weak_coupling"])
    def test_spectrum_inside_series_interval(self, start):
        # the relative margin still covers every eigenvalue of H
        args = TestKGridChebyshevOracle().oracle_args(start)
        ctr, half, *_ = kgrid.chebyshev_series(*args[:4], 0.08)
        ev = np.linalg.eigvalsh(dense_h(*args[:5]))
        assert ctr - half < ev.min() and ev.max() < ctr + half

    def test_series_length_follows_the_spectrum(self):
        # a narrow grid (span 0.08) needs few terms even for a long interval
        p = DecayModelParams(1.0, 1e-3, 1e-4)
        k, wk = KGrid.for_params(p).points_and_weights()
        _, _, coef, _, _ = kgrid.chebyshev_series(k, wk, p.g, p.epsilon, 10.0)
        assert coef.size <= 15


def normal_cdf(z):
    """`_kernels.normal_cdf` at each point of the array z."""
    return np.array([_kernels.normal_cdf(v) for v in np.ravel(z)]).reshape(np.shape(z))


def log_normal_cdf(x):
    """`_kernels.log_normal_cdf` at each point of the array x."""
    return np.array([_kernels.log_normal_cdf(v) for v in np.ravel(x)]).reshape(np.shape(x))


class TestNormalCdf:
    """`normal_cdf` and `log_normal_cdf` against scipy and mpmath."""

    @staticmethod
    def reflection_scale(z):
        # the error of Phi(z) = 1 - Phi(-z) is set by the larger of the two
        return np.maximum(1.0, np.maximum(np.abs(normal_cdf(z)), np.abs(normal_cdf(-z))))

    def test_coefficients_are_weideman_fft(self):
        # Weideman's own construction: the real part of a 2M-point FFT
        n, m = _kernels.FADDEEVA_TERMS, 2 * _kernels.FADDEEVA_TERMS
        big_l, a = _kernels._weideman_coefficients()
        assert big_l == math.sqrt(n / math.sqrt(2.0)) and isinstance(a, tuple)
        t = big_l * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
        f = np.concatenate(([0.0], np.exp(-t * t) * (big_l**2 + t * t)))
        want = np.fft.fft(np.fft.fftshift(f)).real[1:n + 1] / (2 * m)
        np.testing.assert_allclose(a, want, rtol=0, atol=1e-15)

    def test_matches_scipy_erf_over_the_domain(self):
        from scipy.special import erf

        re, im = np.linspace(-40.0, 40.0, 161), np.linspace(-30.0, 30.0, 121)
        z = re[:, None] + 1j * im
        want = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
        err = np.abs(normal_cdf(z) - want) / self.reflection_scale(z)
        assert err.max() <= 5e-13

    def test_left_half_plane_matches_mpmath(self):
        # here 1 + erf cancels, so scipy is no oracle for the small values
        import mpmath

        rng = np.random.default_rng(11)
        z = rng.uniform(-30.0, 0.0, 300) + 1j * rng.uniform(-3.0, 3.0, 300)
        with mpmath.workdps(40):
            want = np.array([complex(mpmath.erfc(-mpmath.mpc(v) / mpmath.sqrt(2)) / 2)
                             for v in z])
        np.testing.assert_allclose(normal_cdf(z), want, rtol=1e-13, atol=0)

    def test_real_axis_matches_ndtr(self):
        from scipy.special import ndtr

        x = np.linspace(-10.0, 10.0, 2001)
        got = normal_cdf(x)
        np.testing.assert_allclose(got.real, ndtr(x), rtol=1e-13, atol=0)
        # the spin closed forms take .real: nothing may leak into .imag
        assert np.all(got.imag == 0.0)

    def test_log_matches_log_ndtr(self):
        from scipy.special import log_ndtr

        x = np.concatenate([np.linspace(-1e4, 40.0, 20001),
                            np.linspace(-5.0, 5.0, 1001)])
        want = log_ndtr(x)
        err = np.abs(log_normal_cdf(x) - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-13

    def test_reflection_and_conjugation_identities(self):
        rng = np.random.default_rng(12)
        z = rng.uniform(-40.0, 40.0, 500) + 1j * rng.uniform(-30.0, 30.0, 500)
        phi = normal_cdf(z)
        assert np.all(np.abs(phi + normal_cdf(-z) - 1.0)
                      <= 1e-13 * self.reflection_scale(z))
        np.testing.assert_array_equal(normal_cdf(z.conj()), phi.conj())

    def test_domain_corners_raise_no_floating_point_error(self):
        # `math` and `cmath` raise OverflowError or ValueError where numpy
        # would raise under errstate: none here, and every value is finite
        z = [40 + 30j, 40 - 30j, -40 + 30j, -40 - 30j, 30j, -30j, 0.0, 8e4, -8e4]
        phi = [_kernels.normal_cdf(v) for v in z]
        log_phi = [_kernels.log_normal_cdf(v) for v in (1e4, -1e4, 0.0)]
        assert all(map(cmath.isfinite, phi)) and all(map(math.isfinite, log_phi))
        # Phi(0) = 1/2 exactly: the spin switchover midpoint sits on the grid
        assert phi[-2] == 1.0 and phi[-1] == 0.0 and phi[6] == 0.5

    def test_scalar_in_scalar_out(self):
        assert isinstance(_kernels.normal_cdf(-1.0), complex)
        assert isinstance(_kernels.log_normal_cdf(-1.0), float)
