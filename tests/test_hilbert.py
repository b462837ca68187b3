"""Tests for the spectral data model and its log-domain primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collapse_lab.hilbert import (
    DiscreteSpectrum,
    DomainError,
    ObservableMatrix,
    SpectralState,
    energy_distribution,
    expectation,
    squared_norm,
)


def make_state(energies, amps):
    return SpectralState.from_amplitudes([float(e) for e in energies], amps)


class TestEnergyLevel:
    """A level is its energy, a float; a degenerate level is a repeated energy."""

    def test_ordering_by_energy_then_degeneracy(self):
        # the sort by energy is stable, so the components of a degenerate
        # level keep the order they were given in
        state = SpectralState((1.0, 0.0, 1.0, -1.0, 1.0), (-0.1, -0.2, -0.3, -0.4, -0.5),
                              (0.1, 0.2, 0.3, 0.4, 0.5))
        assert state.levels == (-1.0, 0.0, 1.0, 1.0, 1.0)
        assert state.log_magnitudes == (-0.4, -0.2, -0.1, -0.3, -0.5)
        assert state.phases == (0.4, 0.2, 0.1, 0.3, 0.5)
        assert state.normalized().levels == state.levels

    def test_rejects_nonfinite_energy(self):
        # nan fails every comparison, so the sort alone would not refuse it
        for level in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="levels must be finite"):
                SpectralState((0.0, level), (0.0, 0.0), (0.0, 0.0))


class TestSpectralState:
    def test_components_sorted_canonically(self):
        levels = (2.0, 0.0, 1.0)
        state = SpectralState(levels, (0.1, 0.2, 0.3), (0.0, 0.0, 0.0))
        assert state.levels == (0.0, 1.0, 2.0)
        assert state.log_magnitudes == (0.2, 0.3, 0.1)

    def test_degenerate_levels_coexist(self):
        state = SpectralState(
            (1.0, 1.0),
            (math.log(0.6), math.log(0.8)),
            (0.0, 0.5),
        )
        assert len(state.levels) == 2

    def test_all_zero_amplitudes_rejected(self):
        with pytest.raises(DomainError):
            make_state([0.0, 1.0], [0.0, 0.0])

    def test_from_amplitudes_round_trip(self):
        amps = np.array([0.5 + 0.1j, -0.3j, 0.2])
        state = make_state([0.0, 1.0, 2.0], amps)
        np.testing.assert_allclose(state.amplitudes(), amps, atol=1e-15)

    def test_normalized_flag_checked(self):
        with pytest.raises(DomainError):
            SpectralState(
                (0.0,), (1.0,), (0.0,), normalized_flag=True
            )

    def test_normalized_has_unit_norm(self):
        state = make_state([0.0, 1.0], [3.0, 4.0]).normalized()
        log_n2 = squared_norm(state)
        assert abs(log_n2) < 1e-12
        assert abs(math.exp(log_n2) - 1.0) < 1e-12

    def test_list_fields_are_held_as_tuples(self):
        # a record given lists equals the one given tuples
        state = SpectralState([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert state == SpectralState((0.0, 1.0), (0.0, 0.0), (0.0, 0.0))
        assert all(type(f) is tuple for f in state[:3])

    def test_list_levels_match_an_observable_basis(self):
        state = SpectralState([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert abs(expectation(state, ObservableMatrix.identity(state.levels)) - 1.0) < 1e-12


class TestSquaredNorm:
    def test_matches_linear_computation(self):
        amps = [0.5, 0.6, 0.2 + 0.3j]
        state = make_state([0.0, 1.0, 2.0], amps)
        n2 = math.exp(squared_norm(state))
        assert abs(n2 - sum(abs(a) ** 2 for a in amps)) < 1e-14

    def test_survives_extreme_underflow(self):
        # direct exp of these log magnitudes would underflow to zero
        state = SpectralState(
            (0.0, 1.0), (-5000.0, -5001.0), (0.0, 0.0)
        )
        log_n2 = squared_norm(state)
        assert math.exp(log_n2) == 0.0
        assert abs(log_n2 - (-10000.0 + math.log(1 + math.exp(-2.0)))) < 1e-9

    def test_matches_exact_logsumexp(self):
        # against the exact log-sum-exp (mpmath at 200 bits) rounded to the
        # nearest double, to 2**-52 of it, or absolutely where it is below 1:
        # scipy.special.logsumexp's own worst on these states is 2.2150e-16,
        # so this is the tightest bound it meets too
        import mpmath

        rng = np.random.default_rng(12)
        kinds = {"single": 0, "zeros": 0, "ties": 0}
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            lm = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
            if n > 1 and rng.random() < 0.3:
                lm[rng.random(n) < 0.4] = -math.inf
            if n > 1 and rng.random() < 0.3:
                lm[rng.integers(0, n, size=2)] = lm.max()
            if np.all(lm == -math.inf):
                lm[0] = 0.0
            kinds["single"] += n == 1
            kinds["zeros"] += bool(np.any(lm == -math.inf))
            kinds["ties"] += int(np.sum(lm == lm.max())) > 1
            state = SpectralState(tuple(map(float, range(n))),
                                  tuple(lm), (0.0,) * n)
            with mpmath.workprec(200):
                exact = float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(2.0 * v))
                                                     for v in lm)))
            got = squared_norm(state)
            assert abs(got - exact) <= 2.0**-52 * max(1.0, abs(exact)), lm
        assert min(kinds.values()) > 100


class TestObservableMatrix:
    def test_rejects_non_hermitian(self):
        basis = (0.0, 1.0)
        with pytest.raises(DomainError):
            ObservableMatrix(basis, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)],
                             ids=["nan", "inf", "nan_imag"])
    def test_rejects_non_finite_entries(self, value):
        # nan compares false, so the Hermitian check alone would accept it
        basis = (0.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            ObservableMatrix(basis, np.array([[value, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_rejects_non_finite_basis(self, level):
        with pytest.raises(DomainError, match="basis must be finite"):
            ObservableMatrix((0.0, level), np.eye(2))

    def test_identity_expectation_is_one(self):
        state = make_state([0.0, 1.0, 2.0], [1e-8, 2.0, 0.5j])
        ident = ObservableMatrix.identity(state.levels)
        assert abs(expectation(state, ident) - 1.0) < 1e-12

    def test_hamiltonian_expectation(self):
        state = make_state([0.0, 2.0], [1.0, 1.0]).normalized()
        ham = ObservableMatrix.hamiltonian(state.levels)
        assert abs(expectation(state, ham) - 1.0) < 1e-12

    def test_projector_selects_level(self):
        state = make_state([0.0, 2.0], [0.6, 0.8])
        proj = ObservableMatrix.energy_projector(state.levels, 2.0)
        assert abs(expectation(state, proj) - 0.64) < 1e-12

    def test_basis_mismatch_rejected(self):
        state = make_state([0.0, 1.0], [1.0, 1.0])
        other = ObservableMatrix.identity((0.0, 3.0))
        with pytest.raises(DomainError):
            expectation(state, other)


class TestDiscreteSpectrum:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            DiscreteSpectrum((0.0, 1.0), (0.5, 0.6))

    def test_energies_strictly_increasing(self):
        with pytest.raises(DomainError):
            DiscreteSpectrum((0.0, 0.0), (0.5, 0.5))

    @pytest.mark.parametrize("energies, weights", [
        ((0.0, 1.0), (math.nan, 1.0)),
        ((math.nan, 1.0), (0.5, 0.5)),
        ((0.0, math.inf), (0.5, 0.5)),
    ], ids=["nan_weight", "nan_energy", "inf_energy"])
    def test_non_finite_values_rejected(self, energies, weights):
        # nan fails every comparison, so no ordering or sum check refuses it
        with pytest.raises(DomainError, match="finite"):
            DiscreteSpectrum(energies, weights)

    @pytest.mark.parametrize("energies", [[0, 1.0], (0, 1)])
    def test_values_are_held_as_tuples_of_floats(self, energies):
        spectrum = DiscreteSpectrum(energies, np.array([0.5, 0.5]))
        assert spectrum == DiscreteSpectrum((0.0, 1.0), (0.5, 0.5))
        assert all(type(f) is tuple and all(type(v) is float for v in f) for f in spectrum)


class TestEnergyDistribution:
    def test_sums_degenerate_levels(self):
        # the two components at 1.0 are given apart; their weights sum
        state = SpectralState(
            (1.0, 2.0, 1.0),
            (math.log(0.6), math.log(math.sqrt(0.28)), math.log(0.6)),
            (0.0, 2.0, 1.0),
        )
        spec = energy_distribution(state)
        assert spec.energies == (1.0, 2.0)
        np.testing.assert_allclose(spec.weights, [0.72, 0.28], atol=1e-12)

    @given(
        phase=st.floats(-10.0, 10.0),
        log_scale=st.floats(-200.0, 200.0),
    )
    def test_invariant_under_global_phase_and_rescaling(self, phase, log_scale):
        base = make_state([0.0, 1.0, 2.5], [0.5, 0.6, 0.62449979984])
        shifted = SpectralState(
            base.levels,
            tuple(lm + log_scale for lm in base.log_magnitudes),
            tuple(ph + phase for ph in base.phases),
        )
        w0 = energy_distribution(base).weights
        w1 = energy_distribution(shifted).weights
        np.testing.assert_allclose(w1, w0, atol=1e-12)


def zero_norm_state():
    # every squared magnitude underflows to 0, though no amplitude is exactly 0
    return SpectralState((0.0, 1.0), (-1e308, -1e308), (0.0, 0.0))


@pytest.mark.parametrize("refused, message", [
    (lambda: SpectralState((), (), ()), "state must have at least one component"),
    (lambda: SpectralState((0.0, 1.0), (0.0,), (0.0, 0.0)),
     "levels, log_magnitudes, phases must have equal length"),
    (lambda: SpectralState((0.0, 1.0), (0.0, 0.0), (0.0,)),
     "levels, log_magnitudes, phases must have equal length"),
    (lambda: ObservableMatrix((0.0, 1.0), np.eye(3)), "entries must be 2x2, got (3, 3)"),
    (lambda: ObservableMatrix((0.0, 1.0), np.ones(2)), "entries must be 2x2, got (2,)"),
    (lambda: DiscreteSpectrum(1.0, 1.0), "energies and weights must be equal-length 1-d"),
    (lambda: DiscreteSpectrum((0.0, 1.0), (1.0,)),
     "energies and weights must be equal-length 1-d"),
    (lambda: DiscreteSpectrum((0.0, 1.0), (1.5, -0.5)), "weights must be nonnegative"),
    (lambda: expectation(zero_norm_state(), ObservableMatrix.identity((0.0, 1.0))),
     "zero-norm state"),
    (lambda: energy_distribution(zero_norm_state()), "zero-norm state"),
], ids=["empty_state", "short_log_magnitudes", "short_phases", "square_entries",
        "vector_entries", "non_sequence_spectrum", "misaligned_spectrum",
        "negative_weight", "zero_norm_expectation", "zero_norm_distribution"])
def test_refusals(refused, message):
    with pytest.raises(DomainError) as info:
        refused()
    assert str(info.value) == message
