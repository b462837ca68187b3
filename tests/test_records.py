"""Tests for the permanent-record bound and the Schwarz-chain verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collapse_lab import records
from collapse_lab.hilbert import DiscreteSpectrum, DomainError
from collapse_lab.records import (
    RecordScenario,
    bhattacharyya,
    record_violation_bound,
    verify_schwarz_chain,
)

FULL_LINE = [(-math.inf, 0.0), (0.0, 1.0), (1.0, math.inf)]


def uniform_spectrum(grid, lo, hi):
    w = tuple(1.0 / (hi - lo) if lo <= i < hi else 0.0 for i in range(len(grid)))
    return DiscreteSpectrum(tuple(grid), w)


def spectrum_pair(kind, n=30):
    grid = [0.1 * i for i in range(n)]
    if kind == "identical":
        return uniform_spectrum(grid, 0, n), uniform_spectrum(grid, 0, n)
    if kind == "disjoint":
        return uniform_spectrum(grid, 0, n // 2), uniform_spectrum(grid, n // 2, n)
    if kind == "half_overlap":
        k = n // 3
        return uniform_spectrum(grid, 0, 2 * k), uniform_spectrum(grid, k, 3 * k)
    raise ValueError(kind)


class TestBhattacharyya:
    def test_identical_is_one(self):
        a, b = spectrum_pair("identical")
        assert abs(bhattacharyya(a, b) - 1.0) < 1e-12

    def test_disjoint_is_zero(self):
        a, b = spectrum_pair("disjoint")
        assert bhattacharyya(a, b) == 0.0

    def test_half_overlap_is_half(self):
        a, b = spectrum_pair("half_overlap")
        assert abs(bhattacharyya(a, b) - 0.5) < 1e-12

    def test_sum_is_correctly_rounded(self):
        # the CLI's half_overlap pair: 500 equal terms sqrt(1e-3 * 1e-3),
        # which a pairwise sum left at 0.5000000000000001
        grid = [i * 1e-3 for i in range(1500)]
        a, b = uniform_spectrum(grid, 0, 1000), uniform_spectrum(grid, 500, 1500)
        assert bhattacharyya(a, b) == 0.5

    def test_requires_common_grid(self):
        a = DiscreteSpectrum((0.0, 1.0), (0.5, 0.5))
        b = DiscreteSpectrum((0.0, 2.0), (0.5, 0.5))
        with pytest.raises(DomainError):
            bhattacharyya(a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8),
           st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=8))
    def test_symmetric_and_bounded(self, w1, w2):
        n = min(len(w1), len(w2))
        grid = tuple(float(i) for i in range(n))
        a = DiscreteSpectrum(grid, tuple(w / sum(w1[:n]) for w in w1[:n]))
        b = DiscreteSpectrum(grid, tuple(w / sum(w2[:n]) for w in w2[:n]))
        ab, ba = bhattacharyya(a, b), bhattacharyya(b, a)
        assert abs(ab - ba) < 1e-12
        assert 0.0 <= ab <= 1.0 + 1e-12


class TestRecordViolationBound:
    def scenario(self, kind, b_plus=1.5, b_minus=-1.5, lam=1.0, t0=0.0):
        plus, minus = spectrum_pair(kind)
        return RecordScenario(plus, minus, b_plus, b_minus, lam, t0)

    def test_disjoint_bound_is_zero_for_all_t(self):
        sc = self.scenario("disjoint")
        for t in [0.1, 1.0, 100.0]:
            (value,), sup = record_violation_bound(sc, [t])
            assert value == 0.0 and sup == 0.0

    def test_bound_increases_to_overlap(self):
        sc = self.scenario("half_overlap")
        ts = [0.5, 1.0, 5.0, 50.0, 5000.0]
        vals = [record_violation_bound(sc, [t])[0][0] for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 0.5) < 1e-3

    def test_closed_form_value(self):
        sc = self.scenario("identical", b_plus=2.0, b_minus=-1.0, lam=0.5)
        t = 3.0
        (value,), sup = record_violation_bound(sc, [t])
        assert abs(value - math.exp(-9.0 / (8 * 0.5 * 3.0))) < 1e-14
        assert sup == 1.0

    def test_epoch_offset_shifts_clock(self):
        sc0 = self.scenario("identical")
        sc1 = self.scenario("identical", t0=2.0)
        (v0,), _ = record_violation_bound(sc0, [3.0])
        (v1,), _ = record_violation_bound(sc1, [5.0])
        assert abs(v0 - v1) < 1e-14

    def test_requires_t_after_t0(self):
        sc = self.scenario("identical", t0=1.0)
        with pytest.raises(DomainError):
            record_violation_bound(sc, [1.0])
        with pytest.raises(DomainError):
            record_violation_bound(sc, [2.0, 0.5])

    def test_array_equals_pointwise(self):
        # a sequence of times, a numpy array's included, gives the one-point
        # values in its order, as Python floats
        sc = self.scenario("half_overlap", t0=0.5)
        ts = np.linspace(0.6, 40.0, 37)
        values, sup = record_violation_bound(sc, ts)
        assert len(values) == ts.size
        assert all(type(v) is float for v in values)
        want = [record_violation_bound(sc, [t]) for t in ts.tolist()]
        assert values == [v for (v,), _ in want]
        assert sup == want[0][1] == bhattacharyya(sc.spectrum_plus, sc.spectrum_minus)

    def test_overlap_is_computed_once(self, monkeypatch):
        sc = self.scenario("half_overlap")
        calls = []
        monkeypatch.setattr(records, "bhattacharyya",
                            lambda *a: calls.append(a) or bhattacharyya(*a))
        values, sup = record_violation_bound(sc, [0.5, 1.0, 5.0, 50.0])
        assert len(values) == 4 and len(calls) == 1
        assert sup == bhattacharyya(sc.spectrum_plus, sc.spectrum_minus)

    def test_spectra_must_share_grid(self):
        a = DiscreteSpectrum((0.0, 1.0), (0.5, 0.5))
        b = DiscreteSpectrum((0.0, 2.0), (0.5, 0.5))
        with pytest.raises(DomainError):
            RecordScenario(a, b, 1.0, -1.0, 1.0)


class TestVerifySchwarzChain:
    @pytest.mark.parametrize("kind", ["identical", "disjoint", "half_overlap"])
    def test_chain_sum_equals_closed_form(self, kind):
        plus, minus = spectrum_pair(kind)
        sc = RecordScenario(plus, minus, 1.0, -1.0, 1.0)
        lhs, rhs, holds = verify_schwarz_chain(sc, 2.0, FULL_LINE)
        assert holds
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))

    def test_partition_placement_irrelevant(self):
        plus, minus = spectrum_pair("half_overlap")
        sc = RecordScenario(plus, minus, 1.0, -1.0, 1.0)
        results = []
        for cuts in [(-2.0, 0.5), (0.0, 7.0), (-15.0, 20.0)]:
            part = [(-math.inf, cuts[0]), (cuts[0], cuts[1]), (cuts[1], math.inf)]
            lhs, rhs, holds = verify_schwarz_chain(sc, 1.5, part)
            assert holds
            results.append(lhs)
        assert max(results) - min(results) < 1e-6

    def test_bad_partition_rejected(self):
        plus, minus = spectrum_pair("identical")
        sc = RecordScenario(plus, minus, 1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            verify_schwarz_chain(sc, 1.0, [(-math.inf, 0.0), (1.0, math.inf)])
        with pytest.raises(DomainError):
            verify_schwarz_chain(
                sc, 1.0, [(-math.inf, 0.0), (0.5, 1.0), (1.0, math.inf)]
            )
