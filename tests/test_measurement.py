"""Tests for shared-spectrum branch superpositions and the weight ratio."""

import math

import numpy as np
import pytest

from collapse_lab import measurement
from collapse_lab.engine import CollapseParams, evolve
from collapse_lab.hilbert import DomainError, squared_norm
from collapse_lab.measurement import (
    BranchSpec,
    branch_weight_ratio,
    build_branches,
    fixture_path,
    load_branch_fixture,
)

PARAMS = CollapseParams(1.0)


def shared_spec(beta2_1=0.2):
    return BranchSpec(
        energies=(0.0, 1.0, 2.0),
        magnitudes=(0.5, 0.3, 0.8),
        phases_1=(0.0, 0.4, -0.9),
        phases_2=(1.1, -2.0, 0.3),
        beta_1=complex(math.sqrt(beta2_1)),
        beta_2=complex(math.sqrt(1 - beta2_1)),
    )


class TestBranchSpec:
    def test_beta_normalization_enforced(self):
        with pytest.raises(DomainError):
            BranchSpec((0.0,), (1.0,), (0.0,), (0.0,), 1.0, 1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            BranchSpec((0.0, 1.0), (1.0,), (0.0, 0.0), (0.0, 0.0), 1.0, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("beta_1", complex(math.nan)),
        ("energies", (math.nan, 1.0, 2.0)),
        ("magnitudes", (math.nan, 0.3, 0.8)),
        ("phases_2", (math.inf, -2.0, 0.3)),
        ("magnitudes_2", (0.5, math.inf, 0.8)),
    ], ids=["nan_beta_1", "nan_energy", "nan_magnitude", "inf_phase", "inf_magnitude_2"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            shared_spec()._replace(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("magnitudes", (0.0, 0.0, 0.0)),
        ("magnitudes_2", (0.0, 0.0, 0.0)),
        ("magnitudes", (0.6, -0.3, 0.8)),
        ("magnitudes_2", (0.6, 0.3, -0.2)),
    ], ids=["zero_branch_1", "zero_branch_2", "negative_magnitude", "negative_magnitude_2"])
    def test_zero_or_negative_magnitudes_rejected(self, field, value):
        with pytest.raises(DomainError, match="nonzero|nonnegative"):
            shared_spec()._replace(**{field: value})

    def test_shared_spectrum_flag(self):
        assert shared_spec().shared_spectrum
        control = BranchSpec(
            (0.0, 1.0), (0.6, 0.8), (0.0, 0.0), (0.0, 0.0), 1.0, 0.0,
            magnitudes_2=(0.8, 0.6),
        )
        assert not control.shared_spectrum


class TestBuildBranches:
    def test_branches_share_levels_and_magnitudes(self):
        s1, s2 = build_branches(shared_spec())
        assert s1.levels == s2.levels
        np.testing.assert_allclose(s1.log_magnitudes, s2.log_magnitudes)
        assert s1.phases != s2.phases

    def test_fixture_with_a_repeated_energy(self, tmp_path):
        # a degenerate level is a repeated energy: the branches' components at
        # 1.0 keep the fixture's order, and the ratio is the evolved norms'
        fixture = tmp_path / "degenerate.txt"
        fixture.write_text("# beta2_1 0.4\n# beta2_2 0.6\n"
                           "1.0 0.5 0.1 0.4 0.3\n0.0 0.6 0.2 0.5 0.6\n1.0 0.3 0.3 0.6 0.5\n")
        spec = load_branch_fixture(fixture)
        s1, s2 = build_branches(spec)
        assert s1.levels == s2.levels == (0.0, 1.0, 1.0)
        np.testing.assert_allclose(np.exp(s1.log_magnitudes), [0.6, 0.5, 0.3], rtol=1e-15)
        np.testing.assert_allclose(np.exp(s2.log_magnitudes), [0.6, 0.3, 0.5], rtol=1e-15)
        np.testing.assert_allclose(s1.phases, [0.2, 0.1, 0.3], rtol=1e-15)
        for t, b in ((0.5, -1.0), (2.0, 3.0)):
            want = 1.5 * math.exp(squared_norm(evolve(s2, PARAMS, t, b))
                                  - squared_norm(evolve(s1, PARAMS, t, b)))
            assert branch_weight_ratio(spec, PARAMS, t, b) == pytest.approx(want, rel=1e-12)


class TestBranchWeightRatio:
    def test_constant_over_t_and_b_for_shared_spectrum(self):
        spec = shared_spec(0.2)
        for t in np.linspace(0.25, 5.0, 8):
            for b in np.linspace(-10.0, 10.0, 8):
                r = branch_weight_ratio(spec, PARAMS, float(t), float(b))
                assert abs(r - 4.0) < 4.0 * 1e-12

    def test_t_zero_gives_initial_ratio(self):
        assert branch_weight_ratio(shared_spec(0.5), PARAMS, 0.0, 0.0) == 1.0

    def test_control_spectrum_ratio_varies(self):
        spec = load_branch_fixture(fixture_path("branch_control.txt"))
        rs = [
            branch_weight_ratio(spec, PARAMS, t, b)
            for t in np.linspace(0.25, 5.0, 10)
            for b in np.linspace(-12.0, 12.0, 10)
        ]
        assert max(rs) / min(rs) > 1.5

    @pytest.mark.parametrize("fixture", ["branch_shared.txt", "branch_control.txt"])
    def test_grid_is_evolve_and_squared_norm(self, fixture):
        # the log-sum-exp over levels against the state-by-state route, t = 0
        # (the identity for every B) included
        spec = load_branch_fixture(fixture_path(fixture))
        ts = [0.0, 0.25, 1.0, 5.0]
        bs = [-12.0, -0.5, 0.0, 3.0, 12.0]
        got = [[branch_weight_ratio(spec, PARAMS, t, b) for b in bs] for t in ts]
        s1, s2 = build_branches(spec)
        w = abs(spec.beta_2) ** 2 / abs(spec.beta_1) ** 2
        for t, row in zip(ts, got):
            for b, ratio in zip(bs, row):
                assert type(ratio) is float
                log_n1 = squared_norm(evolve(s1, PARAMS, t, b))
                log_n2 = squared_norm(evolve(s2, PARAMS, t, b))
                want = w * math.exp(log_n2 - log_n1)
                assert ratio == pytest.approx(want, rel=1e-12)
        assert got[0] == [got[0][0]] * len(bs)

    def test_log_magnitudes_are_taken_once_per_spec(self):
        # 2*log m of each branch is cached by its magnitudes: a grid of
        # points takes it once per branch, not once per point
        spec = load_branch_fixture(fixture_path("branch_control.txt"))
        measurement._twice_log_magnitudes.cache_clear()
        for t in (0.5, 1.0, 2.0):
            for b in (-3.0, 0.0, 3.0):
                branch_weight_ratio(spec, PARAMS, t, b)
        info = measurement._twice_log_magnitudes.cache_info()
        assert (info.misses, info.hits) == (2, 16)

    def test_zero_magnitudes_take_no_log_of_zero(self):
        # math.log(0.0) would raise: a zero magnitude enters as -inf
        half = complex(math.sqrt(0.5))
        spec = BranchSpec((0.0, 1.0, 2.0), (0.0, 0.6, 0.8), (0.0,) * 3, (0.0,) * 3,
                          half, half, magnitudes_2=(0.6, 0.0, 0.8))
        r = branch_weight_ratio(spec, PARAMS, 1.0, 2.0)
        # level weights m^2*exp(2*(-t*E^2 + B*E)) = m^2*exp(0, 2, 0)
        assert r == pytest.approx(1.0 / (0.36 * math.exp(2.0) + 0.64), rel=1e-14)

    def test_zero_beta_rejected(self):
        spec = BranchSpec((0.0,), (1.0,), (0.0,), (0.0,), 0.0, 1.0)
        with pytest.raises(DomainError):
            branch_weight_ratio(spec, PARAMS, 1.0, 0.0)

    @pytest.mark.parametrize("refused, message", [
        (lambda: shared_spec()._replace(magnitudes_2=(0.5, 0.3)),
         "magnitudes_2 length mismatch"),
        (lambda: branch_weight_ratio(shared_spec(), PARAMS, -0.5, 0.0),
         "t and B must be finite and t >= 0"),
        (lambda: branch_weight_ratio(shared_spec(), PARAMS, math.nan, 0.0),
         "t and B must be finite and t >= 0"),
        (lambda: branch_weight_ratio(shared_spec(), PARAMS, math.inf, 0.0),
         "t and B must be finite and t >= 0"),
        (lambda: branch_weight_ratio(shared_spec(), PARAMS, 1.0, math.nan),
         "t and B must be finite and t >= 0"),
        (lambda: branch_weight_ratio(shared_spec(), PARAMS, 1.0, -math.inf),
         "t and B must be finite and t >= 0"),
    ], ids=["magnitudes_2_length", "negative_t", "nan_t", "inf_t", "nan_b", "inf_b"])
    def test_refusals(self, refused, message):
        with pytest.raises(DomainError) as info:
            refused()
        assert str(info.value) == message


class TestFixtures:
    def test_shared_fixture_round_trip(self):
        spec = load_branch_fixture(fixture_path("branch_shared.txt"))
        assert spec.shared_spectrum
        assert abs(abs(spec.beta_2) ** 2 - 0.8) < 1e-12
        assert len(spec.energies) == 6

    def test_planewave_fixture_phases_are_translations(self):
        spec = load_branch_fixture(fixture_path("branch_planewave.txt"))
        d = np.asarray(spec.phases_2) - np.asarray(spec.phases_1)
        np.testing.assert_allclose(d, 0.7 * np.asarray(spec.energies), atol=1e-12)

    def test_control_fixture_has_second_magnitudes(self):
        spec = load_branch_fixture(fixture_path("branch_control.txt"))
        assert spec.magnitudes_2 is not None

    def test_blank_lines_are_skipped(self, tmp_path):
        fixture = tmp_path / "f.txt"
        fixture.write_text("\n# beta2_1 0.2\n\n0.0 0.6 0.0 0.1\n   \n1.0 0.8 0.2 0.3\n\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("# beta2_1 0.2\n0.0 0.6 0.0 0.1\n1.0 0.8 0.2 0.3\n")
        assert load_branch_fixture(fixture) == load_branch_fixture(plain)
        assert load_branch_fixture(fixture).energies == (0.0, 1.0)

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0 0.0\n")
        with pytest.raises(DomainError):
            load_branch_fixture(bad)

    def test_partial_magnitude_2_column_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.0 1.0 0.0 0.0 0.5\n1.0 1.0 0.0 0.0\n")
        with pytest.raises(DomainError):
            load_branch_fixture(bad)

    @pytest.mark.parametrize("body", [
        "0.0 1.0 nan 0.0\n",
        "# beta2_2 inf\n0.0 1.0 0.0 0.0\n",
        "# beta2_1 -0.5\n0.0 1.0 0.0 0.0\n",
        "# beta2_2 -0.5\n0.0 1.0 0.0 0.0\n",
        "0.0 1.0 0.0 0.0 0.0\n1.0 1.0 0.0 0.0 0.0\n",
        "",
    ], ids=["nan_phase", "inf_beta", "negative_beta2_1", "negative_beta2_2",
            "zero_magnitudes_2", "empty"])
    def test_values_without_a_finite_ratio_rejected(self, tmp_path, body):
        bad = tmp_path / "bad.txt"
        bad.write_text(body)
        with pytest.raises(DomainError):
            load_branch_fixture(bad)

    def test_zero_beta2_2_gives_a_zero_ratio(self, tmp_path):
        fixture = tmp_path / "f.txt"
        fixture.write_text("# beta2_2 0\n0.0 1.0 0.0 0.0\n1.0 0.5 0.0 0.3\n")
        spec = load_branch_fixture(fixture)
        assert branch_weight_ratio(spec, PARAMS, 1.0, 0.0) == 0.0
