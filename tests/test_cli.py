"""End-to-end tests of the command-line runner."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import collapse_lab
from collapse_lab import cli, decay, ensemble, kgrid, measurement, spin
from collapse_lab.cli import ExperimentConfig, ConfigError, main
from collapse_lab.decay import DecayModelParams
from collapse_lab.engine import CollapseParams, collapse_weights, evolve
from collapse_lab.ensemble import ensemble_density_matrix, simulate_trajectories
from collapse_lab.hilbert import energy_distribution
from collapse_lab.kgrid import KGrid, integrate_kgrid
from collapse_lab.measurement import branch_weight_ratio, load_branch_fixture

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


#: the shipped configs whose runs and `validate` load no numpy
NUMPY_FREE = ("spin_suppression", "decay_closed", "records_half_overlap",
              "measurement_shared")


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return path


def array_bytes(cfg):
    """The array estimate of `cfg`'s experiment record, by count key."""
    return cli.experiment_record(cfg.experiment).array_bytes(cfg.parameters, cfg.model)


def collapse_state(energies, weights):
    """The initial state the `collapse` record builds from these keys."""
    state, _ = ensemble.EXPERIMENTS["collapse"].build(
        {"lambda": 1.0, "energies": tuple(energies), "weights": weights})
    return state


SPIN_INI = """[spin]
a = 0.7071067811865476
b = 0.7071067811865476
epsilon = 3.0
sigma = 1e-4
t_cal = 1.0
s_max = 6.0
n_s = 50
"""

COLLAPSE_INI = """[collapse]
lambda = 1.0
energies = 0.0, 1.0
weights = 0.25, 0.75
t_max = 6.0
n_steps = 10
n_traj = 40
seed = 5
"""

ENSEMBLE_INI = """[ensemble]
lambda = 0.5
energies = 0.0, 1.0, 2.5
magnitudes = 0.5, 0.6, 0.6244997998398398
t_max = 6.0
n_t = 12
n_traj = 200
"""

MEASUREMENT_INI = """[measurement]
fixture = branch_shared.txt
lambda = 1.0
t_max = 5.0
n_t = 4
b_max = 12.0
n_b = 4
"""

# lambda*t overflows: T_cal = sqrt(lambda*t_max) is inf
OVERFLOW_COLLAPSE_INI = """[collapse]
lambda = 1e300
energies = 0.0, 1e200
weights = 0.5, 0.5
t_max = 1e10
n_steps = 5
n_traj = 10
"""


OVERSIZE_KGRID_INI = f"""[decay]
mode = kgrid
epsilon = 1.0
gamma = 1.0
sigma = 1e-4
s_max = 5.0
n_modes = {10**12}
"""


SMALL_KGRID_INI = """[decay]
mode = kgrid
epsilon = 1.0
gamma = 1.0
sigma = 1e-4
s_max = 0.5
n_modes = 1024
half_width = 20.0
dt = 2e-3
record_every = 50
"""

CLOSED_DECAY_INI = """[decay]
epsilon = 1.0
gamma = 5.0
sigma = 1e-4
t_cal = 1.0
s_max = 4.0
n_s = 50
"""


RECORDS_INI = """[records]
spectra = half_overlap
lambda = 1.0
b_plus = 1.0
b_minus = -1.0
t_max = 5.0
n_t = 10
"""


class TestConfigParsing:
    def test_valid_config_resolves_defaults(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, SPIN_INI))
        assert cfg.experiment == "spin"
        assert cfg.parameters["n_s"] == 50
        assert cfg.parameters["s_min"] == -6.0  # defaulted to -s_max

    def test_missing_required_key_names_it(self, tmp_path):
        bad = SPIN_INI.replace("epsilon = 3.0\n", "")
        with pytest.raises(ConfigError, match="'epsilon'"):
            ExperimentConfig.from_file(write_config(tmp_path, bad))

    def test_unknown_key_names_it(self, tmp_path):
        with pytest.raises(ConfigError, match="'bogus'"):
            ExperimentConfig.from_file(write_config(tmp_path, SPIN_INI + "bogus = 1\n"))

    def test_nonpositive_lambda_rejected(self, tmp_path):
        bad = COLLAPSE_INI.replace("lambda = 1.0", "lambda = -2.0")
        with pytest.raises(ConfigError, match="'lambda'"):
            ExperimentConfig.from_file(write_config(tmp_path, bad))

    def test_misaligned_lists_rejected(self, tmp_path):
        bad = COLLAPSE_INI.replace("weights = 0.25, 0.75", "weights = 1.0")
        with pytest.raises(ConfigError, match="align"):
            ExperimentConfig.from_file(write_config(tmp_path, bad))

    def test_section_must_match_experiment(self, tmp_path):
        path = write_config(tmp_path, SPIN_INI)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path, experiment="decay")

    def test_derived_t_cal(self, tmp_path):
        cfg = ExperimentConfig.from_file(write_config(tmp_path, COLLAPSE_INI))
        assert abs(collapse_lab._t_cal(cfg.parameters) - math.sqrt(6.0)) < 1e-12

    def test_levels_sorted_with_aligned_keys(self, tmp_path):
        ini = """[ensemble]
lambda = 1.0
energies = 2.0, 0.0, 1.0
magnitudes = 0.2, 0.3, 0.4
phases = 0.5, 0.6, 0.7
t_max = 1.0
"""
        cfg = ExperimentConfig.from_file(write_config(tmp_path, ini))
        assert cfg.parameters["energies"] == (0.0, 1.0, 2.0)
        assert cfg.parameters["magnitudes"] == (0.3, 0.4, 0.2)
        assert cfg.parameters["phases"] == (0.6, 0.7, 0.5)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, SPIN_INI)
        assert main(["spin", "--config", str(path), "--out", "o.csv"]) == 0

    def test_config_error_is_two(self, tmp_path, capsys):
        bad = write_config(tmp_path, SPIN_INI.replace("epsilon = 3.0\n", ""))
        assert main(["spin", "--config", str(bad)]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_missing_file_is_two(self, tmp_path):
        assert main(["spin", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("threshold", ["0", "1.5"])
    def test_threshold_outside_unit_interval_is_two(self, tmp_path, capsys, threshold):
        path = write_config(tmp_path, COLLAPSE_INI + f"threshold = {threshold}\n")
        assert main(["collapse", "--config", str(path), "--out",
                     str(tmp_path / "c.csv")]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_seed_flag_above_64_bits_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path, COLLAPSE_INI)
        assert main(["collapse", "--config", str(path), "--seed", str(2**64),
                     "--out", str(tmp_path / "c.csv")]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_ensemble_single_trajectory_is_two(self, tmp_path, capsys):
        ini = """[ensemble]
lambda = 1.0
energies = 0.0, 1.0
magnitudes = 0.6, 0.8
t_max = 1.0
n_traj = 1
"""
        path = write_config(tmp_path, ini)
        assert main(["ensemble", "--config", str(path), "--out",
                     str(tmp_path / "e.csv")]) == 2
        assert "n_traj" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_span_beyond_recurrence_time_is_two(self, tmp_path, capsys, command):
        # recurrence time 2*pi*64/40 ~ 10 is shorter than the span of 20; the
        # span depends on config keys alone
        ini = """[decay]
epsilon = 1.0
gamma = 1.0
sigma = 1e-4
mode = kgrid
n_modes = 64
half_width = 20
s_max = 20.0
dt = 0.1
"""
        path = write_config(tmp_path, ini)
        if command == "run":
            argv = ["decay", "--config", str(path), "--out", str(tmp_path / "d.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'s_max'" in err and "recurrence" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_narrow_excitation_packet_is_two(self, tmp_path, capsys, command):
        # sigma = 1e-4 gives a packet whose momentum spread the shipped grid's
        # half-span of 40 does not cover; the rule depends on config keys alone
        ini = (CONFIGS / "decay_kgrid.ini").read_text()
        assert "packet = decay" in ini
        ini = ini.replace("packet = decay", "packet = excitation")
        path = write_config(tmp_path, ini)
        if command == "run":
            argv = ["decay", "--config", str(path), "--out", str(tmp_path / "d.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'packet'" in err and "too narrow" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_spin_amplitudes_refused_by_spin_are_two(self, tmp_path, capsys, command):
        # a^2 + b^2 = 1 - 1.9e-11: inside a 1e-9 tolerance, outside spin's 1e-12
        ini = SPIN_INI.replace("0.7071067811865476", "0.70710678118")
        path = write_config(tmp_path, ini)
        if command == "run":
            argv = ["spin", "--config", str(path), "--out", str(tmp_path / "s.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "'b'" in err

    @pytest.mark.parametrize("s_max", ["0.0", "-2.0"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_nonpositive_s_max_without_s_min_names_s_max(self, tmp_path, capsys,
                                                          command, s_max):
        # s_min defaults to -s_max, so the range is empty; the key at fault is
        # the one the config holds, not the defaulted s_min
        path = write_config(tmp_path, SPIN_INI.replace("s_max = 6.0", f"s_max = {s_max}"))
        if command == "run":
            argv = ["spin", "--config", str(path), "--out", str(tmp_path / "s.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "key 's_max'" in err and "key 's_min'" not in err

    @pytest.mark.parametrize("ini, key", [
        (SPIN_INI.replace("a = 0.7071067811865476", "a = nan"), "'a'"),
        (COLLAPSE_INI.replace("weights = 0.25, 0.75", "weights = nan, 1"), "'weights'"),
    ], ids=["scalar", "list"])
    def test_non_finite_value_is_two(self, tmp_path, capsys, ini, key):
        path = write_config(tmp_path, ini)
        section = ini[1:ini.index("]")]
        assert main([section, "--config", str(path), "--out",
                     str(tmp_path / "o.csv")]) == 2
        assert key in capsys.readouterr().err

    def test_non_finite_result_is_three_and_writes_nothing(self, tmp_path):
        ini = """[collapse]
lambda = 1e300
energies = 0.0, 1e200
weights = 0.5, 0.5
t_max = 1e10
n_steps = 5
n_traj = 10
"""
        path = write_config(tmp_path, ini)
        out = tmp_path / "c.csv"
        with np.errstate(all="ignore"):
            assert main(["collapse", "--config", str(path), "--out", str(out)]) == 3
        assert not out.exists()
        assert not out.with_suffix(".summary.json").exists()

    def test_overflow_is_three(self, tmp_path, capsys):
        ini = SPIN_INI.replace("epsilon = 3.0", "epsilon = 1e200")
        ini = ini.replace("sigma = 1e-4", "sigma = 1e-200")
        path = write_config(tmp_path, ini.replace("t_cal = 1.0", "t_cal = 1e200"))
        assert main(["spin", "--config", str(path), "--out",
                     str(tmp_path / "s.csv")]) == 3
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["measurement", "validate"])
    @pytest.mark.parametrize("fixture, body", [
        ("nope.txt", None), ("bad.txt", "0.0 1.0 abc 0.0\n"),
        ("bad.txt", "# beta2_1 0\n0.0 1.0 0.0 0.0\n1.0 1.0 0.0 0.5\n"),
        ("bad.txt", "0.0 0.0 0.0 0.0\n1.0 0.0 0.0 0.5\n"),
        ("bad.txt", "inf 1.0 0.0 0.0\n1.0 1.0 0.0 0.5\n"),
        ("bad.txt", "0.0 nan 0.0 0.0\n1.0 1.0 0.0 0.5\n"),
        ("bad.txt", measurement.fixture_path("branch_control.txt").read_text().replace(
            "0.300000   0.2000", "0.300000   -0.2000")),
    ], ids=["missing", "non_numeric", "zero_beta2_1", "zero_magnitudes",
            "inf_energy", "nan_magnitude", "negative_magnitude_2"])
    def test_bad_fixture_is_two(self, tmp_path, monkeypatch, capsys,
                                command, fixture, body):
        monkeypatch.chdir(tmp_path)
        if body is not None:
            (tmp_path / fixture).write_text(body)
        path = write_config(tmp_path, MEASUREMENT_INI.replace(
            "branch_shared.txt", fixture))
        args = [command, "--config", str(path)]
        if command == "measurement":
            args += ["--out", "m.csv"]
        assert main(args) == 2
        assert "'fixture'" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_fixture_echoed_as_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, MEASUREMENT_INI)
        assert main(["measurement", "--config", str(path), "--out", "m.csv"]) == 0
        doc = json.loads((tmp_path / "m.summary.json").read_text())
        assert doc["parameters"]["fixture"] == "branch_shared.txt"

    @pytest.mark.parametrize("out", ["missing/o.csv", "."],
                             ids=["no_parent", "directory"])
    def test_bad_out_is_two_before_running(self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)

        def never(cfg):
            raise AssertionError("the runner ran despite a bad --out")

        monkeypatch.setitem(spin.EXPERIMENTS, "spin",
                            spin.EXPERIMENTS["spin"]._replace(run=never))
        path = write_config(tmp_path, SPIN_INI)
        assert main(["spin", "--config", str(path), "--out", out]) == 2
        assert "--out" in capsys.readouterr().err

    def test_record_every_beyond_step_count_is_two(self, tmp_path, capsys):
        ini = """[decay]
epsilon = 1.0
gamma = 1.0
sigma = 1e-4
mode = kgrid
s_max = 0.01
record_every = 100
"""
        path = write_config(tmp_path, ini)
        assert main(["decay", "--config", str(path), "--out",
                     str(tmp_path / "d.csv")]) == 2
        assert "'record_every'" in capsys.readouterr().err

    def test_validate_non_finite_t_cal_is_three(self, tmp_path, capsys):
        path = write_config(tmp_path, OVERFLOW_COLLAPSE_INI)
        assert main(["validate", "--config", str(path)]) == 3
        assert "T_cal" in capsys.readouterr().err

    def test_non_finite_result_is_three_without_warnings(self, tmp_path, recwarn):
        path = write_config(tmp_path, OVERFLOW_COLLAPSE_INI)
        assert main(["collapse", "--config", str(path), "--out",
                     str(tmp_path / "c.csv")]) == 3
        assert len(recwarn) == 0

    def test_kgrid_large_max_abs_k_exits_zero(self, tmp_path):
        # dt*max|k| ~ 5: dt is a record spacing, the propagator has no step limit
        ini = """[decay]
mode = kgrid
epsilon = 1e4
gamma = 1
sigma = 0.01
n_modes = 1024
dt = 5e-4
s_max = 0.5
"""
        path = write_config(tmp_path, ini)
        out = tmp_path / "d.csv"
        assert main(["decay", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        s, occ, _ = np.array(rows).T
        np.testing.assert_allclose(occ, np.exp(-s), rtol=0.05)
        doc = json.loads(out.with_suffix(".summary.json").read_text())
        assert doc["scalars"]["probability_drift_per_unit_time"] <= 1e-8

    def test_closed_decay_long_before_arrival_exits_zero(self, tmp_path):
        # Gamma*s_max = 2000: exp(-z*s) at s = -s_max would overflow, but the
        # occupation there is 0 without it
        ini = """[decay]
epsilon = 1.0
gamma = 5.0
sigma = 1e-4
t_cal = 1.0
s_max = 400.0
n_s = 401
"""
        path = write_config(tmp_path, ini)
        out = tmp_path / "d.csv"
        assert main(["decay", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        s, occ, occ_collapsed = np.array(rows).T
        assert np.all(occ[s < 0] == 0.0) and np.isfinite(occ_collapsed).all()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("old, new, key", [
        ("n_modes = 1024", "n_modes = 32", "'n_modes'"),
        ("half_width = 20.0", "half_width = 10", "'half_width'"),
        ("epsilon = 1.0", "epsilon = 1e20", "'half_width'"),
    ], ids=["n_modes", "half_width", "span_below_ulp"])
    def test_kgrid_refused_by_decay_is_two(self, tmp_path, capsys, command,
                                           old, new, key):
        # kgrid's own grid checks, raised at the boundary as the key they test
        path = write_config(tmp_path, SMALL_KGRID_INI.replace(old, new))
        if command == "run":
            argv = ["decay", "--config", str(path), "--out", str(tmp_path / "d.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    def test_excitation_step_count_includes_the_packet_lead(self, tmp_path):
        # the excitation packet starts 10 widths (3.9995 here) before s = 0:
        # 7999 steps of dt = 5e-4, not round(s_max/dt) = 20, in the check,
        # the run and the memory estimate alike
        ini = """[decay]
mode = kgrid
packet = excitation
epsilon = 1.0
gamma = 1.0
sigma = 2.0
s_max = 0.01
record_every = 40
"""
        path = write_config(tmp_path, ini)
        assert main(["validate", "--config", str(path)]) == 0
        cfg = ExperimentConfig.from_file(path)
        _, table, _ = decay.EXPERIMENTS["decay"].run(cfg)
        assert len(table) == 7999 // 40 + 1 == 200
        cfg = ExperimentConfig.from_file(
            write_config(tmp_path, ini.replace("record_every = 40", "record_every = 10")))
        assert array_bytes(cfg)["'record_every'"] == 8 * 12 * 800

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_finite_step_count_is_two(self, tmp_path, capsys, command):
        # span/dt overflows to inf within the recurrence time: the config
        # alone is at fault
        path = write_config(tmp_path, SMALL_KGRID_INI.replace("dt = 2e-3", "dt = 1e-310"))
        if command == "run":
            argv = ["decay", "--config", str(path), "--out", str(tmp_path / "d.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'s_max'" in err and "non-finite step count" in err

    def test_chebyshev_truncation_is_three(self, tmp_path, capsys, monkeypatch):
        # Bessel factors that never fall below 1e-15 break the truncation contract
        monkeypatch.setattr(kgrid, "bessel_j",
                            lambda n, z: np.ones((n + 1,) + np.shape(z)))
        path = write_config(tmp_path, SMALL_KGRID_INI)
        out = tmp_path / "d.csv"
        assert main(["decay", "--config", str(path), "--out", str(out)]) == 3
        assert "truncation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("ini,key", [
        (COLLAPSE_INI.replace("n_steps = 10", f"n_steps = {10**12}"), "'n_steps'"),
        (OVERSIZE_KGRID_INI, "'n_modes'"),
    ], ids=["collapse_n_steps", "kgrid_n_modes"])
    def test_oversized_arrays_are_two(self, tmp_path, capsys, command, ini, key):
        # numpy would refuse these requests at once; the config must be
        # refused first, naming the key
        path = write_config(tmp_path, ini)
        if command == "run":
            experiment = ini[1:ini.index("]")]
            argv = [experiment, "--config", str(path), "--out", str(tmp_path / "o.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert key in err and "GiB" in err

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("ini, key", [
        (ENSEMBLE_INI.replace("n_t = 12", "n_t = 1"), "'n_t'"),
        (SPIN_INI.replace("n_s = 50", "n_s = 1"), "'n_s'"),
        (SMALL_KGRID_INI.replace("mode = kgrid", "mode = closed") + "n_s = 1\n", "'n_s'"),
        (MEASUREMENT_INI.replace("n_b = 4", "n_b = 1"), "'n_b'"),
    ], ids=["ensemble_n_t", "spin_n_s", "closed_decay_n_s", "measurement_n_b"])
    def test_one_point_grid_between_endpoints_is_two(self, tmp_path, capsys, command,
                                                      ini, key):
        # linspace(lo, hi, 1) holds lo alone: the table would miss its far end
        # (the ensemble its t_max, where the Monte Carlo summary is taken)
        path = write_config(tmp_path, ini)
        if command == "run":
            experiment = ini[1:ini.index("]")]
            argv = [experiment, "--config", str(path), "--out", str(tmp_path / "o.csv")]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"key {key}" in err and "at least 2" in err

    @pytest.mark.parametrize("ini, t_max", [
        (COLLAPSE_INI.replace("n_steps = 10", "n_steps = 1"), 6.0),
        (RECORDS_INI.replace("n_t = 10", "n_t = 1"), 5.0),
        (MEASUREMENT_INI.replace("n_t = 4", "n_t = 1"), 5.0),
    ], ids=["collapse_n_steps", "records_n_t", "measurement_n_t"])
    def test_one_point_grid_from_t_max_over_n_runs(self, tmp_path, ini, t_max):
        # these grids start at t_max/n, so their one point is t_max
        path, out = write_config(tmp_path, ini), tmp_path / "o.csv"
        experiment = ini[1:ini.index("]")]
        assert main([experiment, "--config", str(path), "--out", str(out)]) == 0
        t = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)[:, 0]
        assert set(t) == {t_max}

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("ini, needle", [
        (SPIN_INI + "epsilon = 2.0\n", "'epsilon'"),
        (SPIN_INI + RECORDS_INI, "'records'"),
        ("[bogus]\nlambda = 1.0\n", "[bogus]"),
        (COLLAPSE_INI.replace("seed = 5", "seed = five"), "'seed'"),
        (COLLAPSE_INI.replace("seed = 5", "seed = -1"), "'seed'"),
        (COLLAPSE_INI.replace("seed = 5", f"seed = {2**64}"), "'seed'"),
        (COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = ,"), "'energies'"),
        (RECORDS_INI.replace("half_overlap", "bogus"), "'spectra'"),
        (SMALL_KGRID_INI.replace("mode = kgrid", "mode = bogus"), "'mode'"),
        (SMALL_KGRID_INI + "packet = bogus\n", "'packet'"),
        (COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = 1.0, 1.0"), "'energies'"),
        (COLLAPSE_INI.replace("weights = 0.25, 0.75", "weights = -0.25, 0.75"), "'weights'"),
        (COLLAPSE_INI.replace("weights = 0.25, 0.75", "weights = 0, 0"), "'weights'"),
        (ENSEMBLE_INI + "phases = 0.1, 0.2\n", "'phases'"),
        (RECORDS_INI.replace("b_minus = -1.0", "b_minus = 1.0"), "'b_minus'"),
        (RECORDS_INI + "t0 = 5.0\n", "'t0'"),
        (SPIN_INI + "s_min = 6.0\n", "'s_min'"),
        # a key the decay mode does not read: the closed forms take no grid,
        # step or packet, and the k-grid oracle applies no T_cal
        (CLOSED_DECAY_INI + "n_modes = 5\n", "'n_modes'"),
        (CLOSED_DECAY_INI + "dt = 1e9\n", "'dt'"),
        (CLOSED_DECAY_INI + "packet = excitation\n", "'packet'"),
        (CLOSED_DECAY_INI + "x0 = 0.5\n", "'x0'"),
        (SMALL_KGRID_INI + "t_cal = 3\n", "'t_cal'"),
        (SMALL_KGRID_INI + "n_s = 50\n", "'n_s'"),
    ], ids=["malformed", "two_sections", "unknown_section", "seed_not_integer",
            "seed_negative", "seed_above_64_bits", "empty_list", "bad_spectra",
            "bad_mode", "bad_packet", "repeated_energies", "negative_weights",
            "zero_weights", "misaligned_phases", "equal_records", "t_max_not_after_t0",
            "empty_s_range", "closed_decay_n_modes", "closed_decay_dt",
            "closed_decay_packet", "closed_decay_x0", "kgrid_t_cal", "kgrid_n_s"])
    def test_config_refusal_is_two_and_writes_nothing(self, tmp_path, monkeypatch,
                                                      capsys, command, ini, needle):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, ini)
        section = ini[1:ini.index("]")]
        if command == "run":
            argv = [section if section in cli.EXPERIMENTS else "spin",
                    "--config", str(path), "--out", "o.csv"]
        else:
            argv = ["validate", "--config", str(path)]
        assert main(argv) == 2
        assert needle in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("cols, table, summary, needle", [
        (["t (time)", "x (1)"], np.array([[0.0, 1.0], [1.0, math.inf]]), {}, "'x (1)'"),
        (["t (time)"], np.array([[0.0]]), {"bad": math.nan}, "'bad'"),
        (["t (time)", "x (1)"], [(0.0, 1.0), (1.0, math.nan)], {}, "'x (1)'"),
    ], ids=["table_inf", "summary_nan", "rows_nan"])
    def test_non_finite_output_is_three_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, cols, table, summary, needle):
        # a runner's result, a numpy table or rows of floats, passes
        # _check_finite before anything is written
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(spin.EXPERIMENTS, "spin", spin.EXPERIMENTS["spin"]._replace(
            run=lambda cfg: (cols, table, summary)))
        path = write_config(tmp_path, SPIN_INI)
        assert main(["spin", "--config", str(path), "--out", "o.csv"]) == 3
        assert needle in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_python_overflow_is_three(self, tmp_path, monkeypatch, capsys):
        # Gamma*T_cal = 1e200 is finite, but occupation_collapsed's
        # (Gamma*T_cal)**2 is a Python float power: OverflowError, not numpy's
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, """[decay]
epsilon = 1.0
gamma = 1e100
sigma = 1e-4
t_cal = 1e100
s_max = 1.0
n_s = 5
""")
        assert main(["decay", "--config", str(path), "--out", "o.csv"]) == 3
        assert "overflow" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_math_domain_error_is_three(self, tmp_path, monkeypatch, capsys):
        # Gamma*sigma = 1e-400 underflows to 0, and occupation_collapsed's
        # math.log of it raises ValueError; the config itself is valid
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, """[decay]
epsilon = 1.0
gamma = 1e-200
sigma = 1e-200
t_cal = 1.0
s_max = 4.0
n_s = 5
""")
        assert main(["validate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["decay", "--config", str(path), "--out", "o.csv"]) == 3
        assert "math domain error" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_zero_division_is_three(self, tmp_path, monkeypatch, capsys):
        # a closed form's Python float division by zero raises, as numpy's
        # did under the runners' errstate
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(spin, "sigma1_collapsed", lambda s, p: 1.0 / (s - s))
        path = write_config(tmp_path, SPIN_INI)
        assert main(["spin", "--config", str(path), "--out", "o.csv"]) == 3
        assert "division by zero" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_silent_float_overflow_is_three(self, tmp_path, monkeypatch, capsys):
        # Python float arithmetic overflows to inf with no error: the grid's
        # step 2*s_max/(n_s - 1) is inf, its first point nan, and
        # _check_finite refuses the table
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, """[decay]
epsilon = 1.0
gamma = 5.0
sigma = 1e-4
t_cal = 1.0
s_max = 1e308
n_s = 5
""")
        assert main(["decay", "--config", str(path), "--out", "o.csv"]) == 3
        assert "column 't (time)' holds non-finite values" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_measurement_float_overflow_is_three(self, tmp_path, monkeypatch):
        # lambda*t*E^2 overflows to inf, and -inf*0 at E = 0 is nan: with
        # Python floats no error is raised, so the non-finite ratios must
        # be refused before anything is written
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, MEASUREMENT_INI.replace(
            "lambda = 1.0", "lambda = 1e300").replace(
            "t_max = 5.0", "t_max = 1e10").replace("b_max = 12.0", "b_max = 1e300"))
        assert main(["measurement", "--config", str(path), "--out", "o.csv"]) == 3
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_records_float_overflow_is_three(self, tmp_path, monkeypatch, capsys):
        # (b_plus - b_minus)**2 is a Python float power: OverflowError
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, RECORDS_INI.replace(
            "b_plus = 1.0", "b_plus = 1e200").replace("b_minus = -1.0", "b_minus = -1e200"))
        assert main(["records", "--config", str(path), "--out", "o.csv"]) == 3
        assert "overflow" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestValidate:
    def test_accepts_a_billion_collapse_trajectories(self, tmp_path):
        # the collapse pass holds one tile of trajectories at a time
        ini = COLLAPSE_INI.replace("n_traj = 40", f"n_traj = {10**9}")
        path = write_config(tmp_path, ini)
        assert main(["validate", "--config", str(path)]) == 0

    def test_accepts_a_billion_ensemble_trajectories(self, tmp_path):
        # the Monte Carlo streams its moments over blocks of trajectories
        ini = ENSEMBLE_INI.replace("n_traj = 200", f"n_traj = {10**9}")
        path = write_config(tmp_path, ini)
        assert main(["validate", "--config", str(path)]) == 0

    def test_echoes_derived_t_cal(self, tmp_path, capsys):
        path = write_config(tmp_path, COLLAPSE_INI)
        assert main(["validate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "T_cal" in out
        assert abs(float(out.strip().split("=")[-1]) - math.sqrt(6.0)) < 1e-15

    @pytest.mark.parametrize("config, source", [
        ("spin_suppression.ini", "key 't_cal'"),
        ("decay_closed.ini", "key 't_cal'"),
        ("collapse_two_level.ini", "derived, sqrt(lambda*t)"),
        ("records_half_overlap.ini", "derived, sqrt(lambda*t)"),
    ])
    def test_t_cal_label_names_its_source(self, capsys, config, source):
        # spin and decay take T_cal from their t_cal key and have no lambda
        assert main(["validate", "--config", str(CONFIGS / config)]) == 0
        label, value = capsys.readouterr().out.splitlines()[-1].split(" = ")
        assert label == f"T_cal ({source})"
        assert float(value) == collapse_lab._t_cal(
            ExperimentConfig.from_file(CONFIGS / config).parameters)

    def test_universe_fixture_t_cal(self, capsys):
        assert main(["validate", "--config", str(CONFIGS / "universe_tcal.ini")]) == 0
        out = capsys.readouterr().out
        tcal = float(out.split("=")[-1])
        assert abs(tcal - 1.5e-13) < 0.05e-13

    def test_invalid_config_is_two(self, tmp_path):
        bad = write_config(tmp_path, COLLAPSE_INI.replace("1.0", "0.0", 1))
        assert main(["validate", "--config", str(bad)]) == 2


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


class TestCollapseRunner:
    def test_columns_follow_echoed_energy_order(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ini = COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = 1.0, 0.0")
        ini = ini.replace("weights = 0.25, 0.75", "weights = 0.9, 0.1")
        path = write_config(tmp_path, ini.replace("n_traj = 40", "n_traj = 400"))
        assert main(["collapse", "--config", str(path), "--out", "c.csv"]) == 0
        doc = json.loads((tmp_path / "c.summary.json").read_text())
        assert doc["parameters"]["energies"] == [0.0, 1.0]
        assert doc["parameters"]["weights"] == [0.1, 0.9]
        header, rows = read_csv(tmp_path / "c.csv")
        e0 = header.index("mean_weight_E0 (dimensionless)")
        assert abs(rows[-1][e0] - 0.1) < 0.05

    @pytest.mark.parametrize("weights, same_as", [
        ("1e308, 1e308", "1, 1"),  # their sum overflows
        ("1e-200, 1e200", "0, 1"),  # the ratio 1e-400 underflows to 0
    ], ids=["huge", "tiny_ratio"])
    def test_weights_are_the_state_of_their_ratios(self, tmp_path, monkeypatch,
                                                   weights, same_as):
        # each level's log-magnitude is log(w/max w)/2, so no sum of weights
        # is formed to overflow, and a ratio that underflows is a level of
        # zero amplitude: table and scalars are those of the ratios
        monkeypatch.chdir(tmp_path)
        outputs = []
        for w in (weights, same_as):
            path = write_config(tmp_path, COLLAPSE_INI.replace(
                "weights = 0.25, 0.75", f"weights = {w}"))
            for command in (["validate"], ["collapse", "--out", "c.csv"]):
                assert main([command[0], "--config", str(path), *command[1:]]) == 0
            outputs.append(((tmp_path / "c.csv").read_bytes(),
                            json.loads((tmp_path / "c.summary.json").read_text())["scalars"]))
        assert outputs[0] == outputs[1]

    def test_mean_weights_are_the_kernel_weights(self, tmp_path, monkeypatch,
                                                 stream_path):
        # the CLI and the stream reference are one sampler, not two
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, COLLAPSE_INI)
        assert main(["collapse", "--config", str(path), "--out", "c.csv"]) == 0
        header, rows = read_csv(tmp_path / "c.csv")
        times = np.linspace(0.6, 6.0, 10)
        energies, log_w0 = np.array([0.0, 1.0]), 0.5 * np.log([0.25, 0.75])
        state = collapse_state(energies, (0.25, 0.75))
        b = np.array([stream_path(state, 1.0, times, 5, i)[-1] for i in range(40)])
        weights = collapse_weights(energies, log_w0, CollapseParams(1.0), times[-1], b)
        np.testing.assert_allclose(rows[-1][2:], weights.mean(axis=1),
                                   rtol=0, atol=1e-12)

    def test_born_z_scores_are_final_weights_in_standard_errors(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ini = COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = 0.0, 1.0, 2.0")
        ini = ini.replace("weights = 0.25, 0.75", "weights = 0.0, 1.0, 3.0")
        path = write_config(tmp_path, ini)
        assert main(["collapse", "--config", str(path), "--out", "c.csv"]) == 0
        scalars = json.loads((tmp_path / "c.summary.json").read_text())["scalars"]
        _, rows = read_csv(tmp_path / "c.csv")
        # a level of Born weight 0 has no spread and reads 0
        assert scalars["born_z_E0"] == 0.0
        for i, w in ((1, 0.25), (2, 0.75)):
            z = (rows[-1][2 + i] - w) / math.sqrt(w * (1 - w) / 40)
            assert scalars[f"born_z_E{i}"] == pytest.approx(z, rel=1e-12)
            assert abs(z) < 5

    def test_columns_are_the_per_state_collapse_definition(self, tmp_path, monkeypatch):
        # per step, the collapsed count is the number of trajectories whose
        # state evolve(state0, t, B) puts at least `threshold` weight on one
        # energy, and the mean weights are those states' energy distributions
        # averaged: the runner's batched rule is the one-state definition
        monkeypatch.chdir(tmp_path)
        ini = COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = 0.0, 1.0, 2.5")
        ini = ini.replace("weights = 0.25, 0.75", "weights = 0.2, 0.5, 0.3")
        ini = ini.replace("n_steps = 10", "n_steps = 12").replace("n_traj = 40", "n_traj = 300")
        path = write_config(tmp_path, ini + "threshold = 0.99\n")
        assert main(["collapse", "--config", str(path), "--out", "c.csv"]) == 0
        _, rows = read_csv(tmp_path / "c.csv")
        state0, params = ExperimentConfig.from_file(path).model
        times = np.linspace(0.5, 6.0, 12)
        b = simulate_trajectories(state0, params, times, 5, 300)
        for row, t, b_t in zip(rows, times, b.T):
            w = np.array([energy_distribution(evolve(state0, params, t, x)).weights
                          for x in b_t])
            top = w.max(axis=1)
            # no state sits at the threshold, where rounding would decide
            assert np.all(np.abs(top - 0.99) > 1e-12)
            assert row[0] == t
            assert row[1] == np.count_nonzero(top >= 0.99) / 300
            np.testing.assert_allclose(row[2:], w.mean(axis=0), rtol=0, atol=1e-14)

    def test_chunking_changes_no_record_or_count(self, tmp_path, monkeypatch):
        # tiles of three trajectories, or of four steps of one, give the
        # records and the collapsed counts of one tile of all 40, and weigh
        # each tile once (plus the Born weights once per pass)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, COLLAPSE_INI)
        state = collapse_state((0.0, 1.0), (0.25, 0.75))
        times = np.linspace(0.6, 6.0, 10)
        whole = simulate_trajectories(state, CollapseParams(1.0), times, 5, 40)
        assert main(["collapse", "--config", str(path), "--out", "one.csv"]) == 0
        _, one = read_csv(tmp_path / "one.csv")
        calls = []

        def counting(*args):
            calls.append(args[3])
            return collapse_weights(*args)

        # the binding the collapse pass calls: ensemble imports the name
        monkeypatch.setattr(ensemble, "collapse_weights", counting)
        for tile_values, n_tiles in ((2 * 10 * 3, 14), (2 * 4, 40 * 3)):
            monkeypatch.setattr(ensemble, "_TILE_VALUES", tile_values)
            calls.clear()
            np.testing.assert_array_equal(
                simulate_trajectories(state, CollapseParams(1.0), times, 5, 40), whole)
            assert main(["collapse", "--config", str(path), "--out", "tiled.csv"]) == 0
            assert len(calls) == 2 * (1 + n_tiles)
            _, tiled = read_csv(tmp_path / "tiled.csv")
            assert [r[1] for r in tiled] == [r[1] for r in one]
            np.testing.assert_allclose(tiled, one, rtol=0, atol=1e-13)

    def test_memory_does_not_grow_with_n_traj(self):
        p = {"lambda": 1.0, "energies": (0.0, 1.0), "weights": (0.25, 0.75),
             "t_max": 6.0, "n_steps": 10, "threshold": 0.999}
        # both runs are several full tiles (2**14 weights each): 2*10**4 and
        # 2*10**5 trajectories x 10 steps x 2 levels
        peaks = []
        for n_traj in (20_000, 200_000):
            tracemalloc.start()
            try:
                ensemble.EXPERIMENTS["collapse"].run(
                    ExperimentConfig("collapse", {**p, "n_traj": n_traj}, 5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # variates and paths of the whole batch would add 43 MB at 200 000
        assert peaks[1] < 1.1 * peaks[0]

    def test_many_tiles_peak_as_one_tile(self):
        # the runner and the sampler release each tile before the pass draws
        # the next, so a run of 25 tiles peaks where a run of one does (1.4x
        # while they held the last tile); the sampler's own output excluded
        p = {"lambda": 1.0, "energies": (0.0, 1.0), "weights": (0.25, 0.75),
             "t_max": 6.0, "n_steps": 10, "threshold": 0.999}
        times = np.linspace(0.6, 6.0, 10)
        one_tile, _ = ensemble._tile_shape(2, 20_000, 10)
        peaks = []
        for n_traj in (one_tile, 20_000):
            cfg = ExperimentConfig("collapse", {**p, "n_traj": n_traj}, 5)
            tracemalloc.start()
            try:
                ensemble.EXPERIMENTS["collapse"].run(cfg)
                run_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                b = simulate_trajectories(*cfg.model, times, 5, n_traj)
                peaks.append((run_peak, tracemalloc.get_traced_memory()[1] - b.nbytes))
            finally:
                tracemalloc.stop()
        assert peaks[1][0] < 1.1 * peaks[0][0]
        assert peaks[1][1] < 1.1 * peaks[0][1]


@pytest.mark.parametrize("ini, built", [
    (SPIN_INI, "SpinModelParams"),
    (SMALL_KGRID_INI, "KGrid.for_params"),
    (MEASUREMENT_INI, "load_branch_fixture"),
], ids=["spin", "kgrid_decay", "measurement"])
def test_run_builds_its_model_once(tmp_path, monkeypatch, ini, built):
    # the experiment's build makes the model and the runner uses it as built
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spin, "SpinModelParams",
                        counting("SpinModelParams", spin.SpinModelParams))
    monkeypatch.setattr(KGrid, "for_params", classmethod(
        counting("KGrid.for_params", KGrid.for_params.__func__)))
    monkeypatch.setattr(measurement, "load_branch_fixture",
                        counting("load_branch_fixture", measurement.load_branch_fixture))
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, ini)
    section = ini[1:ini.index("]")]
    assert main([section, "--config", str(path), "--out", "o.csv"]) == 0
    assert calls == [built]


class TestEnsembleRunner:
    def test_tiny_magnitudes_are_the_state_of_equal_ones(self, tmp_path, monkeypatch):
        # 1e-170 squared underflows to 0; the state is that of magnitudes 1, 1
        monkeypatch.chdir(tmp_path)
        ini = ENSEMBLE_INI.replace("energies = 0.0, 1.0, 2.5", "energies = 0.0, 1.0")
        scalars = []
        for mags in ("1e-170, 1e-170", "1, 1"):
            path = write_config(tmp_path, ini.replace(
                "magnitudes = 0.5, 0.6, 0.6244997998398398", f"magnitudes = {mags}"))
            assert main(["ensemble", "--config", str(path), "--out", "e.csv"]) == 0
            scalars.append(json.loads((tmp_path / "e.summary.json").read_text())["scalars"])
        assert scalars[0] == scalars[1]

    def test_huge_magnitudes_are_the_state_of_their_ratios(self, tmp_path, monkeypatch):
        # 1e200 squared overflows; divided by the largest magnitude first, the
        # state is that of magnitudes 1, 0.6 (0.6e200/1e200 rounds 1 ulp off
        # 0.6, so the scalars agree to rounding)
        monkeypatch.chdir(tmp_path)
        ini = ENSEMBLE_INI.replace("energies = 0.0, 1.0, 2.5", "energies = 0.0, 1.0")
        scalars = []
        for mags in ("1e200, 0.6e200", "1, 0.6"):
            path = write_config(tmp_path, ini.replace(
                "magnitudes = 0.5, 0.6, 0.6244997998398398", f"magnitudes = {mags}"))
            for command in (["validate"], ["ensemble", "--out", "e.csv"]):
                assert main([command[0], "--config", str(path), *command[1:]]) == 0
            scalars.append(json.loads((tmp_path / "e.summary.json").read_text())["scalars"])
        assert scalars[0].keys() == scalars[1].keys()
        for key, value in scalars[1].items():
            assert scalars[0][key] == pytest.approx(value, rel=1e-13, abs=1e-13), key

    def test_phases_are_kept_as_written(self, tmp_path, monkeypatch):
        # the state stores the config's phases, not their angles wrapped into
        # (-pi, pi]; they enter only through exp(i*(phase - E*t)), so phases
        # shifted by 2*pi give the table of the unshifted ones, and a zero
        # magnitude gives a level of log-magnitude -inf
        monkeypatch.chdir(tmp_path)
        ini = ENSEMBLE_INI.replace("0.5, 0.6, 0.6244997998398398", "0.5, 0.0, 0.6")
        tables = []
        for phases in ((0.3, -1.2, 2.9), tuple(x + 2 * math.pi for x in (0.3, -1.2, 2.9))):
            path = write_config(tmp_path, ini + f"phases = {', '.join(map(repr, phases))}\n")
            state0 = ExperimentConfig.from_file(path).model[0]
            assert state0.phases == phases
            assert state0.log_magnitudes[1] == -math.inf
            assert main(["ensemble", "--config", str(path), "--out", "e.csv"]) == 0
            tables.append(read_csv(tmp_path / "e.csv")[1])
        np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("body", [
        (CONFIGS / "ensemble_damping.ini").read_text(),
        "[ensemble]\nlambda = 0.1\nt_max = 10.0\nn_t = 20\nenergies = "
        + ", ".join(f"{0.1 * k:.1f}" for k in range(64))
        + "\nmagnitudes = " + ", ".join(str(1 + k % 7) for k in range(64)) + "\n",
        ENSEMBLE_INI.replace("0.5, 0.6, 0.6244997998398398", "0.5, 1e-150, 0.6")
        + "phases = 0.3, -1.2, 2.9\n",
    ], ids=["ensemble_damping", "64_levels", "tiny_magnitude"])
    def test_table_is_the_closed_form_density_matrix(self, tmp_path, monkeypatch, body):
        # the CSV entry by entry against `ensemble_density_matrix` at each of
        # its times: Tr(rho H), Tr(rho^2) and |rho_ij|, i < j, to 1e-15; the
        # runner sums Tr(rho^2)'s n_lev**2 terms by einsum, which at 64 levels
        # rounds up to 1.5e-15 off the exact sum (1.3e-15 here), so 2e-15 there
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, body)
        state0, params = ExperimentConfig.from_file(path).model
        assert main(["ensemble", "--config", str(path), "--out", "e.csv"]) == 0
        table = read_csv(tmp_path / "e.csv")[1]
        ham, iu = np.diag(state0.energies()), np.triu_indices(len(state0.levels), 1)
        for row in table:
            rho = ensemble_density_matrix(state0, params, row[0]).entries
            assert row[1] == pytest.approx(np.trace(rho @ ham).real, rel=1e-15, abs=0)
            assert row[2] == pytest.approx(np.trace(rho @ rho).real, rel=2e-15, abs=0)
            np.testing.assert_allclose(row[3:], np.abs(rho[iu]), rtol=1e-15, atol=0)

    def test_memory_grows_by_one_value_and_its_temporary_per_trajectory(self, tmp_path):
        # the Monte Carlo keeps one float per trajectory, <a|H|a>, and np.std
        # takes one temporary of them: 16 bytes, not the trajectories'
        # complex amplitudes (about 112 bytes at three levels)
        peaks = []
        for n_traj in (20_000, 200_000):
            cfg = ExperimentConfig.from_file(write_config(
                tmp_path, ENSEMBLE_INI.replace("n_traj = 200", f"n_traj = {n_traj}")))
            tracemalloc.start()
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    ensemble.EXPERIMENTS["ensemble"].run(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 24 * 180_000

    def test_mc_z_score_is_the_mc_deviation_in_standard_errors(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, (CONFIGS / "ensemble_damping.ini").read_text())
        assert main(["ensemble", "--config", str(path), "--out", "e.csv"]) == 0
        s = json.loads((tmp_path / "e.summary.json").read_text())["scalars"]
        z = (s["mc_mean_energy"] - s["mean_energy"]) / s["mc_standard_error"]
        assert s["mc_z_score"] == z
        assert abs(z) < 5


class TestMeasurementRunner:
    def test_estimate_charges_the_grid_up_to_one_block(self):
        # a row a point and one point's temporaries, a few floats a level: the
        # ratio is computed point by point, so no (point, level) block is held
        cfg = ExperimentConfig.from_file(CONFIGS / "measurement_shared.ini")
        p, levels = cfg.parameters, len(cfg.model[0].energies)
        points = p["n_t"] * p["n_b"]
        row = collapse_lab._CLOSED_ROW_BYTES
        assert array_bytes(cfg) == {"'n_t' x 'n_b'": row * points + 136 * levels}
        big = {**p, "n_t": 1000, "n_b": 1000}
        assert measurement.EXPERIMENTS["measurement"].array_bytes(big, cfg.model) == {
            "'n_t' x 'n_b'": row * 10**6 + 136 * levels}

    def test_many_levels_stay_within_the_block_budget(self, tmp_path):
        # the (point, level) temporaries are one point's, not n_t*n_b times
        # the fixture's level count, and each row is the one-point ratio
        fixture = tmp_path / "many.txt"
        fixture.write_text("".join(
            f"{0.01 * i} {1.0 + 0.001 * i} 0.0 0.5 {1.0 - 0.001 * i}\n"
            for i in range(200)
        ))
        p = {"fixture": str(fixture), "lambda": 1.0, "t_max": 2.0,
             "n_t": 20, "b_max": 3.0, "n_b": 20}
        tracemalloc.start()
        try:
            _, table, _ = measurement.EXPERIMENTS["measurement"].run(
                ExperimentConfig("measurement", p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all at once, the temporaries alone are 32*200*400 bytes = 2.5 MB
        assert peak < 2**19
        spec = load_branch_fixture(fixture)
        assert [r for *_, r in table] == [
            branch_weight_ratio(spec, CollapseParams(1.0), t, b) for t, b, _ in table]


class TestOutputs:
    def run_cli(self, args):
        return subprocess.run(
            [sys.executable, "-m", "collapse_lab.cli", *args],
            capture_output=True, text=True,
        )

    def test_csv_header_and_precision(self, tmp_path):
        path = write_config(tmp_path, SPIN_INI)
        out = tmp_path / "spin.csv"
        res = self.run_cli(["spin", "--config", str(path), "--out", str(out)])
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("t (time),")
        assert len(lines) == 1 + 50
        # 17 significant digits round-trip
        val = lines[1].split(",")[1]
        assert float(val) == float(format(float(val), ".17g"))

    def test_summary_envelope_matches_library(self, tmp_path):
        path = write_config(tmp_path, SPIN_INI)
        out = tmp_path / "spin.csv"
        self.run_cli(["spin", "--config", str(path), "--out", str(out)])
        doc = json.loads((tmp_path / "spin.summary.json").read_text())
        assert abs(doc["scalars"]["envelope"] - math.exp(-4.5)) < 1e-12
        assert doc["seed"] == 0
        assert "version" in doc and "wall_time_s" in doc
        # `versions` names the libraries each cold run loaded: numpy only
        # where it computed with it
        python = ".".join(map(str, sys.version_info[:3]))
        assert doc["versions"] == {"python": python}
        for config in sorted(CONFIGS.glob("*.ini")):
            section = ExperimentConfig.from_file(config).experiment
            out = tmp_path / f"{config.stem}.csv"
            res = self.run_cli([section, "--config", str(config), "--out", str(out)])
            assert res.returncode == 0, res.stderr
            versions = json.loads(out.with_suffix(".summary.json").read_text())["versions"]
            want = {"python": python}
            if config.stem not in NUMPY_FREE:
                want["numpy"] = np.__version__
            assert versions == want, config.stem

    def test_records_disjoint_bound_sup_zero(self, tmp_path):
        ini = """[records]
spectra = disjoint
lambda = 1.0
b_plus = 1.0
b_minus = -1.0
t_max = 5.0
n_t = 10
"""
        path = write_config(tmp_path, ini)
        out = tmp_path / "r.csv"
        res = self.run_cli(["records", "--config", str(path), "--out", str(out)])
        assert res.returncode == 0
        doc = json.loads((tmp_path / "r.summary.json").read_text())
        assert doc["scalars"]["bound_sup"] == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, COLLAPSE_INI)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = self.run_cli(
                ["collapse", "--config", str(path), "--seed", "3",
                 "--out", str(out)]
            )
            assert res.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_values_not_schema(self, tmp_path):
        path = write_config(tmp_path, COLLAPSE_INI)
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.csv"
            self.run_cli(["collapse", "--config", str(path), "--seed", seed,
                          "--out", str(out)])
            texts.append(out.read_text().splitlines())
        assert texts[0][0] == texts[1][0]  # same header
        assert len(texts[0]) == len(texts[1])  # same row count
        assert texts[0][1:] != texts[1][1:]  # different Monte Carlo values

    def test_json_format_single_document(self, tmp_path):
        path = write_config(tmp_path, SPIN_INI)
        out = tmp_path / "spin.json"
        res = self.run_cli(["spin", "--config", str(path), "--out", str(out),
                            "--format", "json"])
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["columns"][0] == "t (time)"
        assert len(doc["rows"]) == 50


@pytest.mark.parametrize("ini", [
    COLLAPSE_INI.replace("n_steps = 10", "n_steps = 20000").replace("n_traj = 40", "n_traj = 2"),
    ENSEMBLE_INI.replace("n_t = 12", "n_t = 1000").replace("n_traj = 200", "n_traj = 10000"),
    MEASUREMENT_INI.replace("n_t = 4", "n_t = 100").replace("n_b = 4", "n_b = 100"),
    """[records]
spectra = half_overlap
lambda = 1.0
b_plus = 1.0
b_minus = -1.0
t_max = 5.0
n_t = 10000
""",
    SPIN_INI.replace("n_s = 50", "n_s = 10000"),
    """[decay]
epsilon = 1.0
gamma = 5.0
sigma = 1e-4
t_cal = 1.0
s_max = 4.0
n_s = 10000
""",
    SMALL_KGRID_INI.replace("s_max = 0.5", "s_max = 2.0").replace(
        "n_modes = 1024", "n_modes = 256").replace("record_every = 50", "record_every = 1"),
    # many tiles and moment blocks: the charge of one of each covers them
    ENSEMBLE_INI.replace("n_traj = 200", "n_traj = 100000"),
    # full collapse tiles dominate: the ensemble's one-step charge of seven
    # floats a weight would put the estimate at 2.04x the peak
    COLLAPSE_INI.replace("energies = 0.0, 1.0", "energies = 0.0, 1.0, 2.0, 3.0").replace(
        "weights = 0.25, 0.75", "weights = 0.1, 0.2, 0.3, 0.4").replace(
        "n_steps = 10", "n_steps = 40").replace("n_traj = 40", "n_traj = 20000"),
    # a long time grid and few trajectories: the table dominates
    ENSEMBLE_INI.replace("n_t = 12", "n_t = 20000").replace("n_traj = 200", "n_traj = 2"),
    # many levels: the table's 2016 moduli columns dominate, formed in place,
    # so the estimate pins what the table holds from both sides
    ENSEMBLE_INI.replace("0.0, 1.0, 2.5", ", ".join(f"{0.1 * k:.1f}" for k in range(64))).replace(
        "0.5, 0.6, 0.6244997998398398", ", ".join(str(1 + k % 7) for k in range(64))).replace(
        "n_t = 12", "n_t = 2000").replace("n_traj = 200", "n_traj = 2"),
], ids=["collapse", "ensemble", "measurement", "records", "spin", "decay_closed",
        "kgrid_decay", "ensemble_n_traj", "collapse_tiles", "ensemble_n_t", "ensemble_levels"])
def test_array_estimate_is_the_measured_peak(tmp_path, ini):
    # each table value is charged as its float plus the runner's temporaries,
    # and the writers as one block: the estimate covers the tracemalloc peak
    # of a run and its output, and charges the runner less than twice its own
    # peak (a flat 64 bytes a value overcharged most runners about 2x and
    # undercharged spin)
    cfg = ExperimentConfig.from_file(write_config(tmp_path, ini))
    run_estimate = sum(array_bytes(cfg).values())
    tracemalloc.start()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cols, table, _ = cli.experiment_record(cfg.experiment).run(cfg)
        _, run_peak = tracemalloc.get_traced_memory()
        cli.write_json(tmp_path / "o.json", {"seed": 0}, cols, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= run_estimate + cli._WRITE_BYTES
    assert run_estimate <= 2 * run_peak


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(finite, finite, st.integers(1, 1001))
@example(-4.0, 8.0, 400)  # spin_suppression.ini
@example(-4.0, 4.0, 400)  # decay_closed.ini
@example(0.1, 10.0, 100)  # records_half_overlap.ini
@example(0.25, 5.0, 20)  # measurement_shared.ini, t
@example(-12.0, 12.0, 20)  # measurement_shared.ini, B
@example(0.1, 7.3, 1001)
@example(-1e3, 3.7, 77)
@example(0.0, 5e-324, 4)  # the step underflows to 0
@example(5.0, 5.0, 1)  # a one-point records or measurement t grid
@example(-0.0, -0.0, 1)
@example(-0.0, 1.0, 1)  # numpy's one point 0*(b - a) + a is +0.0
@example(-1e308, 1e308, 1)  # b - a overflows: both give nan
@example(0.2, 8.0, 40)  # collapse_two_level.ini
@example(0.0, 6.0, 120)  # ensemble_damping.ini
def test_grid_is_numpy_linspace_bit_for_bit(a, b, n):
    # the CLI's grid (every run's but the k-grid oracle's), for any finite
    # a < b and n >= 1, or a == b at n = 1; where b - a overflows both give
    # nan then inf
    a, b = sorted((a, b))
    assume(a < b or n == 1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(a, b, n)
    got = np.array(collapse_lab._grid(a, b, n))
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestWriters:
    """The writers stream the table in blocks; the bytes are those of the
    whole-table writers they replaced."""

    @staticmethod
    def fmt(x):
        """One value as the whole-table writers formatted it."""
        return format(float(x), ".17g")

    @classmethod
    def whole_csv(cls, path, cols, table):
        rows = (",".join(map(cls.fmt, row)) for row in table.tolist())
        Path(path).write_text("\n".join([",".join(cols), *rows]) + "\n")

    @classmethod
    def whole_json(cls, path, doc, cols, table):
        doc = {**doc, "columns": cols,
               "rows": [[cls.fmt(v) for v in row] for row in table.tolist()]}
        Path(path).write_text(json.dumps(doc, indent=2, default=float,
                                         allow_nan=False) + "\n")

    #: signed zero, subnormals, huge values, values with no short 17-digit
    #: form and integral floats; tiled to 15 rows of 3, three blocks of 5 rows
    SPECIAL = np.array([-0.0, 5e-324, 1e308, 0.1, 1 / 3, 3.0, -2.0, 1e16, 0.0,
                        -5e-324, -1e308, 2.0**53 + 2, 7e-310, -0.1, 100.0])

    @pytest.mark.parametrize("shape", [(1, 2), (7, 3), (3001, 5), "special"])
    def test_bytes_match_the_whole_table_writers(self, tmp_path, monkeypatch, shape):
        # blocks of 16 values: a 3001 x 5 table takes 1001 blocks of 3 rows
        monkeypatch.setattr(cli, "_WRITE_VALUES", 16)
        if shape == "special":
            table = np.tile(self.SPECIAL.reshape(5, 3), (3, 1))
            shape = table.shape
        else:
            rng = np.random.default_rng(sum(shape))
            table = rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape)
        cols = [f"c{i} (unit)" for i in range(shape[1])]
        doc = {"experiment": "x", "parameters": {"energies": (0.0, 1.5)},
               "scalars": {"z": np.float64(0.25), "n": 3}}
        cli.write_csv(tmp_path / "a.csv", cols, table)
        self.whole_csv(tmp_path / "b.csv", cols, table)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        cli.write_json(tmp_path / "a.json", doc, cols, table)
        self.whole_json(tmp_path / "b.json", doc, cols, table)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_does_not_grow_with_the_table(self, tmp_path, fmt):
        # 60 000 x 3 values: the whole-table writers peak at about 16 MiB
        # (csv) and 42 MiB (json) over the table's 1.4 MiB
        table = np.random.default_rng(0).normal(size=(60_000, 3))
        cols = ["t (time)", "a (1)", "b (1)"]
        tracemalloc.start()
        try:
            if fmt == "csv":
                cli.write_csv(tmp_path / "big.csv", cols, table)
            else:
                cli.write_json(tmp_path / "big.json", {"seed": 0}, cols, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("code, body, section", [
    (0, SPIN_INI, "spin"),
    (2, SPIN_INI.replace("epsilon = 3.0\n", ""), "spin"),
    (3, OVERFLOW_COLLAPSE_INI, "validate"),
], ids=["success", "config_error", "contract_violation"])
def test_process_entry_exits_with_main_code_and_messages(tmp_path, capsys, code, body, section):
    # `python -m collapse_lab.cli` runs `entry`, which freezes the collector
    # once `main` has returned: the child still exits with main's code, its
    # streams flushed with main's messages, and its output file written
    path = write_config(tmp_path, body)
    out = tmp_path / "o.csv"
    argv = [section, "--config", str(path)] + (["--out", str(out)] if section != "validate" else [])
    assert main(argv) == code
    want = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    res = subprocess.run([sys.executable, "-m", "collapse_lab.cli", *argv],
                         capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (code, want.out, want.err)
    assert (out.read_bytes() if out.exists() else None) == written


def test_cli_runs_one_blas_thread():
    # fresh interpreters: importing the CLI sets OPENBLAS_NUM_THREADS before
    # a run imports numpy, which loads OpenBLAS, so no idle worker thread
    # starts; a value the user set holds, and the library alone leaves the
    # variable unset
    report = (
        "import json, os\n"
        "task = '/proc/self/task'\n"
        "n = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), n]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def child(modules, **extra):
        res = subprocess.run([sys.executable, "-c", f"import {modules}\n{report}"],
                             capture_output=True, text=True, env={**env, **extra})
        assert res.returncode == 0, res.stderr
        return json.loads(res.stdout.splitlines()[-1])

    value, n_tasks = child("collapse_lab.cli, numpy")
    assert value == "1"
    assert child("collapse_lab.cli", OPENBLAS_NUM_THREADS="3")[0] == "3"
    assert child("collapse_lab, collapse_lab.spin")[0] is None
    if n_tasks is None or (os.cpu_count() or 1) < 2:
        pytest.skip("counting threads needs /proc/self/task and two CPUs")
    assert n_tasks == 1


def test_runs_without_scipy(tmp_path):
    # one fresh interpreter in which importing scipy raises: the package
    # import, a run of every shipped config, the Gauss-Hermite smear and the
    # Schwarz chain on the builtin record pairs must succeed, and the
    # summaries name no scipy version; the Faddeeva coefficients must not
    # pull in numpy.fft either.  The closed-form runs come first, before
    # anything imports numpy, and their summaries name no numpy version
    closed = [("spin", "spin_suppression"), ("decay", "decay_closed"),
              ("measurement", "measurement_shared"), ("records", "records_half_overlap")]
    runs = [("collapse", "collapse_two_level"), ("ensemble", "ensemble_damping"),
            ("ensemble", "universe_tcal"), ("decay", "decay_kgrid")]
    child = (
        "import json, math, sys\n"
        "sys.modules['scipy'] = None\n"
        "from collapse_lab.cli import main\n"
        "from collapse_lab.records import EXPERIMENTS\n"
        f"for section, stem in {closed!r}:\n"
        f"    config = {str(CONFIGS)!r} + '/' + stem + '.ini'\n"
        f"    out = {str(tmp_path)!r} + '/' + stem + '.csv'\n"
        "    assert main([section, '--config', config, '--out', out]) == 0\n"
        "before_numpy = set(sys.modules)\n"
        "import numpy as np\n"
        "after_numpy = set(sys.modules)\n"
        "from collapse_lab.ensemble import smear\n"
        "from collapse_lab.hilbert import EnergyLevel, ObservableMatrix, SpectralState, expectation\n"
        "from collapse_lab.records import verify_schwarz_chain\n"
        "def blas_kb():\n"
        "    # resident kB of numpy's OpenBLAS mappings; None without them\n"
        "    try:\n"
        "        smaps = open('/proc/self/smaps').read().splitlines()\n"
        "    except OSError:\n"
        "        return None\n"
        "    kb, path = [], ''\n"
        "    for f in map(str.split, smaps):\n"
        "        if not f[0].endswith(':'):\n"
        "            path = f[-1] if len(f) > 5 else ''\n"
        "        elif f[0] == 'Rss:' and 'openblas' in path:\n"
        "            kb.append(int(f[1]))\n"
        "    return sum(kb) if kb else None\n"
        "blas = [blas_kb()]\n"
        f"for section, stem in {runs!r}:\n"
        f"    config = {str(CONFIGS)!r} + '/' + stem + '.ini'\n"
        f"    out = {str(tmp_path)!r} + '/' + stem + '.csv'\n"
        "    assert main([section, '--config', config, '--out', out]) == 0\n"
        "    blas.append(blas_kb())\n"
        "damped = math.exp(-0.5) * math.cos(2.4)\n"
        "assert abs(smear(lambda u: math.cos(2.0 * u), 1.2, 0.5) - damped) < 1e-12\n"
        "levels = (EnergyLevel(0.0), EnergyLevel(2.0))\n"
        "v = ObservableMatrix(levels, np.array([[0.0, 1.0], [1.0, 0.0]]))\n"
        "state_at = lambda t: SpectralState.from_amplitudes(\n"
        "    levels, np.array([1.0, np.exp(-2j * t)]) / math.sqrt(2.0))\n"
        "assert abs(smear(lambda u: expectation(state_at(u), v), 1.2, 0.5) - damped) < 1e-10\n"
        "for kind in ('identical', 'disjoint', 'half_overlap'):\n"
        "    sc = EXPERIMENTS['records'].build({'spectra': kind, 'b_plus': 1.0,\n"
        "        'b_minus': -1.0, 'lambda': 1.0, 't0': 1.0, 't_max': 2.0})\n"
        "    part = [(-math.inf, 0.0), (0.0, 1.0), (1.0, math.inf)]\n"
        "    assert verify_schwarz_chain(sc, 2.0, part)[2], kind\n"
        "print(json.dumps([sorted(m for m, mod in sys.modules.items() if mod is not None\n"
        "                         and (m.split('.')[0] == 'scipy'\n"
        "                              or m.startswith('numpy.fft'))),\n"
        "                  sorted({'dataclasses', 'numpy'} & before_numpy),\n"
        "                  sorted({'dataclasses'} & (sys.modules.keys() - after_numpy)),\n"
        "                  blas]))\n"
    )
    res = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    # nor `dataclasses`, unless numpy itself loads it: the parameter records
    # are NamedTuples, which generate no code
    *unwanted, blas = json.loads(res.stdout.splitlines()[-1])
    assert unwanted == [[], [], []]
    # a first BLAS call faults in OpenBLAS code pages (348 KB on `ensemble`):
    # every run computes its small products with einsum, and only the k-grid
    # oracle, run last, takes its O(n_modes) inner products from BLAS
    if blas[0] is not None:
        assert max(blas[1:-1]) <= blas[0], list(zip(["import"] + runs, blas))
    for run in closed + runs:
        doc = json.loads((tmp_path / f"{run[1]}.summary.json").read_text())
        want = {"python"} if run in closed else {"python", "numpy"}
        assert set(doc["versions"]) == want, run
    # the numpy Bessel factors truncate the shipped k-grid series where
    # scipy's do: its span of 5 is one segment, of argument z = half*5
    from scipy.special import jv

    dp = DecayModelParams(1.0, 1.0, 1e-4)
    k, wk = KGrid.for_params(dp, 40.0, 4096, 5e-4).points_and_weights()
    _, half, *_ = kgrid.chebyshev_series(k, wk, dp.g, 1.0, 5.0)
    j = np.abs(jv(np.arange(400), half * 5.0))
    want = int(np.flatnonzero(j >= kgrid.CHEBYSHEV_TOL)[-1]) + 1
    assert doc["scalars"]["chebyshev_terms"] == want == 283
    assert doc["scalars"]["chebyshev_matvecs"] == want


def kgrid_summaries(tmp_path, ini):
    """The summary of two runs of `ini`, without their wall times."""
    path = write_config(tmp_path, ini)
    docs = []
    for name in ("a.csv", "b.csv"):
        assert main(["decay", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / name).with_suffix(".summary.json").read_text())
        del doc["wall_time_s"]
        docs.append(doc)
    return docs


def test_kgrid_summary_reports_chebyshev_series(tmp_path):
    # a span of 0.5 is one segment: the terms and first dropped |J_n| of the
    # series of exp(-i*H*0.5), identical on rerun
    docs = kgrid_summaries(tmp_path, SMALL_KGRID_INI)
    assert docs[0] == docs[1]
    dp = DecayModelParams(1.0, 1.0, 1e-4)
    k, wk = KGrid.for_params(dp, 20.0, 1024, 2e-3).points_and_weights()
    _, _, coef, tail, _ = kgrid.chebyshev_series(k, wk, dp.g, 1.0, 0.5)
    scalars = docs[0]["scalars"]
    assert scalars["chebyshev_terms"] == scalars["chebyshev_matvecs"] == coef.size
    assert scalars["chebyshev_tail"] == tail < kgrid.CHEBYSHEV_TOL


def test_kgrid_reports_no_t_cal(tmp_path, capsys):
    # the k-grid oracle applies no collapse smearing: `validate` prints no
    # T_cal line and the summary holds no T_cal scalar, though the echoed
    # parameters list the closed mode's t_cal key at its default; closed
    # decay keeps both
    assert main(["validate", "--config", str(CONFIGS / "decay_kgrid.ini")]) == 0
    assert "T_cal" not in capsys.readouterr().out
    doc, _ = kgrid_summaries(tmp_path, SMALL_KGRID_INI)
    assert "T_cal" not in doc["scalars"] and doc["parameters"]["t_cal"] == 0.0
    path = write_config(tmp_path, CLOSED_DECAY_INI, "closed.ini")
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "T_cal (key 't_cal') = 1"
    assert main(["decay", "--config", str(path), "--out", str(tmp_path / "c.csv")]) == 0
    doc = json.loads((tmp_path / "c.summary.json").read_text())
    assert doc["scalars"]["T_cal"] == 1.0


def test_kgrid_matvecs_count_every_segment(tmp_path):
    # a span of 24 at half about 22.75 (argument about 546) is three segments
    # of 8, each of one series of exp(-i*H*8): the terms and tail describe
    # that series, the matvecs sum its terms over the segments, and both are
    # identical on rerun
    docs = kgrid_summaries(tmp_path, SMALL_KGRID_INI.replace("s_max = 0.5", "s_max = 24.0"))
    assert docs[0] == docs[1]
    dp = DecayModelParams(1.0, 1.0, 1e-4)
    k, wk = KGrid.for_params(dp, 20.0, 1024, 2e-3).points_and_weights()
    span = round(24.0 / 2e-3) * 2e-3
    _, _, coef, tail, n_seg = kgrid.chebyshev_series(k, wk, dp.g, 1.0, span)
    assert n_seg == 3
    scalars = docs[0]["scalars"]
    assert (scalars["chebyshev_terms"], scalars["chebyshev_tail"]) == (coef.size, tail)
    assert scalars["chebyshev_matvecs"] == 3 * coef.size


def test_kgrid_norm_drift_sees_every_segment(tmp_path):
    # the three-segment span of test_kgrid_matvecs_count_every_segment: the
    # squared norm of the state propagated to each segment end stays at the
    # initial one, identical on rerun; one key reports it
    docs = kgrid_summaries(tmp_path, SMALL_KGRID_INI.replace("s_max = 0.5", "s_max = 24.0"))
    a, b = (doc["scalars"] for doc in docs)
    assert a["probability_drift_per_unit_time"] == b["probability_drift_per_unit_time"]
    assert 0.0 <= a["probability_drift_per_unit_time"] <= 1e-12
    assert "norm_drift_per_unit_time" not in a
    # the propagated norm at the segment ends, not the total_probability
    # column, which holds only the segment starts
    dp = DecayModelParams(1.0, 1.0, 1e-4)
    res = integrate_kgrid(dp, KGrid.for_params(dp, 20.0, 1024, 2e-3), "decay", 24.0, 50)
    span = res.times[-1] - res.times[0]
    assert a["probability_drift_per_unit_time"] == res.norm_drift / span
    assert res.norm_drift / span != abs(res.total_probability[-1] - res.total_probability[0]) / span


def _reject_constant(name):
    raise ValueError(f"summary holds the non-JSON constant {name}")


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_shipped_config_runs_clean(tmp_path, config):
    section = ExperimentConfig.from_file(config).experiment
    out = tmp_path / "out.csv"
    assert main([section, "--config", str(config), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows and np.isfinite(rows).all()
    json.loads(out.with_suffix(".summary.json").read_text(),
               parse_constant=_reject_constant)


#: the k-grid oracle's own functions; a run that does not integrate on the
#: k-grid holds none of them in any module it loads
KGRID_ORACLE = ("integrate_kgrid", "kgrid_chebyshev", "bessel_j")


@pytest.mark.parametrize("section, stem, unloaded", [
    ("collapse", "collapse_two_level",
     {"_kernels", "decay", "kgrid", "spin", "records", "measurement"}),
    ("records", "records_half_overlap",
     {"engine", "ensemble", "rng", "_kernels", "decay", "kgrid", "spin", "measurement"}),
    ("measurement", "measurement_shared",
     {"hilbert", "ensemble", "rng", "_kernels", "decay", "kgrid", "spin", "records"}),
    ("spin", "spin_suppression",
     {"hilbert", "engine", "ensemble", "rng", "decay", "kgrid", "records", "measurement"}),
    ("decay", "decay_closed",
     {"hilbert", "engine", "ensemble", "rng", "kgrid", "records", "measurement", "spin"}),
    ("ensemble", "ensemble_damping",
     {"_kernels", "decay", "kgrid", "spin", "records", "measurement"}),
    ("decay", "decay_kgrid",
     {"hilbert", "engine", "ensemble", "rng", "records", "measurement", "spin"}),
], ids=["collapse", "records", "measurement", "spin", "decay", "ensemble", "decay_kgrid"])
def test_run_imports_only_its_layers(tmp_path, section, stem, unloaded):
    # one fresh interpreter per run: the experiment's build and runner import
    # its layers, and the package imports none of its own accord; no module
    # the run loads holds another experiment's record, but for `ensemble`,
    # which holds both of the collapse pass's
    child = (
        "import json, sys\n"
        "from collapse_lab import Experiment\n"
        "from collapse_lab.cli import main\n"
        f"argv = [{section!r}, '--config', {str(CONFIGS / (stem + '.ini'))!r},\n"
        f"        '--out', {str(tmp_path / 'o.csv')!r}]\n"
        "assert main(argv) == 0\n"
        "mods = {n: m for n, m in sys.modules.items() if n.startswith('collapse_lab.')}\n"
        f"print(json.dumps([{{n: [f for f in {KGRID_ORACLE!r} if hasattr(m, f)]\n"
        "                   for n, m in mods.items()},\n"
        "                  sorted(s for m in mods.values()\n"
        "                         for s, r in getattr(m, 'EXPERIMENTS', {}).items()\n"
        "                         if isinstance(r, Experiment))]))\n"
    )
    res = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    oracle, records = json.loads(res.stdout.splitlines()[-1])
    loaded = {m.removeprefix("collapse_lab.") for m in oracle}
    assert cli.EXPERIMENTS[section] in loaded
    assert not loaded & unloaded
    assert records == (["collapse", "ensemble"] if cli.EXPERIMENTS[section] == "ensemble"
                       else [section])
    if stem == "decay_kgrid":
        assert {"decay", "kgrid", "_kernels"} <= loaded
    if stem in ("spin_suppression", "decay_closed"):
        # the oracle's code is neither loaded nor compiled by these runs
        assert not any(oracle.values()), oracle


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_no_validate_loads_numpy(config):
    # one fresh interpreter per shipped config: the builds and array
    # estimates are float arithmetic, so no `validate` imports numpy
    child = (
        "import sys\n"
        "from collapse_lab.cli import main\n"
        f"assert main(['validate', '--config', {str(config)!r}]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_closed_form_runs_load_no_numpy(tmp_path, config):
    # one fresh interpreter per shipped config, a run: the closed-form spin,
    # records, measurement and decay compute in math and cmath and import no
    # numpy, while every other run still does
    section = ExperimentConfig.from_file(config).experiment
    child = (
        "import sys\n"
        "from collapse_lab.cli import main\n"
        f"assert main([{section!r}, '--config', {str(config)!r},\n"
        f"             '--out', {str(tmp_path / 'o.csv')!r}]) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == str(config.stem not in NUMPY_FREE)
