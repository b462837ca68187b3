"""Tests for the benchmark harness itself (not for collapse-lab).

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


# --- seeded inputs ----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wa = workloads.build(name, 5, a, ROOT)
    wb = workloads.build(name, 5, b, ROOT)
    assert wa.work_units == wb.work_units > 0
    assert [i.config.read_bytes() for i in wa.invocations] == [
        i.config.read_bytes() for i in wb.invocations
    ]


@pytest.mark.parametrize("name", ["collapse_mc", "ensemble_mc"])
def test_seed_changes_generated_config(name, tmp_path):
    configs = set()
    for seed in range(4):
        d = tmp_path / str(seed)
        d.mkdir()
        configs.add(workloads.build(name, seed, d, ROOT).invocations[0].config.read_text())
    assert len(configs) == 4


def test_work_units():
    units = {n: workloads.build(n, 0, ROOT, ROOT).work_units
             for n in ("kgrid_decay", "closed_forms")}
    assert units == {"kgrid_decay": 4096 * 10_000, "closed_forms": 1300}


# --- span arithmetic --------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] calls inner [1, 3] and [4, 8]; inner [4, 8] calls leaf [5, 6]
    tracer = spans.Tracer(FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = tracer.wrap("leaf", lambda: None)

    def inner_fn(call_leaf):
        if call_leaf:
            leaf()

    inner = tracer.wrap("inner", inner_fn)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))
    outer()
    got = tracer.snapshot()["spans"]
    assert got["outer"] == {"calls": 1, "total_s": 10, "self_s": 4}
    assert got["inner"] == {"calls": 2, "total_s": 6, "self_s": 5}
    assert got["leaf"] == {"calls": 1, "total_s": 1, "self_s": 1}


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(FakeClock([0, 1, 2, 5]))

    def boom():
        raise KeyError("x")

    inner = tracer.wrap("inner", boom)

    def outer_fn():
        with pytest.raises(KeyError):
            inner()

    tracer.wrap("outer", outer_fn)()
    got = tracer.snapshot()["spans"]
    assert got["inner"]["self_s"] == 1 and got["outer"]["self_s"] == 4


# --- outside-in installation ------------------------------------------------


@pytest.fixture
def fakepkg(monkeypatch):
    """fakepkg.low defines helpers; fakepkg.high imports one by name."""
    low = types.ModuleType("fakepkg.low")
    exec("def helper(x):\n    return x + 1\n"
         "def alias_long(x):\n    return 2 * x\n"
         "alias = alias_long\n"
         "def _private():\n    return 0\n", low.__dict__)
    high = types.ModuleType("fakepkg.high")
    high.__dict__["helper"] = low.helper
    high.__dict__["low"] = low
    exec("def entry(x):\n    return helper(x) + low.alias(x)\n", high.__dict__)
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.low", low), ("fakepkg.high", high)):
        monkeypatch.setitem(sys.modules, name, mod)
    return low, high


def test_install_traces_every_binding_once(fakepkg):
    low, high = fakepkg
    tracer = spans.Tracer()
    installed, absent, undo = spans.install(tracer, [low, high], "fakepkg")
    assert installed == ["high.entry", "low.alias", "low.helper"]
    assert absent == []
    assert high.entry(3) == 4 + 6
    assert low.helper(1) == 2  # the defining module's binding is traced too
    got = tracer.snapshot()["spans"]
    assert got["low.helper"]["calls"] == 2
    assert got["low.alias"]["calls"] == 1
    assert got["high.entry"]["calls"] == 1
    spans.uninstall(undo)
    assert not hasattr(high.helper, "__perfbench_original__")
    assert low.alias is low.alias_long


def test_absent_names_are_reported_not_raised(fakepkg):
    low, high = fakepkg
    del high.__dict__["entry"]
    tracer = spans.Tracer()
    _, absent, _ = spans.install(
        tracer, [low, high, None], "fakepkg",
        methods=[(high, "Missing.method")],
        mappings=[(high, "NO_SUCH_TABLE", "x.")],
        expected=["high.entry", "low.helper"],
    )
    assert absent == ["high.entry"]
    values = bench_run.layer_values(tracer.snapshot(), 0)
    assert values["engine.sample_step.calls"] == 0
    assert values["engine.sample_step.self_s"] == 0.0
    assert values["kernels.kgrid_rk4.ns_per_mode_step"] == 0.0


def test_methods_and_mappings_are_traced(fakepkg):
    low, high = fakepkg

    class Config:
        @classmethod
        def load(cls, x):
            return (cls.__name__, x)

    high.Config = Config
    high.TABLE = {"a": low.helper}
    tracer = spans.Tracer()
    spans.install(tracer, [], "fakepkg", methods=[(high, "Config.load")],
                  mappings=[(high, "TABLE", "high.table.")])
    assert high.Config.load(7) == ("Config", 7)
    assert high.TABLE["a"](1) == 2
    got = tracer.snapshot()["spans"]
    assert got["high.Config.load"]["calls"] == 1
    assert got["high.table.a"]["calls"] == 1


# --- metric names and the result contract -----------------------------------


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == bench_run.END_TO_END
    assert layers == bench_run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)
    for name in [*e2e, *layers, *workloads.WORKLOADS]:
        assert NAME.match(name) and len(name) <= 64, name


def test_parse_importtime_keeps_cumulative_seconds():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        300 |   scipy.special\n"
        "import time:       500 |     940000 | collapse_lab\n"
    )
    assert bench_run.parse_importtime(text) == {
        "scipy.special": 300e-6, "collapse_lab": 0.94,
    }


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_run.tail_percentile(19) is None
    assert bench_run.tail_percentile(20) == 50.0
    assert bench_run.tail_percentile(100) == 90.0
    assert bench_run.tail_percentile(1000) == 99.0


# --- output checks ----------------------------------------------------------


def _collapse_outputs(tmp_path, final_weights, summary="{}"):
    config = tmp_path / "c.ini"
    config.write_text("[collapse]\nlambda = 1\nenergies = 1.0, 0.0\n"
                      "weights = 0.75, 0.25\nt_max = 1\nn_steps = 1\nn_traj = 400\n")
    out = tmp_path / "c.csv"
    cols = "t (time),collapsed_fraction (x),mean_weight_E0 (x),mean_weight_E1 (x)"
    out.write_text(f"{cols}\n1,0,{final_weights[0]},{final_weights[1]}\n")
    out.with_suffix(".summary.json").write_text(summary)
    return workloads.Invocation("collapse", config, out, workloads.check_collapse)


def test_collapse_check_uses_ascending_energy_order(tmp_path):
    # E = 0.0 carries weight 0.25 and is column E0
    assert workloads.check_invocation(_collapse_outputs(tmp_path, (0.26, 0.74))) == []
    assert workloads.check_invocation(_collapse_outputs(tmp_path, (0.74, 0.26)))


@pytest.mark.parametrize("weights,summary", [
    (("nan", 0.75), "{}"),
    ((0.25, 0.75), '{"x": NaN}'),
])
def test_non_finite_output_fails(tmp_path, weights, summary):
    problems = workloads.check_invocation(_collapse_outputs(tmp_path, weights, summary))
    assert problems


def test_missing_output_fails(tmp_path):
    inv = _collapse_outputs(tmp_path, (0.25, 0.75))
    inv.out.unlink()
    assert workloads.check_invocation(inv)


def test_outside_a_checkout_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench_run.main(["--workload", "kgrid_decay", "--seed", "1",
                           "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
