"""Run collapse-lab CLI invocations in one process with every layer traced.

    python perfbench/traced_cli.py PLAN.json SPANS.json

PLAN.json is a list of argument lists; each is passed to
`collapse_lab.cli.main` in turn, after the public functions of every layer
module have been wrapped from outside (see `spans.install`).  SPANS.json
receives the span aggregates, the counters, the exit codes, and the list of
expected spans the package no longer defines.  Needs ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import importlib
import json
import sys

import numpy as np

import spans

PACKAGE = "collapse_lab"
LAYERS = ("cli", "hilbert", "engine", "rng", "ensemble", "_kernels", "decay",
          "measurement", "records", "spin")

#: spans that per-layer metrics read; any of these missing is reported absent
EXPECTED = (
    "cli.main",
    "cli.ExperimentConfig.from_file",
    "cli.write_csv",
    "hilbert.energy_distribution",
    "hilbert.squared_norm",
    "engine.sample_step",
    "rng.trajectory_rng",
    "ensemble.draw_traj_variates",
    "ensemble.ensemble_expectation_mc",
    "ensemble.ensemble_density_matrix",
    "_kernels.traj_collapse_paths",
    "_kernels.kgrid_rk4",
    "decay.integrate_kgrid",
    "decay.occupation",
    "decay.occupation_collapsed",
    "measurement.branch_weight_ratio",
    "records.record_violation_bound",
    "spin.sigma1_standard",
    "spin.sigma1_collapsed",
)

#: computed bytes one RK4 mode-step must stream: four stages each read the
#: stage state (16 B complex) and k, wk, phase (8 + 8 + 16 B) and write one
#: complex slope (16 B); the update reads state and four slopes and writes
#: the state (96 B)
RK4_BYTES_PER_MODE_STEP = 4 * (16 + 32 + 16) + 96

_COUNTED_DRAWS = ("random", "standard_normal", "normal", "uniform", "choice",
                  "integers", "exponential")


class CountingGenerator:
    """Delegating view of a numpy Generator that counts variates drawn."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if attr not in _COUNTED_DRAWS:
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = value(*args, **kwargs)
            tracer.count("rng.variates", np.size(out))
            return out

        return draw


def _hooks(tracer):
    def rng_stream(args, kwargs, gen):
        # streams drawn inside draw_traj_variates are counted from its output
        if tracer.in_span("ensemble.draw_traj_variates"):
            return gen
        return CountingGenerator(gen, tracer)

    def variates(args, kwargs, result):
        tracer.count("rng.variates", sum(np.size(a) for a in result))
        return result

    def traj_paths(args, kwargs, result):
        energies, uniforms = args[0], args[4]
        tracer.count("_kernels.traj_collapse_paths.level_steps",
                     np.size(energies) * np.size(uniforms))
        return result

    def kgrid(args, kwargs, result):
        mode_steps = np.size(args[0]) * int(args[8])
        tracer.count("_kernels.kgrid_rk4.mode_steps", mode_steps)
        tracer.count("_kernels.kgrid_rk4.bytes_computed",
                     mode_steps * RK4_BYTES_PER_MODE_STEP)
        return result

    return {
        "rng.trajectory_rng": rng_stream,
        "ensemble.draw_traj_variates": variates,
        "_kernels.traj_collapse_paths": traj_paths,
        "_kernels.kgrid_rk4": kgrid,
    }


def _module(name):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ImportError:
        return None


def main(argv=None) -> int:
    plan_path, out_path = argv if argv is not None else sys.argv[1:]
    with open(plan_path) as fh:
        plan = json.load(fh)
    modules = [_module(name) for name in LAYERS]
    cli = modules[0]
    tracer = spans.Tracer()
    installed, absent, _ = spans.install(
        tracer,
        modules,
        PACKAGE,
        hooks=_hooks(tracer),
        methods=[(cli, "ExperimentConfig.from_file")],
        mappings=[(cli, "RUNNERS", "cli.runner.")],
        expected=EXPECTED,
    )
    codes = [cli.main(list(args)) for args in plan]
    doc = tracer.snapshot()
    doc.update(exit_codes=codes, installed=installed, absent=absent)
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
