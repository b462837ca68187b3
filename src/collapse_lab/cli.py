"""Command-line runner: config ingestion, experiment orchestration, output.

Usage:
    collapse-lab <experiment> --config <path> [--seed N] [--out <path>]
                 [--format csv|json]
    collapse-lab validate --config <path>

Configs are INI files with a single section named after the experiment.  All
physical inputs are in natural units (hbar = 1); lambda carries units
energy^-2 time^-1, so the smearing width T_cal = sqrt(lambda*t) is a time.

Each experiment is one `Experiment` record in `EXPERIMENTS`: its config
schema, the build of its library objects (with the cross-key checks), its
array estimate and its runner.  The build and the runner import the
experiment's layers when called, so a run loads only the layers and
libraries it uses.  No build or array estimate, and so no `validate`, loads
numpy: they are float arithmetic.  Only the collapse, ensemble and k-grid
runners load numpy, and give a numpy array, computed with numpy's overflow,
invalid value and division by zero raised as errors; the four closed-form
runs, `spin`, `records`, `measurement` and closed `decay`, compute in `math`
and `cmath` and give the table as rows of floats.  The rest of this module is
shared by every experiment: argument and config parsing, the array cap, the
writers and the summary envelope.

A run uses one BLAS thread: the module sets OPENBLAS_NUM_THREADS to 1 when
it is imported, before any run that uses numpy imports it, unless the
variable is already set, in which case the user's value holds.

Outputs: a data table (CSV by default, one leading t or x abscissa column,
floats at 17 significant digits so they round-trip exactly) and a JSON
summary with the resolved parameters, seed, version, the versions of python
and of numpy where the run loaded it, and key scalars.  The data table is
byte-identical across reruns with the same config and seed; the summary
additionally records wall time.

The process entry, `entry` (the `collapse-lab` script and `python -m
collapse_lab.cli`), freezes the collector once `main` has returned, so the
interpreter's exit skips its final passes over every object the run made.

Exit codes (README lists every case): 0 success, 2 configuration error
(a bad key or value, a model its layer refuses, an --out outside an existing
directory, or arrays above MAX_ARRAY_BYTES), 3 numerical-contract violation
(a non-finite result, a numpy floating-point error, a `math` overflow,
division by zero or domain error, a k-grid Chebyshev series that does not
truncate).  `validate` builds the same model objects the run
uses, so it refuses exactly the configs a run refuses with exit 2.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import json
import math
import os
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

# set before any run imports numpy, which loads OpenBLAS: no run's BLAS calls
# use a second thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import DomainError, __version__

__all__ = ["main", "ConfigError", "ExperimentConfig"]


class ConfigError(Exception):
    """Configuration file is malformed or violates an experiment schema."""


def _parser(convert, ok, must):
    """Parser of a value `convert(raw)` for which `ok` holds; the error says
    it must `must`."""
    def parse(raw: str):
        v = convert(raw)
        if not ok(v):
            raise ValueError(f"must {must}, got {raw}")
        return v

    return parse


_float = _parser(float, math.isfinite, "be finite")
_positive = _parser(float, lambda v: math.isfinite(v) and v > 0, "be positive")
_nonneg = _parser(float, lambda v: math.isfinite(v) and v >= 0, "be >= 0")
_fraction = _parser(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_int_pos = _parser(int, lambda v: v > 0, "be a positive integer")
_n_grid = _parser(int, lambda v: v >= 2, "be at least 2: the grid spans both endpoints")
_n_traj_mc = _parser(int, lambda v: v == 0 or v >= 2, "be 0 (no Monte Carlo) or at least 2")
_seed = _parser(int, lambda v: 0 <= v < 2**64, "be a 64-bit unsigned integer")


def _floats(raw: str) -> tuple[float, ...]:
    vals = tuple(_float(x) for x in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
        return raw

    return parse


#: cap on the estimated peak array memory of one run (2 GiB); a config whose
#: estimate (`Experiment.array_bytes`) exceeds it exits 2, naming the key,
#: before the runner is asked for the arrays
MAX_ARRAY_BYTES = 2**31
#: values formatted and written at a time by the output writers (about 1 MB
#: of row text), so the text never holds the whole table
_WRITE_VALUES = 2**13
#: the writers' peak: one block of values as Python floats and text (at most
#: 165 bytes a value under tracemalloc, charged as 192)
_WRITE_BYTES = 192 * _WRITE_VALUES


class Experiment(NamedTuple):
    """Everything this module knows of one experiment.

    schema: key -> (parser, required, default); "seed" is always accepted.
    build: parameters -> model, the run's library objects, built nowhere
      else; raises ConfigError on cross-key checks, and may reorder values.
    array_bytes: (parameters, model) -> estimated peak array bytes of a run
      by the count key sizing them; each table value is charged as its float
      plus the runner's temporaries, in whole floats as tracemalloc sees them.
    run: config -> (column names with units, table, summary scalars), from
      `cfg.model` as built; the table is a 2-D numpy float array or, from a
      runner that uses no numpy, a list of rows of floats.
    """

    schema: dict
    build: Callable
    array_bytes: Callable
    run: Callable


class ExperimentConfig:
    """Validated experiment parameters and their `model`: the library objects
    the experiment's `build` makes on construction; the run uses them as
    built."""

    def __init__(self, experiment, parameters, master_seed=0):
        self.experiment = experiment
        self.parameters = parameters
        self.master_seed = master_seed
        spec = EXPERIMENTS[experiment]
        self.model = spec.build(parameters)
        sizes = spec.array_bytes(parameters, self.model)
        total = sum(sizes.values()) + _WRITE_BYTES
        if total > MAX_ARRAY_BYTES:
            raise ConfigError(
                f"key {max(sizes, key=sizes.get)} asks for about "
                f"{total / 2**30:.3g} GiB of arrays, above the "
                f"{MAX_ARRAY_BYTES / 2**30:g} GiB cap"
            )

    @classmethod
    def from_file(cls, path, experiment=None) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        sections = parser.sections()
        if len(sections) != 1:
            raise ConfigError(
                f"config must contain exactly one experiment section, "
                f"found {sections}"
            )
        section = sections[0]
        if section not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment section [{section}]")
        if experiment is not None and section != experiment:
            raise ConfigError(
                f"config section [{section}] does not match experiment "
                f"{experiment!r}"
            )
        schema = {**EXPERIMENTS[section].schema, "seed": (_seed, False, 0)}
        raw = dict(parser[section])
        for key in raw:
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
        params = {}
        for key, (parse, required, default) in schema.items():
            if key in raw:
                try:
                    params[key] = parse(raw[key])
                except ValueError as exc:
                    raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
            elif required:
                raise ConfigError(f"missing required key '{key}' in [{section}]")
            else:
                params[key] = default
        seed = params.pop("seed")
        return cls(section, params, master_seed=seed)


# --- the experiments: each one's functions, then its record -----------------

#: the experiment records by config section, in the order the CLI lists them
EXPERIMENTS: dict[str, Experiment] = {}


def _numpy_runner(runner):
    """`runner` with numpy's overflow, invalid value and division by zero
    raised as FloatingPointError: a contract violation, not a warning."""
    def run(cfg):
        import numpy as np
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return runner(cfg)

    return run


def _grid(a: float, b: float, n: int) -> list[float]:
    """n >= 1 points from a to b, numpy.linspace(a, b, n)'s bit for bit:
    x_i = i*step + a, step = (b - a)/(n - 1) (x_i = i/(n - 1)*(b - a) + a
    where the step underflows to 0, as numpy does), the last point b; one
    point is 0*(b - a) + a."""
    if n == 1:
        return [0.0 * (b - a) + a]
    step = (b - a) / (n - 1)
    xs = [i * step + a if step else i / (n - 1) * (b - a) + a for i in range(n)]
    xs[-1] = b
    return xs


def _t_cal(p) -> float:
    """T_cal: the `t_cal` key, else sqrt(lambda*t) over the span from t0 (or 0)."""
    if "t_cal" in p:
        return p["t_cal"]
    return math.sqrt(p["lambda"] * (p["t_max"] - p.get("t0", 0.0)))


def _chunk_level_bytes(n_lev, n_traj, n_steps, floats, block_values=0) -> int:
    """The (level, trajectory, step) temporaries of one tile of the collapse
    pass, charged as `floats` floats per weight, and one block of the Monte
    Carlo moments that holds `block_values` floats per trajectory."""
    from .ensemble import _moment_block, _tile_shape
    rows, steps = _tile_shape(n_lev, n_traj, n_steps)
    block = block_values and _moment_block(block_values, n_traj)
    return 8 * (floats * n_lev * rows * steps + block_values * block)


def _build_levels(p, key, power):
    """(initial SpectralState, CollapseParams) of a config that gives one
    value v per level under `key`, of log-magnitude power*log(v/max v) before
    the state is normalized: a ratio to the largest value never overflows,
    and one that is 0 (a zero value, or one that underflows) gives a level of
    zero amplitude.  Sorts `energies` ascending, and `key` and `phases` with
    them: the output columns index levels by ascending energy, and the
    summary echoes that order."""
    from .engine import CollapseParams
    from .hilbert import EnergyLevel, SpectralState
    if len(p["energies"]) != len(p[key]):
        raise ConfigError(f"keys 'energies' and '{key}' must align")
    if len(set(p["energies"])) != len(p["energies"]):
        raise ConfigError("key 'energies' must not repeat values")
    top = max(p[key])
    if min(p[key]) < 0 or top == 0:
        raise ConfigError(f"key '{key}' must be nonnegative, not all zero")
    if p.get("phases") is not None and len(p["phases"]) != len(p["energies"]):
        raise ConfigError("keys 'energies' and 'phases' must align")
    order = sorted(range(len(p["energies"])), key=p["energies"].__getitem__)
    for k in ("energies", key, "phases"):
        if p.get(k) is not None:
            p[k] = tuple(p[k][i] for i in order)
    try:
        levels = tuple(EnergyLevel(float(e)) for e in p["energies"])
        log_m = tuple(power * math.log(r) if r > 0 else -math.inf
                      for r in (v / top for v in p[key]))
        ph = p.get("phases") or (0.0,) * len(levels)
        state0 = SpectralState(levels, log_m, ph).normalized()
    except DomainError as exc:
        raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
    return state0, CollapseParams(p["lambda"])


def _collapse_bytes(p, model):
    # the output table and the per-step arrays, then the level weights of one
    # pass tile, which peak at about four floats per weight (tracemalloc):
    # the runner releases each tile before the pass draws the next, so
    # nothing grows with n_traj
    n_lev = len(p["energies"])
    return {"'n_steps'": 24 * (2 + n_lev) * p["n_steps"],
            "'energies'": _chunk_level_bytes(n_lev, p["n_traj"], p["n_steps"], 4)}


@_numpy_runner
def _run_collapse(cfg):
    import numpy as np

    from .ensemble import _collapse_pass
    p, (state0, params) = cfg.parameters, cfg.model
    n_traj, n_steps = p["n_traj"], p["n_steps"]
    times = np.array(_grid(p["t_max"] / n_steps, p["t_max"], n_steps))
    n_lev = len(p["energies"])
    n_collapsed = np.zeros(n_steps, np.int64)
    weight_sums = np.zeros((n_steps, n_lev))
    for tile in _collapse_pass(state0, params, times, cfg.master_seed, n_traj):
        steps, w = tile[1], tile[3]
        n_collapsed[steps] += np.count_nonzero(w.max(axis=0) >= p["threshold"], axis=0)
        weight_sums[steps] += w.sum(axis=1).T
        del tile, w  # released before the pass draws the next tile
    frac, mean_w = n_collapsed / n_traj, weight_sums / n_traj
    cols = ["t (time)", "collapsed_fraction (dimensionless)"] + [
        f"mean_weight_E{i} (dimensionless)" for i in range(n_lev)
    ]
    summary = {
        "T_cal": _t_cal(p),
        "collapsed_fraction": float(frac[-1]),
        "n_traj": n_traj,
    }
    # final mean weight against the Born weight of the built state, in
    # binomial standard errors; a Born weight of 0 or 1 has no spread and gives 0
    born = np.exp(2.0 * np.asarray(state0.log_magnitudes))
    se = np.sqrt(born * (1.0 - born) / n_traj)
    z = np.divide(mean_w[-1] - born, se, out=np.zeros(n_lev), where=se > 0)
    summary.update((f"born_z_E{i}", float(v)) for i, v in enumerate(z))
    return cols, np.column_stack([times, frac, mean_w]), summary


EXPERIMENTS["collapse"] = Experiment(
    {"lambda": (_positive, True, None),
     "energies": (_floats, True, None),
     "weights": (_floats, True, None),
     "t_max": (_positive, True, None),
     "n_steps": (_int_pos, False, 50),
     "n_traj": (_int_pos, False, 200),
     "threshold": (_fraction, False, 0.999)},
    build=lambda p: _build_levels(p, "weights", 0.5),
    array_bytes=_collapse_bytes, run=_run_collapse)


def _ensemble_bytes(p, model):
    # the table, its times and one column of temporaries, with numpy's buffers
    # for the strided moduli, three of at most 2**13 floats; its column names
    # and pair temporaries, 210-250 bytes a level pair (tracemalloc), charged
    # as 256, and one one-step tile's level weights, about six floats per
    # weight, charged as seven, with one moment block of n_lev + 2 floats per
    # trajectory: moments are streamed in blocks, so nothing grows with n_traj
    n_lev = len(p["energies"])
    n_pairs = n_lev * (n_lev - 1) // 2
    return {"'n_t'": 8 * (p["n_t"] * (5 + n_pairs) + 3 * min(p["n_t"] * n_pairs, 2**13)),
            "'energies'": 256 * n_pairs + _chunk_level_bytes(n_lev, p["n_traj"], 1, 7, n_lev + 2)}


@_numpy_runner
def _run_ensemble(cfg):
    import numpy as np

    from .ensemble import _damped_moduli, ensemble_expectation_mc
    from .hilbert import ObservableMatrix
    p, (state0, params) = cfg.parameters, cfg.model
    times = np.array(_grid(0.0, p["t_max"], p["n_t"]))
    energies = state0.energies()
    iu = np.triu_indices(len(energies), 1)
    cols = ["t (time)", "mean_energy (energy)", "purity (dimensionless)"] + [
        f"offdiag_abs_{i}{j} (dimensionless)" for i, j in zip(*iu)
    ]
    # the moduli |rho_ij|, i < j, formed in the table; the diagonal, the
    # weights w, is time-invariant, so Tr(rho H) = w . E and
    # Tr(rho^2) = sum w^2 + 2 sum_{i<j} |rho_ij|^2, all einsum, not BLAS
    table = np.empty((len(times), len(cols)))
    w = _damped_moduli(state0, params, times, iu, table[:, 3:])
    table[:, 0] = times
    table[:, 1] = np.einsum("i,i->", w, energies)
    np.einsum("ri,ri->r", table[:, 3:], table[:, 3:], out=table[:, 2])
    table[:, 2] *= 2.0
    table[:, 2] += np.einsum("i,i->", w, w)
    summary = {
        "T_cal": _t_cal(p),
        "mean_energy": float(table[0, 1]),
    }
    if p["n_traj"]:
        mc, se = ensemble_expectation_mc(
            state0, params, p["t_max"], ObservableMatrix.hamiltonian(state0.levels),
            p["n_traj"], cfg.master_seed)
        summary["mc_mean_energy"] = mc
        summary["mc_standard_error"] = se
        # an ensemble with no spread (one level) has se = 0 and gives 0
        summary["mc_z_score"] = (mc - summary["mean_energy"]) / se if se > 0 else 0.0
    return cols, table, summary


EXPERIMENTS["ensemble"] = Experiment(
    {"lambda": (_positive, True, None),
     "energies": (_floats, True, None),
     "magnitudes": (_floats, True, None),
     "phases": (_floats, False, None),
     "t_max": (_positive, True, None),
     "n_t": (_n_grid, False, 100),
     "n_traj": (_n_traj_mc, False, 0)},
    build=lambda p: _build_levels(p, "magnitudes", 1.0),
    array_bytes=_ensemble_bytes, run=_run_ensemble)


#: a closed-form run's table row, a tuple of Python floats, with its entries in
#: the table's and the grid's lists: at most 140 bytes under tracemalloc (127
#: for `records`' pairs, 96 for `measurement`'s triples, whose t and B are the
#: grids' floats), charged as 144; the closed forms' temporaries are freed
#: point by point
_CLOSED_ROW_BYTES = 144


def _build_measurement(p):
    """The branch fixture at path `fixture`, else the packaged one of that
    name, and the collapse parameters."""
    from .engine import CollapseParams
    from .measurement import fixture_path, load_branch_fixture
    name = p["fixture"]
    path = Path(name)
    if not path.is_file():
        path = fixture_path(name)
    try:
        spec = load_branch_fixture(path)
    except OSError as exc:
        raise ConfigError(
            f"key 'fixture': no file or packaged fixture {name!r}"
        ) from exc
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"invalid value for key 'fixture': {exc}") from exc
    return spec, CollapseParams(p["lambda"])


def _measurement_bytes(p, model):
    # the table, then one point's ratio temporaries and the two branches'
    # cached 2*log m: four floats a level with their list or tuple entries,
    # 129 bytes under tracemalloc at 2e4 levels, charged as 136
    points = p["n_t"] * p["n_b"]
    return {"'n_t' x 'n_b'": _CLOSED_ROW_BYTES * points + 136 * len(model[0].energies)}


def _run_measurement(cfg):
    from .measurement import branch_weight_ratio
    p, (spec, params) = cfg.parameters, cfg.model
    cols = ["t (time)", "B (record)", "weight_ratio (dimensionless)"]
    bs = _grid(-p["b_max"], p["b_max"], p["n_b"])
    table = [(t, b, branch_weight_ratio(spec, params, t, b))
             for t in _grid(p["t_max"] / p["n_t"], p["t_max"], p["n_t"]) for b in bs]
    lo, hi = min(row[2] for row in table), max(row[2] for row in table)
    summary = {
        "shared_spectrum": spec.shared_spectrum,
        "ratio_min": lo,
        "ratio_max": hi,
        "ratio_spread_rel": hi / lo - 1.0,
    }
    return cols, table, summary


EXPERIMENTS["measurement"] = Experiment(
    {"fixture": (str, True, None),
     "lambda": (_positive, True, None),
     "t_max": (_positive, True, None),
     "n_t": (_int_pos, False, 20),
     "b_max": (_positive, True, None),
     "n_b": (_n_grid, False, 20)},
    build=_build_measurement, array_bytes=_measurement_bytes, run=_run_measurement)


#: (plus, minus) index ranges of the builtin record spectra on their shared
#: 1500-point grid; half_overlap shares 500 points, so its overlap is exactly 0.5
_RECORD_SPECTRA = {
    "disjoint": ((0, 750), (750, 1500)),
    "identical": ((0, 1500), (0, 1500)),
    "half_overlap": ((0, 1000), (500, 1500)),
}


def _build_records(p):
    """The `RecordScenario` of the builtin `spectra` pair, with equal weights
    on each of its `_RECORD_SPECTRA` index ranges."""
    from .hilbert import DiscreteSpectrum
    from .records import RecordScenario
    if p["b_plus"] == p["b_minus"]:
        raise ConfigError("keys 'b_plus' and 'b_minus' must differ")
    if p["t_max"] <= p["t0"]:
        raise ConfigError("key 't_max' must exceed 't0'")
    n = 1500
    grid = tuple(i * 1e-3 for i in range(n))
    plus, minus = (
        DiscreteSpectrum(grid, (0.0,) * lo + (1.0 / (hi - lo),) * (hi - lo) + (0.0,) * (n - hi))
        for lo, hi in _RECORD_SPECTRA[p["spectra"]])
    return RecordScenario(plus, minus, p["b_plus"], p["b_minus"], p["lambda"], p["t0"])


def _run_records(cfg):
    from .records import record_violation_bound
    p, scenario = cfg.parameters, cfg.model
    dt0 = (p["t_max"] - p["t0"]) / p["n_t"]
    ts = _grid(p["t0"] + dt0, p["t_max"], p["n_t"])
    cols = ["t (time)", "record_bound (dimensionless)"]
    bound, sup = record_violation_bound(scenario, ts)
    summary = {"bound_sup": sup, "T_cal": _t_cal(p)}
    return cols, list(zip(ts, bound)), summary


EXPERIMENTS["records"] = Experiment(
    {"spectra": (_choice("disjoint", "identical", "half_overlap"), True, None),
     "lambda": (_positive, True, None),
     "b_plus": (_float, True, None),
     "b_minus": (_float, True, None),
     "t0": (_nonneg, False, 0.0),
     "t_max": (_positive, True, None),
     "n_t": (_int_pos, False, 100)},
    build=_build_records, run=_run_records,
    array_bytes=lambda p, model: {"'n_t'": _CLOSED_ROW_BYTES * p["n_t"]})


def _build_spin(p):
    from .spin import SpinModelParams
    try:
        sp = SpinModelParams(p["a"], p["b"], p["epsilon"], p["sigma"], p["t_cal"])
    except DomainError as exc:
        raise ConfigError(f"keys 'a' and 'b': {exc}") from exc
    if p["s_min"] is None:
        if p["s_max"] <= 0:
            raise ConfigError("key 's_max' must be positive when 's_min' is not given")
        p["s_min"] = -p["s_max"]
    if p["s_min"] >= p["s_max"]:
        raise ConfigError("key 's_min' must be below 's_max'")
    return sp


def _run_spin(cfg):
    from .spin import sigma1_collapsed, sigma1_standard
    p, sp = cfg.parameters, cfg.model
    cols = [
        "t (time)",
        "sigma1_standard (dimensionless)",
        "sigma1_collapsed (dimensionless)",
    ]
    table = [(s, sigma1_standard(s, sp), sigma1_collapsed(s, sp))
             for s in _grid(p["s_min"], p["s_max"], p["n_s"])]
    summary = {"envelope": sp.envelope, "epsilon_T_cal": p["epsilon"] * _t_cal(p)}
    return cols, table, summary


EXPERIMENTS["spin"] = Experiment(
    {"a": (_float, True, None),
     "b": (_float, True, None),
     "epsilon": (_positive, True, None),
     "sigma": (_positive, True, None),
     "t_cal": (_nonneg, False, 0.0),
     "s_min": (_float, False, None),
     "s_max": (_float, True, None),
     "n_s": (_n_grid, False, 200)},
    build=_build_spin, run=_run_spin,
    array_bytes=lambda p, model: {"'n_s'": _CLOSED_ROW_BYTES * p["n_s"]})


#: the keys that one decay mode alone reads, with their defaults there; their
#: schema default is None, so a key given for the other mode is told apart
_DECAY_MODE_KEYS = {
    "closed": {"t_cal": 0.0, "n_s": 200},
    "kgrid": {"x0": 0.0, "n_modes": 4096, "half_width": 40.0, "dt": 5e-4,
              "record_every": 20, "packet": "decay"}}


def _build_decay(p):
    """`DecayModelParams` and, in k-grid mode, the `KGrid`; kgrid's own
    checks decide, so a config accepted here passes `integrate_kgrid`'s, and
    each refusal names the key it tests.  A key its mode does not read is
    refused; every absent mode key takes its default, echoed in the summary."""
    for mode, defaults in _DECAY_MODE_KEYS.items():
        for key, default in defaults.items():
            if p[key] is None:
                p[key] = default
            elif mode != p["mode"]:
                raise ConfigError(f"key '{key}' is not read in mode = {p['mode']}")
    from .decay import DecayModelParams
    dp = DecayModelParams(p["epsilon"], p["gamma"], p["sigma"], p["x0"], p["t_cal"])
    if p["mode"] == "closed":
        return dp, None
    from .kgrid import KGrid, check_grid, check_packet, kgrid_span
    key = "n_modes"
    try:
        KGrid(0.0, 1.0, p["n_modes"], p["dt"])  # the n_modes check alone
        key = "half_width"
        grid = KGrid.for_params(dp, p["half_width"], p["n_modes"], p["dt"])
        check_grid(dp, grid)
        key = "packet"
        check_packet(dp, grid, p["packet"])
        key = "s_max"
        kgrid_span(dp, grid, p["packet"], p["s_max"])
        key = "record_every"
        kgrid_span(dp, grid, p["packet"], p["s_max"], p["record_every"])
    except DomainError as exc:
        raise ConfigError(f"invalid value for key '{key}': {exc}") from exc
    return dp, grid


def _decay_bytes(p, model):
    if p["mode"] == "closed":
        return {"'n_s'": _CLOSED_ROW_BYTES * p["n_s"]}
    # k-grid: grid, coupling, state, three Chebyshev recurrence vectors and
    # the accumulated state, with their temporaries, per mode; times, Bessel
    # arguments and three columns per record; and one record block's Bessel
    # factors and products, n the orders computed for a segment's series
    from .kgrid import RECORD_BLOCK, chebyshev_size, kgrid_span
    dp, grid = model
    _, span, n_steps = kgrid_span(dp, grid, p["packet"], p["s_max"])
    *_, n = chebyshev_size(grid.k_min, grid.k_max, dp.g, dp.epsilon, span)
    n_rec = n_steps // p["record_every"] + 1
    return {"'n_modes'": 8 * 25 * p["n_modes"],
            "'record_every'": 8 * 12 * n_rec,
            "'s_max'": 8 * RECORD_BLOCK * 2 * max(n, 32)}


def _run_decay(cfg):
    p, (dp, grid) = cfg.parameters, cfg.model
    if grid is not None:
        return _run_kgrid(cfg)
    from .decay import occupation, occupation_collapsed
    cols = [
        "t (time)",
        "occupation (dimensionless)",
        "occupation_collapsed (dimensionless)",
    ]
    table = [(s, occupation(s, dp), occupation_collapsed(s, dp))
             for s in _grid(-p["s_max"], p["s_max"], p["n_s"])]
    summary = {"T_cal": _t_cal(p), "Gamma_T_cal": p["gamma"] * _t_cal(p)}
    return cols, table, summary


@_numpy_runner
def _run_kgrid(cfg):
    import numpy as np

    from .kgrid import integrate_kgrid
    p, (dp, grid) = cfg.parameters, cfg.model
    res = integrate_kgrid(dp, grid, p["packet"], p["s_max"], p["record_every"])
    cols = [
        "t (time)",
        "occupation (dimensionless)",
        "total_probability (dimensionless)",
    ]
    table = np.column_stack([res.times, res.occupation, res.total_probability])
    span = res.times[-1] - res.times[0]
    summary = {
        "probability_drift_per_unit_time": res.norm_drift / span,
        "recurrence_time": grid.recurrence_time,
        "chebyshev_terms": res.chebyshev_terms,
        "chebyshev_tail": res.chebyshev_tail,
        "chebyshev_matvecs": res.chebyshev_matvecs,
    }
    return cols, table, summary


EXPERIMENTS["decay"] = Experiment(
    {"epsilon": (_positive, True, None),
     "gamma": (_positive, True, None),
     "sigma": (_positive, True, None),
     "x0": (_float, False, None),
     "t_cal": (_nonneg, False, None),
     "mode": (_choice("closed", "kgrid"), False, "closed"),
     "s_max": (_positive, True, None),
     "n_s": (_n_grid, False, None),
     "n_modes": (_int_pos, False, None),
     "half_width": (_positive, False, None),
     "dt": (_positive, False, None),
     "record_every": (_int_pos, False, None),
     "packet": (_choice("decay", "excitation"), False, None)},
    build=_build_decay, array_bytes=_decay_bytes, run=_run_decay)

#: each experiment's runner; `run` calls it through this table, so a caller
#: can replace or wrap one runner here
RUNNERS = {name: spec.run for name, spec in EXPERIMENTS.items()}


# --- output -----------------------------------------------------------------


#: one table value: a float at 17 significant digits, which round-trips exactly
_FMT = "{:.17g}"


def _row_blocks(table, sep, head="", tail=""):
    """The table's rows as text, `_WRITE_VALUES` values at a time: each row is
    head, its values as `_FMT` joined by sep, and tail, in one `str.format`
    (a format call per value took a fifth longer on 3e6 values).  A numpy
    table becomes Python floats a block at a time, never whole."""
    width = len(table[0])
    fmt = (head + sep.join([_FMT] * width) + tail).format
    n = max(1, _WRITE_VALUES // width)
    for i in range(0, len(table), n):
        rows = table[i:i + n]
        yield [fmt(*row) for row in (rows.tolist() if hasattr(rows, "tolist") else rows)]


def write_csv(path, cols, table):
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for rows in _row_blocks(table, ","):
            f.write("\n".join(rows) + "\n")


def write_json(path, doc, cols, table):
    """`doc` with "columns" and "rows" (the table, at least one row, as `_FMT`
    strings) added, byte for byte as `json.dumps(indent=2)` would write it,
    the rows streamed."""
    head = _dumps({**doc, "columns": cols, "rows": []})
    with open(path, "w") as f:
        f.write(head.removesuffix("[]\n}") + "[\n")
        sep = ""
        for rows in _row_blocks(table, '",\n      "', '    [\n      "', '"\n    ]'):
            f.write(sep + ",\n".join(rows))
            sep = ",\n"
        f.write("\n  ]\n}\n")


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, default=float, allow_nan=False)


def _check_finite(cols, table, summary):
    """No run may report a non-finite number as a result."""
    for key, v in summary.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainError(f"summary scalar {key!r} is not finite: {v}")
    if hasattr(table, "tolist"):  # a numpy table, whose runner loaded numpy
        import numpy as np
        bad = np.argwhere(~np.isfinite(table))
        j = bad[0][1] if len(bad) else None
    else:
        j = next((j for row in table for j, v in enumerate(row)
                  if not math.isfinite(v)), None)
    if j is not None:
        raise DomainError(f"column {cols[j]!r} holds non-finite values")


def run(cfg: ExperimentConfig, output_path=None, output_format="csv") -> int:
    start = time.perf_counter()
    cols, table, summary = RUNNERS[cfg.experiment](cfg)
    wall = time.perf_counter() - start
    _check_finite(cols, table, summary)
    out = Path(output_path or f"{cfg.experiment}_out.{output_format}")
    # the interpreter's version, and numpy's where it is loaded: no run
    # imports another library
    versions = {"python": ".".join(map(str, sys.version_info[:3]))}
    if (np := sys.modules.get("numpy")) is not None:
        versions["numpy"] = np.__version__
    doc = {"experiment": cfg.experiment, "parameters": dict(cfg.parameters),
           "seed": cfg.master_seed, "version": f"collapse-lab-v{__version__}",
           "versions": versions, "wall_time_s": wall, "scalars": summary}
    if output_format == "csv":
        write_csv(out, cols, table)
        out.with_suffix(".summary.json").write_text(_dumps(doc) + "\n")
    else:
        write_json(out, doc, cols, table)
    print(f"wrote {out}")
    return 0


def validate(path) -> int:
    cfg = ExperimentConfig.from_file(path)
    # the k-grid oracle applies no collapse smearing, so it has no T_cal
    kgrid = cfg.parameters.get("mode") == "kgrid"
    tcal = None if kgrid else _t_cal(cfg.parameters)
    if not (kgrid or math.isfinite(tcal)):
        raise DomainError(f"derived T_cal is not finite: {tcal}")
    print(f"experiment: {cfg.experiment}")
    for key, val in sorted(cfg.parameters.items()):
        print(f"  {key} = {val}")
    print(f"  seed = {cfg.master_seed}")
    if not kgrid:
        source = "key 't_cal'" if "t_cal" in cfg.parameters else "derived, sqrt(lambda*t)"
        print(f"T_cal ({source}) = {_FMT.format(tcal)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="Energy-driven collapse experiments on finite spectral models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    vp = sub.add_parser("validate", help="check a config without running it")
    vp.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            return validate(args.config)
        cfg = ExperimentConfig.from_file(args.config, experiment=args.command)
        if args.seed is not None:
            try:
                cfg.master_seed = _seed(args.seed)
            except ValueError as exc:
                raise ConfigError(f"invalid value for --seed: {exc}") from exc
        if args.out is not None:
            out = Path(args.out)
            if out.is_dir() or not out.parent.is_dir():
                raise ConfigError(
                    f"--out {args.out!r} must name a file in an existing directory"
                )
        return run(cfg, args.out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"numerical contract violated: overflow: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, ValueError) as exc:
        # DomainError, numpy's FloatingPointError, and math's
        # ZeroDivisionError and domain error (a ValueError)
        print(f"numerical contract violated: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """`main`, then `gc.freeze()`: the interpreter's exit then skips the
    collector's final passes over every object the run made (about 20 ms
    of a run that loaded numpy); atexit handlers and stream flushes still
    run.  The process entry only: `main` itself never freezes, since tests
    call it in-process."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
