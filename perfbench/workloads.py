"""Seeded workloads for the collapse-lab CLI benchmark, and their output checks.

Each workload is a list of CLI invocations (one "pass") built from a
workload seed; the program sees only the generated config and ``--seed``.
The checks test physics that holds for any random-variate stream, so a
change that re-orders or batches the variates still passes them.

Why these workloads:

* collapse_mc  -- per-trajectory `SpectralState` collapse sampler, many tiny
  steps; exercises hilbert/engine/rng, no `_kernels` or decay work.
* ensemble_mc  -- one wide batch through the numpy collapse kernel, with
  per-trajectory Philox variates; predicts no change from collapse-only work.
* kgrid_decay  -- the shipped k-grid RK4 oracle, deterministic; the only
  workload that runs `decay.integrate_kgrid` and `_kernels.kgrid_rk4`.
* closed_forms -- four cheap shipped configs, so import dominates; the only
  workload for spin, records, measurement and the closed-form decay.
"""

from __future__ import annotations

import configparser
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["WORKLOADS", "Invocation", "Workload", "build", "check_invocation"]


@dataclass
class Invocation:
    """One `collapse-lab <experiment> --config <config>` run and its check."""

    experiment: str
    config: Path
    out: Path
    check: object  # (header, rows, summary, params) -> list of problems

    def argv(self, seed: int) -> list[str]:
        return [self.experiment, "--config", str(self.config),
                "--seed", str(seed), "--out", str(self.out)]


@dataclass
class Workload:
    name: str
    seed: int
    unit: str
    work_units: int
    invocations: list = field(default_factory=list)


# --- output parsing and shared checks ---------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def read_outputs(inv: Invocation):
    """Return (header, rows, summary) or raise ValueError with the problem."""
    try:
        text = inv.out.read_text()
        summary_text = inv.out.with_suffix(".summary.json").read_text()
    except OSError as exc:
        raise ValueError(f"missing output: {exc}") from exc
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("CSV has no data rows")
    header = lines[0].split(",")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        vals = [float(v) for v in line.split(",")]
        if len(vals) != len(header):
            raise ValueError(f"CSV line {i} has {len(vals)} fields, header {len(header)}")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"non-finite value on CSV line {i}")
        rows.append(vals)
    summary = json.loads(summary_text, parse_constant=_reject_constant)
    return header, rows, summary


def _params(config: Path) -> dict:
    parser = configparser.ConfigParser()
    parser.read(config)
    (section,) = parser.sections()
    return dict(parser[section])


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.replace(",", " ").split()]


def _column(header, rows, prefix):
    idx = [i for i, name in enumerate(header) if name.startswith(prefix)]
    if len(idx) != 1:
        raise ValueError(f"expected one column starting {prefix!r}, found {len(idx)}")
    return [r[idx[0]] for r in rows]


def check_invocation(inv: Invocation) -> list[str]:
    """All problems with one invocation's outputs; empty means it passed."""
    try:
        header, rows, summary = read_outputs(inv)
        return list(inv.check(header, rows, summary, _params(inv.config)))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{inv.experiment}: {exc}"]


# --- collapse_mc ------------------------------------------------------------

Z_MAX = 5.0


def check_collapse(header, rows, summary, p):
    """Final mean weights match the Born weights (ascending energy) to 5 SE."""
    energies = _floats(p["energies"])
    raw_w = _floats(p["weights"])
    n_traj = int(p["n_traj"])
    born = [w / sum(raw_w) for _, w in sorted(zip(energies, raw_w))]
    cols = [i for i, name in enumerate(header) if name.startswith("mean_weight_")]
    if len(cols) != len(born):
        return [f"collapse: {len(cols)} mean_weight columns for {len(born)} levels"]
    if len(rows) != int(p["n_steps"]):
        return [f"collapse: {len(rows)} rows, expected {p['n_steps']}"]
    problems = []
    for level, (col, w) in enumerate(zip(cols, born)):
        se = math.sqrt(w * (1.0 - w) / n_traj)
        z = (rows[-1][col] - w) / se
        if abs(z) > Z_MAX:
            problems.append(f"collapse: level {level} mean weight z = {z:.2f}")
    return problems


def build_collapse(seed: int, workdir: Path, root: Path) -> Workload:
    rng = random.Random(f"collapse_mc:{seed}")
    levels = []
    e = rng.uniform(-1.0, 1.0)
    for _ in range(4):
        levels.append(e)
        e += rng.uniform(0.5, 1.0)
    rng.shuffle(levels)  # written in the order drawn, not sorted
    raw = [rng.uniform(0.1, 1.0) for _ in levels]
    weights = [w / sum(raw) for w in raw]
    config = workdir / "collapse_mc.ini"
    config.write_text(
        "[collapse]\n"
        "lambda = 1.0\n"
        f"energies = {', '.join(repr(x) for x in levels)}\n"
        f"weights = {', '.join(repr(x) for x in weights)}\n"
        "t_max = 8.0\n"
        "n_steps = 40\n"
        "n_traj = 200\n"
        "threshold = 0.999\n"
        f"seed = {seed}\n"
    )
    inv = Invocation("collapse", config, workdir / "collapse_mc.csv", check_collapse)
    return Workload("collapse_mc", seed, "level-steps", 200 * 40 * 4, [inv])


# --- ensemble_mc ------------------------------------------------------------

OFFDIAG_TOL = 1e-12


def check_ensemble(header, rows, summary, p):
    """MC mean energy within 5 SE of sum(w E); off-diagonals follow damping."""
    lam = float(p["lambda"])
    order = sorted(zip(_floats(p["energies"]), _floats(p["magnitudes"])))
    energies = [e for e, _ in order]
    norm = math.sqrt(sum(m * m for _, m in order))
    mags = [m / norm for _, m in order]
    exact = sum(m * m * e for e, m in zip(energies, mags))
    scalars = summary["scalars"]
    mc, se = scalars["mc_mean_energy"], scalars["mc_standard_error"]
    problems = []
    if not (se > 0 and abs(mc - exact) <= Z_MAX * se):
        problems.append(f"ensemble: MC {mc} vs exact {exact}, SE {se}")
    ts = _column(header, rows, "t ")
    n = len(energies)
    for i in range(n):
        for j in range(i + 1, n):
            col = _column(header, rows, f"offdiag_abs_{i}{j} ")
            de2 = (energies[j] - energies[i]) ** 2
            worst = max(
                abs(v - mags[i] * mags[j] * math.exp(-0.5 * lam * t * de2))
                for t, v in zip(ts, col)
            )
            if worst > OFFDIAG_TOL:
                problems.append(f"ensemble: offdiag_{i}{j} off by {worst:.3g}")
    return problems


def build_ensemble(seed: int, workdir: Path, root: Path) -> Workload:
    rng = random.Random(f"ensemble_mc:{seed}")
    levels = []
    e = rng.uniform(-1.0, 1.0)
    for _ in range(3):
        levels.append(e)
        e += rng.uniform(0.5, 1.5)
    rng.shuffle(levels)
    raw = [rng.uniform(0.3, 1.0) for _ in levels]
    norm = math.sqrt(sum(m * m for m in raw))
    mags = [m / norm for m in raw]
    phases = [rng.uniform(-math.pi, math.pi) for _ in levels]
    n_traj = 100_000
    config = workdir / "ensemble_mc.ini"
    config.write_text(
        "[ensemble]\n"
        "lambda = 0.5\n"
        f"energies = {', '.join(repr(x) for x in levels)}\n"
        f"magnitudes = {', '.join(repr(x) for x in mags)}\n"
        f"phases = {', '.join(repr(x) for x in phases)}\n"
        "t_max = 6.0\n"
        "n_t = 120\n"
        f"n_traj = {n_traj}\n"
        f"seed = {seed}\n"
    )
    inv = Invocation("ensemble", config, workdir / "ensemble_mc.csv", check_ensemble)
    return Workload("ensemble_mc", seed, "trajectories", n_traj, [inv])


# --- kgrid_decay ------------------------------------------------------------

KGRID_REL_TOL = 0.05
KGRID_DRIFT_PER_TIME = 1e-8


def check_kgrid(header, rows, summary, p):
    """|beta|^2 within 5 % of exp(-Gamma s); probability drift <= 1e-8/time."""
    gamma = float(p["gamma"])
    ts = _column(header, rows, "t ")
    occ = _column(header, rows, "occupation ")
    prob = _column(header, rows, "total_probability ")
    problems = []
    worst = max(abs(o - math.exp(-gamma * t)) / math.exp(-gamma * t)
                for t, o in zip(ts, occ))
    if worst > KGRID_REL_TOL:
        problems.append(f"kgrid: |beta|^2 off exp(-Gamma s) by {worst:.3%}")
    drift = abs(prob[-1] - prob[0]) / (ts[-1] - ts[0])
    if drift > KGRID_DRIFT_PER_TIME:
        problems.append(f"kgrid: probability drift {drift:.3g} per unit time")
    return problems


def build_kgrid(seed: int, workdir: Path, root: Path) -> Workload:
    config = root / "configs" / "decay_kgrid.ini"
    p = _params(config)
    n_steps = round(float(p["s_max"]) / float(p["dt"]))
    inv = Invocation("decay", config, workdir / "kgrid_decay.csv", check_kgrid)
    return Workload("kgrid_decay", seed, "mode-steps", int(p["n_modes"]) * n_steps, [inv])


# --- closed_forms -----------------------------------------------------------

RATIO_TOL = 1e-12
SPIN_TOL = 1e-8


def check_spin(header, rows, summary, p):
    """For s > 6 the collapsed precession is exp(-(eps T)^2/2) cos(eps s)."""
    eps, tcal = float(p["epsilon"]), float(p["t_cal"])
    ts = _column(header, rows, "t ")
    col = _column(header, rows, "sigma1_collapsed ")
    env = math.exp(-0.5 * (eps * tcal) ** 2)
    late = [(s, v) for s, v in zip(ts, col) if s > 6.0]
    if not late:
        return ["spin: no rows with s > 6"]
    worst = max(abs(v - env * math.cos(eps * s)) for s, v in late)
    return [f"spin: late sigma1 off by {worst:.3g}"] if worst > SPIN_TOL else []


def check_records(header, rows, summary, p):
    """The record bound is nondecreasing in t and never exceeds 0.5."""
    col = _column(header, rows, "record_bound ")
    problems = []
    if any(b < a for a, b in zip(col, col[1:])):
        problems.append("records: bound decreases")
    if max(col) > 0.5:
        problems.append(f"records: bound {max(col)!r} exceeds 0.5")
    return problems


def check_measurement(header, rows, summary, p):
    """Shared-spectrum branches keep the weight ratio at exactly 4."""
    col = _column(header, rows, "weight_ratio ")
    worst = max(abs(v - 4.0) for v in col)
    return [f"measurement: ratio off 4 by {worst:.3g}"] if worst > RATIO_TOL else []


def check_decay_closed(header, rows, summary, p):
    """Occupations are probabilities."""
    bad = [v for r in rows for v in r[1:] if not 0.0 <= v <= 1.0]
    return [f"decay closed: {len(bad)} occupations outside [0, 1]"] if bad else []


CLOSED_FORMS = (
    ("spin", "spin_suppression", check_spin),
    ("records", "records_half_overlap", check_records),
    ("measurement", "measurement_shared", check_measurement),
    ("decay", "decay_closed", check_decay_closed),
)


def build_closed(seed: int, workdir: Path, root: Path) -> Workload:
    invs, rows = [], 0
    for experiment, stem, check in CLOSED_FORMS:
        config = root / "configs" / f"{stem}.ini"
        p = _params(config)
        n = int(p.get("n_s") or p.get("n_t") or 0)
        if experiment == "measurement":
            n = int(p["n_t"]) * int(p["n_b"])
        rows += n
        invs.append(Invocation(experiment, config, workdir / f"{stem}.csv", check))
    return Workload("closed_forms", seed, "rows", rows, invs)


WORKLOADS = {
    "collapse_mc": build_collapse,
    "ensemble_mc": build_ensemble,
    "kgrid_decay": build_kgrid,
    "closed_forms": build_closed,
}


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    """Generate workload `name` for `seed`, writing any configs to `workdir`."""
    return WORKLOADS[name](seed, Path(workdir), Path(root))
